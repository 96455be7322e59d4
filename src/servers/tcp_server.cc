#include "src/servers/tcp_server.h"

#include <algorithm>
#include <cstring>

#include "src/net/pbuf.h"

namespace newtos::servers {

TcpServer::TcpServer(NodeEnv* env, sim::SimCore* core, net::TcpOptions opts,
                     std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for,
                     int shard, int shard_count)
    : Server(env, tcp_shard_name(shard), core),
      opts_(opts),
      src_for_(std::move(src_for)),
      shard_(shard),
      shard_count_(shard_count),
      siblings_(transport_shard_siblings('T', shard, shard_count)) {}

TcpServer::~TcpServer() {
  drop_engine(engine_);
  release_in_flight(pool_, tx_descs_);
}

bool TcpServer::is_sibling(const std::string& peer) const {
  return std::find(siblings_.begin(), siblings_.end(), peer) !=
         siblings_.end();
}

void TcpServer::build_writer() {
  if (!opts_.checkpoint) return;
  CheckpointWriter::Env we;
  we.pool = pool_;
  we.pools = env().pools;
  we.watermark = opts_.ckpt_watermark;
  we.send_store = [this](const chan::Message& m, sim::Context& ctx) {
    return send_to(kStoreName, m, ctx);
  };
  we.new_store_req = [this] { return request_db().add(kStoreName, 0, {}); };
  we.defer = [this](std::function<void(sim::Context&)> fn) {
    post_control(std::move(fn), 100);
  };
  we.charge = [this](sim::Cycles c) {
    if (in_handler()) charge(cur(), c);
  };
  we.drop_checkpoint = [this](net::SockId s) {
    if (engine_) engine_->drop_checkpoint(s);
  };
  writer_ = std::make_unique<CheckpointWriter>(std::move(we));
}

void TcpServer::build_engine() {
  net::TcpEngine::Env e;
  e.clock = clock();
  e.timers = timers();
  e.pools = env().pools;
  e.buf_pool = pool_;
  e.src_for = src_for_;
  e.ckpt = writer_.get();
  e.shard = shard_;
  e.shard_count = shard_count_;
  if (shard_count_ > 1) {
    e.sock_base = net::sock_shard_base(shard_);
    e.sock_span = net::kSockShardSpan;
  }
  e.output = [this](net::TxSeg&& seg, std::uint64_t cookie) {
    sim::Context& ctx = cur();
    // Segmentation work is charged here, per emitted segment — with TSO one
    // superframe covers ~42 MSS of payload, which is the whole point.
    charge(ctx, sim().costs().tcp_segment_proc + 150);
    chan::RichPtr desc =
        net::pack_chain(*pool_, seg.l4_header, seg.payload, seg.offload);
    if (!desc.valid()) {
      engine_->seg_done(cookie, false);
      return;
    }
    chan::Message m;
    m.opcode = kIpTx;
    m.req_id = cookie;
    m.ptr = desc;
    m.arg0 = pack_addrs(seg.src, seg.dst);
    m.arg1 = seg.protocol;
    if (!send_to(kIpName, m, ctx)) {
      pool_->release(desc);
      engine_->seg_done(cookie, false);  // IP down: RTO recovers
      return;
    }
    tx_descs_.emplace(cookie, desc);
  };
  e.rx_done = [this](const chan::RichPtr& frame) {
    chan::Message m;
    m.opcode = kL4RxDone;
    m.ptr = frame;
    send_to(kIpName, m, cur());
  };
  e.notify = [this](net::SockId s, net::TcpEvent ev) {
    if (env().sock_event)
      env().sock_event(shard_, 'T', s, static_cast<std::uint8_t>(ev));
  };
  engine_ = std::make_unique<net::TcpEngine>(std::move(e), opts_);
}

void TcpServer::enable_rx_fastpath(net::IpFastPath::Config cfg,
                                   std::vector<std::string> driver_names) {
  rx_fastpath_ = true;
  fastpath_cfg_ = std::move(cfg);
  fastpath_drivers_ = std::move(driver_names);
}

void TcpServer::build_fastpath() {
  net::IpFastPath::Env fe;
  fe.pools = env().pools;
  fe.deliver = [this](std::uint8_t, net::L4Packet&& pkt) {
    // Same per-segment charging as the kL4Rx leg: data segments cost more
    // than pure ACKs.
    if (in_handler()) {
      charge(cur(), pkt.l4_length > net::kTcpHeaderLen
                        ? sim().costs().tcp_segment_proc
                        : sim().costs().tcp_ack_proc);
    }
    engine_->input(std::move(pkt));
  };
  fe.deliver_agg = [this](net::L4AggPacket&& agg) {
    // The kL4RxAgg mirror: the connection machinery is charged once for the
    // whole GRO aggregate.
    if (in_handler()) charge(cur(), sim().costs().tcp_segment_proc);
    engine_->input_agg(std::move(agg.segs));
  };
  fe.pf_check = [this](const net::PfQuery& q, std::uint64_t cookie) {
    send_to(kPfName, make_pf_check(cookie, q), cur());
    // PF down: the query stays pending; resubmit_pf on its return repeats
    // it and the held frames drain then.
  };
  fe.fallback = [this](int ifindex, const chan::RichPtr& frame) {
    chan::Message m;
    m.opcode = kFastFallback;
    m.ptr = frame;
    m.arg1 = static_cast<std::uint64_t>(ifindex);
    if (!send_to(kIpName, m, cur())) {
      // IP is down: nobody is left to judge the frame — receive pool.
      chan::Pool* p = env().pools->find(frame.pool);
      if (p != nullptr) p->release(frame);
    }
  };
  fe.release = [this](const chan::RichPtr& frame) {
    chan::Pool* p = env().pools->find(frame.pool);
    if (p != nullptr) p->release(frame);
  };
  fastpath_ = std::make_unique<net::IpFastPath>(std::move(fe), fastpath_cfg_);
}

void TcpServer::start(bool restart) {
  // Checkpointing keeps every established connection's TCB page plus its
  // parked queue chunks pool-resident; sized for ~2k concurrent checkpointed
  // connections (the directory pages past 1024 entries, see checkpoint.h).
  pool_ = env().get_pool(name() + ".buf",
                         opts_.checkpoint ? 160u << 20 : 32u << 20);
  for (const char* p : {kIpName, kStoreName, kPfName, kSyscallName}) {
    expose_in_queue(p, 1024);
    connect_out(p);
  }
  for (const auto& sib : siblings_) {
    expose_in_queue(sib, 256);
    connect_out(sib);
  }
  if (env().knobs.supervision) {
    expose_in_queue(kRsName, 64);
    connect_out(kRsName);
  }
  if (rx_fastpath_) {
    // One RX queue per driver homes on this shard: the drivers post those
    // frames here directly (kDrvRxFast), so each needs an in-queue.
    for (const auto& d : fastpath_drivers_) expose_in_queue(d, 512);
  }
  build_writer();
  build_engine();
  if (rx_fastpath_) build_fastpath();
  if (restart) {
    post_control([this](sim::Context& ctx) {
      if (!store_get(kKeyTcpListeners, ctx)) announce(true);
    });
  } else {
    post_control([this](sim::Context&) { announce(false); });
  }
}

void TcpServer::on_killed() {
  // The dying process cannot send done-reports; queued receive frames go
  // straight back to their owning pool.  In-flight descriptor chunks leak,
  // bounded per crash.  Checkpointed connections first PARK their queue
  // references: they stay live in the pools, recorded in the loan ledger
  // and the checkpoint pages, ready for the next incarnation to re-adopt.
  if (engine_ && opts_.checkpoint) engine_->park_checkpointed();
  writer_.reset();  // bookkeeping dies with the process; the pages survive
  fastpath_.reset();  // held frames (pending PF verdicts) back to the pool
  drop_engine(engine_);
  tx_descs_.clear();
  store_gets_.clear();
  ckpt_pending_ = 0;
  ckpt_socks_seen_.clear();
  ckpt_fetch_queue_.clear();
  ckpt_inflight_ = 0;
}

bool TcpServer::store_get(std::uint32_t key, sim::Context& ctx) {
  chan::Message m;
  m.opcode = kStoreGet;
  m.arg0 = key;
  m.req_id = request_db().add(kStoreName, 0, {});
  if (!send_to(kStoreName, m, ctx)) {
    request_db().complete(m.req_id);
    return false;
  }
  store_gets_[m.req_id] = key;
  return true;
}

void TcpServer::pump_ckpt_fetches(sim::Context& ctx) {
  while (!ckpt_fetch_queue_.empty() && ckpt_inflight_ < kCkptFetchWindow) {
    // A full store queue just ends this round: every record reply pumps
    // again, and with the window under half the queue capacity at least
    // one fetch is always in flight to trigger that reply.
    if (!store_get(ckpt_fetch_queue_.front(), ctx)) break;
    ckpt_fetch_queue_.pop_front();
    ++ckpt_inflight_;
  }
}

void TcpServer::finish_restore(sim::Context& ctx) {
  (void)ctx;
  ckpt_socks_seen_.clear();
  ckpt_fetch_queue_.clear();
  ckpt_inflight_ = 0;
  if (engine_) engine_->resync_restored();
  announce(true);
}

void TcpServer::save_listeners(sim::Context& ctx) {
  const auto bytes =
      net::TcpEngine::serialize_listeners(engine_->listeners());
  chan::RichPtr chunk =
      pool_->alloc(static_cast<std::uint32_t>(bytes.size()));
  if (!chunk.valid()) return;
  auto view = pool_->write_view(chunk);
  std::copy(bytes.begin(), bytes.end(), view.begin());
  chan::Message m;
  m.opcode = kStorePut;
  m.arg0 = kKeyTcpListeners;
  m.req_id = request_db().add(kStoreName, 0, {});
  m.ptr = chunk;
  if (!send_to(kStoreName, m, ctx)) pool_->release(chunk);
}

void TcpServer::replicate_listener(const net::TcpEngine::ListenRec& rec,
                                   sim::Context& ctx,
                                   const std::string* only) {
  chan::Message m;
  m.opcode = kShardRepListen;
  m.socket = rec.id;
  m.arg0 = rec.addr.value;
  m.arg1 = (static_cast<std::uint64_t>(rec.port) << 16) |
           static_cast<std::uint16_t>(rec.backlog);
  if (only != nullptr) {
    send_to(*only, m, ctx);
    return;
  }
  send_to_all(siblings_, m, ctx);
}

void TcpServer::replicate_close(net::SockId s, sim::Context& ctx) {
  chan::Message m;
  m.opcode = kShardRepClose;
  m.socket = s;
  send_to_all(siblings_, m, ctx);
}

void TcpServer::handle_sock_request(
    const chan::Message& m, sim::Context& ctx,
    const std::function<void(const chan::Message&)>& reply) {
  charge(ctx, sim().costs().socket_op);
  chan::Message r;
  r.opcode = kSockReply;
  r.req_id = m.req_id;
  r.socket = m.socket;
  switch (m.opcode) {
    case kSockOpen:
      r.arg0 = engine_->open();
      r.socket = static_cast<std::uint32_t>(r.arg0);
      break;
    case kSockBind:
      r.arg0 = engine_->bind(m.socket,
                             net::Ipv4Addr{static_cast<std::uint32_t>(m.arg0)},
                             static_cast<std::uint16_t>(m.arg1))
                   ? 1
                   : 0;
      break;
    case kSockListen:
      r.arg0 = engine_->listen(m.socket, static_cast<int>(m.arg0)) ? 1 : 0;
      if (r.arg0 != 0 && !siblings_.empty()) {
        // SO_REUSEPORT steering: every replica gets an accept queue for
        // this port, so the 4-tuple hash may land a SYN on any of them.
        for (const auto& rec : engine_->listeners()) {
          if (rec.id == m.socket) replicate_listener(rec, ctx);
        }
      }
      save_listeners(ctx);
      break;
    case kSockConnect:
      // Completion is signalled by the Connected/Reset socket event.
      r.arg0 = engine_->connect(
                   m.socket, net::Ipv4Addr{static_cast<std::uint32_t>(m.arg0)},
                   static_cast<std::uint16_t>(m.arg1))
                   ? 1
                   : 0;
      break;
    case kSockSend:
      r.arg0 = engine_->send(m.socket, m.ptr) ? 1 : 0;
      break;
    case kSockClose: {
      const bool was_listener = engine_->is_listener(m.socket);
      r.arg0 = engine_->close(m.socket) ? 1 : 0;
      if (was_listener && !siblings_.empty()) replicate_close(m.socket, ctx);
      save_listeners(ctx);
      break;
    }
    default:
      r.arg0 = 0;
      break;
  }
  reply(r);
}

void TcpServer::on_message(const std::string& from, const chan::Message& m,
                           sim::Context& ctx) {
  switch (m.opcode) {
    case kL4Rx: {
      // Data segments cost more than pure ACKs; approximate by length.
      const std::uint16_t l4_len = static_cast<std::uint16_t>(m.arg0);
      charge(ctx, l4_len > net::kTcpHeaderLen
                      ? sim().costs().tcp_segment_proc
                      : sim().costs().tcp_ack_proc);
      net::L4Packet pkt;
      pkt.frame = m.ptr;
      pkt.l4_offset = static_cast<std::uint16_t>(m.arg0 >> 16);
      pkt.l4_length = l4_len;
      pkt.src = unpack_hi(m.arg1);
      pkt.dst = unpack_lo(m.arg1);
      engine_->input(std::move(pkt));
      return;
    }
    case kL4RxAgg: {
      // A GRO super-segment: the connection machinery is charged ONCE for
      // the whole aggregate — the receive-side mirror of TSO's per-
      // superframe charge on line 47.
      charge(ctx, sim().costs().tcp_segment_proc);
      const auto recs = parse_records<WireRxFrame>(env().pools->read(m.ptr));
      std::vector<net::L4Packet> segs;
      segs.reserve(recs.size());
      for (const auto& rec : recs) {
        // The frame reference left IP's custody when the message was sent;
        // it is back in ours now — return the loan before processing, so a
        // crash from here on is covered by the engine teardown path, not
        // the ledger.
        chan::Pool* p = env().pools->find(rec.frame.pool);
        if (p != nullptr) {
          p->note_return(rec.frame, transport_borrower('T', shard_));
        }
        net::L4Packet pkt;
        pkt.frame = rec.frame;
        pkt.l4_offset = rec.l4_offset;
        pkt.l4_length = rec.l4_length;
        pkt.src = unpack_hi(m.arg1);
        pkt.dst = unpack_lo(m.arg1);
        segs.push_back(pkt);
      }
      env().pools->release(m.ptr);  // descriptor chunk back to IP's pool
      engine_->input_agg(std::move(segs));
      return;
    }
    case kDrvRxFast: {
      // RSS fast path: a queue's worth of frames straight from the driver.
      // The IP work those frames skipped — validation, GRO, the PF
      // consultation — is paid here, on this shard's core, which is the
      // whole point: it spreads across replicas instead of serializing on
      // the central IP core.
      const auto recs = parse_records<WireRxFrame>(env().pools->read(m.ptr));
      charge(ctx, sim().costs().ip_packet_proc *
                      static_cast<sim::Cycles>(recs.size()));
      std::vector<chan::RichPtr> frames;
      frames.reserve(recs.size());
      for (const auto& rec : recs) {
        // Return the driver's loan before processing (the kL4RxAgg
        // discipline): from here on the teardown path covers the frames.
        chan::Pool* p = env().pools->find(rec.frame.pool);
        if (p != nullptr) {
          p->note_return(rec.frame, transport_borrower('T', shard_));
        }
        frames.push_back(rec.frame);
      }
      env().pools->release(m.ptr);  // driver's descriptor chunk
      if (fastpath_) {
        fastpath_->input_burst(static_cast<int>(m.arg1), frames);
      } else {
        for (const auto& f : frames) {
          chan::Pool* p = env().pools->find(f.pool);
          if (p != nullptr) p->release(f);
        }
      }
      return;
    }
    case kPfVerdict:
      charge(ctx, 120);
      if (fastpath_) fastpath_->pf_verdict(m.req_id, m.arg0 != 0);
      return;
    case kPfCacheInval:
      // The rule set changed (or PF restarted): every cached verdict is
      // stale.  Pending queries were answered under submission order, so
      // held frames still drain correctly.
      if (fastpath_) fastpath_->invalidate_cache();
      return;
    case kIpTxDone: {
      charge(ctx, sim().costs().request_db_op);
      auto it = tx_descs_.find(m.req_id);
      if (it != tx_descs_.end()) {
        pool_->release(it->second);
        tx_descs_.erase(it);
      }
      engine_->seg_done(m.req_id, m.arg0 != 0);
      return;
    }
    case kConnList: {
      const auto keys = engine_->connection_keys();
      const std::uint32_t bytes = static_cast<std::uint32_t>(
          4 + keys.size() * sizeof(net::PfStateKey));
      chan::RichPtr chunk = pool_->alloc(bytes);
      chan::Message r;
      r.opcode = kConnListReply;
      r.req_id = m.req_id;
      if (chunk.valid()) {
        auto view = pool_->write_view(chunk);
        std::uint32_t n = static_cast<std::uint32_t>(keys.size());
        std::memcpy(view.data(), &n, 4);
        if (n > 0) {
          std::memcpy(view.data() + 4, keys.data(),
                      keys.size() * sizeof(net::PfStateKey));
        }
        r.ptr = chunk;
      }
      send_to(from, r, ctx);
      return;
    }
    case kDrvLink:
      if (m.arg0 != 0 && engine_) engine_->on_path_restored();
      return;
    case kShardRepListen: {
      // Replica records live only in the engine: restarts rebuild them
      // from the siblings' re-seed, never from storage, so there is no
      // store write here.
      net::TcpEngine::ListenRec rec;
      rec.id = m.socket;
      rec.addr = net::Ipv4Addr{static_cast<std::uint32_t>(m.arg0)};
      rec.port = static_cast<std::uint16_t>(m.arg1 >> 16);
      rec.backlog = static_cast<int>(m.arg1 & 0xffff);
      engine_->restore_listener(rec);
      return;
    }
    case kShardRepClose:
      engine_->close(m.socket);
      return;
    case kStoreRelease:
      pool_->release(m.ptr);
      return;
    case kStoreAck:
      request_db().complete(m.req_id);
      return;
    case kStoreReply: {
      if (!request_db().complete(m.req_id)) return;
      auto git = store_gets_.find(m.req_id);
      const std::uint32_t key =
          git == store_gets_.end() ? kKeyTcpListeners : git->second;
      if (git != store_gets_.end()) store_gets_.erase(git);
      handle_store_reply(key, m, ctx);
      if (m.arg0 != 0) {
        chan::Message rel;
        rel.opcode = kStoreRelease;
        rel.ptr = m.ptr;
        send_to(kStoreName, rel, ctx);
      }
      return;
    }
    case kWorkProbe: {
      // The reincarnation server's end-to-end probe.  Handling it *is*
      // work: a silently wedged incarnation drops it (Server::drop_work)
      // and the missing ack is the detection signal.  Ack IMMEDIATELY —
      // the probe decides whether *this* replica processes work; a wedged
      // IP or PF downstream must never get a healthy transport restarted
      // in its place (their own heartbeats cover them).  The echo still
      // bounces through IP and PF so the full path is exercised and the
      // deeper ack reports the hops (the prober ignores duplicates).
      // The canary quantum makes the ack's latency scale with any
      // slowdown of this replica (see CostModel::probe_canary); the ack
      // must go out AFTER the charge is paid, hence reply_after_charges.
      charge(ctx, sim().costs().probe_canary);
      reply_after_charges([this, cookie = m.req_id](sim::Context& c) {
        chan::Message ack;
        ack.opcode = kWorkProbeAck;
        ack.req_id = cookie;
        ack.arg0 = 1;
        send_to(kRsName, ack, c);
        chan::Message p;
        p.opcode = kWorkProbe;
        p.req_id = cookie;
        send_to(kIpName, p, c);
      });
      return;
    }
    case kWorkProbeAck: {
      chan::Message ack;
      ack.opcode = kWorkProbeAck;
      ack.req_id = m.req_id;
      ack.arg0 = m.arg0 + 1;
      send_to(kRsName, ack, ctx);
      return;
    }
    case kSockBatch: {
      // One channel message carries a whole submission-queue flush.
      const auto ops = parse_sock_batch(env().pools->read(m.ptr));
      run_sock_batch(ops, [&, this](char, const chan::Message& sm,
                                    const auto& note_open) {
        handle_sock_request(sm, ctx, [&, this](const chan::Message& r) {
          note_open(r);
          send_to(from, r, ctx);
        });
      });
      return;
    }
    default:
      if (m.opcode >= kSockOpen && m.opcode <= kSockClose) {
        handle_sock_request(m, ctx, [this, from, &ctx](const chan::Message& r) {
          send_to(from, r, ctx);
        });
      }
      return;
  }
}

void TcpServer::handle_store_reply(std::uint32_t key, const chan::Message& m,
                                   sim::Context& ctx) {
  const bool found = m.arg0 != 0;
  if (key == kKeyTcpListeners) {
    if (found) {
      auto recs = net::TcpEngine::parse_listeners(env().pools->read(m.ptr));
      if (recs) {
        // "TCP can only restore listening sockets since they do not have
        // any frequently changing state" (Section V-D).  Only HOME
        // listeners restore from storage: replica records are re-seeded
        // by the siblings on announce, which also reconciles listeners
        // that were closed while this replica was down (a stored replica
        // record could otherwise resurrect a dead port).
        for (const auto& rec : *recs) {
          if (shard_count_ == 1 || net::sock_shard(rec.id) == shard_)
            engine_->restore_listener(rec);
        }
      }
    }
    // Listeners first (restored connections may reference their parent),
    // then the connection checkpoints.
    if (writer_ == nullptr || !store_get(kKeyTcpCkptDir, ctx)) {
      announce(true);
    }
    return;
  }
  if (key == kKeyTcpCkptDir ||
      (key >= kKeyTcpCkptDirBase && key < kKeyTcpCkptRecBase)) {
    // One page of the chained directory.  Continuation fetches ride
    // ckpt_pending_ like record fetches do; the head fetch was issued by
    // the listener branch and is not counted.
    if (key != kKeyTcpCkptDir) --ckpt_pending_;
    if (found) {
      const auto page = CheckpointWriter::parse_dir(env().pools->read(m.ptr));
      if (page) {
        for (const std::uint32_t sock : page->socks) {
          // A partially-flushed chain can list a sock on two pages (fresh
          // head pointing at a stale tail): fetch each record only once.
          // Fetches are windowed (pump_ckpt_fetches): a full directory
          // page would otherwise burst 1024 gets at a 256-slot queue.
          if (!ckpt_socks_seen_.insert(sock).second) continue;
          ckpt_fetch_queue_.push_back(ckpt_record_key(sock));
          ++ckpt_pending_;
        }
        if (page->next_key != 0 && store_get(page->next_key, ctx))
          ++ckpt_pending_;
      }
    }
    pump_ckpt_fetches(ctx);
    if (ckpt_pending_ == 0) finish_restore(ctx);
    return;
  }
  if (key >= kKeyTcpCkptRecBase) {
    --ckpt_pending_;
    if (ckpt_inflight_ > 0) --ckpt_inflight_;
    pump_ckpt_fetches(ctx);
    // The sock's shard bits were masked into the key; rebuild our own id
    // range (records are namespaced per replica, so they are always ours).
    std::uint32_t sock = key - kKeyTcpCkptRecBase;
    if (shard_count_ > 1) sock |= net::sock_shard_base(shard_);
    bool restored = false;
    if (found && writer_) {
      auto rec = CheckpointWriter::parse_record(env().pools->read(m.ptr));
      if (rec && rec->sock == sock) {
        auto conn = writer_->load_page(*rec);
        if (conn && engine_->restore_conn(*conn)) {
          writer_->adopt(*rec);
          restored = true;
        }
      }
    }
    if (!restored && writer_) {
      // The record or its page did not survive (storage lost it, page
      // stale, tuple collision): the connection is gone — sweep whatever
      // its borrower still parked so nothing strands.
      writer_->reclaim_orphan(sock);
    }
    if (ckpt_pending_ == 0) finish_restore(ctx);
    return;
  }
}

void TcpServer::on_peer_up(const std::string& peer, bool restarted,
                           sim::Context& ctx) {
  if (peer == kIpName && restarted) {
    // IP lost everything in flight: free our descriptors (replies to the old
    // requests will never arrive / are ignored) and retransmit quickly to
    // recover the original bitrate (Section V-D "IP", Figure 4).
    release_in_flight(pool_, tx_descs_);
    if (engine_) engine_->on_ip_restart();
    return;
  }
  if (peer == kStoreName && restarted) {
    // Storage came back empty: re-store the listener set AND the whole
    // checkpoint namespace, so a later TCP crash still finds its pages.
    save_listeners(ctx);
    if (writer_) writer_->store_all(ctx);
    return;
  }
  if (peer == kPfName && fastpath_) {
    // PF (re)appeared: any unanswered fast-path queries died with the old
    // incarnation — repeat them so the held frames drain.
    fastpath_->resubmit_pf();
    return;
  }
  if (is_sibling(peer) && engine_) {
    // A sibling replica came up (first boot or post-crash): push it our
    // home listeners so its accept queue for every steered port exists.
    // Upserts are idempotent, and its own storage may already have them.
    for (const auto& rec : engine_->listeners()) {
      if (net::sock_shard(rec.id) == shard_) replicate_listener(rec, ctx, &peer);
    }
  }
}

}  // namespace newtos::servers
