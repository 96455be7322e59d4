#include "src/servers/tcp_server.h"

#include "src/servers/sock_exec.h"

namespace newtos::servers {

TcpServer::TcpServer(NodeEnv* env, sim::SimCore* core, net::TcpOptions opts,
                     std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for,
                     int shard, int shard_count)
    : TransportServer(env, core, 'T', std::move(src_for), shard, shard_count),
      opts_(opts) {}

TcpServer::~TcpServer() { drop_engine(engine_); }

void TcpServer::build_writer() {
  if (!opts_.checkpoint) return;
  CheckpointWriter::Env we;
  we.pool = pool_;
  we.pools = env().pools;
  we.store_put = [this](std::uint32_t key, std::span<const std::byte> value,
                        sim::Context& ctx) {
    return store_put(key, value, *pool_, ctx);
  };
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
  fill_engine_env(e);
  e.timers = timers();
  e.ckpt = writer_.get();
  e.output = [this](net::TxSeg&& seg, std::uint64_t cookie) {
    sim::Context& ctx = cur();
    // Segmentation work is charged here, per emitted segment — with TSO one
    // superframe covers ~42 MSS of payload, which is the whole point.
    charge(ctx, sim().costs().tcp_segment_proc + 150);
    const chan::RichPtr desc = send_ip_tx(seg, cookie, ctx);
    if (!desc.valid()) engine_->seg_done(cookie, false);  // RTO recovers
    return desc;
  };
  e.notify = [this](net::SockId s, net::TcpEvent ev) {
    if (env().sock_event)
      env().sock_event(shard_, 'T', s, static_cast<std::uint8_t>(ev));
  };
  engine_ = std::make_unique<net::TcpEngine>(std::move(e), opts_);
}

void TcpServer::deliver(net::L4Packet&& pkt) {
  // Data segments cost more than pure ACKs; approximate by length.
  if (in_handler()) {
    charge(cur(), pkt.l4_length > net::kTcpHeaderLen
                      ? sim().costs().tcp_segment_proc
                      : sim().costs().tcp_ack_proc);
  }
  engine_->input(std::move(pkt));
}

void TcpServer::deliver_agg(std::vector<net::L4Packet>&& segs) {
  // A GRO super-segment: the connection machinery is charged ONCE for the
  // whole aggregate — the receive-side mirror of TSO's per-superframe
  // charge on line 47.
  if (in_handler()) charge(cur(), sim().costs().tcp_segment_proc);
  engine_->input_agg(std::move(segs));
}

void TcpServer::start(bool restart) {
  // Checkpointing keeps every established connection's TCB page plus its
  // parked queue chunks pool-resident; sized for ~2k concurrent checkpointed
  // connections (the directory pages past 1024 entries, see checkpoint.h).
  pool_ = env().get_pool(name() + ".buf",
                         opts_.checkpoint ? 160u << 20 : 32u << 20);
  open_channels(1024);
  build_writer();
  build_engine();
  build_fastpath([this](net::L4AggPacket&& agg) {
    deliver_agg(std::move(agg.segs));
  });
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
  // bounded per crash (TcpEngine's destructor).  Checkpointed connections
  // first PARK their queue
  // references: they stay live in the pools, recorded in the loan ledger
  // and the checkpoint pages, ready for the next incarnation to re-adopt.
  if (engine_ && opts_.checkpoint) engine_->park_checkpointed();
  writer_.reset();  // bookkeeping dies with the process; the pages survive
  fastpath_.reset();  // held frames (pending PF verdicts) back to the pool
  drop_engine(engine_);
  ckpt_pending_ = 0;
  ckpt_socks_seen_.clear();
  ckpt_fetch_queue_.clear();
  ckpt_inflight_ = 0;
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

void TcpServer::finish_restore() {
  ckpt_socks_seen_.clear();
  ckpt_fetch_queue_.clear();
  ckpt_inflight_ = 0;
  if (engine_) engine_->resync_restored();
  announce(true);
}

void TcpServer::save_listeners(sim::Context& ctx) {
  store_put(kKeyTcpListeners,
            net::TcpEngine::serialize_listeners(engine_->listeners()), *pool_,
            ctx);
}

void TcpServer::store_state(sim::Context& ctx) {
  // The listener set AND the whole checkpoint namespace, so a later TCP
  // crash still finds its pages.
  save_listeners(ctx);
  if (writer_) writer_->store_all(ctx);
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

void TcpServer::sock_batch(std::span<const WireSockOp> ops, sim::Context& ctx,
                           const SockReplyFn& reply) {
  run_sock_batch(ops, [&](const WireSockOp& op) {
    charge(ctx, sim().costs().socket_op);
    const SockOpResult res = apply_tcp_op(*engine_, op);
    if (res.changed) {
      if (res.removed) {
        replicate_close(op.sock, ctx);
      } else {
        // SO_REUSEPORT steering: every replica gets an accept queue for
        // this port, so the 4-tuple hash may land a SYN on any of them.
        for (const auto& rec : engine_->listeners()) {
          if (rec.id == op.sock) replicate_listener(rec, ctx);
        }
      }
      save_listeners(ctx);
    }
    reply(res.reply);
    return res.reply;
  });
}

void TcpServer::on_message(const std::string& from, const chan::Message& m,
                           sim::Context& ctx) {
  switch (m.opcode) {
    case kL4RxAgg: {
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
      deliver_agg(std::move(segs));
      return;
    }
    case kIpTxDone:
      charge(ctx, sim().costs().request_db_op);
      engine_->seg_done(m.req_id, m.arg0 != 0);
      return;
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
    default:
      TransportServer::on_message(from, m, ctx);
      return;
  }
}

void TcpServer::on_stored(std::uint32_t key, std::span<const std::byte> value,
                          sim::Context& ctx) {
  if (key == kKeyTcpListeners) {
    if (auto recs = net::TcpEngine::parse_listeners(value)) {
      // "TCP can only restore listening sockets since they do not have any
      // frequently changing state" (Section V-D).  Only HOME listeners
      // restore from storage: replica records are re-seeded by the
      // siblings on announce, which also reconciles listeners that were
      // closed while this replica was down (a stored replica record could
      // otherwise resurrect a dead port).
      for (const auto& rec : *recs) {
        if (shard_count_ == 1 || net::sock_shard(rec.id) == shard_)
          engine_->restore_listener(rec);
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
    if (const auto page = CheckpointWriter::parse_dir(value)) {
      for (const std::uint32_t sock : page->socks) {
        // A partially-flushed chain can list a sock on two pages (fresh
        // head pointing at a stale tail): fetch each record only once.
        // Fetches are windowed (pump_ckpt_fetches): a full directory page
        // would otherwise burst 1024 gets at a 256-slot queue.
        if (!ckpt_socks_seen_.insert(sock).second) continue;
        ckpt_fetch_queue_.push_back(ckpt_record_key(sock));
        ++ckpt_pending_;
      }
      if (page->next_key != 0 && store_get(page->next_key, ctx))
        ++ckpt_pending_;
    }
    pump_ckpt_fetches(ctx);
    if (ckpt_pending_ == 0) finish_restore();
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
    // Records are only fetched with checkpointing on, so writer_ exists.
    bool restored = false;
    auto rec = CheckpointWriter::parse_record(value);
    if (rec && rec->sock == sock) {
      auto conn = writer_->load_page(*rec);
      if (conn && engine_->restore_conn(*conn)) {
        writer_->adopt(*rec);
        restored = true;
      }
    }
    if (!restored) {
      // The record or its page did not survive (storage lost it, page
      // stale, tuple collision): the connection is gone — sweep whatever
      // its borrower still parked so nothing strands.
      writer_->reclaim_orphan(sock);
    }
    if (ckpt_pending_ == 0) finish_restore();
    return;
  }
}

void TcpServer::on_peer_up(const std::string& peer, bool restarted,
                           sim::Context& ctx) {
  if (peer == kIpName && restarted) {
    // IP lost everything in flight: the engine frees its records (replies
    // to the old requests will never arrive / are ignored) and retransmits
    // quickly to recover the original bitrate (Section V-D "IP", Figure 4).
    if (engine_) engine_->on_ip_restart();
    return;
  }
  if (is_sibling(peer) && engine_) {
    // A sibling replica came up (first boot or post-crash): push it our
    // home listeners so its accept queue for every steered port exists.
    // Upserts are idempotent, and its own storage may already have them.
    for (const auto& rec : engine_->listeners()) {
      if (net::sock_shard(rec.id) == shard_) replicate_listener(rec, ctx, &peer);
    }
    return;
  }
  TransportServer::on_peer_up(peer, restarted, ctx);
}

}  // namespace newtos::servers
