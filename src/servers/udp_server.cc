#include "src/servers/udp_server.h"

#include <algorithm>
#include <cstring>

#include "src/net/pbuf.h"

namespace newtos::servers {

UdpServer::UdpServer(NodeEnv* env, sim::SimCore* core,
                     std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for,
                     int shard, int shard_count)
    : Server(env, udp_shard_name(shard), core),
      src_for_(std::move(src_for)),
      shard_(shard),
      shard_count_(shard_count),
      siblings_(transport_shard_siblings('U', shard, shard_count)) {}

UdpServer::~UdpServer() {
  drop_engine(engine_);
  release_in_flight(pool_, pending_tx_,
                    [](const PendingTx& p) -> const chan::RichPtr& {
                      return p.desc;
                    });
}

bool UdpServer::is_sibling(const std::string& peer) const {
  return std::find(siblings_.begin(), siblings_.end(), peer) !=
         siblings_.end();
}

void UdpServer::build_engine() {
  net::UdpEngine::Env e;
  e.clock = clock();
  e.pools = env().pools;
  e.buf_pool = pool_;
  e.src_for = src_for_;
  e.shard = shard_;
  e.shard_count = shard_count_;
  if (shard_count_ > 1) {
    e.sock_base = net::sock_shard_base(shard_);
    e.sock_span = net::kSockShardSpan;
  }
  e.output = [this](net::TxSeg&& seg, std::uint64_t cookie) {
    sim::Context& ctx = cur();
    charge(ctx, 150);  // descriptor packing
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
      engine_->seg_done(cookie, false);  // IP down: datagram dropped
      return;
    }
    pending_tx_.emplace(cookie, PendingTx{desc, m.arg0});
  };
  e.rx_done = [this](const chan::RichPtr& frame) {
    chan::Message m;
    m.opcode = kL4RxDone;
    m.ptr = frame;
    send_to(kIpName, m, cur());
  };
  e.notify_readable = [this](net::SockId s) {
    if (env().sock_event) env().sock_event(shard_, 'U', s, 0);
  };
  engine_ = std::make_unique<net::UdpEngine>(std::move(e));
}

void UdpServer::enable_rx_fastpath(net::IpFastPath::Config cfg,
                                   std::vector<std::string> driver_names) {
  rx_fastpath_ = true;
  fastpath_cfg_ = std::move(cfg);
  fastpath_cfg_.gro = false;  // GRO is a TCP-only merge
  fastpath_drivers_ = std::move(driver_names);
}

void UdpServer::build_fastpath() {
  net::IpFastPath::Env fe;
  fe.pools = env().pools;
  fe.deliver = [this](std::uint8_t, net::L4Packet&& pkt) {
    // Same per-datagram charge as the kL4Rx leg.
    if (in_handler()) charge(cur(), sim().costs().udp_packet_proc);
    engine_->input(std::move(pkt));
  };
  fe.pf_check = [this](const net::PfQuery& q, std::uint64_t cookie) {
    send_to(kPfName, make_pf_check(cookie, q), cur());
  };
  fe.fallback = [this](int ifindex, const chan::RichPtr& frame) {
    chan::Message m;
    m.opcode = kFastFallback;
    m.ptr = frame;
    m.arg1 = static_cast<std::uint64_t>(ifindex);
    if (!send_to(kIpName, m, cur())) {
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

void UdpServer::start(bool restart) {
  pool_ = env().get_pool(name() + ".buf", 8u << 20);
  for (const char* p : {kIpName, kStoreName, kPfName, kSyscallName}) {
    expose_in_queue(p);
    connect_out(p);
  }
  for (const auto& sib : siblings_) {
    expose_in_queue(sib);
    connect_out(sib);
  }
  if (env().knobs.supervision) {
    expose_in_queue(kRsName, 64);
    connect_out(kRsName);
  }
  if (rx_fastpath_) {
    for (const auto& d : fastpath_drivers_) expose_in_queue(d, 512);
  }
  build_engine();
  if (rx_fastpath_) build_fastpath();
  if (restart) {
    post_control([this](sim::Context& ctx) {
      chan::Message m;
      m.opcode = kStoreGet;
      m.arg0 = kKeyUdpSockets;
      m.req_id = request_db().add(kStoreName, 0, {});
      if (!send_to(kStoreName, m, ctx)) announce(true);
    });
  } else {
    post_control([this](sim::Context&) { announce(false); });
  }
}

void UdpServer::on_killed() {
  // The dying process cannot send done-reports; queued receive frames go
  // straight back to their owning pool.  In-flight descriptors leak,
  // bounded per crash.
  fastpath_.reset();  // held frames (pending PF verdicts) back to the pool
  drop_engine(engine_);
  pending_tx_.clear();
}

void UdpServer::save_sockets(sim::Context& ctx) {
  const auto bytes = net::UdpEngine::serialize_socks(engine_->snapshot());
  chan::RichPtr chunk =
      pool_->alloc(static_cast<std::uint32_t>(bytes.size()));
  if (!chunk.valid()) return;
  auto view = pool_->write_view(chunk);
  std::copy(bytes.begin(), bytes.end(), view.begin());
  chan::Message m;
  m.opcode = kStorePut;
  m.arg0 = kKeyUdpSockets;
  m.req_id = request_db().add(kStoreName, 0, {});
  m.ptr = chunk;
  if (!send_to(kStoreName, m, ctx)) pool_->release(chunk);
}

void UdpServer::replicate_sock(net::SockId s, sim::Context& ctx,
                               const std::string* only) {
  auto rec = engine_->record(s);
  if (!rec) return;
  chan::Message m;
  m.opcode = kShardRepSock;
  m.socket = rec->id;
  m.arg0 = pack_addrs(rec->local, rec->peer);
  m.arg1 = (static_cast<std::uint64_t>(rec->lport) << 16) | rec->pport;
  if (only != nullptr) {
    send_to(*only, m, ctx);
    return;
  }
  send_to_all(siblings_, m, ctx);
}

void UdpServer::replicate_close(net::SockId s, sim::Context& ctx) {
  chan::Message m;
  m.opcode = kShardRepClose;
  m.socket = s;
  send_to_all(siblings_, m, ctx);
}

void UdpServer::handle_sock_request(
    const chan::Message& m, sim::Context& ctx,
    const std::function<void(const chan::Message&)>& reply) {
  charge(ctx, sim().costs().socket_op);
  chan::Message r;
  r.opcode = kSockReply;
  r.req_id = m.req_id;
  r.socket = m.socket;
  bool state_changed = false;
  bool removed = false;
  switch (m.opcode) {
    case kSockOpen:
      r.arg0 = engine_->open();
      r.socket = static_cast<std::uint32_t>(r.arg0);
      state_changed = true;
      break;
    case kSockBind:
      r.arg0 = engine_->bind(m.socket, net::Ipv4Addr{
                                           static_cast<std::uint32_t>(m.arg0)},
                             static_cast<std::uint16_t>(m.arg1))
                   ? 1
                   : 0;
      state_changed = true;
      break;
    case kSockConnect:
      r.arg0 = engine_->connect(
                   m.socket,
                   net::Ipv4Addr{static_cast<std::uint32_t>(m.arg0)},
                   static_cast<std::uint16_t>(m.arg1))
                   ? 1
                   : 0;
      state_changed = true;
      break;
    case kSockSendTo: {
      charge(ctx, sim().costs().udp_packet_proc);
      // sendto on an unbound socket auto-binds an ephemeral port — a state
      // change the replicas must learn about, or the replies steered to
      // them find no socket.
      const auto before = engine_->record(m.socket);
      r.arg0 = engine_->sendto(
                   m.socket, m.ptr,
                   net::Ipv4Addr{static_cast<std::uint32_t>(m.arg0)},
                   static_cast<std::uint16_t>(m.arg1))
                   ? 1
                   : 0;
      if (before && before->lport == 0) state_changed = true;
      break;
    }
    case kSockClose:
      engine_->close(m.socket);
      r.arg0 = 1;
      state_changed = true;
      removed = true;
      break;
    default:
      r.arg0 = 0;
      break;
  }
  reply(r);
  if (state_changed) {
    if (!siblings_.empty()) {
      if (removed) {
        replicate_close(m.socket, ctx);
      } else {
        replicate_sock(r.socket, ctx);
      }
    }
    save_sockets(ctx);
  }
}

void UdpServer::on_message(const std::string& from, const chan::Message& m,
                           sim::Context& ctx) {
  switch (m.opcode) {
    case kL4Rx: {
      charge(ctx, sim().costs().udp_packet_proc);
      net::L4Packet pkt;
      pkt.frame = m.ptr;
      pkt.l4_offset = static_cast<std::uint16_t>(m.arg0 >> 16);
      pkt.l4_length = static_cast<std::uint16_t>(m.arg0);
      pkt.src = unpack_hi(m.arg1);
      pkt.dst = unpack_lo(m.arg1);
      engine_->input(std::move(pkt));
      return;
    }
    case kDrvRxFast: {
      // RSS fast path: the hoisted IP work (validation, PF consultation) is
      // paid here, on this shard's core, instead of on the central IP core.
      const auto recs = parse_records<WireRxFrame>(env().pools->read(m.ptr));
      charge(ctx, sim().costs().ip_packet_proc *
                      static_cast<sim::Cycles>(recs.size()));
      std::vector<chan::RichPtr> frames;
      frames.reserve(recs.size());
      for (const auto& rec : recs) {
        chan::Pool* p = env().pools->find(rec.frame.pool);
        if (p != nullptr) {
          p->note_return(rec.frame, transport_borrower('U', shard_));
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
      if (fastpath_) fastpath_->invalidate_cache();
      return;
    case kIpTxDone: {
      auto it = pending_tx_.find(m.req_id);
      if (it != pending_tx_.end()) {
        pool_->release(it->second.desc);
        pending_tx_.erase(it);
      }
      engine_->seg_done(m.req_id, m.arg0 != 0);
      return;
    }
    case kConnList: {
      // PF is rebuilding its connection table (Section V-D).
      const auto keys = engine_->connection_keys();
      const std::uint32_t bytes =
          static_cast<std::uint32_t>(4 + keys.size() * sizeof(net::PfStateKey));
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
    case kShardRepSock: {
      // Replica records live only in the engine: restarts rebuild them
      // from the siblings' re-seed, never from storage, so there is no
      // store write here.
      net::UdpEngine::SockRec rec;
      rec.id = m.socket;
      rec.local = unpack_hi(m.arg0);
      rec.peer = unpack_lo(m.arg0);
      rec.lport = static_cast<std::uint16_t>(m.arg1 >> 16);
      rec.pport = static_cast<std::uint16_t>(m.arg1);
      engine_->upsert(rec);
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
      if (m.arg0 != 0) {
        auto socks = net::UdpEngine::parse_socks(env().pools->read(m.ptr));
        if (socks) {
          // Only HOME sockets restore from storage: replica records are
          // re-seeded by the siblings on announce, which also reconciles
          // sockets closed while this replica was down (a stored replica
          // record could otherwise resurrect a dead socket).
          for (const auto& rec : *socks) {
            if (shard_count_ == 1 || net::sock_shard(rec.id) == shard_)
              engine_->upsert(rec);
          }
        }
        chan::Message rel;
        rel.opcode = kStoreRelease;
        rel.ptr = m.ptr;
        send_to(kStoreName, rel, ctx);
      }
      announce(true);
      return;
    }
    case kWorkProbe: {
      // The reincarnation server's end-to-end probe (see the TCP twin for
      // the rationale).  The ack judges THIS replica and goes out only
      // once the canary quantum has been paid (so its latency scales with
      // any slowdown); the echo still bounces through IP afterwards.
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
      // A packed submission-queue flush.
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
      // Socket control over channels (SYSCALL server path).
      if (m.opcode >= kSockOpen && m.opcode <= kSockClose) {
        handle_sock_request(m, ctx, [this, from, &ctx](const chan::Message& r) {
          send_to(from, r, ctx);
        });
      }
      return;
  }
}

void UdpServer::on_peer_up(const std::string& peer, bool restarted,
                           sim::Context& ctx) {
  if (peer == kIpName && restarted) {
    // Resubmit in-flight datagrams: we prefer duplicates over losses
    // (Section V-D "UDP").
    for (auto& [cookie, pending] : pending_tx_) {
      chan::Message m;
      m.opcode = kIpTx;
      m.req_id = cookie;
      m.ptr = pending.desc;
      m.arg0 = pending.arg0;
      m.arg1 = net::kProtoUdp;
      send_to(kIpName, m, ctx);
    }
    return;
  }
  if (peer == kStoreName && restarted) {
    save_sockets(ctx);
    return;
  }
  if (peer == kPfName && fastpath_) {
    // PF (re)appeared: unanswered fast-path queries died with the old
    // incarnation — repeat them so the held frames drain.
    fastpath_->resubmit_pf();
    return;
  }
  if (is_sibling(peer) && engine_) {
    // A sibling replica came up: push it our home socket records so the
    // datagrams steered to it find their sockets.  Upserts are idempotent.
    for (const auto& rec : engine_->snapshot()) {
      if (net::sock_shard(rec.id) == shard_) replicate_sock(rec.id, ctx, &peer);
    }
  }
}

}  // namespace newtos::servers
