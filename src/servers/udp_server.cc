#include "src/servers/udp_server.h"

#include "src/servers/sock_exec.h"

namespace newtos::servers {

UdpServer::UdpServer(NodeEnv* env, sim::SimCore* core,
                     std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for,
                     int shard, int shard_count)
    : TransportServer(env, core, 'U', std::move(src_for), shard,
                      shard_count) {}

UdpServer::~UdpServer() { drop_engine(engine_); }

void UdpServer::build_engine() {
  net::UdpEngine::Env e;
  fill_engine_env(e);
  e.output = [this](net::TxSeg&& seg, std::uint64_t cookie) {
    sim::Context& ctx = cur();
    charge(ctx, 150);  // descriptor packing
    const chan::RichPtr desc = send_ip_tx(seg, cookie, ctx);
    if (!desc.valid()) engine_->seg_done(cookie, false);  // datagram dropped
    return desc;
  };
  e.notify_readable = [this](net::SockId s) {
    if (env().sock_event) env().sock_event(shard_, 'U', s, 0);
  };
  engine_ = std::make_unique<net::UdpEngine>(std::move(e));
}

void UdpServer::deliver(net::L4Packet&& pkt) {
  if (in_handler()) charge(cur(), sim().costs().udp_packet_proc);
  engine_->input(std::move(pkt));
}

void UdpServer::start(bool restart) {
  pool_ = env().get_pool(name() + ".buf", 8u << 20);
  open_channels(256);
  build_engine();
  build_fastpath();
  if (restart) {
    post_control([this](sim::Context& ctx) {
      if (!store_get(kKeyUdpSockets, ctx)) announce(true);
    });
  } else {
    post_control([this](sim::Context&) { announce(false); });
  }
}

void UdpServer::on_killed() {
  // The dying process cannot send done-reports; queued receive frames go
  // straight back to their owning pool.  In-flight descriptors leak,
  // bounded per crash (UdpEngine's destructor).
  fastpath_.reset();  // held frames (pending PF verdicts) back to the pool
  drop_engine(engine_);
}

void UdpServer::store_state(sim::Context& ctx) {
  store_put(kKeyUdpSockets,
            net::UdpEngine::serialize_socks(engine_->snapshot()), *pool_, ctx);
}

void UdpServer::on_stored(std::uint32_t, std::span<const std::byte> value,
                          sim::Context&) {
  if (auto socks = net::UdpEngine::parse_socks(value)) {
    // Only HOME sockets restore from storage: replica records are re-seeded
    // by the siblings on announce, which also reconciles sockets closed
    // while this replica was down (a stored replica record could otherwise
    // resurrect a dead socket).
    for (const auto& rec : *socks) {
      if (shard_count_ == 1 || net::sock_shard(rec.id) == shard_)
        engine_->upsert(rec);
    }
  }
  announce(true);
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

void UdpServer::sock_batch(std::span<const WireSockOp> ops, sim::Context& ctx,
                           const SockReplyFn& reply) {
  run_sock_batch(ops, [&](const WireSockOp& op) {
    charge(ctx, sim().costs().socket_op);
    if (op.opcode == kSockSendTo) charge(ctx, sim().costs().udp_packet_proc);
    const SockOpResult res = apply_udp_op(*engine_, op);
    reply(res.reply);
    if (res.changed) {
      if (res.removed) {
        replicate_close(op.sock, ctx);
      } else {
        replicate_sock(res.reply.socket, ctx);
      }
      store_state(ctx);
    }
    return res.reply;
  });
}

void UdpServer::on_message(const std::string& from, const chan::Message& m,
                           sim::Context& ctx) {
  switch (m.opcode) {
    case kIpTxDone:
      engine_->seg_done(m.req_id, m.arg0 != 0);
      return;
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
    default:
      TransportServer::on_message(from, m, ctx);
      return;
  }
}

void UdpServer::on_peer_up(const std::string& peer, bool restarted,
                           sim::Context& ctx) {
  if (peer == kIpName && restarted) {
    // Resubmit in-flight datagrams, oldest first: we prefer duplicates over
    // losses (Section V-D "UDP").
    if (engine_) {
      engine_->for_each_in_flight(
          [&](std::uint64_t cookie, const net::UdpEngine::InFlight& f) {
            chan::Message m;
            m.opcode = kIpTx;
            m.req_id = cookie;
            m.ptr = f.desc;
            m.arg0 = pack_addrs(f.src, f.dst);
            m.arg1 = net::kProtoUdp;
            send_to(kIpName, m, ctx);
          });
    }
    return;
  }
  if (is_sibling(peer) && engine_) {
    // A sibling replica came up: push it our home socket records so the
    // datagrams steered to it find their sockets.  Upserts are idempotent.
    for (const auto& rec : engine_->snapshot()) {
      if (net::sock_shard(rec.id) == shard_) replicate_sock(rec.id, ctx, &peer);
    }
    return;
  }
  TransportServer::on_peer_up(peer, restarted, ctx);
}

}  // namespace newtos::servers
