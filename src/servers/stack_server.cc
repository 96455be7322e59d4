#include "src/servers/stack_server.h"

#include <cstdlib>
#include <cstring>

#include "src/net/pbuf.h"
#include "src/servers/sock_exec.h"

namespace newtos::servers {

StackServer::StackServer(NodeEnv* env, sim::SimCore* core, Config cfg,
                         std::vector<drv::SimNic*> nics)
    : Server(env, kStackName, core),
      cfg_(std::move(cfg)),
      nics_(std::move(nics)) {}

StackServer::~StackServer() {
  drop_engine(tcp_);
  drop_engine(udp_);
}

int StackServer::ifindex_of(const std::string& driver) {
  return std::atoi(driver.c_str() + 3);
}

drv::SimNic* StackServer::nic_of(int ifindex) {
  if (ifindex < 0 || ifindex >= static_cast<int>(nics_.size())) return nullptr;
  return nics_[ifindex];
}

void StackServer::build_engines() {
  const auto& costs = sim().costs();

  if (cfg_.use_pf) pf_ = std::make_unique<net::PfEngine>(clock());
  if (pf_) pf_->set_rules(cfg_.rules);

  net::IpEngine::Env ie;
  ie.clock = clock();
  ie.timers = timers();
  ie.pools = env().pools;
  ie.hdr_pool = pool_;
  ie.rx_pool = rx_pool_;
  ie.csum_offload = env().knobs.csum_offload;
  ie.send_frame = [this](int ifindex, const net::TxFrame& frame,
                         std::uint64_t cookie) {
    sim::Context& ctx = cur();
    charge(ctx, sim().costs().drv_packet_proc / 4);  // ring doorbell etc.
    if (cfg_.inline_drivers) {
      drv::SimNic* nic = nic_of(ifindex);
      if (nic == nullptr) return chan::RichPtr{};
      auto& backlog = tx_backlog_[ifindex];
      if (!backlog.empty() || nic->tx_ring_free() == 0) {
        if (backlog.size() >= 2048) {
          ip_->tx_done(cookie, false);  // shed load, never block
          return chan::RichPtr{};
        }
        backlog.emplace_back(frame, cookie);
        return chan::RichPtr{};
      }
      nic->tx_post(frame, cookie);
      return chan::RichPtr{};
    }
    chan::RichPtr desc =
        net::pack_chain(*pool_, frame.header, frame.payload, frame.offload);
    if (!desc.valid()) return desc;
    chan::Message m;
    m.opcode = kDrvTx;
    m.req_id = cookie;
    m.ptr = desc;
    if (send_to(driver_name(ifindex), m, ctx)) return desc;
    pool_->release(desc);
    return chan::RichPtr{};
  };
  if (pf_) {
    // In-process packet filter: immediate verdict, no hop.
    ie.pf_check = [this, &costs](const net::PfQuery& q,
                                 std::uint64_t cookie) {
      const auto verdict = pf_->check(q);
      charge(cur(), costs.pf_packet_proc +
                        verdict.rules_walked * costs.pf_rule_cost);
      ip_->pf_verdict(cookie, verdict.action == net::PfAction::Pass);
    };
  }
  ie.deliver_tcp = [this, &costs](net::L4Packet&& pkt) {
    charge(cur(), pkt.l4_length > net::kTcpHeaderLen ? costs.tcp_segment_proc
                                                     : costs.tcp_ack_proc);
    charge(cur(), env().knobs.legacy_per_packet);
    tcp_->input(std::move(pkt));
  };
  ie.deliver_udp = [this, &costs](net::L4Packet&& pkt) {
    charge(cur(), costs.udp_packet_proc);
    charge(cur(), env().knobs.legacy_per_packet);
    udp_->input(std::move(pkt));
  };
  // A segment's requester is its transport: L4Req::peer is the protocol.
  ie.seg_done = [this](const net::L4Req& req, bool sent) {
    if (req.peer == net::kProtoUdp) {
      udp_->seg_done(req.id, sent);
    } else {
      tcp_->seg_done(req.id, sent);
    }
  };
  ip_ = std::make_unique<net::IpEngine>(std::move(ie), cfg_.ip);

  auto src_for = [this](net::Ipv4Addr dst) {
    for (const auto& i : cfg_.ip.interfaces) {
      if (i.subnet.contains(dst)) return i.addr;
    }
    return cfg_.ip.interfaces.empty() ? net::Ipv4Addr{}
                                      : cfg_.ip.interfaces.front().addr;
  };

  net::TcpEngine::Env te;
  te.clock = clock();
  te.timers = timers();
  te.pools = env().pools;
  te.buf_pool = pool_;
  te.src_for = src_for;
  te.output = [this, &costs](net::TxSeg&& seg, std::uint64_t cookie) {
    charge(cur(), costs.tcp_segment_proc + costs.ip_packet_proc +
                      env().knobs.legacy_per_packet);
    if (!env().knobs.csum_offload)
      charge(cur(), costs.checksum_cost(seg.total_len()));
    net::TxSeg s = std::move(seg);
    s.offload.tso = s.offload.tso && env().knobs.tso;
    ip_->output(std::move(s), net::L4Req{net::kProtoTcp, cookie});
    return chan::RichPtr{};  // handed over by call: no descriptor
  };
  te.rx_done = [this](const chan::RichPtr& frame) { ip_->rx_done(frame); };
  te.notify = [this](net::SockId s, net::TcpEvent ev) {
    if (env().sock_event)
      env().sock_event(0, 'T', s, static_cast<std::uint8_t>(ev));
  };
  tcp_ = std::make_unique<net::TcpEngine>(std::move(te), cfg_.tcp);

  net::UdpEngine::Env ue;
  ue.clock = clock();
  ue.pools = env().pools;
  ue.buf_pool = pool_;
  ue.src_for = src_for;
  ue.output = [this, &costs](net::TxSeg&& seg, std::uint64_t cookie) {
    charge(cur(), costs.ip_packet_proc + env().knobs.legacy_per_packet);
    if (!env().knobs.csum_offload)
      charge(cur(), costs.checksum_cost(seg.total_len()));
    ip_->output(std::move(seg), net::L4Req{net::kProtoUdp, cookie});
    return chan::RichPtr{};
  };
  ue.rx_done = [this](const chan::RichPtr& frame) { ip_->rx_done(frame); };
  ue.notify_readable = [this](net::SockId s) {
    if (env().sock_event) env().sock_event(0, 'U', s, 0);
  };
  udp_ = std::make_unique<net::UdpEngine>(std::move(ue));
}

void StackServer::install_inline_nic_handlers() {
  const std::uint32_t inc = incarnation();
  for (const auto& ifc : cfg_.ip.interfaces) {
    drv::SimNic* nic = nic_of(ifc.index);
    const int ifindex = ifc.index;
    nic->set_tx_done([this, inc, nic, ifindex](std::uint64_t cookie,
                                                bool ok) {
      if (incarnation() != inc) return;
      post_control(
          [this, cookie, ok, nic, ifindex](sim::Context&) {
            auto& backlog = tx_backlog_[ifindex];
            while (!backlog.empty() && nic->tx_ring_free() > 0) {
              auto [frame, pending_cookie] = std::move(backlog.front());
              backlog.pop_front();
              nic->tx_post(std::move(frame), pending_cookie);
            }
            if (ip_) ip_->tx_done(cookie, ok);
          },
          100);
    });
    nic->set_rx([this, inc, ifindex](
                    int, std::vector<drv::SimNic::RxCompletion>&& burst) {
      if (incarnation() != inc) return;
      post_control(
          [this, ifindex, b = drv::SimNic::RxBurst(std::move(burst))](
              sim::Context& ctx) {
            for (const auto& c : b.frames()) {
              charge(ctx, sim().costs().drv_packet_proc +
                              sim().costs().ip_packet_proc);
              if (ip_ == nullptr) return;
              chan::RichPtr frame = c.buffer;
              frame.length = c.len;
              int& posted = posted_[ifindex];
              if (posted > 0) --posted;
              ip_->input(ifindex, frame);
            }
            post_rx_buffers(ifindex, ctx);
          },
          100);
    });
    nic->set_link_change([this, inc, ifindex](bool up) {
      if (incarnation() != inc) return;
      post_control(
          [this, ifindex, up](sim::Context& ctx) {
            if (up) {
              posted_[ifindex] = 0;
              post_rx_buffers(ifindex, ctx);
              if (tcp_) tcp_->on_path_restored();
            }
          },
          50);
    });
  }
}

void StackServer::post_rx_buffers(int ifindex, sim::Context& ctx) {
  int& posted = posted_[ifindex];
  while (posted < kRxBuffersPerQueue) {
    chan::RichPtr buf = rx_pool_->alloc(kRxBufSize);
    if (!buf.valid()) return;
    if (cfg_.inline_drivers) {
      drv::SimNic* nic = nic_of(ifindex);
      if (nic == nullptr || !nic->rx_post(buf)) {
        rx_pool_->release(buf);
        return;
      }
    } else {
      chan::Message m;
      m.opcode = kDrvRxBuf;
      m.ptr = buf;
      if (!send_to(driver_name(ifindex), m, ctx)) {
        rx_pool_->release(buf);
        return;
      }
    }
    ++posted;
  }
}

void StackServer::start(bool restart) {
  pool_ = env().get_pool("stack.buf", 48u << 20);
  rx_pool_ = env().get_pool("stack.rx", 32u << 20);

  std::vector<std::string> peers = {kStoreName, kSyscallName};
  if (!cfg_.inline_drivers) {
    for (const auto& ifc : cfg_.ip.interfaces)
      peers.push_back(driver_name(ifc.index));
  }
  for (const auto& p : peers) {
    expose_in_queue(p, 1024);
    connect_out(p);
  }

  build_engines();
  if (cfg_.inline_drivers) {
    install_inline_nic_handlers();
    post_control([this](sim::Context& ctx) {
      for (const auto& ifc : cfg_.ip.interfaces)
        post_rx_buffers(ifc.index, ctx);
    });
  }

  if (restart) {
    restore_replies_expected_ = 4;
    post_control([this](sim::Context& ctx) {
      for (std::uint32_t key :
           {kKeyIpConfig, kKeyUdpSockets, kKeyTcpListeners, kKeyPfRules}) {
        if (!store_get(key, ctx)) --restore_replies_expected_;
      }
      if (restore_replies_expected_ <= 0) announce(true);
    });
  } else {
    post_control([this](sim::Context& ctx) {
      store_state(ctx);
      announce(false);
    });
  }
}

void StackServer::on_killed() {
  tx_backlog_.clear();
  pf_.reset();
  // The dying process cannot send done-reports; queued receive frames go
  // straight back to their owning pool (ip_ may already be gone when the
  // engine destructors run).  In-flight descriptors leak with IP's records,
  // bounded per crash.
  drop_engine(tcp_);
  drop_engine(udp_);
  ip_.reset();
  posted_.clear();
}

void StackServer::store_tcp_listeners(sim::Context& ctx) {
  store_put(kKeyTcpListeners,
            net::TcpEngine::serialize_listeners(tcp_->listeners()), *pool_,
            ctx);
}

void StackServer::store_udp_sockets(sim::Context& ctx) {
  store_put(kKeyUdpSockets, net::UdpEngine::serialize_socks(udp_->snapshot()),
            *pool_, ctx);
}

void StackServer::store_state(sim::Context& ctx) {
  store_put(kKeyIpConfig, ip_->config().serialize(), *pool_, ctx);
  store_udp_sockets(ctx);
  store_tcp_listeners(ctx);
  if (pf_) {
    store_put(kKeyPfRules, net::PfEngine::serialize_rules(pf_->rules()),
              *pool_, ctx);
  }
}

void StackServer::on_stored(std::uint32_t key, std::span<const std::byte> value,
                            sim::Context&) {
  switch (key) {
    case kKeyIpConfig:
      if (auto cfg = net::IpConfig::parse(value)) {
        ip_->set_config(std::move(*cfg));
      }
      break;
    case kKeyUdpSockets:
      if (auto socks = net::UdpEngine::parse_socks(value)) {
        udp_->restore(*socks);
      }
      break;
    case kKeyTcpListeners:
      if (auto recs = net::TcpEngine::parse_listeners(value)) {
        for (const auto& rec : *recs) tcp_->restore_listener(rec);
      }
      break;
    case kKeyPfRules:
      if (auto rules = net::PfEngine::parse_rules(value); rules && pf_) {
        pf_->set_rules(std::move(*rules));
      }
      break;
    default:
      break;
  }
  if (--restore_replies_expected_ == 0) announce(true);
}

void StackServer::sock_batch(std::span<const WireSockOp> ops,
                             sim::Context& ctx, const SockReplyFn& reply) {
  run_sock_batch(ops, [&](const WireSockOp& op) {
    charge(ctx, sim().costs().socket_op + env().knobs.legacy_per_packet / 4);
    // The same state changes the split transports store on: the listener
    // set and the UDP socket table, so a crash of this server restores them.
    if (op.proto == 'U') {
      if (op.opcode == kSockSendTo) charge(ctx, sim().costs().udp_packet_proc);
      const SockOpResult res = apply_udp_op(*udp_, op);
      reply(res.reply);
      if (res.changed) store_udp_sockets(ctx);
      return res.reply;
    }
    const SockOpResult res = apply_tcp_op(*tcp_, op);
    reply(res.reply);
    if (res.changed) store_tcp_listeners(ctx);
    return res.reply;
  });
}

void StackServer::on_message(const std::string& from, const chan::Message& m,
                             sim::Context& ctx) {
  const auto& costs = sim().costs();
  switch (m.opcode) {
    case kDrvTxDone:
      if (ip_) ip_->tx_done(m.req_id, m.arg0 != 0);
      return;
    case kDrvRx:
    case kDrvRxBurst: {
      // A receive interrupt from a channel-attached driver.  The combined
      // stack has no further hop to aggregate for, so each frame takes the
      // in-process path; a burst still amortized the driver's kernel
      // message and this server's wakeup.
      const int ifindex = ifindex_of(from);
      std::vector<chan::RichPtr> burst;
      auto it = posted_.find(ifindex);
      for (const auto& f : rx_frames(m, *env().pools, burst)) {
        charge(ctx, costs.ip_packet_proc + env().knobs.legacy_per_packet);
        if (!env().knobs.csum_offload)
          charge(ctx, costs.checksum_cost(f.length));
        if (it != posted_.end() && it->second > 0) --it->second;
        if (ip_) ip_->input(ifindex, f);
      }
      post_rx_buffers(ifindex, ctx);
      return;
    }
    case kDrvLink:
      if (m.arg0 != 0) {
        posted_[ifindex_of(from)] = 0;
        post_rx_buffers(ifindex_of(from), ctx);
        if (tcp_) tcp_->on_path_restored();
      }
      return;
    case kSockBatch: {
      // A packed submission-queue flush, possibly mixing TCP and UDP ops.
      const auto ops = parse_records<WireSockOp>(env().pools->read(m.ptr));
      sock_batch(ops, ctx,
                 [&](const chan::Message& r) { send_to(from, r, ctx); });
      return;
    }
  }
}

void StackServer::on_peer_up(const std::string& peer, bool restarted,
                             sim::Context& ctx) {
  if (peer.rfind("drv", 0) == 0) {
    const int ifindex = ifindex_of(peer);
    if (restarted) {
      posted_[ifindex] = 0;
      if (ip_) ip_->resubmit_tx(ifindex);
    }
    post_rx_buffers(ifindex, ctx);
  }
}

}  // namespace newtos::servers
