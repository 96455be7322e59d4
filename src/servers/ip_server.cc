#include "src/servers/ip_server.h"

#include <algorithm>
#include <cstdlib>

#include "src/net/pbuf.h"

namespace newtos::servers {

IpServer::IpServer(NodeEnv* env, sim::SimCore* core, Config cfg)
    : Server(env, kIpName, core), cfg_(std::move(cfg)) {
  for (int s = 0; s < cfg_.tcp_shards; ++s)
    l4_peers_.push_back(tcp_shard_name(s));
  for (int s = 0; s < cfg_.udp_shards; ++s)
    l4_peers_.push_back(udp_shard_name(s));
}

int IpServer::ifindex_of(const std::string& driver) {
  return std::atoi(driver.c_str() + 3);  // "drvN"
}

void IpServer::deliver_l4(char proto, net::L4Packet&& pkt) {
  // The steering point of the sharded transport plane: one flow always
  // hashes to the same replica, so replicas never share connections.
  const std::string target =
      proto == 'U' ? udp_shard_name(steer(pkt, cfg_.udp_shards))
                   : tcp_shard_name(steer(pkt, cfg_.tcp_shards));
  chan::Message m;
  m.opcode = kL4Rx;
  m.ptr = pkt.frame;
  m.arg0 = (static_cast<std::uint64_t>(pkt.l4_offset) << 16) | pkt.l4_length;
  m.arg1 = pack_addrs(pkt.src, pkt.dst);
  if (!send_to(target, m, cur())) {
    engine_->rx_done(pkt.frame);
    return;
  }
  ++l4_msgs_;
  ++l4_frames_;
}

int IpServer::steer(const net::L4Packet& pkt, int shards) {
  if (shards <= 1) return 0;
  // Both TCP and UDP start with source and destination port, big-endian.
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  auto bytes = env().pools->read(pkt.frame);
  if (bytes.size() >= static_cast<std::size_t>(pkt.l4_offset) + 4) {
    net::ByteReader r{bytes.subspan(pkt.l4_offset, 4)};
    sport = r.u16();
    dport = r.u16();
  }
  return net::steer_shard(pkt.src, pkt.dst, sport, dport, shards);
}

void IpServer::build_engine() {
  net::IpEngine::Env e;
  e.clock = clock();
  e.timers = timers();
  e.pools = env().pools;
  e.hdr_pool = hdr_pool_;
  e.rx_pool = rx_pool_;
  e.csum_offload = env().knobs.csum_offload;
  e.send_frame = [this](int ifindex, const net::TxFrame& frame,
                        std::uint64_t cookie) {
    sim::Context& ctx = cur();
    charge(ctx, 150);  // descriptor packing
    chan::RichPtr desc =
        net::pack_chain(*hdr_pool_, frame.header, frame.payload,
                        frame.offload);
    if (!desc.valid()) return desc;  // pool exhausted: RTO recovers
    chan::Message m;
    m.opcode = kDrvTx;
    m.req_id = cookie;
    m.ptr = desc;
    if (send_to(driver_name(ifindex), m, ctx)) return desc;
    hdr_pool_->release(desc);  // driver down/full: dropped, RTO recovers
    return chan::RichPtr{};
  };
  if (cfg_.use_pf) {
    e.pf_check = [this](const net::PfQuery& q, std::uint64_t cookie) {
      // Only while PF is ready.  Until it announces, the query waits in the
      // engine and then goes out with every other unanswered one, oldest
      // first (on_peer_up), so no query overtakes an older one and nothing
      // is ever lost here (Section V-D).
      if (peer_ready(kPfName)) {
        send_to(kPfName, make_pf_check(cookie, q), cur());
      }
    };
  }
  e.deliver_tcp = [this](net::L4Packet&& pkt) {
    deliver_l4('T', std::move(pkt));
  };
  e.deliver_udp = [this](net::L4Packet&& pkt) {
    deliver_l4('U', std::move(pkt));
  };
  if (cfg_.gro) {
    e.deliver_tcp_agg = [this](net::L4AggPacket&& agg) {
      sim::Context& ctx = cur();
      charge(ctx, 150);  // descriptor packing, same as the TX-side charge
      const int shard = net::steer_shard(agg.src, agg.dst, agg.sport,
                                         agg.dport, cfg_.tcp_shards);
      std::vector<WireRxFrame> recs;
      recs.reserve(agg.segs.size());
      for (const auto& seg : agg.segs) {
        WireRxFrame rec;
        rec.frame = seg.frame;
        rec.l4_offset = seg.l4_offset;
        rec.l4_length = seg.l4_length;
        recs.push_back(rec);
      }
      chan::RichPtr desc = pack_records<WireRxFrame>(*hdr_pool_, recs);
      if (!desc.valid()) {
        // Pool exhausted: degrade to the classic per-frame leg.
        for (auto& seg : agg.segs) deliver_l4('T', std::move(seg));
        return;
      }
      chan::Message m;
      m.opcode = kL4RxAgg;
      m.ptr = desc;
      m.arg0 = recs.size();
      m.arg1 = pack_addrs(agg.src, agg.dst);
      if (!send_to(tcp_shard_name(shard), m, ctx)) {
        hdr_pool_->release(desc);
        for (auto& seg : agg.segs) engine_->rx_done(seg.frame);
        return;
      }
      ++l4_msgs_;
      l4_frames_ += recs.size();
      // The frame references are now on loan to the replica: if it dies
      // with the message still queued, reclaim() on its restart recovers
      // them (the replica note_returns each frame as it unpacks).
      for (const auto& seg : agg.segs) {
        rx_pool_->note_borrow(seg.frame, transport_borrower('T', shard));
      }
    };
  }
  if (cfg_.gro && cfg_.use_pf) {
    e.pf_check_batch =
        [this](std::span<const std::pair<net::PfQuery, std::uint64_t>> qs) {
          if (!peer_ready(kPfName)) return;  // as pf_check: they wait
          sim::Context& ctx = cur();
          std::vector<WirePfQuery> recs;
          recs.reserve(qs.size());
          for (const auto& [q, cookie] : qs) {
            recs.push_back(WirePfQuery{cookie, q});
          }
          chan::RichPtr desc = pack_records<WirePfQuery>(*hdr_pool_, recs);
          if (desc.valid()) {
            chan::Message m;
            m.opcode = kPfCheckBatch;
            m.ptr = desc;
            m.arg0 = recs.size();
            if (send_to(kPfName, m, ctx)) return;
            hdr_pool_->release(desc);
          }
          // Pool exhausted or PF's queue full: per-query messages;
          // unanswered queries are repeated on PF's restart
          // (resubmit_pf_pending).
          for (const auto& [q, cookie] : qs) {
            send_to(kPfName, make_pf_check(cookie, q), ctx);
          }
        };
  }
  e.seg_done = [this](const net::L4Req& req, bool sent) {
    chan::Message m;
    m.opcode = kIpTxDone;
    m.req_id = req.id;
    m.arg0 = sent ? 1 : 0;
    send_to(l4_peers_[req.peer], m, cur());
  };
  engine_ = std::make_unique<net::IpEngine>(std::move(e), cfg_.ip);
}

void IpServer::start(bool restart) {
  hdr_pool_ = env().get_pool("ip.hdr", 16u << 20);
  rx_pool_ = env().get_pool("ip.rx", 32u << 20);

  std::vector<std::string> peers = l4_peers_;
  peers.push_back(kStoreName);
  if (cfg_.use_pf) peers.push_back(kPfName);
  for (const auto& ifc : cfg_.ip.interfaces)
    peers.push_back(driver_name(ifc.index));
  // Supervision probes us directly (not just through a transport).
  if (env().knobs.supervision) peers.push_back(kRsName);
  for (const auto& p : peers) {
    expose_in_queue(p, 1024);
    connect_out(p);
  }

  build_engine();

  if (restart) {
    // Recover the routing/interface configuration from the storage server
    // before announcing (Table I: small static state, easy to restore).
    post_control([this](sim::Context& ctx) {
      // No storage: come up with the compiled-in config.
      if (!store_get(kKeyIpConfig, ctx)) announce(true);
    });
  } else {
    post_control([this](sim::Context& ctx) {
      store_state(ctx);
      announce(false);
    });
  }
}

void IpServer::store_state(sim::Context& ctx) {
  store_put(kKeyIpConfig, engine_->config().serialize(), *hdr_pool_, ctx);
}

void IpServer::on_stored(std::uint32_t, std::span<const std::byte> value,
                         sim::Context&) {
  if (auto cfg = net::IpConfig::parse(value)) {
    engine_->set_config(std::move(*cfg));
  }
  announce(true);
}

void IpServer::on_killed() {
  // The engine's records go with it: in-flight frame headers and
  // descriptor chunks leak, bounded per crash.
  engine_.reset();
  posted_.clear();
  probe_from_.clear();
}

void IpServer::post_rx_buffers(int ifindex, sim::Context& ctx) {
  int& posted = posted_[ifindex];
  const int target = kRxBuffersPerQueue * cfg_.rx_queues;
  while (posted < target) {
    chan::RichPtr buf = rx_pool_->alloc(kRxBufSize);
    if (!buf.valid()) return;
    chan::Message m;
    m.opcode = kDrvRxBuf;
    m.ptr = buf;
    if (!send_to(driver_name(ifindex), m, ctx)) {
      rx_pool_->release(buf);
      return;
    }
    ++posted;
  }
}

void IpServer::on_message(const std::string& from, const chan::Message& m,
                          sim::Context& ctx) {
  const auto& costs = sim().costs();
  switch (m.opcode) {
    case kIpTx: {
      charge(ctx, costs.ip_packet_proc);
      auto chain = net::unpack_chain(*env().pools, m.ptr);
      const auto peer = std::find(l4_peers_.begin(), l4_peers_.end(), from);
      if (!chain || peer == l4_peers_.end()) {
        // Malformed request, or not from a transport: reply failure
        // (validate & ignore).
        chan::Message done;
        done.opcode = kIpTxDone;
        done.req_id = m.req_id;
        done.arg0 = 0;
        send_to(from, done, ctx);
        return;
      }
      net::TxSeg seg;
      seg.l4_header = chain->header;
      seg.payload = std::move(chain->payload);
      seg.offload = chain->offload;
      seg.offload.tso = seg.offload.tso && env().knobs.tso;
      seg.src = unpack_hi(m.arg0);
      seg.dst = unpack_lo(m.arg0);
      seg.protocol = static_cast<std::uint8_t>(m.arg1);
      if (!env().knobs.csum_offload) {
        charge(ctx, costs.checksum_cost(seg.total_len()));
      }
      engine_->output(
          std::move(seg),
          net::L4Req{static_cast<std::uint32_t>(peer - l4_peers_.begin()),
                     m.req_id});
      return;
    }
    case kPfVerdict:
      charge(ctx, 120);
      engine_->pf_verdict(m.req_id, m.arg0 != 0);
      return;
    case kDrvTxDone:
      charge(ctx, 150);
      engine_->tx_done(m.req_id, m.arg0 != 0);
      return;
    case kDrvRx:
    case kDrvRxBurst: {
      // One dequeue per receive interrupt; the per-frame protocol work is
      // still charged per frame.
      const int ifindex = ifindex_of(from);
      std::vector<chan::RichPtr> burst;
      const auto frames = rx_frames(m, *env().pools, burst);
      auto it = posted_.find(ifindex);
      for (const auto& f : frames) {
        charge(ctx, costs.ip_packet_proc);
        if (!env().knobs.csum_offload)
          charge(ctx, costs.checksum_cost(f.length));
        if (it != posted_.end() && it->second > 0) --it->second;
      }
      if (cfg_.gro && frames.size() > 1) {
        engine_->input_burst(ifindex, frames);
      } else {
        for (const auto& f : frames) engine_->input(ifindex, f);
      }
      post_rx_buffers(ifindex, ctx);  // keep the device fed
      return;
    }
    case kDrvRxCredit: {
      // The driver fed this many RX buffers to fast-path frames we never
      // saw: repost so the rings stay level.  No protocol work was done
      // here — the shard paid it on its own core.
      charge(ctx, 80);
      const int ifindex = ifindex_of(from);
      auto it = posted_.find(ifindex);
      if (it != posted_.end()) {
        it->second -= std::min<int>(it->second, static_cast<int>(m.arg0));
      }
      post_rx_buffers(ifindex, ctx);
      return;
    }
    case kFastFallback: {
      // A transport's fast path handed a frame back: run the classic input
      // path verbatim.  The buffer credit was already granted by the
      // driver, so posted_ bookkeeping stays untouched.
      charge(ctx, costs.ip_packet_proc);
      const int ifindex = static_cast<int>(m.arg1);
      if (!env().knobs.csum_offload)
        charge(ctx, costs.checksum_cost(m.ptr.length));
      engine_->input(ifindex, m.ptr);
      return;
    }
    case kPfVerdictBatch: {
      const auto recs =
          parse_records<WirePfVerdict>(env().pools->read(m.ptr));
      for (const auto& rec : recs) {
        charge(ctx, 120);
        engine_->pf_verdict(rec.cookie, rec.allow != 0);
      }
      env().pools->release(m.ptr);  // verdict array back to PF's pool
      return;
    }
    case kDrvLink:
      if (m.arg0 != 0) {
        posted_[ifindex_of(from)] = 0;  // device was reset: rings are empty
        post_rx_buffers(ifindex_of(from), ctx);
        // Tell every transport replica the path healed so they retransmit
        // promptly.
        chan::Message up;
        up.opcode = kDrvLink;
        up.arg0 = 1;
        for (int s = 0; s < cfg_.tcp_shards; ++s)
          send_to(tcp_shard_name(s), up, ctx);
        for (int s = 0; s < cfg_.udp_shards; ++s)
          send_to(udp_shard_name(s), up, ctx);
      }
      return;
    case kL4RxDone:
      charge(ctx, 80);
      engine_->rx_done(m.ptr);
      return;
    case kWorkProbe: {
      // Reincarnation work probe bounced through a transport: do one IP
      // hop's worth of work and pass it to the packet filter (the last hop
      // of the synthetic echo) when there is one.  A DIRECT probe instead
      // pays the canary quantum so its latency exposes slowdowns.
      charge(ctx, from == kRsName ? costs.probe_canary
                                  : costs.ip_packet_proc / 2);
      if (from == kRsName) {
        // A DIRECT probe from the reincarnation server judges this server
        // alone: ack shallow, after the canary is paid.  Deep echoes
        // through PF would make us answer for a wedged/slow packet filter
        // — the supervisor probes PF separately and must blame the right
        // component.
        reply_after_charges([this, cookie = m.req_id](sim::Context& c) {
          chan::Message ack;
          ack.opcode = kWorkProbeAck;
          ack.req_id = cookie;
          ack.arg0 = 1;
          send_to(kRsName, ack, c);
        });
        return;
      }
      if (cfg_.use_pf) {
        chan::Message p;
        p.opcode = kWorkProbe;
        p.req_id = m.req_id;
        if (send_to(kPfName, p, ctx)) {
          // A PF that accepts probes but never acks (alive-but-wedged)
          // would grow this map forever; cookies are monotonic, so drop
          // the oldest once a sane bound is passed.
          probe_from_[m.req_id] = from;
          while (probe_from_.size() > 256) {
            probe_from_.erase(probe_from_.begin());
          }
          return;
        }
        // PF down/mid-restart: its heartbeats cover it; short-circuit.
      }
      chan::Message ack;
      ack.opcode = kWorkProbeAck;
      ack.req_id = m.req_id;
      ack.arg0 = 1;
      send_to(from, ack, ctx);
      return;
    }
    case kWorkProbeAck: {
      auto it = probe_from_.find(m.req_id);
      if (it == probe_from_.end()) return;
      chan::Message ack;
      ack.opcode = kWorkProbeAck;
      ack.req_id = m.req_id;
      ack.arg0 = m.arg0 + 1;
      send_to(it->second, ack, ctx);
      probe_from_.erase(it);
      return;
    }
    default:
      return;
  }
}

void IpServer::on_peer_up(const std::string& peer, bool restarted,
                          sim::Context& ctx) {
  if (peer.rfind("drv", 0) == 0) {
    const int ifindex = ifindex_of(peer);
    if (restarted) {
      // The device was reset: everything in its rings is gone.  Prefer
      // duplicates over losses (Section V-D): resubmit pending frames.
      posted_[ifindex] = 0;
      if (engine_) engine_->resubmit_tx(ifindex);
    }
    post_rx_buffers(ifindex, ctx);
    return;
  }
  if (peer == kPfName && engine_) {
    // PF is ready: send every unanswered query, oldest first.  After a
    // restart these are the ones PF lost, so no packet is lost across a PF
    // restart (Section V-D, Figure 5); the others waited for this announce.
    engine_->resubmit_pf_pending();
  }
}

void IpServer::on_peer_down(const std::string& peer, sim::Context& ctx) {
  (void)ctx;
  for (int s = 0; s < cfg_.tcp_shards; ++s) {
    if (peer != tcp_shard_name(s)) continue;
    if (rx_pool_ != nullptr) {
      // The replica died and its queues were reset: frames an in-flight
      // kL4RxAgg or kDrvRxFast still referenced would strand without
      // this.  Frames the replica had already unpacked were note_returned
      // (and its rcvq was drained by its own teardown path), so only the
      // dead messages' loans are on the ledger.  This runs before the
      // restarted incarnation can receive anything, so no live loan is
      // touched.
      rx_pool_->reclaim(transport_borrower('T', s));
    }
    return;
  }
  for (int s = 0; s < cfg_.udp_shards; ++s) {
    if (peer != udp_shard_name(s)) continue;
    if (rx_pool_ != nullptr) {
      // UDP replicas borrow frames too once the RSS fast path posts
      // kDrvRxFast straight to them; same reclaim discipline.
      rx_pool_->reclaim(transport_borrower('U', s));
    }
    return;
  }
}

}  // namespace newtos::servers
