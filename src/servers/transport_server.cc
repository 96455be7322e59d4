#include "src/servers/transport_server.h"

#include <algorithm>
#include <cstring>

namespace newtos::servers {

TransportServer::TransportServer(
    NodeEnv* env, sim::SimCore* core, char proto,
    std::function<net::Ipv4Addr(net::Ipv4Addr)> src_for, int shard,
    int shard_count)
    : Server(env, transport_shard_name(proto, shard), core),
      proto_(proto),
      src_for_(std::move(src_for)),
      shard_(shard),
      shard_count_(shard_count),
      siblings_(transport_shard_siblings(proto, shard, shard_count)) {}

void TransportServer::enable_rx_fastpath(
    net::IpFastPath::Config cfg, std::vector<std::string> driver_names) {
  rx_fastpath_ = true;
  fastpath_cfg_ = std::move(cfg);
  fastpath_cfg_.gro = fastpath_cfg_.gro && proto_ == 'T';  // a TCP-only merge
  fastpath_drivers_ = std::move(driver_names);
}

void TransportServer::open_channels(std::size_t peer_queue_cap) {
  for (const char* p : {kIpName, kStoreName, kPfName, kSyscallName}) {
    expose_in_queue(p, peer_queue_cap);
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
}

chan::RichPtr TransportServer::send_ip_tx(const net::TxSeg& seg,
                                          std::uint64_t cookie,
                                          sim::Context& ctx) {
  chan::RichPtr desc =
      net::pack_chain(*pool_, seg.l4_header, seg.payload, seg.offload);
  if (!desc.valid()) return desc;
  chan::Message m;
  m.opcode = kIpTx;
  m.req_id = cookie;
  m.ptr = desc;
  m.arg0 = pack_addrs(seg.src, seg.dst);
  m.arg1 = seg.protocol;
  if (!send_to(kIpName, m, ctx)) {
    pool_->release(desc);
    return {};
  }
  return desc;
}

void TransportServer::build_fastpath(
    std::function<void(net::L4AggPacket&&)> deliver_agg) {
  if (!rx_fastpath_) return;
  net::IpFastPath::Env fe;
  fe.pools = env().pools;
  fe.deliver = [this](std::uint8_t, net::L4Packet&& pkt) {
    deliver(std::move(pkt));
  };
  fe.deliver_agg = std::move(deliver_agg);
  fe.pf_check = [this](const net::PfQuery& q, std::uint64_t cookie) {
    // Only while PF is ready, as IP does: until it announces, the query
    // stays pending and resubmit_pf sends it then, oldest first, and the
    // held frames drain.
    if (peer_ready(kPfName)) {
      send_to(kPfName, make_pf_check(cookie, q), cur());
    }
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

bool TransportServer::is_sibling(const std::string& peer) const {
  return std::find(siblings_.begin(), siblings_.end(), peer) !=
         siblings_.end();
}

void TransportServer::replicate_close(std::uint32_t s, sim::Context& ctx) {
  chan::Message m;
  m.opcode = kShardRepClose;
  m.socket = s;
  send_to_all(siblings_, m, ctx);
}

void TransportServer::on_message(const std::string& from,
                                 const chan::Message& m, sim::Context& ctx) {
  switch (m.opcode) {
    case kL4Rx: {
      net::L4Packet pkt;
      pkt.frame = m.ptr;
      pkt.l4_offset = static_cast<std::uint16_t>(m.arg0 >> 16);
      pkt.l4_length = static_cast<std::uint16_t>(m.arg0);
      pkt.src = unpack_hi(m.arg1);
      pkt.dst = unpack_lo(m.arg1);
      deliver(std::move(pkt));
      return;
    }
    case kDrvRxFast: {
      // RSS fast path: a queue's worth of frames straight from the driver.
      // The IP work they skipped (validation, GRO, PF) is paid here, on this
      // shard's core, instead of serializing on the central IP core.
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
          p->note_return(rec.frame, transport_borrower(proto_, shard_));
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
    case kConnList: {
      // PF is rebuilding its connection table (Section V-D).
      const auto keys = connection_keys();
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
    case kStoreRelease:  // PF is done with our kConnListReply chunk
      pool_->release(m.ptr);
      return;
    case kWorkProbe: {
      // The reincarnation server's end-to-end probe: a silently wedged
      // incarnation drops it (Server::drop_work) and the missing ack is the
      // detection signal.  The ack judges THIS replica alone — a wedged IP
      // or PF downstream must never get a healthy transport restarted — and
      // goes out only once the canary quantum is paid, so its latency scales
      // with any slowdown (CostModel::probe_canary).  The echo still bounces
      // through IP and PF; the prober ignores the deeper duplicate acks.
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
      const auto ops = parse_records<WireSockOp>(env().pools->read(m.ptr));
      sock_batch(ops, ctx,
                 [&](const chan::Message& r) { send_to(from, r, ctx); });
      return;
    }
  }
}

void TransportServer::on_peer_up(const std::string& peer, bool restarted,
                                 sim::Context& ctx) {
  (void)restarted;
  (void)ctx;
  if (peer == kPfName && fastpath_) fastpath_->resubmit_pf();
}

}  // namespace newtos::servers
