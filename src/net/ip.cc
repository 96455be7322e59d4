#include "src/net/ip.h"

#include <cassert>
#include <cstring>

#include "src/net/checksum.h"
#include "src/net/gro.h"

namespace newtos::net {

// --- IpConfig (de)serialization: the recoverable state of Table I -------------

std::vector<std::byte> IpConfig::serialize() const {
  std::vector<std::byte> out;
  auto put32 = [&out](std::uint32_t v) {
    const std::size_t at = out.size();
    out.resize(at + sizeof v);
    std::memcpy(out.data() + at, &v, sizeof v);
  };
  put32(static_cast<std::uint32_t>(interfaces.size()));
  for (const auto& i : interfaces) {
    put32(static_cast<std::uint32_t>(i.index));
    for (auto b : i.mac.bytes) out.push_back(std::byte{b});
    out.push_back(std::byte{0});  // pad
    out.push_back(std::byte{0});
    put32(i.addr.value);
    put32(i.subnet.network.value);
    put32(static_cast<std::uint32_t>(i.subnet.prefix_len));
    put32(i.mtu);
  }
  put32(static_cast<std::uint32_t>(routes.size()));
  for (const auto& r : routes) {
    put32(r.dest.network.value);
    put32(static_cast<std::uint32_t>(r.dest.prefix_len));
    put32(r.gateway.value);
    put32(static_cast<std::uint32_t>(r.ifindex));
  }
  return out;
}

std::optional<IpConfig> IpConfig::parse(std::span<const std::byte> data) {
  std::size_t off = 0;
  auto get32 = [&](std::uint32_t& v) {
    if (off + 4 > data.size()) return false;
    std::memcpy(&v, data.data() + off, 4);
    off += 4;
    return true;
  };
  IpConfig cfg;
  std::uint32_t n;
  if (!get32(n)) return std::nullopt;
  for (std::uint32_t k = 0; k < n; ++k) {
    Interface i;
    std::uint32_t v;
    if (!get32(v)) return std::nullopt;
    i.index = static_cast<int>(v);
    if (off + 8 > data.size()) return std::nullopt;
    for (auto& b : i.mac.bytes)
      b = std::to_integer<std::uint8_t>(data[off++]);
    off += 2;  // pad
    if (!get32(i.addr.value)) return std::nullopt;
    if (!get32(i.subnet.network.value)) return std::nullopt;
    if (!get32(v)) return std::nullopt;
    i.subnet.prefix_len = static_cast<int>(v);
    if (!get32(i.mtu)) return std::nullopt;
    cfg.interfaces.push_back(i);
  }
  if (!get32(n)) return std::nullopt;
  for (std::uint32_t k = 0; k < n; ++k) {
    Route r;
    std::uint32_t v;
    if (!get32(r.dest.network.value)) return std::nullopt;
    if (!get32(v)) return std::nullopt;
    r.dest.prefix_len = static_cast<int>(v);
    if (!get32(r.gateway.value)) return std::nullopt;
    if (!get32(v)) return std::nullopt;
    r.ifindex = static_cast<int>(v);
    cfg.routes.push_back(r);
  }
  return cfg;
}

// --- IpEngine -------------------------------------------------------------------

IpEngine::IpEngine(Env env, IpConfig cfg)
    : env_(std::move(env)),
      cfg_(std::move(cfg)),
      arp_(ArpEngine::Env{
          env_.clock, env_.timers,
          [this](int ifindex, const ArpPacket& pkt) {
            send_arp_frame(ifindex, pkt);
          },
          [this](int ifindex, Ipv4Addr ip, MacAddr mac) {
            arp_resolved(ifindex, ip, mac);
          }}) {}

const Interface* IpEngine::iface(int ifindex) const {
  for (const auto& i : cfg_.interfaces)
    if (i.index == ifindex) return &i;
  return nullptr;
}

std::optional<std::pair<int, Ipv4Addr>> IpEngine::route(Ipv4Addr dst) const {
  // On-link destinations first.
  for (const auto& i : cfg_.interfaces) {
    if (i.subnet.contains(dst)) return std::make_pair(i.index, dst);
  }
  // Longest-prefix match over the route table.
  const Route* best = nullptr;
  for (const auto& r : cfg_.routes) {
    if (!r.dest.contains(dst)) continue;
    if (best == nullptr || r.dest.prefix_len > best->dest.prefix_len) best = &r;
  }
  if (best == nullptr) return std::nullopt;
  const Ipv4Addr hop = best->gateway.is_zero() ? dst : best->gateway;
  return std::make_pair(best->ifindex, hop);
}

void IpEngine::drop_seg(TxSeg&& seg, const L4Req& req) {
  // Payload refs are owned by L4's sndbuf; dropping here loses nothing.
  if (req.peer == L4Req::kIp) {
    env_.hdr_pool->release(seg.l4_header);  // our own ICMP reply
  } else if (env_.seg_done) {
    env_.seg_done(req, false);
  }
}

void IpEngine::output(TxSeg&& seg, const L4Req& req) {
  ++stats_.tx_segs;
  auto hop = route(seg.dst);
  if (!hop) {
    ++stats_.dropped_no_route;
    drop_seg(std::move(seg), req);
    return;
  }
  const auto [ifindex, next_hop] = *hop;

  if (env_.pf_check) {
    // Parse ports/flags from the L4 header for the filter.
    PfQuery q;
    q.dir = PfDir::Out;
    q.protocol = seg.protocol;
    q.src = seg.src;
    q.dst = seg.dst;
    auto hdr = env_.pools->read(seg.l4_header);
    if (seg.protocol == kProtoTcp || seg.protocol == kProtoUdp) {
      ByteReader r{hdr};
      q.sport = r.u16();
      q.dport = r.u16();
      if (seg.protocol == kProtoTcp && hdr.size() >= kTcpHeaderLen) {
        q.tcp_flags = std::to_integer<std::uint8_t>(hdr[13]);
      }
    }
    PendingPf pending;
    pending.query = q;
    pending.outbound = true;
    pending.seg = std::move(seg);
    pending.req = req;
    pending.ifindex = ifindex;
    // Remember the resolved hop in ip_hdr.dst (reused field).
    pending.ip_hdr.dst = next_hop;
    env_.pf_check(q, pf_pending_.add(std::move(pending)));
    return;
  }
  continue_output(std::move(seg), req, ifindex, next_hop);
}

void IpEngine::pf_verdict(std::uint64_t cookie, bool allow) {
  auto rec = pf_pending_.take(cookie);
  if (!rec) return;  // stale verdict from before a crash
  PendingPf& pending = *rec;

  if (pending.outbound) {
    if (!allow) {
      ++stats_.dropped_pf;
      drop_seg(std::move(pending.seg), pending.req);
      return;
    }
    continue_output(std::move(pending.seg), pending.req, pending.ifindex,
                    pending.ip_hdr.dst);
  } else if (pending.is_agg) {
    if (!allow) {
      drop_agg(std::move(pending.agg));
      return;
    }
    deliver_agg(std::move(pending.agg));
  } else {
    if (!allow) {
      ++stats_.dropped_pf;
      rx_done(pending.frame);
      return;
    }
    deliver_inbound(pending.ifindex, pending.frame, pending.ip_hdr,
                    pending.l4_offset, pending.l4_length);
  }
}

std::size_t IpEngine::resubmit_pf_pending() {
  std::size_t n = 0;
  pf_pending_.for_each([&](std::uint64_t cookie, const PendingPf& pending) {
    const PfQuery q = pending.query;  // an in-process filter answers at once
    env_.pf_check(q, cookie);
    ++n;
  });
  return n;
}

void IpEngine::continue_output(TxSeg&& seg, const L4Req& req, int ifindex,
                               Ipv4Addr next_hop) {
  const Interface* ifp = iface(ifindex);
  if (ifp == nullptr) {
    drop_seg(std::move(seg), req);
    return;
  }
  auto mac = arp_.lookup(ifindex, next_hop, ifp->addr, ifp->mac);
  if (!mac) {
    auto& q = arp_waiting_[next_hop.value];
    if (q.size() >= 64) {
      // Bounded queue: behave like a full channel, drop the oldest.
      ++stats_.dropped_arp_timeout;
      AwaitingArp old = std::move(q.front());
      q.pop_front();
      drop_seg(std::move(old.seg), old.req);
    }
    q.push_back(AwaitingArp{std::move(seg), req, ifindex});
    return;
  }
  transmit(std::move(seg), req, ifindex, *mac);
}

void IpEngine::arp_resolved(int ifindex, Ipv4Addr ip, MacAddr mac) {
  (void)ifindex;
  auto it = arp_waiting_.find(ip.value);
  if (it == arp_waiting_.end()) return;
  std::deque<AwaitingArp> waiting = std::move(it->second);
  arp_waiting_.erase(it);
  for (auto& w : waiting) transmit(std::move(w.seg), w.req, w.ifindex, mac);
}

void IpEngine::transmit(TxSeg&& seg, const L4Req& req, int ifindex,
                        MacAddr dst_mac) {
  const Interface* ifp = iface(ifindex);
  assert(ifp != nullptr);

  // One chunk combines ETH, IP and the (copied) L4 header: IP must write the
  // checksum and pools are immutable to consumers (Section V-C).
  const auto l4_hdr = env_.pools->read(seg.l4_header);
  const std::uint32_t hdr_len = static_cast<std::uint32_t>(
      kEthHeaderLen + kIpHeaderLen + l4_hdr.size());
  chan::RichPtr frame_hdr = env_.hdr_pool->alloc(hdr_len);
  if (!frame_hdr.valid()) {
    drop_seg(std::move(seg), req);  // pool exhausted: drop (Section IV-A)
    return;
  }
  auto view = env_.hdr_pool->write_view(frame_hdr);
  ByteWriter w{view};

  EthHeader eth;
  eth.dst = dst_mac;
  eth.src = ifp->mac;
  eth.ethertype = kEtherTypeIpv4;
  eth.serialize(w);

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(kIpHeaderLen + l4_hdr.size() +
                                               seg.payload_len());
  ip.id = next_ip_id_++;
  ip.protocol = seg.protocol;
  ip.src = seg.src;
  ip.dst = seg.dst;
  ip.serialize(w);

  w.raw(l4_hdr);
  assert(w.ok());

  // L4 checksum: software path walks every payload byte; offload path plants
  // the pseudo-header partial sum for the NIC to finish (Section V-A).
  if (seg.protocol == kProtoTcp || seg.protocol == kProtoUdp) {
    const std::uint16_t l4_len =
        static_cast<std::uint16_t>(l4_hdr.size() + seg.payload_len());
    std::uint32_t sum =
        pseudo_header_sum(seg.src, seg.dst, seg.protocol, l4_len);
    const std::size_t l4_off = kEthHeaderLen + kIpHeaderLen;
    const std::size_t csum_at =
        l4_off + (seg.protocol == kProtoTcp ? 16u : 6u);
    view[csum_at] = std::byte{0};
    view[csum_at + 1] = std::byte{0};
    if (!env_.csum_offload) {
      sum = checksum_partial(view.subspan(l4_off), sum);
      for (const auto& p : seg.payload)
        sum = checksum_partial(env_.pools->read(p), sum);
      const std::uint16_t csum = checksum_finish(sum);
      view[csum_at] = std::byte{static_cast<std::uint8_t>(csum >> 8)};
      view[csum_at + 1] = std::byte{static_cast<std::uint8_t>(csum)};
    } else {
      // Partial sum goes into the checksum field; the NIC completes it.
      const std::uint16_t partial =
          static_cast<std::uint16_t>((sum & 0xffff) + (sum >> 16));
      view[csum_at] = std::byte{static_cast<std::uint8_t>(partial >> 8)};
      view[csum_at + 1] = std::byte{static_cast<std::uint8_t>(partial)};
    }
  }

  TxFrame frame;
  frame.header = frame_hdr;
  frame.payload = std::move(seg.payload);
  frame.offload = seg.offload;
  frame.offload.csum_offload = env_.csum_offload;
  // The frame header now holds a copy of our own ICMP reply: like an ARP
  // frame's, the record keeps nothing else of IP's.
  if (req.peer == L4Req::kIp) env_.hdr_pool->release(seg.l4_header);

  ++stats_.tx_frames;
  send_frame(ifindex, std::move(frame), req);
}

void IpEngine::send_frame(int ifindex, TxFrame&& frame, const L4Req& req) {
  const std::uint64_t cookie =
      tx_pending_.add(PendingTx{req, ifindex, std::move(frame), {}});
  const chan::RichPtr desc =
      env_.send_frame(ifindex, tx_pending_.find(cookie)->frame, cookie);
  if (PendingTx* p = tx_pending_.find(cookie)) p->desc = desc;
}

std::size_t IpEngine::resubmit_tx(int ifindex) {
  std::size_t n = 0;
  tx_pending_.for_each([&](std::uint64_t cookie, PendingTx& pending) {
    if (pending.ifindex != ifindex) return;
    // The crashed driver dropped its descriptor with its rings.
    const chan::RichPtr old = pending.desc;
    const chan::RichPtr desc =
        env_.send_frame(ifindex, pending.frame, cookie);
    if (old.valid()) env_.hdr_pool->release(old);
    if (PendingTx* p = tx_pending_.find(cookie)) p->desc = desc;
    ++n;
  });
  return n;
}

void IpEngine::tx_done(std::uint64_t cookie, bool ok) {
  auto pending = tx_pending_.take(cookie);
  if (!pending) return;  // stale ack from before a restart
  if (pending->desc.valid()) env_.hdr_pool->release(pending->desc);
  env_.hdr_pool->release(pending->frame.header);
  if (pending->req.peer != L4Req::kIp && env_.seg_done)
    env_.seg_done(pending->req, ok);
}

chan::RichPtr IpEngine::alloc_rx_buffer(std::uint32_t len) {
  return env_.rx_pool->alloc(len);
}

void IpEngine::rx_done(const chan::RichPtr& frame) {
  env_.rx_pool->release(frame);
}

void IpEngine::send_arp_frame(int ifindex, const ArpPacket& pkt) {
  const Interface* ifp = iface(ifindex);
  if (ifp == nullptr) return;
  chan::RichPtr hdr =
      env_.hdr_pool->alloc(kEthHeaderLen + kArpPacketLen);
  if (!hdr.valid()) return;
  auto view = env_.hdr_pool->write_view(hdr);
  ByteWriter w{view};
  EthHeader eth;
  eth.dst = pkt.op == kArpOpRequest ? MacAddr::broadcast() : pkt.target_mac;
  eth.src = ifp->mac;
  eth.ethertype = kEtherTypeArp;
  eth.serialize(w);
  pkt.serialize(w);
  assert(w.ok());

  TxFrame frame;
  frame.header = hdr;
  ++stats_.tx_frames;
  send_frame(ifindex, std::move(frame), L4Req{L4Req::kIp});
}

void IpEngine::input(int ifindex, chan::RichPtr frame) {
  ++stats_.rx_frames;
  auto bytes = env_.pools->read(frame);
  if (bytes.empty()) {
    ++stats_.dropped_malformed;
    rx_done(frame);
    return;
  }
  ByteReader r{bytes};
  auto eth = EthHeader::parse(r);
  if (!eth) {
    ++stats_.dropped_malformed;
    rx_done(frame);
    return;
  }

  if (eth->ethertype == kEtherTypeArp) {
    auto arp_pkt = ArpPacket::parse(r);
    const Interface* ifp = iface(ifindex);
    if (arp_pkt && ifp != nullptr)
      arp_.input(ifindex, *arp_pkt, ifp->addr, ifp->mac);
    rx_done(frame);
    return;
  }
  if (eth->ethertype != kEtherTypeIpv4) {
    rx_done(frame);
    return;
  }

  auto ip = Ipv4Header::parse(r);
  if (!ip) {
    ++stats_.dropped_malformed;  // the "ping of death" class dies right here
    rx_done(frame);
    return;
  }
  if (ip->total_length > bytes.size() - kEthHeaderLen) {
    ++stats_.dropped_malformed;
    rx_done(frame);
    return;
  }
  const std::uint16_t l4_offset =
      static_cast<std::uint16_t>(kEthHeaderLen + kIpHeaderLen);
  const std::uint16_t l4_length =
      static_cast<std::uint16_t>(ip->total_length - kIpHeaderLen);

  // Only deliver to us (no forwarding in NewtOS's edge role).
  const Interface* ifp = iface(ifindex);
  if (ifp == nullptr || ip->dst != ifp->addr) {
    rx_done(frame);
    return;
  }

  if (env_.pf_check &&
      (ip->protocol == kProtoTcp || ip->protocol == kProtoUdp)) {
    PfQuery q;
    q.dir = PfDir::In;
    q.protocol = ip->protocol;
    q.src = ip->src;
    q.dst = ip->dst;
    if (l4_length >= 4 && bytes.size() >= l4_offset + 4u) {
      ByteReader pr{bytes.subspan(l4_offset, 4)};
      q.sport = pr.u16();
      q.dport = pr.u16();
    }
    if (ip->protocol == kProtoTcp && bytes.size() >= l4_offset + 14u) {
      q.tcp_flags = std::to_integer<std::uint8_t>(bytes[l4_offset + 13]);
    }
    PendingPf pending;
    pending.query = q;
    pending.outbound = false;
    pending.ifindex = ifindex;
    pending.frame = frame;
    pending.l4_offset = l4_offset;
    pending.l4_length = l4_length;
    pending.ip_hdr = *ip;
    env_.pf_check(q, pf_pending_.add(std::move(pending)));
    return;
  }
  deliver_inbound(ifindex, frame, *ip, l4_offset, l4_length);
}

// --- receive-side aggregation (GRO) ------------------------------------------------
//
// The merge loop lives in net/gro.h (gro_merge), shared with the per-shard RX
// fast path (net/ip_fastpath.cc); this engine adds batched PF queries.

void IpEngine::deliver_agg(L4AggPacket&& agg) {
  stats_.gro_aggs += 1;
  stats_.gro_frames += agg.segs.size();
  stats_.rx_delivered += agg.segs.size();
  if (env_.deliver_tcp_agg) {
    env_.deliver_tcp_agg(std::move(agg));
    return;
  }
  for (auto& seg : agg.segs) {
    if (env_.deliver_tcp) {
      env_.deliver_tcp(std::move(seg));
    } else {
      rx_done(seg.frame);
    }
  }
}

void IpEngine::drop_agg(L4AggPacket&& agg) {
  stats_.dropped_pf += agg.segs.size();
  for (auto& seg : agg.segs) rx_done(seg.frame);
}

void IpEngine::input_burst(int ifindex,
                           std::span<const chan::RichPtr> frames) {
  // PF queries raised by this burst's aggregates; batched while consecutive.
  std::vector<std::pair<PfQuery, std::uint64_t>> queries;

  // PF answers strictly in submission order, and delivery order follows
  // verdict order — so the pending batch must reach PF before any frame
  // that takes the classic input() path files its own per-frame query, or
  // a later segment could overtake an earlier aggregate of its own flow.
  auto flush_queries = [&] {
    if (queries.empty()) return;
    if (env_.pf_check_batch) {
      env_.pf_check_batch(queries);
    } else {
      for (const auto& [q, cookie] : queries) env_.pf_check(q, cookie);
    }
    queries.clear();
  };

  auto on_agg = [&](L4AggPacket&& agg, std::uint8_t tcp_flags) {
    stats_.rx_frames += agg.segs.size();
    if (!env_.pf_check) {
      deliver_agg(std::move(agg));
      return;
    }
    PfQuery q;
    q.dir = PfDir::In;
    q.protocol = kProtoTcp;
    q.src = agg.src;
    q.dst = agg.dst;
    q.sport = agg.sport;
    q.dport = agg.dport;
    q.tcp_flags = tcp_flags;
    PendingPf pending;
    pending.query = q;
    pending.outbound = false;
    pending.ifindex = ifindex;
    pending.is_agg = true;
    pending.agg = std::move(agg);
    queries.emplace_back(q, pf_pending_.add(std::move(pending)));
  };
  auto on_frame = [&](const chan::RichPtr& frame) {
    flush_queries();
    input(ifindex, frame);  // the classic per-frame path, verbatim
  };
  gro_merge(*env_.pools, iface(ifindex), frames, on_agg, on_frame);
  flush_queries();
}

void IpEngine::deliver_inbound(int ifindex, chan::RichPtr frame,
                               const Ipv4Header& ip_hdr,
                               std::uint16_t l4_offset,
                               std::uint16_t l4_length) {
  switch (ip_hdr.protocol) {
    case kProtoIcmp:
      handle_icmp(ifindex, frame, ip_hdr, l4_offset, l4_length);
      rx_done(frame);
      return;
    case kProtoTcp:
      if (env_.deliver_tcp) {
        ++stats_.rx_delivered;
        env_.deliver_tcp(
            L4Packet{frame, l4_offset, l4_length, ip_hdr.src, ip_hdr.dst});
        return;  // TCP owns the frame ref until rx_done
      }
      break;
    case kProtoUdp:
      if (env_.deliver_udp) {
        ++stats_.rx_delivered;
        env_.deliver_udp(
            L4Packet{frame, l4_offset, l4_length, ip_hdr.src, ip_hdr.dst});
        return;
      }
      break;
    default:
      break;
  }
  rx_done(frame);
}

}  // namespace newtos::net
