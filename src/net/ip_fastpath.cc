#include "src/net/ip_fastpath.h"

#include "src/net/gro.h"
#include "src/net/headers.h"
#include "src/net/steering.h"

namespace newtos::net {

std::size_t IpFastPath::FlowKeyHash::operator()(const FlowKey& k) const {
  return static_cast<std::size_t>(
      flow_hash(k.src, k.dst, k.sport, k.dport) ^
      (static_cast<std::uint32_t>(k.protocol) * 0x9e3779b9u));
}

IpFastPath::IpFastPath(Env env, Config cfg)
    : env_(std::move(env)), cfg_(std::move(cfg)) {}

IpFastPath::~IpFastPath() { release_all(); }

const Interface* IpFastPath::iface(int ifindex) const {
  for (const auto& i : cfg_.interfaces)
    if (i.index == ifindex) return &i;
  return nullptr;
}

void IpFastPath::emit_fallback(int ifindex, const chan::RichPtr& frame) {
  ++stats_.fallback_frames;
  if (env_.fallback) {
    env_.fallback(ifindex, frame);
  } else if (env_.release) {
    env_.release(frame);
  }
}

void IpFastPath::input(int ifindex, const chan::RichPtr& frame) {
  auto bytes = env_.pools->read(frame);
  if (bytes.empty()) {
    ++stats_.dropped_malformed;
    if (env_.release) env_.release(frame);
    return;
  }
  ByteReader r{bytes};
  auto eth = EthHeader::parse(r);
  if (!eth || eth->ethertype != kEtherTypeIpv4) {
    // ARP and friends are never steered here by the NIC, but if one shows
    // up the classic path is the place that knows what to do with it.
    emit_fallback(ifindex, frame);
    return;
  }
  auto ip = Ipv4Header::parse(r);
  if (!ip || ip->total_length > bytes.size() - kEthHeaderLen) {
    ++stats_.dropped_malformed;  // same verdict the IP server would reach
    if (env_.release) env_.release(frame);
    return;
  }
  const Interface* ifp = iface(ifindex);
  const std::uint16_t l4_offset =
      static_cast<std::uint16_t>(kEthHeaderLen + kIpHeaderLen);
  const std::uint16_t l4_length =
      static_cast<std::uint16_t>(ip->total_length - kIpHeaderLen);
  const bool ports_readable =
      l4_length >= 4 && bytes.size() >= static_cast<std::size_t>(l4_offset) + 4;
  if (ifp == nullptr || ip->dst != ifp->addr ||
      (ip->protocol != kProtoTcp && ip->protocol != kProtoUdp) ||
      !ports_readable) {
    // Not ours, not our protocol, or a fragment too short to carry ports:
    // all slow-path material.  A frame whose flow still has a verdict in
    // flight queues behind it so the two paths cannot reorder the flow;
    // its cached verdict (if any) is flushed so later fast-path frames
    // re-judge after the slow path has seen this one.
    if (ports_readable) {
      ByteReader pr{bytes.subspan(l4_offset, 4)};
      FlowKey key;
      key.src = ip->src;
      key.dst = ip->dst;
      key.sport = pr.u16();
      key.dport = pr.u16();
      key.protocol = ip->protocol;
      verdict_cache_.erase(key);
      auto pit = pf_pending_.find(key);
      if (pit != pf_pending_.end()) {
        HeldItem item;
        item.kind = HeldItem::Kind::Fallback;
        item.ifindex = ifindex;
        item.frame = frame;
        pit->second.held.push_back(std::move(item));
        return;
      }
    }
    emit_fallback(ifindex, frame);
    return;
  }

  ByteReader pr{bytes.subspan(l4_offset, 4)};
  FlowKey key;
  key.src = ip->src;
  key.dst = ip->dst;
  key.sport = pr.u16();
  key.dport = pr.u16();
  key.protocol = ip->protocol;

  HeldItem item;
  item.kind = HeldItem::Kind::Deliver;
  item.proto = ip->protocol;
  item.pkt = L4Packet{frame, l4_offset, l4_length, ip->src, ip->dst};

  if (!env_.pf_check || !cfg_.use_pf) {
    deliver_item(std::move(item));
    return;
  }
  PfQuery q;
  q.dir = PfDir::In;
  q.protocol = ip->protocol;
  q.src = ip->src;
  q.dst = ip->dst;
  q.sport = key.sport;
  q.dport = key.dport;
  if (ip->protocol == kProtoTcp && bytes.size() >= l4_offset + 14u) {
    q.tcp_flags = std::to_integer<std::uint8_t>(bytes[l4_offset + 13]);
  }
  judge(key, q, std::move(item));
}

void IpFastPath::judge(const FlowKey& key, const PfQuery& q, HeldItem&& item) {
  // Pending-before-cache: a cache hit must not let this frame overtake an
  // earlier frame of its own flow that is still waiting for PF (the burst
  // ordering fix, shard edition).
  auto pit = pf_pending_.find(key);
  if (pit != pf_pending_.end()) {
    pit->second.held.push_back(std::move(item));
    return;
  }
  auto cit = verdict_cache_.find(key);
  if (cit != verdict_cache_.end()) {
    ++stats_.cache_hits;
    run_item(key, std::move(item), cit->second);
    return;
  }
  const std::uint64_t cookie = queries_.add(key);
  PendingFlow pending;
  pending.query = q;
  pending.held.push_back(std::move(item));
  pf_pending_.emplace(key, std::move(pending));
  ++stats_.pf_queries;
  env_.pf_check(q, cookie);
}

void IpFastPath::run_item(const FlowKey& key, HeldItem&& item, bool allow) {
  if (item.kind == HeldItem::Kind::Fallback) {
    // The slow path re-judges fallback frames itself; our cached verdict
    // for the flow dies with the handoff (flush-before-fallback).
    verdict_cache_.erase(key);
    emit_fallback(item.ifindex, item.frame);
    return;
  }
  if (allow) {
    deliver_item(std::move(item));
  } else {
    drop_item(std::move(item));
  }
}

void IpFastPath::deliver_item(HeldItem&& item) {
  if (item.kind == HeldItem::Kind::DeliverAgg) {
    stats_.gro_aggs += 1;
    stats_.gro_frames += item.agg.segs.size();
    stats_.fast_frames += item.agg.segs.size();
    if (env_.deliver_agg) {
      env_.deliver_agg(std::move(item.agg));
      return;
    }
    for (auto& seg : item.agg.segs) {
      if (env_.deliver) {
        env_.deliver(kProtoTcp, std::move(seg));
      } else if (env_.release) {
        env_.release(seg.frame);
      }
    }
    return;
  }
  ++stats_.fast_frames;
  if (env_.deliver) {
    env_.deliver(item.proto, std::move(item.pkt));
  } else if (env_.release) {
    env_.release(item.pkt.frame);
  }
}

void IpFastPath::drop_item(HeldItem&& item) {
  if (item.kind == HeldItem::Kind::DeliverAgg) {
    stats_.dropped_pf += item.agg.segs.size();
    if (env_.release)
      for (auto& seg : item.agg.segs) env_.release(seg.frame);
    return;
  }
  ++stats_.dropped_pf;
  if (env_.release) env_.release(item.pkt.frame);
}

void IpFastPath::input_burst(int ifindex,
                             std::span<const chan::RichPtr> frames) {
  if (!cfg_.gro) {
    for (const chan::RichPtr& frame : frames) input(ifindex, frame);
    return;
  }
  // gro_merge hands results over in burst order, so an aggregate's PF query
  // is filed before any later frame files its own (or falls back): a later
  // segment cannot overtake an earlier aggregate of its own flow.
  auto on_agg = [&](L4AggPacket&& agg, std::uint8_t tcp_flags) {
    FlowKey key;
    key.src = agg.src;
    key.dst = agg.dst;
    key.sport = agg.sport;
    key.dport = agg.dport;
    key.protocol = kProtoTcp;

    HeldItem item;
    item.kind = HeldItem::Kind::DeliverAgg;
    item.proto = kProtoTcp;
    item.agg = std::move(agg);

    if (!env_.pf_check || !cfg_.use_pf) {
      deliver_item(std::move(item));
      return;
    }
    PfQuery q;
    q.dir = PfDir::In;
    q.protocol = kProtoTcp;
    q.src = key.src;
    q.dst = key.dst;
    q.sport = key.sport;
    q.dport = key.dport;
    q.tcp_flags = tcp_flags;
    judge(key, q, std::move(item));
  };
  auto on_frame = [&](const chan::RichPtr& frame) { input(ifindex, frame); };
  gro_merge(*env_.pools, iface(ifindex), frames, on_agg, on_frame);
}

void IpFastPath::pf_verdict(std::uint64_t cookie, bool allow) {
  const auto flow = queries_.take(cookie);
  if (!flow) return;  // stale (PF crashed and came back)
  const FlowKey key = *flow;
  auto pit = pf_pending_.find(key);
  if (pit == pf_pending_.end()) return;
  PendingFlow pending = std::move(pit->second);
  pf_pending_.erase(pit);
  // Cache pass AND block: an established flow skips the round trip, and a
  // blocked flow stays cheap to keep blocking — until kPfCacheInval says
  // the rules moved.
  verdict_cache_[key] = allow;
  for (auto& item : pending.held) run_item(key, std::move(item), allow);
}

std::size_t IpFastPath::resubmit_pf() {
  std::size_t n = 0;
  if (!env_.pf_check) return n;
  queries_.for_each([&](std::uint64_t cookie, const FlowKey& key) {
    env_.pf_check(pf_pending_.at(key).query, cookie);
    ++n;
  });
  return n;
}

void IpFastPath::release_all() {
  for (auto& [key, pending] : pf_pending_) {
    for (auto& item : pending.held) {
      if (env_.release == nullptr) continue;
      switch (item.kind) {
        case HeldItem::Kind::Deliver:
          env_.release(item.pkt.frame);
          break;
        case HeldItem::Kind::DeliverAgg:
          for (auto& seg : item.agg.segs) env_.release(seg.frame);
          break;
        case HeldItem::Kind::Fallback:
          env_.release(item.frame);
          break;
      }
    }
  }
  pf_pending_.clear();
  queries_.clear();
  verdict_cache_.clear();
}

}  // namespace newtos::net
