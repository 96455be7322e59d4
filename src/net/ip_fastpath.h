// Per-shard IP receive fast path (the RSS datapath's software half).
//
// With multi-queue RSS the driver posts a queue's frames straight to the
// queue's home transport replica, skipping the central IP server — but the
// work IP used to do on those frames still has to happen somewhere.  This
// class is that work, hoisted out of IpEngine::input/input_burst into a
// context every transport shard embeds: header validation, GRO aggregation
// and the packet-filter consultation, plus a shard-local verdict cache so an
// established flow stops paying the PF round trip per burst.  The cache is
// invalidated by a PF broadcast (kPfCacheInval) whenever the rule set
// changes or PF restarts.
//
// Anything the fast path cannot deliver into the local engine — malformed
// headers, frames not addressed to us, protocols the shard does not own —
// is handed back to the classic IP server path through the fallback hook,
// so the slow path stays the single place odd traffic is judged.
//
// Ordering (the PR 4 burst-ordering fix, mirrored): PF answers queries in
// submission order and delivery follows verdict order.  A shard-local cache
// hit must therefore never let a frame overtake an earlier frame of its own
// flow that is still waiting for a verdict — while a flow has a pending
// query, every later frame of that flow (deliveries, aggregates and
// fallback handoffs alike) queues behind the verdict and drains in arrival
// order.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/chan/pool.h"
#include "src/chan/request_db.h"
#include "src/net/ip.h"
#include "src/net/pf.h"

namespace newtos::net {

class IpFastPath {
 public:
  struct Config {
    std::vector<Interface> interfaces;
    bool use_pf = true;
    bool gro = false;
  };

  struct Env {
    chan::PoolRegistry* pools = nullptr;
    // Deliver one validated TCP/UDP packet into the shard's own engine.
    std::function<void(std::uint8_t proto, L4Packet&&)> deliver;
    // Deliver a GRO aggregate (TCP shards only; unset falls back to
    // per-segment deliver).
    std::function<void(L4AggPacket&&)> deliver_agg;
    // File a PF query; the answer comes back through pf_verdict().
    std::function<void(const PfQuery&, std::uint64_t cookie)> pf_check;
    // Hand a frame back to the classic IP server input path.
    std::function<void(int ifindex, const chan::RichPtr&)> fallback;
    // Return a consumed/dropped frame to the receive pool.
    std::function<void(const chan::RichPtr&)> release;
  };

  struct Stats {
    std::uint64_t fast_frames = 0;      // delivered into the local engine
    std::uint64_t fallback_frames = 0;  // handed back to the IP server
    std::uint64_t dropped_pf = 0;
    std::uint64_t dropped_malformed = 0;
    std::uint64_t pf_queries = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t gro_aggs = 0;
    std::uint64_t gro_frames = 0;
  };

  IpFastPath(Env env, Config cfg);
  ~IpFastPath();

  IpFastPath(const IpFastPath&) = delete;
  IpFastPath& operator=(const IpFastPath&) = delete;

  // A queue's worth of frames from the driver.  Every frame reference is
  // owned by the fast path until it is delivered, released or handed back.
  void input_burst(int ifindex, std::span<const chan::RichPtr> frames);

  // PF's answer to a pf_check we filed.
  void pf_verdict(std::uint64_t cookie, bool allow);

  // PF broadcast: the rule set changed (or PF restarted) — every cached
  // verdict is stale.
  void invalidate_cache() { verdict_cache_.clear(); }

  // PF (re)announced: send every unanswered query, oldest first.
  std::size_t resubmit_pf();

  // Teardown (replica killed): release every held frame back to the receive
  // pool.  The loans were already returned at unpack time, so a direct pool
  // release is the whole job — mirrors Server::drop_engine.
  void release_all();

  const Stats& stats() const { return stats_; }
  std::size_t cache_size() const { return verdict_cache_.size(); }
  std::size_t pending_flows() const { return pf_pending_.size(); }

 private:
  struct FlowKey {
    Ipv4Addr src;
    Ipv4Addr dst;
    std::uint16_t sport = 0;
    std::uint16_t dport = 0;
    std::uint8_t protocol = 0;
    friend bool operator==(const FlowKey&, const FlowKey&) = default;
  };
  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const;
  };

  // One action queued behind a flow's pending verdict, drained in order.
  struct HeldItem {
    enum class Kind { Deliver, DeliverAgg, Fallback } kind = Kind::Deliver;
    std::uint8_t proto = 0;
    L4Packet pkt;       // Deliver
    L4AggPacket agg;    // DeliverAgg
    int ifindex = 0;    // Fallback
    chan::RichPtr frame;  // Fallback
  };

  struct PendingFlow {
    PfQuery query;
    std::deque<HeldItem> held;
  };

  const Interface* iface(int ifindex) const;
  void input(int ifindex, const chan::RichPtr& frame);
  void judge(const FlowKey& key, const PfQuery& q, HeldItem&& item);
  void run_item(const FlowKey& key, HeldItem&& item, bool allow);
  void deliver_item(HeldItem&& item);
  void drop_item(HeldItem&& item);
  void emit_fallback(int ifindex, const chan::RichPtr& frame);

  Env env_;
  Config cfg_;
  Stats stats_;
  std::unordered_map<FlowKey, bool, FlowKeyHash> verdict_cache_;
  std::unordered_map<FlowKey, PendingFlow, FlowKeyHash> pf_pending_;
  // The flow each unanswered query judges (one per pf_pending_ entry); its
  // id is the query's cookie.
  chan::RequestDb<FlowKey> queries_;
};

}  // namespace newtos::net
