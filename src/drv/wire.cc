#include "src/drv/wire.h"

#include <algorithm>
#include <utility>

namespace newtos::drv {

Wire::Wire(sim::Simulator& sim, Config cfg) : sim_(sim), cfg_(cfg), rng_(cfg.seed) {}

void Wire::attach(int end, DeliverFn deliver) {
  deliver_[end] = std::move(deliver);
}

void Wire::detach(int end) { deliver_[end] = nullptr; }

void Wire::drain(int end, sim::Time now) {
  auto& q = departures_[end];
  while (!q.empty() && q.front() <= now) {
    const sim::Time d = q.front();
    depth_integral_[end] += static_cast<double>(q.size()) *
                            static_cast<double>(d - depth_last_t_[end]);
    depth_last_t_[end] = d;
    q.pop_front();
  }
  depth_integral_[end] += static_cast<double>(q.size()) *
                          static_cast<double>(now - depth_last_t_[end]);
  depth_last_t_[end] = now;
}

sim::Time Wire::transmit(int end, std::vector<std::byte>&& frame) {
  const std::uint64_t wire_bytes = frame.size() + kPerFrameOverhead;
  const sim::Time ser = static_cast<sim::Time>(
      static_cast<double>(wire_bytes) * 8.0 * 1e9 / cfg_.bits_per_sec);
  const sim::Time now = sim_.now();
  drain(end, now);

  // The sender's NIC always serializes at line rate (its tx-complete and
  // the return value below do not know about the bottleneck hop).
  const sim::Time start = std::max(now, tx_free_at_[end]);
  tx_free_at_[end] = start + ser;
  busy_ns_[end] += ser;

  // Bounded bottleneck FIFO: a full queue tail-drops the arrival — the
  // router discards it after the access link already carried it, so drops
  // coincide with a standing backlog the sender cannot observe directly.
  if (cfg_.queue_frames > 0 && departures_[end].size() >= cfg_.queue_frames) {
    ++queue_drops_;
    ++frames_lost_;
    return tx_free_at_[end];
  }

  // The slow hop: delivery drains at the bottleneck rate, behind whatever
  // is already queued there.
  sim::Time depart = tx_free_at_[end];
  if (cfg_.bottleneck_bits_per_sec > 0.0) {
    const sim::Time bser = static_cast<sim::Time>(
        static_cast<double>(wire_bytes) * 8.0 * 1e9 /
        cfg_.bottleneck_bits_per_sec);
    const sim::Time bstart = std::max(tx_free_at_[end], btl_free_at_[end]);
    btl_free_at_[end] = bstart + bser;
    depart = btl_free_at_[end];
  }

  departures_[end].push_back(depart);
  max_queue_depth_ = std::max<std::uint64_t>(max_queue_depth_,
                                             departures_[end].size());

  const int other = 1 - end;
  // Loss draw: uniform across every frame (the RNG sequence existing
  // experiments depend on).
  if (cfg_.loss > 0.0 && rng_.chance(cfg_.loss)) {
    ++frames_lost_;
    return tx_free_at_[end];
  }
  ++frames_delivered_;
  sim::Time extra = 0;
  if (cfg_.reorder > 0.0 && rng_.chance(cfg_.reorder)) {
    extra = cfg_.reorder_delay;
    ++reordered_;
  }
  sim_.at(depart + cfg_.propagation + extra,
          [this, other, f = std::move(frame)]() mutable {
            if (deliver_[other]) deliver_[other](std::move(f));
          });
  return tx_free_at_[end];
}

double Wire::utilization(int end, sim::Time window) const {
  if (window <= 0) return 0.0;
  return static_cast<double>(busy_ns_[end]) / static_cast<double>(window);
}

std::size_t Wire::queue_depth_now(int end) const {
  const sim::Time now = sim_.now();
  std::size_t n = 0;
  for (const sim::Time d : departures_[end])
    if (d > now) ++n;
  return n;
}

double Wire::avg_queue_depth(int end) const {
  const sim::Time now = sim_.now();
  if (now <= 0) return 0.0;
  // Fold in the departures that already happened but have not been drained
  // (drain() only runs on transmit) without mutating the live state.
  double integral = depth_integral_[end];
  sim::Time last = depth_last_t_[end];
  std::size_t depth = departures_[end].size();
  for (const sim::Time d : departures_[end]) {
    if (d > now) break;
    integral += static_cast<double>(depth) * static_cast<double>(d - last);
    last = d;
    --depth;
  }
  integral += static_cast<double>(depth) * static_cast<double>(now - last);
  return integral / static_cast<double>(now);
}

}  // namespace newtos::drv
