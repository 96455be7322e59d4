// A full-duplex point-to-point Ethernet link in virtual time.
//
// Serialization delay (bytes at line rate, plus the 20-byte preamble +
// inter-frame-gap and 4-byte FCS overhead of real Ethernet) plus a
// propagation delay.  Optionally lossy, for exercising TCP retransmission.
//
// For WAN experiments the link can also emulate:
//  - a bottleneck stage (bottleneck_bits_per_sec): the sender's NIC still
//    serializes (and gets its tx-complete) at line rate, but delivery
//    drains through a slower hop — the dumbbell's router — so a standing
//    queue can form where the sender cannot see it;
//  - a bounded bottleneck FIFO (queue_frames): frames arriving while that
//    many departures are still pending are tail-dropped, so drops correlate
//    with standing queue — what loss-based congestion control reacts to;
//  - random reordering (reorder/reorder_delay): a reordered frame is held
//    back by reorder_delay, letting later frames overtake it.
// All of these default off; the default configuration consumes RNG draws
// in exactly the legacy order, keeping existing benchmarks byte-identical.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/sim.h"

namespace newtos::drv {

class Wire {
 public:
  struct Config {
    double bits_per_sec = 1e9;                       // gigabit by default
    sim::Time propagation = 20 * sim::kMicrosecond;  // short LAN
    double loss = 0.0;                               // frame loss probability
    std::uint64_t seed = 1;
    // --- WAN emulation (all off by default) ---
    double bottleneck_bits_per_sec = 0.0;  // slow hop rate; 0 = line rate
    std::uint32_t queue_frames = 0;  // bottleneck FIFO bound; 0 = unbounded
    double reorder = 0.0;            // per-frame reordering probability
    sim::Time reorder_delay = 50 * sim::kMicrosecond;  // hold-back on reorder
  };

  using DeliverFn = std::function<void(std::vector<std::byte>&&)>;

  Wire(sim::Simulator& sim, Config cfg);

  // Endpoints are 0 and 1.  A detached endpoint silently discards frames.
  void attach(int end, DeliverFn deliver);
  void detach(int end);

  // Transmits from endpoint `end`; returns the virtual time at which the
  // last bit leaves the transmitter (the NIC's tx-complete instant).
  sim::Time transmit(int end, std::vector<std::byte>&& frame);

  std::uint64_t frames_delivered() const { return frames_delivered_; }
  std::uint64_t frames_lost() const { return frames_lost_; }
  double utilization(int end, sim::Time window) const;

  // --- WAN queue observability ---
  std::uint64_t queue_drops() const { return queue_drops_; }
  std::uint64_t reordered() const { return reordered_; }
  std::uint64_t max_queue_depth() const { return max_queue_depth_; }
  std::size_t queue_depth_now(int end) const;
  // Time-weighted mean number of pending frames on `end`, over [0, now].
  double avg_queue_depth(int end) const;

 private:
  // Preamble (8) + FCS (4) + inter-frame gap (12).
  static constexpr std::uint32_t kPerFrameOverhead = 24;

  // Advances the exact time-weighted depth integral for `end` up to `now`,
  // retiring departures that already happened.
  void drain(int end, sim::Time now);

  sim::Simulator& sim_;
  Config cfg_;
  sim::Rng rng_;
  DeliverFn deliver_[2];
  sim::Time tx_free_at_[2] = {0, 0};
  sim::Time btl_free_at_[2] = {0, 0};  // bottleneck stage, when emulated
  sim::Time busy_ns_[2] = {0, 0};
  std::uint64_t frames_delivered_ = 0;
  std::uint64_t frames_lost_ = 0;

  // Pending departure times (ascending) per end: the emulated FIFO.
  std::deque<sim::Time> departures_[2];
  double depth_integral_[2] = {0.0, 0.0};
  sim::Time depth_last_t_[2] = {0, 0};
  std::uint64_t queue_drops_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t max_queue_depth_ = 0;
};

}  // namespace newtos::drv
