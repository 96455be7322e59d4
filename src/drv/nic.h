// Simulated gigabit NIC in the style of the Intel PRO/1000 (e1000) family
// the paper's testbed used: TX/RX descriptor rings, scatter-gather DMA from
// shared pools, checksum offload, TCP segmentation offload, and — crucially
// for Section V-D — no way to invalidate its shadow descriptors short of a
// full reset, which takes the link down for a while ("a crash of IP means
// de facto restart of the network drivers too").
//
// With rx_queues > 1 the device grows multiple RX queue pairs with
// receive-side scaling: a hardware hash unit computes the 4-tuple flow hash
// (identical to net/steering.h::flow_hash, so a queue maps 1:1 onto a
// transport shard) and spreads steerable TCP/UDP frames across the queues.
// Non-steerable traffic (ARP, ICMP, fragments, unknown protocols) always
// lands on queue 0.  rx_queues = 1 keeps the classic single-queue device
// byte-identical to what it always was.
//
// The device raises one kind of receive interrupt: a burst of completed
// descriptors from one queue.  A device that does not coalesce raises it
// once per frame, with a burst of one.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "src/chan/pool.h"
#include "src/drv/wire.h"
#include "src/net/addr.h"
#include "src/net/pbuf.h"
#include "src/sim/sim.h"

namespace newtos::drv {

class SimNic {
 public:
  // Descriptors per TX ring and per RX queue's ring.
  static constexpr int kTxRing = 256;
  static constexpr int kRxRing = 256;
  // How long the link renegotiates after a reset().
  static constexpr sim::Time kResetLinkDelay = 1500 * sim::kMillisecond;

  struct Config {
    // Receive interrupt coalescing (e1000 RDTR/RADV style): the device
    // accumulates completed RX descriptors and raises ONE interrupt per
    // burst, bounded by a frame count and an absolute timer.  Values <= 1
    // frames (the default) raise an interrupt per frame.
    int rx_coalesce_frames = 0;
    std::uint32_t rx_coalesce_usecs = 50;
    // RSS queue pairs.  Each queue has its own descriptor ring, coalescing
    // accumulator and hold-off timer; 1 (the default) is the classic
    // single-queue device.
    int rx_queues = 1;
  };

  struct Stats {
    std::uint64_t tx_frames = 0;   // frames put on the wire (after TSO split)
    std::uint64_t tx_descs = 0;    // descriptors consumed
    std::uint64_t tx_ring_full = 0;
    std::uint64_t rx_frames = 0;
    // Frames that passed the MAC filter, counted BEFORE the wedge drop:
    // a wedged device keeps advancing rx_phy_frames while rx_frames stays
    // flat — the counter divergence the driver's wedge watchdog reads
    // (e1000 "hung adapter" heuristics read GPRC the same way).
    std::uint64_t rx_phy_frames = 0;
    std::uint64_t rx_no_buffer = 0;
    std::uint64_t rx_bad_addr = 0;
    std::uint64_t rx_bursts = 0;         // coalesced RX interrupts raised
    std::uint64_t rx_timer_flushes = 0;  // bursts flushed by RADV expiry
    std::uint64_t resets = 0;
  };

  // Per-RX-queue slice of the receive counters (Stats keeps the totals).
  struct QueueStats {
    std::uint64_t rx_frames = 0;
    std::uint64_t rx_bursts = 0;
    std::uint64_t rx_timer_flushes = 0;
    std::uint64_t rx_no_buffer = 0;
  };

  // What the RSS hash unit extracts from a frame on the wire.  A frame is
  // steerable when it is well-formed IPv4 TCP/UDP with enough bytes to read
  // the ports; everything else stays on queue 0 and the classic IP path.
  struct RssInfo {
    bool steerable = false;
    std::uint8_t proto = 0;   // kProtoTcp or kProtoUdp when steerable
    std::uint32_t hash = 0;   // net::flow_hash over the inbound 4-tuple
  };
  static RssInfo rss_classify(std::span<const std::byte> bytes);

  // One completed receive descriptor of an interrupt's burst.
  struct RxCompletion {
    chan::RichPtr buffer;
    std::uint32_t len = 0;
    std::uint32_t rss_hash = 0;   // valid when steerable
    std::uint16_t queue = 0;
    bool steerable = false;
    std::uint8_t proto = 0;
  };

  // An interrupt's completions, kept for the deferred message that handles
  // them.  A burst of one is copied out, so the device keeps reusing its
  // accumulator and a per-frame interrupt allocates nothing.
  class RxBurst {
   public:
    explicit RxBurst(std::vector<RxCompletion>&& burst) {
      if (burst.size() == 1) one_ = burst.front();
      else many_ = std::move(burst);
    }
    std::span<const RxCompletion> frames() const {
      if (many_.empty()) return {&one_, 1};
      return many_;
    }

   private:
    RxCompletion one_;
    std::vector<RxCompletion> many_;
  };

  SimNic(sim::Simulator& sim, chan::PoolRegistry& pools, net::MacAddr mac,
         Config cfg);

  void attach_wire(Wire* wire, int end);

  net::MacAddr mac() const { return mac_; }
  bool link_up() const { return link_up_; }

  // --- driver-facing register interface ------------------------------------------
  using TxDoneFn = std::function<void(std::uint64_t cookie, bool ok)>;
  // Receive interrupt: the completions of `queue` since the last one, in
  // arrival order (never empty).  The handler may keep the vector; the
  // device starts its next burst on whatever is left.
  using RxFn = std::function<void(int queue, std::vector<RxCompletion>&&)>;
  using LinkFn = std::function<void(bool up)>;
  void set_tx_done(TxDoneFn fn) { on_tx_done_ = std::move(fn); }
  void set_rx(RxFn fn) { on_rx_ = std::move(fn); }
  void set_link_change(LinkFn fn) { on_link_ = std::move(fn); }

  bool coalescing() const { return cfg_.rx_coalesce_frames > 1; }
  int rx_queue_count() const { return num_queues_; }
  const Config& config() const { return cfg_; }
  // The attached link, for wire-level observability (queue drops, reorders).
  Wire* wire() const { return wire_; }
  int wire_end() const { return wire_end_; }

  // Posts a frame descriptor; false when the TX ring is full.
  bool tx_post(net::TxFrame frame, std::uint64_t cookie);
  // Hands the device a receive buffer; false when the RX ring is full.
  // The single-argument form feeds queue 0 (the classic device).
  bool rx_post(chan::RichPtr buffer) { return rx_post(0, buffer); }
  bool rx_post(int queue, chan::RichPtr buffer);

  int tx_ring_free() const {
    return kTxRing - static_cast<int>(tx_ring_.size());
  }
  int rx_ring_level() const;            // all queues
  int rx_ring_level(int queue) const;

  // Full device reset: rings are dropped (shadow descriptors cannot be
  // invalidated selectively), pending TX completions are lost, and the link
  // renegotiates for kResetLinkDelay.
  void reset();

  // Fault injection: a misconfigured device silently drops received frames
  // until the next reset ("faults misconfigured the network cards since the
  // problem disappeared after we manually restarted the driver").
  void set_wedged(bool v) { wedged_ = v; }
  bool wedged() const { return wedged_; }

  const Stats& stats() const { return stats_; }
  const QueueStats& queue_stats(int queue) const { return qstats_[queue]; }

 private:
  struct TxEntry {
    net::TxFrame frame;
    std::uint64_t cookie;
  };

  void pump_tx();
  void emit(std::vector<std::byte>&& bytes);
  void wire_deliver(std::vector<std::byte>&& bytes);
  // Raises the receive interrupt for `queue`'s accumulated completions.
  void flush_rx_burst(int queue, bool timer_expired);
  std::vector<std::vector<std::byte>> tso_split(
      const std::vector<std::byte>& super, std::uint16_t mss) const;

  sim::Simulator& sim_;
  chan::PoolRegistry& pools_;
  net::MacAddr mac_;
  Config cfg_;
  int num_queues_ = 1;
  Wire* wire_ = nullptr;
  int wire_end_ = 0;
  bool link_up_ = true;
  bool wedged_ = false;
  std::uint32_t reset_epoch_ = 0;

  std::deque<TxEntry> tx_ring_;
  std::vector<std::deque<chan::RichPtr>> rx_rings_;  // one per queue
  bool tx_pumping_ = false;

  // Completed RX descriptors waiting for the interrupt, per queue.
  std::vector<std::vector<RxCompletion>> rx_accums_;
  std::vector<std::uint64_t> rx_timer_gens_;  // invalidate armed RADV timers

  TxDoneFn on_tx_done_;
  RxFn on_rx_;
  LinkFn on_link_;
  Stats stats_;
  std::vector<QueueStats> qstats_;
};

}  // namespace newtos::drv
