// Testbed: two hosts connected by N point-to-point gigabit links — the
// paper's evaluation machine (NewtOS with 5 Intel PRO/1000 adapters) facing
// a fast traffic peer.  Shared by the tests, the benchmarks and the
// examples.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/node.h"
#include "src/drv/wire.h"
#include "src/sim/sim.h"

namespace newtos {

struct TestbedOptions {
  StackMode mode = StackMode::kSplitSyscall;
  int nics = 1;
  double gbps = 1.0;
  bool tso = false;
  bool csum_offload = true;
  bool use_pf = true;
  int pf_filler_rules = 0;
  double loss = 0.0;
  std::uint32_t app_write_size = 8192;
  double cost_scale = 1.0;  // DUT cost scale (row 7 models a faster kernel)
  // Sharded transport plane on the system under test (split modes only).
  int tcp_shards = 1;
  int udp_shards = 1;
  // Receive-side batching on the system under test (default off: the
  // classic per-frame RX path, byte for byte).
  int rx_coalesce_frames = 0;
  std::uint32_t rx_coalesce_usecs = 50;
  bool gro = false;
  // Multi-queue NIC RSS on the system under test (default 1: the classic
  // single-queue RX path, byte for byte).
  int rx_queues = 1;
  // Transparent TCP recovery on the system under test (default off: the
  // Table I trade-off — established connections die with the TCP server).
  bool tcp_checkpoint = false;
  // Supervision plane: probes to all component classes (silent-wedge
  // auto-detection), slowdown SLO, NIC wedge watchdog, restart budgets
  // (NodeConfig::supervision).
  bool supervision = false;
  sim::Time wire_latency = 20 * sim::kMicrosecond;
  std::uint64_t seed = 42;
  // Congestion control on the system under test ("newreno"|"cubic"|"bbr"),
  // with optional per-port overrides so a dumbbell bench can mix flows.
  std::string tcp_cc = "newreno";
  std::vector<std::pair<std::uint16_t, std::string>> tcp_cc_by_port;
  // Receiver-side reassembly budget (segments) — applied to BOTH nodes,
  // since either side may be the data receiver.  Default 0: classic
  // drop-and-dup-ACK receiver, byte for byte.
  std::uint32_t tcp_ooo_queue = 0;
  // Initial ssthresh (bytes; 0 = classic unbounded slow start) and an
  // override for both nodes' snd/rcv buffer caps (0 = the 1 MB default) —
  // the knobs a shallow-buffer WAN bench uses to keep SACK-less loss
  // recovery out of the one-hole-per-RTT regime.
  std::uint32_t tcp_ssthresh_init = 0;
  std::uint32_t tcp_buf_bytes = 0;
  // WAN wire emulation (applied to every link; all off by default).
  double wire_bottleneck_gbps = 0.0;    // slow-hop rate; 0 = line rate
  std::uint32_t wire_queue_frames = 0;  // bottleneck FIFO bound; 0 = none
  double wire_reorder = 0.0;            // reordering probability
  sim::Time wire_reorder_delay = 50 * sim::kMicrosecond;
};

class Testbed {
 public:
  explicit Testbed(const TestbedOptions& opts);
  // Chunk-leak backstop for the lending data plane: aborts (in every build
  // type) when any pool on either node still has loans outstanding —
  // a borrowed datagram view or send reservation that was never returned.
  // Runs at the end of every test/bench that uses a Testbed.
  ~Testbed();

  sim::Simulator& sim() { return sim_; }
  Node& newtos() { return *left_; }  // the system under test
  Node& peer() { return *right_; }   // ideal-monolithic traffic peer
  drv::Wire& wire(int i) { return *wires_.at(i); }
  int nic_count() const { return static_cast<int>(wires_.size()); }

  // Runs the simulation until the given virtual time.
  void run_until(sim::Time t) { sim_.run_until(t); }

 private:
  sim::Simulator sim_;
  std::unique_ptr<Node> left_;
  std::unique_ptr<Node> right_;
  std::vector<std::unique_ptr<drv::Wire>> wires_;
};

}  // namespace newtos
