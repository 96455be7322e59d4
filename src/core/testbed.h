// Testbed: two hosts connected by N point-to-point gigabit links — the
// paper's evaluation machine (NewtOS with 5 Intel PRO/1000 adapters) facing
// a fast traffic peer.  Shared by the tests, the benchmarks and the
// examples.
#pragma once

#include <memory>
#include <vector>

#include "src/core/node.h"
#include "src/drv/wire.h"
#include "src/sim/sim.h"

namespace newtos {

// The system under test's NodeConfig plus the wire between the two hosts.
// Testbed names the system under test "newtos" and puts it on the left of
// every link; the peer's configuration is Testbed's own, except that it
// mirrors the receive-side TCP settings (see testbed.cc).
struct TestbedOptions : NodeConfig {
  double gbps = 1.0;
  double loss = 0.0;
  sim::Time wire_latency = 20 * sim::kMicrosecond;
  std::uint64_t seed = 42;
  // WAN wire emulation (applied to every link; all off by default).
  double wire_bottleneck_gbps = 0.0;    // slow-hop rate; 0 = line rate
  std::uint32_t wire_queue_frames = 0;  // bottleneck FIFO bound; 0 = none
  double wire_reorder = 0.0;            // reordering probability
  sim::Time wire_reorder_delay = 50 * sim::kMicrosecond;
};

class Testbed {
 public:
  // Throws std::invalid_argument when opts fail NodeConfig::validate().
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
