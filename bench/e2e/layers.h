// Per-layer counters of the system under test, read through the public
// accessors of the node, its servers, engines, NICs and simulated cores.
//
// Lifetime counters (core cycles, channel sends, NIC frames, server message
// counts) only grow.  Engine statistics restart from zero when a server is
// reincarnated, so every counter is tracked per source and folded in with a
// reset rule: a value below the previous reading starts a new incarnation
// and counts from zero.  At most one 10 ms slice of a crashed incarnation's
// counts is lost.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/core/node.h"
#include "trace.h"

namespace newtos::bench {

class Ledger {
 public:
  // Starts counting from the node's current readings; totals carry over
  // from any node attached before (one ledger spans a workload's testbeds).
  void attach(Node& dut);
  // Folds in what moved since the last reading; returns the per-key deltas
  // of this slice (keys "<source>/<counter>").
  std::map<std::string, std::uint64_t> tick();
  // Adds a measured window's simulated length to the utilization base.
  void add_window(sim::Time t) { window_ns_ += t; }

  // Sum of `counter` over every source (`source` empty) or one source.
  std::uint64_t total(const std::string& counter,
                      const std::string& source = {}) const;
  // Every source that reported `counter`.
  std::vector<std::string> sources(const std::string& counter) const;
  // Busy share of one DUT core over the measured windows.
  double util(const std::string& core) const;

 private:
  std::map<std::string, std::uint64_t> read() const;

  Node* dut_ = nullptr;
  double ghz_ = 1.9;
  std::map<std::string, std::uint64_t> last_;
  std::map<std::string, std::uint64_t> totals_;
  sim::Time window_ns_ = 0;
};

// A reported number and its unit; Metrics maps names to them.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// The per-layer metric set over everything the ledger accumulated.
// `goodput_bytes` is the workload's useful payload (the copies-per-byte
// base); the bottleneck core's name is returned through `bottleneck`.
Metrics layer_metrics(const Ledger& ledger, std::uint64_t goodput_bytes,
                      std::string* bottleneck);

// Host-time probes of single public calls of the sim and chan layers
// (sim.event_ns, sim.cancel_ns, sim.core_exec_ns, chan.ring_ns,
// chan.pool_ns), each recorded as a span on `trace`.
Metrics run_probes(Trace& trace);

}  // namespace newtos::bench
