// The four workloads of the end-to-end benchmark and the harness they run
// in.  A workload builds its testbeds through the public Testbed/Node/apps
// API, drives them in simulated time, checks its own outputs and reports
// its simulated end-to-end metrics; the harness times set-up and the
// measured windows on the host clock and, in a traced run, records spans
// and the per-layer ledger.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "layers.h"
#include "src/core/testbed.h"
#include "trace.h"

namespace newtos::bench {

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// Everything one run of a workload produces.
struct RunOutput {
  // Simulated end-to-end metrics: deterministic for a given seed.
  Metrics sim;
  std::vector<Check> checks;
  // Operations (RPC requests, bulk flows) and the ones that broke: an RPC
  // that never completed, a bulk flow that reset.  fail_ratio also counts
  // RPCs refused or reset on the way (the client sends them again), RPCs
  // done more than 1 s late and flows that delivered nothing.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Host clock.
  std::vector<double> setup_s;  // one per testbed set-up
  double window_host_ns = 0.0;  // CPU time of every measured window
  // The same with each slice's CPU time scaled by kReferenceStepNs over the
  // host_reference_ns() sample taken right after it.
  double window_calibrated_ns = 0.0;
  std::uint64_t window_frames = 0;  // DUT NIC frames (tx+rx) in the windows
  std::uint64_t window_tasks = 0;  // simulator tasks run in the windows
  sim::Time window_sim_ns = 0;
  // Per-layer inputs only a workload knows (zero where a workload has no
  // faults or no RPCs, so every workload reports the same set).
  std::uint64_t goodput_bytes = 0;
  Metrics layer = {
      {"rpc.gen_late_p99_us", {0.0, "us"}},
      {"rpc.samples", {0.0, "count"}},
      {"rs.detect_ms_p50", {0.0, "ms"}},
      {"rs.undetected", {0.0, "count"}},
  };
};

class Harness {
 public:
  static constexpr sim::Time kSlice = 10 * sim::kMillisecond;

  Harness(std::uint64_t seed, bool self_test, Trace& trace, Ledger* ledger);

  std::uint64_t seed() const { return seed_; }
  // The self-test runs every workload at a tenth of its simulated length
  // and skips the cross-checks that need the full length.
  bool self_test() const { return self_test_; }
  sim::Time scaled(sim::Time t) const { return self_test_ ? t / 10 : t; }
  Trace& trace() { return trace_; }
  RunOutput& out() { return out_; }

  void check(const std::string& name, bool ok, const std::string& detail = {});
  void metric(const std::string& name, double value, const std::string& unit);

  // Times a testbed set-up: `build` constructs and boots the testbed and
  // starts the workload's apps; the harness then runs simulated time in
  // 1 ms steps until `connected` holds (or `deadline`).  Returns whether
  // every connection came up.
  bool setup(const std::function<Testbed&()>& build,
             const std::function<bool()>& connected, sim::Time deadline);
  // Runs simulated time to `to` without measuring it.
  void warmup(Testbed& tb, sim::Time to);
  // Runs the measured window from now to `to` in 10 ms simulated slices,
  // timing each on the host clock; `at_slice_end` sees each slice end.
  void window(Testbed& tb, sim::Time to,
              const std::function<void(sim::Time)>& at_slice_end = {});
  // Runs unmeasured simulated time until `done` holds or `cap` is reached.
  void drain(Testbed& tb, const std::function<bool()>& done, sim::Time cap);
  // Simulated spans of the next testbed start after everything recorded so
  // far, so several testbeds share one simulated timeline.
  void next_testbed(Testbed& tb);

 private:
  // Records one slice on both clocks, with what moved on `ledger` as args.
  void trace_slice(Ledger& ledger, sim::Time t, sim::Time next,
                   double host_us, double cpu_ns, std::uint64_t frames);

  std::uint64_t seed_;
  bool self_test_;
  Trace& trace_;
  Ledger* ledger_;  // traced runs only
  RunOutput out_;
};

using Workload = std::function<void(Harness&)>;
// The workload called `name`, or an empty function.
Workload find_workload(const std::string& name);

// Nearest-rank percentile (`p` in [0, 1]) of unsorted samples; 0 if none.
double percentile(std::vector<double> v, double p);

// CPU time of the calling thread, in ns: the host clock of every host
// metric.  Unlike wall time it does not count time the process spent
// descheduled by other load on the machine.
double host_cpu_ns();

// How fast this host runs right now: CPU ns per step of a dependent-load
// walk over kReferenceBytes, the memory-latency-bound kind of work the
// simulator does.  Other tenants of a shared machine slow the walk and the
// simulator alike, so each measured slice is timed against a sample taken
// right after it.  The first call builds the walk (~0.1 s); its memory stays
// resident for the rest of the process.
double host_reference_ns();
constexpr std::size_t kReferenceBytes = std::size_t{32} << 20;
// About the walk's median step on the 4-vCPU 2.1 GHz Xeon VM the baseline
// was recorded on, so a calibrated slice reads as host ns on that machine.
constexpr double kReferenceStepNs = 150.0;

}  // namespace newtos::bench
