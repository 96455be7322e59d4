// In-memory Chrome trace-event recorder for the end-to-end benchmark.
//
// Spans are kept in memory while the workload runs and written once, as
// Chrome trace-event JSON, when the benchmark ends (open the file in
// https://ui.perfetto.dev or chrome://tracing).  The two clocks go on two
// processes so they never share an axis:
//   pid 1 "host"      steady_clock microseconds since the recorder started;
//   pid 2 "simulated" virtual microseconds since the testbed booted.
// A disabled recorder ignores every call, so untraced runs pay one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace newtos::bench {

class Trace {
 public:
  static constexpr int kHostPid = 1;
  static constexpr int kSimPid = 2;

  explicit Trace(bool enabled);

  bool on() const { return enabled_; }
  // Host microseconds since construction.
  double host_us() const;

  // A complete span ("X").  `args` is a JSON object body without braces,
  // e.g. "\"bytes\":12", or empty.
  void span(int pid, int tid, std::string name, double ts_us, double dur_us,
            std::string args = {});
  // A nestable async span ("b"/"e" pair).  Spans sharing `id` nest, which is
  // how one request's queueing and network legs hang under its root span.
  void async_span(int pid, std::string name, std::uint64_t id, double ts_us,
                  double dur_us, std::string args = {});
  // Shifts later simulated-clock events by `us`: each testbed starts at
  // simulated time 0, and its spans follow the previous testbed's.
  void advance_sim_origin(double us) { sim_origin_us_ += us; }

  std::size_t size() const { return events_.size(); }
  // Writes {"traceEvents":[...]}; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  // Names a thread row in the viewer.
  void thread_name(int pid, int tid, const std::string& name);

  struct Event {
    char ph = 'X';
    int pid = 0;
    int tid = 0;
    std::uint64_t id = 0;
    double ts = 0.0;
    double dur = 0.0;
    std::string name;
    std::string args;
  };

  double at(int pid, double ts_us) const {
    return pid == kSimPid ? ts_us + sim_origin_us_ : ts_us;
  }

  bool enabled_;
  double sim_origin_us_ = 0.0;
  std::chrono::steady_clock::time_point t0_;
  std::vector<Event> events_;
};

}  // namespace newtos::bench
