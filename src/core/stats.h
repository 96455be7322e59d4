// Measurement hub: counters, time series and an event log, shared by the
// workload apps, the fault injector and the benchmark harnesses.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace newtos {

struct TimePoint {
  sim::Time t = 0;
  double value = 0.0;
};

class StatsHub {
 public:
  // Counters.
  void add(const std::string& name, std::uint64_t delta = 1) {
    counters_[name] += delta;
  }
  std::uint64_t get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  // Overwrites (for gauges sampled from elsewhere, e.g. queue drop totals).
  void set(const std::string& name, std::uint64_t value) {
    counters_[name] = value;
  }

  // Time series (e.g. bitrate samples for Figures 4 and 5).
  void record(const std::string& series, sim::Time t, double value) {
    series_[series].push_back(TimePoint{t, value});
  }
  const std::vector<TimePoint>& series(const std::string& name) const {
    static const std::vector<TimePoint> empty;
    auto it = series_.find(name);
    return it == series_.end() ? empty : it->second;
  }

  // Event log (crashes, restarts, recovery milestones).
  void log(sim::Time t, std::string text) {
    events_.push_back({t, std::move(text)});
  }
  const std::vector<std::pair<sim::Time, std::string>>& events() const {
    return events_;
  }

  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, std::vector<TimePoint>> series_;
  std::vector<std::pair<sim::Time, std::string>> events_;
};

}  // namespace newtos
