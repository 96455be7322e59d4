// The simulator: virtual time, simulated CPU cores, and timers.
//
// Model.  All OS servers, protocol engines and applications in this
// repository are real, executing C++.  What is simulated is *where the
// cycles go*: each server is bound to a SimCore and every handler charges
// cycles to a Context.  A core runs one handler at a time; queued handlers
// wait until the core is free, exactly like run-to-completion event loops on
// dedicated cores in the paper.  Time is global and advances through the
// event queue only, so runs are deterministic.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace newtos::sim {

class Simulator;
class SimCore;

// Handed to every handler executing on a core.  Handlers account for the
// work they do by calling charge(); now() reflects the charges so far, so a
// message sent halfway through a long handler carries the right timestamp.
class Context {
 public:
  Context(Simulator& sim, SimCore& core, Time start)
      : sim_(sim), core_(core), start_(start) {}

  void charge(Cycles c) { charged_ += c; }
  Cycles charged() const { return charged_; }

  Time now() const;
  Simulator& sim() { return sim_; }
  SimCore& core() { return core_; }

 private:
  Simulator& sim_;
  SimCore& core_;
  Time start_;
  Cycles charged_ = 0;
};

using CoreTask = std::function<void(Context&)>;

// One simulated CPU core.  Tasks submitted with exec() run in FIFO order,
// each no earlier than its `earliest` stamp and no earlier than the end of
// the previous task (the core is a serial resource).
class SimCore {
 public:
  SimCore(Simulator& sim, std::string name, int index);

  SimCore(const SimCore&) = delete;
  SimCore& operator=(const SimCore&) = delete;

  // Queues `task`; it will run when the core is free, at or after `earliest`.
  void exec(Time earliest, CoreTask task);

  const std::string& name() const { return name_; }
  int index() const { return index_; }

  // True when no task is running or queued.
  bool idle() const { return !running_ && tasks_.empty(); }
  Time free_at() const { return free_at_; }

  // Lifetime statistics.
  Cycles busy_cycles() const { return busy_cycles_; }
  std::uint64_t tasks_run() const { return tasks_run_; }
  double utilization(Time window) const;

 private:
  void schedule_next();

  Simulator& sim_;
  std::string name_;
  int index_;
  struct Pending {
    Time earliest;
    CoreTask task;
  };
  std::deque<Pending> tasks_;
  CoreTask current_;  // popped, waiting for its start event
  bool running_ = false;
  Time free_at_ = 0;
  Cycles busy_cycles_ = 0;
  std::uint64_t tasks_run_ = 0;
};

// Owns virtual time, the event queue, the cost model and the cores.
class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(CostModel costs) : costs_(costs) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }
  CostModel& costs() { return costs_; }
  const CostModel& costs() const { return costs_; }

  // Raw event scheduling (absolute / relative).  Returns a cancellable id.
  EventId at(Time t, EventFn fn);
  EventId after(Time delay, EventFn fn);
  bool cancel(EventId id) { return events_.cancel(id); }

  SimCore& add_core(std::string name);
  SimCore& core(std::size_t i) { return *cores_.at(i); }
  std::size_t core_count() const { return cores_.size(); }

  // Runs events until virtual time `t` (inclusive) or until idle.
  void run_until(Time t);
  // Runs until the event queue drains.
  void run_to_completion();
  // Fires a single event.  Returns false when nothing is pending.
  bool step();

 private:
  Time now_ = 0;
  CostModel costs_;
  EventQueue events_;
  std::vector<std::unique_ptr<SimCore>> cores_;
};

}  // namespace newtos::sim
