#include "src/sim/sim.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace newtos::sim {

Time Context::now() const {
  return start_ + sim_.costs().cycles_to_time(charged_);
}

SimCore::SimCore(Simulator& sim, std::string name, int index)
    : sim_(sim), name_(std::move(name)), index_(index) {}

void SimCore::exec(Time earliest, CoreTask task) {
  tasks_.push_back(Pending{earliest, std::move(task)});
  if (!running_) schedule_next();
}

void SimCore::schedule_next() {
  if (tasks_.empty()) {
    running_ = false;
    return;
  }
  running_ = true;
  const Time start =
      std::max({tasks_.front().earliest, sim_.now(), free_at_});
  current_ = std::move(tasks_.front().task);
  tasks_.pop_front();
  // Capturing only [this, start] keeps the event inside std::function's
  // inline buffer; the task waits in current_.
  sim_.at(start, [this, start] {
    CoreTask task = std::move(current_);
    Context ctx(sim_, *this, start);
    task(ctx);
    busy_cycles_ += ctx.charged();
    ++tasks_run_;
    free_at_ = start + sim_.costs().cycles_to_time(ctx.charged());
    // A busy core is handed over by a second event at free_at_, not by
    // posting the next start event now: the start event then takes its
    // place in the submission order at free_at_, behind what was queued
    // for that instant.
    if (free_at_ > sim_.now()) {
      sim_.at(free_at_, [this] { schedule_next(); });
    } else {
      schedule_next();
    }
  });
}

double SimCore::utilization(Time window) const {
  if (window <= 0) return 0.0;
  const double busy_ns =
      static_cast<double>(busy_cycles_) / sim_.costs().ghz;
  return busy_ns / static_cast<double>(window);
}

EventId Simulator::at(Time t, EventFn fn) {
  assert(t >= now_ && "cannot schedule into the past");
  return events_.push(std::max(t, now_), std::move(fn));
}

EventId Simulator::after(Time delay, EventFn fn) {
  return at(now_ + std::max<Time>(delay, 0), std::move(fn));
}

SimCore& Simulator::add_core(std::string name) {
  cores_.push_back(std::make_unique<SimCore>(
      *this, std::move(name), static_cast<int>(cores_.size())));
  return *cores_.back();
}

bool Simulator::step() {
  if (events_.empty()) return false;
  now_ = std::max(now_, events_.next_time());
  return events_.pop_and_run();
}

void Simulator::run_until(Time t) {
  while (!events_.empty() && events_.next_time() <= t) step();
  now_ = std::max(now_, t);
}

void Simulator::run_to_completion() {
  while (step()) {
  }
}

}  // namespace newtos::sim
