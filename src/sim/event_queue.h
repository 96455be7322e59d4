// Deterministic discrete-event queue.
//
// Events with equal timestamps fire in submission order, which keeps every
// simulation run bit-for-bit reproducible regardless of host scheduling.
//
// The queue is an indexed binary heap: every event owns a slot that holds
// its handler and its heap position, so cancel() removes the event at once
// and the heap only ever holds live events.  An EventId is the slot index
// in the low 32 bits and the slot's generation in the high 32; a slot's
// generation advances each time the slot is freed, so the id of a fired or
// cancelled event never names the event that reuses its slot.  Generations
// start at 1, so an id is never 0 (callers use 0 for "no timer").
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/time.h"

namespace newtos::sim {

using EventFn = std::function<void()>;
using EventId = std::uint64_t;

class EventQueue {
 public:
  // Schedules `fn` at absolute time `t`.  Returns an id usable with cancel().
  EventId push(Time t, EventFn fn);

  // Cancels a pending event and drops its handler.  Returns false if it
  // already fired (or is firing) or was cancelled before.  O(log n).
  bool cancel(EventId id);

  // Fires the earliest pending event.  Returns false when empty.
  bool pop_and_run();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  // Timestamp of the earliest pending event; undefined when empty().
  Time next_time() const { return heap_.front().t; }

 private:
  struct Entry {
    Time t;
    std::uint64_t seq;  // submission order: breaks timestamp ties
    std::uint32_t slot;
  };
  struct Slot {
    EventFn fn;
    std::uint32_t generation = 1;  // advances when the slot is freed
    std::uint32_t pos = 0;         // index into heap_ while pending
  };

  static bool before(const Entry& a, const Entry& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }
  void place(std::size_t i, const Entry& e);
  void sift_up(std::size_t i, Entry e);
  void sift_down(std::size_t i, Entry e);
  // Removes heap_[i], frees its slot and hands back its handler.
  EventFn remove(std::size_t i);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace newtos::sim
