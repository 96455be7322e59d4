#include "src/sim/event_queue.h"

#include <utility>

namespace newtos::sim {

EventId EventQueue::push(Time t, EventFn fn) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].fn = std::move(fn);
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{t, next_seq_++, slot});
  return (static_cast<EventId>(slots_[slot].generation) << 32) | slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  // A freed slot's generation has moved past every id it handed out.
  if (slot >= slots_.size() ||
      slots_[slot].generation != static_cast<std::uint32_t>(id >> 32))
    return false;
  remove(slots_[slot].pos);  // drops the handler once the heap is consistent
  return true;
}

bool EventQueue::pop_and_run() {
  if (heap_.empty()) return false;
  // Take the handler out and free its slot first: the event may schedule
  // more work, and cancelling its own id now returns false.
  EventFn fn = remove(0);
  fn();
  return true;
}

void EventQueue::place(std::size_t i, const Entry& e) {
  heap_[i] = e;
  slots_[e.slot].pos = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_up(std::size_t i, Entry e) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, e);
}

void EventQueue::sift_down(std::size_t i, Entry e) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], e)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, e);
}

EventFn EventQueue::remove(std::size_t i) {
  const std::uint32_t slot = heap_[i].slot;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) {
    if (i > 0 && before(last, heap_[(i - 1) / 2])) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }
  Slot& s = slots_[slot];
  if (++s.generation == 0) s.generation = 1;
  free_slots_.push_back(slot);
  return std::exchange(s.fn, nullptr);
}

}  // namespace newtos::sim
