// Database of in-flight asynchronous requests (Section IV).
//
// A single-threaded asynchronous server must remember what it submitted to
// which peer and what to do if the peer dies before replying.  Every request
// gets an id, which travels as the message's cookie and matches the reply.
//
// The table is a slot array with a free list, like sim::EventQueue's: each
// slot holds one request's typed payload inline, its generation and its
// submission sequence, and nothing is allocated per request.  An id is
// generation << 32 | slot.  A slot's generation advances each time it is
// freed, so the id of a completed or aborted request never names a request
// that reuses its slot: a reply from before a crash finds nothing and is
// ignored (Section V-D).  Generations start at 1, so no id is 0.
//
// Walks visit live requests in submission order, so whatever a recovery
// path resends reaches the peer in the order it was first sent.  They sort
// the live slots, which only the crash paths they serve pay for.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace newtos::chan {

template <typename T>
class RequestDb {
 public:
  using Id = std::uint64_t;

  // Records a request and returns its id.
  Id add(T value) {
    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    slots_[slot].value.emplace(std::move(value));
    slots_[slot].seq = next_seq_++;
    ++live_;
    return id_of(slot);
  }

  // The live request `id` names; null for completed, aborted or unknown ids.
  T* find(Id id) {
    const auto slot = static_cast<std::uint32_t>(id);
    if (slot >= slots_.size()) return nullptr;
    Slot& s = slots_[slot];
    if (!s.value || s.generation != static_cast<std::uint32_t>(id >> 32))
      return nullptr;
    return &*s.value;
  }

  // Completes a request (its reply arrived): removes it and hands its
  // payload back.  Empty for completed, aborted or unknown ids.
  std::optional<T> take(Id id) {
    T* v = find(id);
    if (v == nullptr) return std::nullopt;
    std::optional<T> out{std::move(*v)};
    free_slot(static_cast<std::uint32_t>(id));
    return out;
  }

  // Visits every live request in submission order: fn(Id, T&).  `fn` may
  // add requests (they are not visited) and take any request, the visited
  // one included, but must not use the reference after doing so.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (const auto& [seq, id] : live_in_order()) {
      if (T* v = find(id)) fn(id, *v);
    }
  }

  // Removes every live request for which pred(const T&) holds, then runs
  // on_abort(Id, T&&) on each in submission order.  The actions may add
  // requests (a resubmission), which are not aborted.  Returns the count.
  template <typename Pred, typename Fn>
  std::size_t abort_if(Pred&& pred, Fn&& on_abort) {
    std::vector<std::pair<Id, T>> doomed;
    for (const auto& [seq, id] : live_in_order()) {
      T* v = find(id);
      if (!pred(std::as_const(*v))) continue;
      doomed.emplace_back(id, std::move(*v));
      free_slot(static_cast<std::uint32_t>(id));
    }
    for (auto& [id, value] : doomed) on_abort(id, std::move(value));
    return doomed.size();
  }

  // Drops every request without running anything (the owner died).
  void clear() {
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].value) free_slot(slot);
    }
  }

  std::size_t size() const { return live_; }

 private:
  struct Slot {
    std::optional<T> value;
    std::uint32_t generation = 1;  // advances when the slot is freed
    std::uint64_t seq = 0;         // submission order
  };

  Id id_of(std::uint32_t slot) const {
    return (static_cast<Id>(slots_[slot].generation) << 32) | slot;
  }

  void free_slot(std::uint32_t slot) {
    slots_[slot].value.reset();
    ++slots_[slot].generation;
    free_.push_back(slot);
    --live_;
  }

  // The live requests as (sequence, id), oldest first.
  std::vector<std::pair<std::uint64_t, Id>> live_in_order() const {
    std::vector<std::pair<std::uint64_t, Id>> order;
    order.reserve(live_);
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
      if (slots_[slot].value) order.emplace_back(slots_[slot].seq, id_of(slot));
    }
    std::sort(order.begin(), order.end());
    return order;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace newtos::chan
