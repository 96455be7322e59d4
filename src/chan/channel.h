// Channel queues and doorbells.
//
// A Queue is one unidirectional sender→consumer channel: an SPSC ring of
// fixed-size messages plus a doorbell word.  When the consumer has drained
// its queues it arms the doorbell and halts its core (the kernel-assisted
// MONITOR/MWAIT of Section IV-B); the next producer write rings the bell and
// wakes it.  In the simulator the wakeup costs CostModel::mwait_wakeup; with
// real threads the doorbell degenerates to a callback.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/chan/message.h"
#include "src/chan/spsc_ring.h"

namespace newtos::chan {

class Doorbell {
 public:
  using WakeFn = std::function<void()>;

  // Consumer: arm before halting.  The callback fires on the next ring.
  void arm(WakeFn on_ring) {
    on_ring_ = std::move(on_ring);
    armed_ = true;
  }
  void disarm() {
    armed_ = false;
    on_ring_ = nullptr;
  }
  bool armed() const { return armed_; }

  // Producer: called after every enqueue.  Consumes the arming.
  void ring() {
    if (!armed_) return;
    armed_ = false;
    WakeFn fn = std::move(on_ring_);
    on_ring_ = nullptr;
    fn();
  }

 private:
  bool armed_ = false;
  WakeFn on_ring_;
};

class Queue {
 public:
  Queue(std::string name, std::size_t capacity)
      : name_(std::move(name)), ring_(capacity) {}

  const std::string& name() const { return name_; }

  // Producer side.  Never blocks; false means the queue is full and the
  // caller must apply its drop/defer policy (Section IV-A).
  bool try_send(const Message& m) {
    if (!ring_.try_push(m)) {
      ++send_failures_;
      return false;
    }
    ++sends_;
    bell_.ring();
    return true;
  }

  // Consumer side.
  bool try_recv(Message& out) { return ring_.try_pop(out); }

  bool empty() const { return ring_.empty(); }
  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }
  Doorbell& doorbell() { return bell_; }

  // Crash support: drop contents (messages in flight to/from a dead server
  // are meaningless; the request database drives recovery).
  void reset() {
    ring_.reset();
    bell_.disarm();
  }

  std::uint64_t sends() const { return sends_; }
  std::uint64_t send_failures() const { return send_failures_; }

 private:
  std::string name_;
  SpscRing<Message> ring_;
  Doorbell bell_;
  std::uint64_t sends_ = 0;
  std::uint64_t send_failures_ = 0;
};

}  // namespace newtos::chan
