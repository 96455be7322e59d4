// Unit tests: discrete-event simulator (event queue, cores, cost model).
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/sim.h"

using namespace newtos::sim;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (q.pop_and_run()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInSubmissionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.push(5, [&order, i] { order.push_back(i); });
  }
  while (q.pop_and_run()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(10, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel fails
  while (q.pop_and_run()) {
  }
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const EventId id = q.push(10, [] {});
  EXPECT_TRUE(q.pop_and_run());
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) q.push(static_cast<Time>(count * 10), chain);
  };
  q.push(0, chain);
  while (q.pop_and_run()) {
  }
  EXPECT_EQ(count, 5);
}

// Drives an EventQueue and a reference model side by side: the reference is
// an ordered set of (time, submission index), which is the queue's contract.
// Pushes land on a few distinct times so ties are common; cancels hit live,
// fired, cancelled and reused-slot ids; callbacks push, cancel other events
// and cancel themselves.
class EventQueueModel {
 public:
  explicit EventQueueModel(std::uint64_t seed) : rng_(seed) {}

  void step() {
    switch (rng_.below(8)) {
      case 0:
      case 1:
      case 2:
        push();
        break;
      case 3:
        if (!ref_.empty()) cancel(live_at(rng_.below(ref_.size())));
        break;
      case 4:
        if (!subs_.empty()) cancel(rng_.below(subs_.size()));
        break;
      case 5:
        cancel_reused_slot();
        break;
      default:
        pop();
    }
    check();
  }

  void drain() {
    while (!ref_.empty() && !::testing::Test::HasFailure()) pop();
    EXPECT_FALSE(q_.pop_and_run());
    check();
  }

  std::uint64_t ties() const { return ties_; }
  std::uint64_t self_cancels() const { return self_cancels_; }
  std::uint64_t reused_slot_cancels() const { return reused_slot_cancels_; }

 private:
  struct Submission {
    Time t;
    EventId id;
  };

  void push() {
    const std::uint64_t k = subs_.size();
    const Time t = now_ + static_cast<Time>(rng_.below(4));
    const EventId id = q_.push(t, [this, k] { fire(k); });
    EXPECT_NE(id, 0u);
    subs_.push_back({t, id});
    ref_.emplace(t, k);
  }

  // Cancels submission k; the reference says whether it is still pending.
  bool cancel(std::uint64_t k) {
    const bool pending = ref_.erase({subs_[k].t, k}) == 1;
    EXPECT_EQ(q_.cancel(subs_[k].id), pending) << "submission " << k;
    if (pending) retire(k);
    return pending;
  }

  // Cancels a dead id whose slot now holds a pending event.
  void cancel_reused_slot() {
    if (ref_.empty()) return;
    const std::uint64_t k = live_at(rng_.below(ref_.size()));
    const auto it = retired_.find(static_cast<std::uint32_t>(subs_[k].id));
    if (it == retired_.end()) return;
    const std::uint64_t dead = it->second[rng_.below(it->second.size())];
    EXPECT_NE(subs_[dead].id, subs_[k].id);
    EXPECT_FALSE(cancel(dead));
    ++reused_slot_cancels_;
  }

  void pop() {
    if (ref_.empty()) {
      EXPECT_FALSE(q_.pop_and_run());
      return;
    }
    const auto [t, k] = *ref_.begin();
    ref_.erase(ref_.begin());
    if (t == now_ && fired_any_) ++ties_;
    now_ = t;
    fired_any_ = true;
    retire(k);
    expected_ = k;
    EXPECT_TRUE(q_.pop_and_run());
    EXPECT_EQ(expected_, kNone) << "submission " << k << " did not fire";
  }

  void fire(std::uint64_t k) {
    EXPECT_EQ(k, expected_) << "fired out of order";
    expected_ = kNone;
    check();
    switch (rng_.below(4)) {
      case 0:
        push();
        push();
        break;
      case 1:
        cancel(rng_.below(subs_.size()));
        break;
      case 2:
        EXPECT_FALSE(cancel(k));  // firing: no longer cancellable
        ++self_cancels_;
        break;
      default:
        break;
    }
  }

  void retire(std::uint64_t k) {
    retired_[static_cast<std::uint32_t>(subs_[k].id)].push_back(k);
  }

  std::uint64_t live_at(std::uint64_t i) const {
    return std::next(ref_.begin(), static_cast<std::ptrdiff_t>(i))->second;
  }

  void check() const {
    EXPECT_EQ(q_.size(), ref_.size());
    EXPECT_EQ(q_.empty(), ref_.empty());
    if (!ref_.empty()) {
      EXPECT_EQ(q_.next_time(), ref_.begin()->first);
    }
  }

  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  Rng rng_;
  EventQueue q_;
  std::set<std::pair<Time, std::uint64_t>> ref_;  // pending submissions
  std::vector<Submission> subs_;                   // by submission index
  // slot (low 32 bits of an id) -> submissions that died in it
  std::unordered_map<std::uint32_t, std::vector<std::uint64_t>> retired_;
  Time now_ = 0;
  bool fired_any_ = false;
  std::uint64_t expected_ = kNone;
  std::uint64_t ties_ = 0;
  std::uint64_t self_cancels_ = 0;
  std::uint64_t reused_slot_cancels_ = 0;
};

TEST(EventQueue, MatchesReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    EventQueueModel model(seed);
    for (int op = 0; op < 5000 && !HasFailure(); ++op) model.step();
    model.drain();
    // The run covered what the model is for.
    EXPECT_GT(model.ties(), 0u);
    EXPECT_GT(model.self_cancels(), 0u);
    EXPECT_GT(model.reused_slot_cancels(), 0u);
    if (HasFailure()) break;
  }
}

TEST(Simulator, TimeAdvancesMonotonically) {
  Simulator sim;
  Time seen = -1;
  for (Time t : {5, 3, 9, 7}) {
    sim.at(t, [&, t] {
      EXPECT_GT(t, seen);
      seen = t;
      EXPECT_EQ(sim.now(), t);
    });
  }
  sim.run_to_completion();
  EXPECT_EQ(seen, 9);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.at(100, [&] { ++fired; });
  sim.at(200, [&] { ++fired; });
  sim.run_until(150);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 150);
  sim.run_until(250);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  sim.at(100, [&] {
    sim.after(50, [&] { EXPECT_EQ(sim.now(), 150); });
  });
  sim.run_to_completion();
}

TEST(SimCore, SerializesTasks) {
  Simulator sim;
  SimCore& core = sim.add_core("c0");
  std::vector<Time> starts;
  // Each task takes 1900 cycles = 1000 ns at 1.9 GHz.
  for (int i = 0; i < 3; ++i) {
    core.exec(0, [&](Context& ctx) {
      starts.push_back(ctx.now());
      ctx.charge(1900);
    });
  }
  sim.run_to_completion();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 1000);
  EXPECT_EQ(starts[2], 2000);
  EXPECT_EQ(core.busy_cycles(), 3 * 1900);
  EXPECT_EQ(core.tasks_run(), 3u);
}

TEST(SimCore, ContextNowReflectsCharges) {
  Simulator sim;
  SimCore& core = sim.add_core("c0");
  core.exec(0, [&](Context& ctx) {
    EXPECT_EQ(ctx.now(), 0);
    ctx.charge(3800);  // 2000 ns
    EXPECT_EQ(ctx.now(), 2000);
  });
  sim.run_to_completion();
}

TEST(SimCore, EarliestConstraintHonoured) {
  Simulator sim;
  SimCore& core = sim.add_core("c0");
  Time started = -1;
  core.exec(500, [&](Context& ctx) { started = ctx.now(); });
  sim.run_to_completion();
  EXPECT_EQ(started, 500);
}

TEST(SimCore, IndependentCoresRunInParallel) {
  Simulator sim;
  SimCore& a = sim.add_core("a");
  SimCore& b = sim.add_core("b");
  Time a_start = -1, b_start = -1;
  a.exec(0, [&](Context& ctx) {
    a_start = ctx.now();
    ctx.charge(19000);
  });
  b.exec(0, [&](Context& ctx) {
    b_start = ctx.now();
    ctx.charge(19000);
  });
  sim.run_to_completion();
  EXPECT_EQ(a_start, 0);
  EXPECT_EQ(b_start, 0);  // not serialized behind core a
}

TEST(CostModel, Conversions) {
  CostModel c;  // 1.9 GHz
  EXPECT_EQ(c.cycles_to_time(1900), 1000);
  EXPECT_EQ(c.time_to_cycles(1000), 1900);
  EXPECT_EQ(c.copy_cost(4000), 1000);      // 0.25 cy/B
  EXPECT_EQ(c.checksum_cost(4000), 2000);  // 0.5 cy/B
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.below(10), 10u);
  }
}

// Property sweep: chance(p) converges to p.
class RngChance : public ::testing::TestWithParam<double> {};

TEST_P(RngChance, ConvergesToProbability) {
  const double p = GetParam();
  Rng r(99);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += r.chance(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RngChance,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9, 1.0));
