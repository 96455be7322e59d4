// Layer probes: host-time cost of single public calls of the simulator and
// channel layers, the per-operation prices behind host_ns_per_frame.  Each
// probe runs five batches and reports the median batch's ns per operation.
#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

#include "src/chan/message.h"
#include "src/chan/pool.h"
#include "src/chan/spsc_ring.h"
#include "src/sim/event_queue.h"
#include "src/sim/sim.h"
#include "layers.h"
#include "trace.h"

namespace newtos::bench {

namespace {

// Keeps the compiler from discarding a result the probe computed.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

constexpr int kBatches = 5;

double probe(Trace& trace, const char* name, int ops,
             const std::function<void(int)>& batch) {
  std::vector<double> ns;
  const double h0 = trace.host_us();
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    batch(ops);
    ns.push_back(std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - t0)
                     .count() /
                 ops);
  }
  trace.span(Trace::kHostPid, 2, name, h0, trace.host_us() - h0);
  std::nth_element(ns.begin(), ns.begin() + kBatches / 2, ns.end());
  return ns[kBatches / 2];
}

}  // namespace

Metrics run_probes(Trace& trace) {
  Metrics m;
  std::uint64_t fired = 0;

  // EventQueue push + pop_and_run with 1024 events pending.
  m["sim.event_ns"] = {
      probe(trace, "probe.sim.event", 200000,
            [&fired](int ops) {
              sim::EventQueue q;
              sim::Time t = 0;
              for (int i = 0; i < 1024; ++i) {
                q.push(t + (i * 7919) % 1024, [&fired] { ++fired; });
              }
              for (int i = 0; i < ops; ++i) {
                q.push(t + 1024 + (i * 7919) % 1024, [&fired] { ++fired; });
                q.pop_and_run();
                ++t;
              }
            }),
      "ns"};

  // EventQueue push + cancel with 1024 events pending.
  m["sim.cancel_ns"] = {
      probe(trace, "probe.sim.cancel", 200000,
            [&fired](int ops) {
              sim::EventQueue q;
              for (int i = 0; i < 1024; ++i) q.push(i, [&fired] { ++fired; });
              for (int i = 0; i < ops; ++i) {
                q.cancel(q.push(2048 + i, [&fired] { ++fired; }));
              }
            }),
      "ns"};

  // One SimCore task: exec + schedule + run, charging 100 cycles.
  m["sim.core_exec_ns"] = {
      probe(trace, "probe.sim.core_exec", 100000,
            [](int ops) {
              sim::Simulator s;
              sim::SimCore& core = s.add_core("probe");
              for (int i = 0; i < ops; ++i) {
                core.exec(0, [](sim::Context& ctx) { ctx.charge(100); });
              }
              s.run_to_completion();
              keep(core.tasks_run());
            }),
      "ns"};

  // SpscRing<Message> push + pop (one channel message, no doorbell).
  m["chan.ring_ns"] = {
      probe(trace, "probe.chan.ring", 1000000,
            [](int ops) {
              chan::SpscRing<chan::Message> ring(256);
              chan::Message msg;
              for (int i = 0; i < ops; ++i) {
                msg.opcode = static_cast<std::uint16_t>(i);
                ring.try_push(msg);
                ring.try_pop(msg);
              }
              keep(msg);
            }),
      "ns"};

  // Pool alloc of one 1514-byte frame + release.
  m["chan.pool_ns"] = {
      probe(trace, "probe.chan.pool", 1000000,
            [](int ops) {
              chan::Pool pool(1, "probe", 1 << 20);
              for (int i = 0; i < ops; ++i) {
                const chan::RichPtr p = pool.alloc(1514);
                pool.release(p);
              }
              keep(pool.total_allocs());
            }),
      "ns"};
  keep(fired);
  return m;
}

}  // namespace newtos::bench
