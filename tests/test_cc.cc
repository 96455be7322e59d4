// Pluggable congestion control: the algorithm modules and their wiring.
//
// Unit tests drive the CongestionControl modules directly through the hook
// interface — no simulator needed — and pin down the per-algorithm window
// policies: NewReno's slow-start/CA/fast-recovery arithmetic, CUBIC's
// concave-then-convex growth around the pre-loss plateau, BBR's delivery-
// rate model and pacing output, and the checkpoint blob round-trips.
//
// Integration tests run the Testbed: a reordering WAN wire must not cause
// spurious fast retransmits when the receiver has a reassembly budget, a
// BBR flow must actually exercise the pacing timer while keeping the
// bottleneck FIFO shallow, and the learned window must survive a TCP-server
// crash via the connection-checkpoint path.
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <string>

#include "src/core/apps.h"
#include "src/core/fault_injection.h"
#include "src/core/testbed.h"
#include "src/net/cc/congestion.h"
#include "src/net/tcp.h"

using namespace newtos;
using namespace newtos::net;

namespace {

cc::CcConfig unit_cfg(std::uint32_t ssthresh_init = 0) {
  cc::CcConfig cfg;
  cfg.mss = 1000;
  cfg.initial_cwnd = 10 * 1000;
  cfg.ssthresh_init = ssthresh_init;
  return cfg;
}

}  // namespace

// --- factory ----------------------------------------------------------------

TEST(CcFactory, KnownAlgorithmsAndIds) {
  for (const char* name : {"newreno", "cubic", "bbr"}) {
    EXPECT_TRUE(cc::known(name)) << name;
    auto mod = cc::make(name, unit_cfg());
    ASSERT_NE(mod, nullptr) << name;
    EXPECT_STREQ(mod->name(), name);
    // Round-trip through the wire-stable id.
    auto again = cc::make(mod->algo(), unit_cfg());
    ASSERT_NE(again, nullptr);
    EXPECT_STREQ(again->name(), name);
    EXPECT_STREQ(cc::to_string(mod->algo()), name);
  }
  EXPECT_FALSE(cc::known("vegas"));
  EXPECT_EQ(cc::make("vegas", unit_cfg()), nullptr);
}

// --- NewReno ----------------------------------------------------------------

TEST(CcNewReno, SlowStartThenCongestionAvoidance) {
  auto m = cc::make("newreno", unit_cfg(/*ssthresh_init=*/20 * 1000));
  EXPECT_EQ(m->ssthresh(), 20u * 1000);

  // Slow start: cwnd grows by the ACKed bytes (exponential per RTT).
  const std::uint32_t before = m->cwnd();
  m->on_ack(1000, before, 0);
  EXPECT_EQ(m->cwnd(), before + 1000);

  // Drive across ssthresh.
  while (m->cwnd() < m->ssthresh()) m->on_ack(1000, m->cwnd(), 0);

  // Congestion avoidance: ~mss^2/cwnd per ACK — additive per RTT.
  const std::uint32_t ca = m->cwnd();
  m->on_ack(1000, ca, 0);
  EXPECT_EQ(m->cwnd(), ca + 1000u * 1000u / ca);
}

TEST(CcNewReno, FastRecoveryAndTimeout) {
  auto m = cc::make("newreno", unit_cfg());
  while (m->cwnd() < 40 * 1000) m->on_ack(1000, m->cwnd(), 0);

  // Third dup ACK: halve, plus the three segments that left the wire.
  m->on_enter_recovery(/*flight=*/40 * 1000, 0);
  EXPECT_EQ(m->ssthresh(), 20u * 1000);
  EXPECT_EQ(m->cwnd(), 23u * 1000);

  // Further dup ACKs inflate by one segment each.
  m->on_dup_ack(/*in_recovery=*/true, 40 * 1000, 0);
  EXPECT_EQ(m->cwnd(), 24u * 1000);

  // Partial ACK deflates by the ACKed amount, inflates by one segment.
  m->on_partial_ack(/*acked=*/5 * 1000, 0);
  EXPECT_EQ(m->cwnd(), 20u * 1000);

  // Full ACK of the recovery point: back to ssthresh.
  m->on_exit_recovery(0);
  EXPECT_EQ(m->cwnd(), 20u * 1000);

  // Timeout: collapse to one segment, ssthresh from the pre-rewind flight.
  m->on_rto(/*flight=*/20 * 1000, 0);
  EXPECT_EQ(m->cwnd(), 1000u);
  EXPECT_EQ(m->ssthresh(), 10u * 1000);
}

TEST(CcNewReno, SsthreshInitSeedsAndClamps) {
  // 0 keeps the classic unbounded slow start.
  EXPECT_EQ(cc::make("newreno", unit_cfg(0))->ssthresh(), 0x7fffffffu);
  // A cached path estimate seeds ssthresh directly...
  EXPECT_EQ(cc::make("newreno", unit_cfg(100 * 1000))->ssthresh(),
            100u * 1000);
  // ...but never below two segments.
  EXPECT_EQ(cc::make("newreno", unit_cfg(1))->ssthresh(), 2000u);
  EXPECT_EQ(cc::make("cubic", unit_cfg(1))->ssthresh(), 2000u);
}

// --- CUBIC ------------------------------------------------------------------

// The defining CUBIC property: after a loss the window climbs back toward
// the pre-loss plateau along a cubic curve — fast at first, flattening as
// it approaches W_max (concave), then accelerating past it (convex).
TEST(CcCubic, ConcaveThenConvexAroundPlateau) {
  cc::CcConfig cfg = unit_cfg(/*ssthresh_init=*/2 * 1000);
  cfg.initial_cwnd = 100 * 1000;  // start in congestion avoidance
  auto m = cc::make("cubic", cfg);
  const sim::Time rtt = 100 * sim::kMillisecond;
  m->on_rtt_sample(rtt, 0);

  // Loss at W_max = 100 segments: beta = 0.7 multiplicative decrease.
  m->on_enter_recovery(100 * 1000, 0);
  m->on_exit_recovery(0);
  EXPECT_EQ(m->cwnd(), 70u * 1000);
  EXPECT_EQ(m->ssthresh(), 70u * 1000);

  // One full-window ACK per RTT for 10 s; sample the trajectory each RTT.
  // K = cbrt(W_max * 0.3 / 0.4) ~= 4.2 s for W_max = 100 segments.
  std::array<std::uint32_t, 101> w{};
  w[0] = m->cwnd();
  for (int i = 1; i <= 100; ++i) {
    const sim::Time now = i * rtt;
    m->on_rtt_sample(rtt, now);
    m->on_ack(m->cwnd(), m->cwnd(), now);
    w[i] = m->cwnd();
  }

  // Monotone recovery that reaches and passes the plateau.
  EXPECT_GT(w[42], 95u * 1000);   // near W_max around t = K
  EXPECT_LT(w[42], 110u * 1000);  // ...but not far past it yet
  EXPECT_GT(w[100], 110u * 1000);  // probing beyond the plateau by 10 s

  // Concave before K: per-RTT growth shrinks as W_max approaches.
  const std::uint32_t g_early = w[10] - w[5];
  const std::uint32_t g_late_concave = w[40] - w[35];
  EXPECT_GT(g_early, g_late_concave);
  // Convex after K: growth accelerates again while probing.
  const std::uint32_t g_past = w[90] - w[85];
  EXPECT_GT(g_past, g_late_concave);
}

TEST(CcCubic, FastConvergenceReleasesShareOnRepeatLoss) {
  cc::CcConfig cfg = unit_cfg(2 * 1000);
  cfg.initial_cwnd = 100 * 1000;
  auto m = cc::make("cubic", cfg);
  m->on_rtt_sample(100 * sim::kMillisecond, 0);
  m->on_ack(m->cwnd(), m->cwnd(), 0);  // open the epoch (W_max = 100)

  // First loss at the plateau, second loss below it: fast convergence
  // lowers the remembered plateau below the current window so a competing
  // flow can claim the released share.
  m->on_enter_recovery(100 * 1000, sim::kSecond);
  m->on_exit_recovery(sim::kSecond);
  const std::uint32_t after_first = m->cwnd();
  m->on_enter_recovery(after_first, 2 * sim::kSecond);
  m->on_exit_recovery(2 * sim::kSecond);
  EXPECT_EQ(m->cwnd(), 49u * 1000);  // 0.7 * 0.7 * 100
}

// --- BBR --------------------------------------------------------------------

// Feed the model a steady delivery rate and check it converges: pacing at
// ~the delivered rate (times the cycle gain) and cwnd capped near 2 x BDP
// instead of growing without bound the way loss-based windows do.
TEST(CcBbr, ModelConvergesToDeliveryRateAndBoundsCwnd) {
  auto m = cc::make("bbr", unit_cfg());
  const std::uint64_t rate = 100'000'000;  // 100 MB/s
  const sim::Time rtt = 10 * sim::kMillisecond;
  const std::uint32_t flight =
      static_cast<std::uint32_t>(rate * rtt / sim::kSecond);  // 1 BDP

  // 1 ms ACK clock at the steady rate for 2 simulated seconds.
  for (int i = 1; i <= 2000; ++i) {
    const sim::Time now = i * sim::kMillisecond;
    m->on_rtt_sample(rtt, now);
    m->on_ack(static_cast<std::uint32_t>(rate / 1000), flight, now);
  }

  // The windowed-max filter landed on the offered rate; pacing tracks it
  // through the PROBE_BW gain cycle (0.75..1.25).
  const std::uint64_t pr = m->pacing_rate();
  EXPECT_GT(pr, rate / 2);
  EXPECT_LT(pr, rate * 3 / 2);
  // cwnd_gain caps the window near 2 x BDP — the queue stays shallow.
  EXPECT_LE(m->cwnd(), 3 * flight);
  EXPECT_GE(m->cwnd(), flight / 2);
  // BBR reports no ssthresh; the engine treats it as unbounded.
  EXPECT_EQ(m->ssthresh(), 0x7fffffffu);
}

TEST(CcBbr, RtoCollapsesWindowButKeepsRateModel) {
  auto m = cc::make("bbr", unit_cfg());
  const std::uint64_t rate = 50'000'000;
  for (int i = 1; i <= 1000; ++i) {
    const sim::Time now = i * sim::kMillisecond;
    m->on_rtt_sample(10 * sim::kMillisecond, now);
    m->on_ack(static_cast<std::uint32_t>(rate / 1000), 500'000, now);
  }
  const std::uint64_t pr_before = m->pacing_rate();
  m->on_rto(500'000, sim::kSecond);
  EXPECT_EQ(m->cwnd(), 1000u);        // go-back-N restart
  EXPECT_EQ(m->pacing_rate(), pr_before);  // the model stands
}

// --- checkpoint blobs -------------------------------------------------------

TEST(CcBlob, RoundTripsForEveryAlgorithm) {
  for (const char* name : {"newreno", "cubic", "bbr"}) {
    auto src = cc::make(name, unit_cfg(30 * 1000));
    // Mutate away from initial state.
    for (int i = 1; i <= 50; ++i) {
      src->on_rtt_sample(5 * sim::kMillisecond, i * sim::kMillisecond);
      src->on_ack(1000, 20 * 1000, i * sim::kMillisecond);
    }
    src->on_enter_recovery(src->cwnd(), 60 * sim::kMillisecond);
    src->on_exit_recovery(60 * sim::kMillisecond);

    std::array<std::byte, cc::kCcBlobMax> blob{};
    const std::size_t used = src->serialize(blob);
    ASSERT_GT(used, 0u) << name;
    ASSERT_LE(used, cc::kCcBlobMax) << name;

    auto dst = cc::make(name, unit_cfg());
    ASSERT_TRUE(dst->deserialize(std::span(blob).first(used))) << name;
    EXPECT_EQ(dst->cwnd(), src->cwnd()) << name;
    EXPECT_EQ(dst->ssthresh(), src->ssthresh()) << name;
    // BBR's restored filter must reproduce the learned rate (modulo the
    // gain of the cycle phase the blob froze).
    if (src->pacing_rate() > 0) {
      EXPECT_GT(dst->pacing_rate(), 0u) << name;
    }
  }
}

TEST(CcBlob, MalformedBlobsAreRejected) {
  std::array<std::byte, cc::kCcBlobMax> zeros{};
  for (const char* name : {"newreno", "cubic", "bbr"}) {
    auto m = cc::make(name, unit_cfg());
    const std::uint32_t cwnd = m->cwnd();
    // Truncated.
    EXPECT_FALSE(m->deserialize(std::span(zeros).first(2))) << name;
    // All zeros: cwnd below one segment is conservative-invalid.
    EXPECT_FALSE(m->deserialize(zeros)) << name;
    // A rejected blob leaves the module untouched.
    EXPECT_EQ(m->cwnd(), cwnd) << name;
  }
}

// --- integration: WAN wire + engine -----------------------------------------

namespace {

struct Flow {
  std::unique_ptr<apps::BulkReceiver> rx;
  std::unique_ptr<apps::BulkSender> tx;
};

Flow start_bulk(Testbed& tb, std::uint16_t port) {
  Flow f;
  AppActor* rx_app = tb.peer().add_app("rx" + std::to_string(port));
  apps::BulkReceiver::Config rc;
  rc.port = port;
  rc.record_series = false;
  f.rx = std::make_unique<apps::BulkReceiver>(tb.peer(), rx_app, rc);
  f.rx->start();
  AppActor* tx_app = tb.newtos().add_app("tx" + std::to_string(port));
  apps::BulkSender::Config sc;
  sc.dst = tb.newtos().peer_addr(0);
  sc.port = port;
  f.tx = std::make_unique<apps::BulkSender>(tb.newtos(), tx_app, sc);
  f.tx->start();
  return f;
}

}  // namespace

// A mildly reordering wire looks like loss to a classic receiver (segments
// past a drop^W gap get dropped, dup ACKs trigger a spurious fast
// retransmit).  With a reassembly budget the gap is bridged in place: the
// wire demonstrably reordered frames, yet the sender never fired a single
// fast retransmit and goodput stays at line rate.
TEST(CcWire, ReorderingAbsorbedByReassemblyNotRetransmit) {
  TestbedOptions opts;
  opts.mode = StackMode::kSplitSyscall;
  opts.nics = 1;
  opts.app_write_size = 65536;
  opts.wire_reorder = 0.01;
  // Hold a reordered frame for ~1 frame time at 1 GbE: genuinely out of
  // order, but re-sequenced within the dup-ACK threshold.
  opts.wire_reorder_delay = 15 * sim::kMicrosecond;
  opts.tcp.ooo_queue_segs = 64;
  Testbed tb(opts);
  Flow f = start_bulk(tb, 5001);
  tb.run_until(2 * sim::kSecond);

  EXPECT_GT(tb.wire(0).reordered(), 100u);
  std::uint64_t fast_retx = 0, ooo_buffered = 0;
  for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
    fast_retx += tb.newtos().tcp_engine(s)->stats().fast_retransmits;
  }
  ooo_buffered = tb.peer().tcp_engine(0)->stats().ooo_buffered;
  EXPECT_EQ(fast_retx, 0u);
  EXPECT_GT(ooo_buffered, 0u);  // the budget did the absorbing
  // Goodput unharmed: >= 0.5 Gb/s over the 2 s window.
  EXPECT_GT(f.rx->bytes() * 8.0 / 2.0 / 1e9, 0.5);
}

// One BBR flow over the two-stage WAN wire: the pacing timer must actually
// gate the TX path, and the bottleneck FIFO must stay shallow — the
// behaviour bench_cc quantifies against CUBIC.
TEST(CcWire, BbrPacingKeepsBottleneckQueueShallow) {
  TestbedOptions opts;
  opts.mode = StackMode::kSplitSyscall;
  opts.nics = 1;
  opts.gbps = 0.25;
  opts.wire_bottleneck_gbps = 0.2;
  opts.wire_queue_frames = 512;
  opts.wire_latency = 5 * sim::kMillisecond;  // 10 ms RTT
  opts.app_write_size = 65536;
  opts.tcp.ooo_queue_segs = 1024;
  opts.tcp.sndbuf_max = opts.tcp.rcvbuf_max = 1400 * 1024;
  opts.tcp.cc_algo = "bbr";
  Testbed tb(opts);
  Flow f = start_bulk(tb, 5001);
  tb.run_until(5 * sim::kSecond);

  std::uint64_t pacing_delays = 0;
  for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
    pacing_delays += tb.newtos().tcp_engine(s)->stats().pacing_delays;
  }
  EXPECT_GT(pacing_delays, 0u);  // the timer gated real transmissions
  // Rate-based operation keeps the 512-frame FIFO nearly empty on average.
  EXPECT_LT(tb.wire(0).avg_queue_depth(0), 64.0);
  // And still moves bytes at better than half the bottleneck rate.
  EXPECT_GT(f.rx->bytes() * 8.0 / 5.0 / 1e9, 0.1);
  // The per-connection view reports the rate-based module.
  auto* eng = tb.newtos().tcp_engine(0);
  bool saw_bbr = false;
  for (SockId s : eng->connection_socks()) {
    if (auto info = eng->cc_info(s)) {
      if (std::string(info->algo) == "bbr" && info->pacing_rate > 0)
        saw_bbr = true;
    }
  }
  EXPECT_TRUE(saw_bbr);
}

// --- integration: CC state across a TCP-server crash ------------------------

// The learned window must ride the connection checkpoint: after a crash the
// restored connection comes back under the same algorithm with a window
// carried from the blob, not the 10-segment initial window.
TEST(CcCkpt, LearnedWindowSurvivesTcpServerCrash) {
  TestbedOptions opts;
  opts.mode = StackMode::kSplitSyscall;
  opts.tcp_checkpoint = true;
  opts.tcp.cc_algo = "cubic";
  Testbed tb(opts);
  Flow f = start_bulk(tb, 5001);
  FaultInjector faults(tb.newtos(), /*seed=*/7);

  tb.run_until(sim::kSecond);
  // The bulk flow has grown well past the initial window by now.
  auto* eng = tb.newtos().tcp_engine(0);
  std::uint32_t cwnd_before = 0;
  for (SockId s : eng->connection_socks()) {
    if (auto info = eng->cc_info(s)) {
      EXPECT_STREQ(info->algo, "cubic");
      cwnd_before = std::max(cwnd_before, info->cwnd);
    }
  }
  const std::uint32_t initial = kInitialCwndSegs * std::uint32_t{kMss};
  ASSERT_GT(cwnd_before, initial);

  faults.inject(servers::kTcpName, FaultType::Crash);
  tb.run_until(1500 * sim::kMillisecond);

  // Restored, same algorithm, window carried across the crash.
  eng = tb.newtos().tcp_engine(0);
  EXPECT_GE(eng->stats().conns_restored, 1u);
  std::uint32_t cwnd_after = 0;
  bool saw_cubic = false;
  for (SockId s : eng->connection_socks()) {
    if (auto info = eng->cc_info(s)) {
      saw_cubic = saw_cubic || std::string(info->algo) == "cubic";
      cwnd_after = std::max(cwnd_after, info->cwnd);
    }
  }
  EXPECT_TRUE(saw_cubic);
  EXPECT_GT(cwnd_after, initial);

  // The stream itself kept flowing after the crash.
  const std::uint64_t bytes_at_restore = f.rx->bytes();
  tb.run_until(3 * sim::kSecond);
  EXPECT_GT(f.rx->bytes(), bytes_at_restore);
}
