// Congestion-control dumbbell: two bulk flows share one slow bottleneck
// link with a bounded tail-drop FIFO — the classic fairness topology — with
// each flow's algorithm chosen per port (cc_by_port).  An RTT sweep stretches
// the pipe; the bench reports per-flow goodput, the Jain fairness index and
// the bottleneck queue's occupancy statistics, and asserts the properties
// the paper-style evaluation depends on:
//
//  - cubic vs cubic at equal RTT shares the link fairly (Jain >= 0.95);
//  - a bbr + cubic mix moves at least as many aggregate bytes as the
//    newreno baseline;
//  - bbr keeps the bottleneck queue materially emptier than cubic (average
//    occupancy < 50%) at comparable aggregate throughput — rate-based
//    pacing vs loss-probing in one number.
//
// Exits non-zero when an assertion fails, so CI can gate on it.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "src/core/apps.h"
#include "src/core/testbed.h"

using namespace newtos;

namespace {

constexpr double kAccessGbps = 0.25;
constexpr double kBottleneckGbps = 0.2;
constexpr std::uint32_t kQueueFrames = 512;

struct ScenarioResult {
  double gbps[2] = {0.0, 0.0};
  double aggregate = 0.0;
  double jain = 0.0;
  double avg_queue = 0.0;       // time-weighted frames in the bottleneck FIFO
  std::uint64_t max_queue = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t fast_retx = 0;
  std::uint64_t pacing_delays = 0;
};

double jain_index(double a, double b) {
  const double sum = a + b;
  const double sq = a * a + b * b;
  if (sq <= 0.0) return 0.0;
  return sum * sum / (2.0 * sq);
}

// Bulk flows newtos -> peer over one bottleneck wire; flow f uses algo[f]
// via a per-port override (ports 5001/5002).  An empty cc_b runs a single
// flow — the clean queue-occupancy measurement.
ScenarioResult run_dumbbell(const std::string& cc_a, const std::string& cc_b,
                            int rtt_ms, sim::Time warm, sim::Time window) {
  const int flows = cc_b.empty() ? 1 : 2;
  TestbedOptions opts;
  opts.mode = StackMode::kSplitSyscall;
  opts.nics = 1;
  // Access links modestly faster than the shared slow hop: overflow sheds
  // ~20% of arrivals, so a congestion event costs a few holes (fast-
  // retransmit territory), not half a window (RTO territory).
  opts.gbps = kAccessGbps;
  opts.wire_bottleneck_gbps = kBottleneckGbps;
  opts.tso = false;  // per-frame queueing and pacing are the experiment
  opts.app_write_size = 65536;
  opts.wire_latency = rtt_ms * sim::kMillisecond / 2;
  opts.wire_queue_frames = kQueueFrames;
  // A tail drop displaces everything behind it: give both receivers a
  // reassembly budget covering the whole window so one hole costs one
  // retransmission, not the window.
  opts.tcp.ooo_queue_segs = 1024;
  // Without SACK, every hole in a loss burst takes one RTT to repair, so
  // keep congestion events small: exit slow start below the pipe size and
  // cap per-flow flight a little above the fair share of pipe + queue.
  opts.tcp.ssthresh_init = 200 * 1024;
  opts.tcp.sndbuf_max = opts.tcp.rcvbuf_max = 1400 * 1024;
  opts.tcp.cc_by_port = {{5001, cc_a}};
  if (flows == 2) opts.tcp.cc_by_port.push_back({5002, cc_b});
  Testbed tb(opts);

  std::vector<std::unique_ptr<apps::BulkReceiver>> receivers;
  std::vector<std::unique_ptr<apps::BulkSender>> senders;
  for (int f = 0; f < flows; ++f) {
    AppActor* rx_app = tb.peer().add_app("rx" + std::to_string(f));
    apps::BulkReceiver::Config rc;
    rc.port = static_cast<std::uint16_t>(5001 + f);
    rc.record_series = false;
    receivers.push_back(
        std::make_unique<apps::BulkReceiver>(tb.peer(), rx_app, rc));
    receivers.back()->start();

    AppActor* tx_app = tb.newtos().add_app("tx" + std::to_string(f));
    apps::BulkSender::Config sc;
    sc.dst = tb.newtos().peer_addr(0);
    sc.port = rc.port;
    sc.write_size = opts.app_write_size;
    senders.push_back(
        std::make_unique<apps::BulkSender>(tb.newtos(), tx_app, sc));
    senders.back()->start();
  }

  tb.run_until(warm);
  std::uint64_t start[2] = {0, 0};
  for (int f = 0; f < flows; ++f) start[f] = receivers[f]->bytes();
  tb.run_until(warm + window);

  ScenarioResult res;
  const double secs = static_cast<double>(window) / 1e9;
  for (int f = 0; f < flows; ++f) {
    res.gbps[f] = static_cast<double>(receivers[f]->bytes() - start[f]) * 8.0 /
                  secs / 1e9;
  }
  res.aggregate = res.gbps[0] + res.gbps[1];
  res.jain = flows == 2 ? jain_index(res.gbps[0], res.gbps[1]) : 1.0;
  const drv::Wire& w = tb.wire(0);
  res.avg_queue = w.avg_queue_depth(0);  // end 0: the newtos -> peer FIFO
  res.max_queue = w.max_queue_depth();
  res.queue_drops = w.queue_drops();
  for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
    const net::TcpEngine::Stats& st = tb.newtos().tcp_engine(s)->stats();
    res.fast_retx += st.fast_retransmits;
    res.pacing_delays += st.pacing_delays;
  }
  return res;
}

void emit(benchjson::Writer& jw, const std::string& label,
          const std::string& cc_a, const std::string& cc_b, int rtt_ms,
          const ScenarioResult& r) {
  std::printf(
      "  %-22s rtt=%2dms  %6.4f + %6.4f = %6.4f Gb/s  jain=%.4f  "
      "queue avg %5.1f / max %3llu frames, %llu drops, %llu fast-rtx, "
      "%llu pacing stalls\n",
      label.c_str(), rtt_ms, r.gbps[0], r.gbps[1], r.aggregate, r.jain,
      r.avg_queue, static_cast<unsigned long long>(r.max_queue),
      static_cast<unsigned long long>(r.queue_drops),
      static_cast<unsigned long long>(r.fast_retx),
      static_cast<unsigned long long>(r.pacing_delays));
  std::fflush(stdout);
  jw.begin_row();
  jw.field("label", label);
  jw.field("cc_a", cc_a);
  jw.field("cc_b", cc_b);
  jw.field("rtt_ms", rtt_ms);
  jw.field("gbps_a", r.gbps[0]);
  jw.field("gbps_b", r.gbps[1]);
  jw.field("gbps_aggregate", r.aggregate);
  jw.field("jain", r.jain);
  jw.field("avg_queue_frames", r.avg_queue);
  jw.field("max_queue_frames", r.max_queue);
  jw.field("queue_drops", r.queue_drops);
  jw.field("fast_retransmits", r.fast_retx);
  jw.field("pacing_delays", r.pacing_delays);
}

}  // namespace

int main() {
  const sim::Time kWarm = 2 * sim::kSecond;
  const sim::Time kWindow = 10 * sim::kSecond;

  std::printf(
      "Congestion-control dumbbell: 2 flows, %.1f Gb/s bottleneck, "
      "%u-frame tail-drop FIFO, %llds window\n",
      kBottleneckGbps, kQueueFrames,
      static_cast<long long>(kWindow / sim::kSecond));

  benchjson::Writer jw("cc");
  struct Mix {
    const char* label;
    const char* a;
    const char* b;
  };
  const Mix mixes[] = {
      {"newreno vs newreno", "newreno", "newreno"},
      {"cubic vs cubic", "cubic", "cubic"},
      {"bbr vs cubic", "bbr", "cubic"},
      {"bbr vs bbr", "bbr", "bbr"},
      {"cubic solo", "cubic", ""},
      {"bbr solo", "bbr", ""},
  };
  const int rtts[] = {8, 20, 40};

  // scenario x rtt results, indexed [mix][rtt]
  ScenarioResult res[6][3];
  for (int m = 0; m < 6; ++m) {
    for (int r = 0; r < 3; ++r) {
      res[m][r] = run_dumbbell(mixes[m].a, mixes[m].b ? mixes[m].b : "",
                               rtts[r], kWarm, kWindow);
      emit(jw, mixes[m].label, mixes[m].a, mixes[m].b, rtts[r], res[m][r]);
    }
  }
  jw.write("BENCH_cc.json");

  // --- assertions -----------------------------------------------------------
  bool ok = true;
  const int kRtt20 = 1;  // index of the 20 ms column

  const double cubic_jain = res[1][kRtt20].jain;
  std::printf("\ncubic-vs-cubic fairness at equal RTT: jain=%.4f %s\n",
              cubic_jain,
              cubic_jain >= 0.95 ? "(>= 0.95: fairness holds)" : "(FAIL)");
  ok = ok && cubic_jain >= 0.95;

  const double newreno_agg = res[0][kRtt20].aggregate;
  const double mixed_agg = res[2][kRtt20].aggregate;
  std::printf("bbr+cubic aggregate vs newreno baseline: %.4f vs %.4f %s\n",
              mixed_agg, newreno_agg,
              mixed_agg >= 0.95 * newreno_agg
                  ? "(>= baseline: mix does not regress)"
                  : "(FAIL)");
  ok = ok && mixed_agg >= 0.95 * newreno_agg;

  // Queue-occupancy contrast on the solo runs: one flow, same bottleneck,
  // only the algorithm differs — loss probing keeps the FIFO standing,
  // pacing keeps it empty.
  const ScenarioResult& cub = res[4][kRtt20];
  const ScenarioResult& bbr = res[5][kRtt20];
  const double queue_ratio =
      cub.avg_queue > 0.0 ? bbr.avg_queue / cub.avg_queue : 1.0;
  const double thr_ratio =
      cub.aggregate > 0.0 ? bbr.aggregate / cub.aggregate : 0.0;
  std::printf(
      "bbr vs cubic bottleneck occupancy (solo): %.1f vs %.1f frames "
      "(ratio %.2f) at %.2fx throughput %s\n",
      bbr.avg_queue, cub.avg_queue, queue_ratio, thr_ratio,
      queue_ratio < 0.5 && thr_ratio >= 0.9
          ? "(< 0.5 at comparable throughput: pacing keeps the queue empty)"
          : "(FAIL)");
  ok = ok && queue_ratio < 0.5 && thr_ratio >= 0.9;

  // Sanity: the paced flows actually exercised the pacing timer, and the
  // loss-probing flows actually hit the FIFO bound.
  const bool pacing_used = res[5][kRtt20].pacing_delays > 0;
  const bool taildrop_seen = res[1][kRtt20].queue_drops > 0;
  std::printf("pacing stalls (bbr solo): %llu %s\n",
              static_cast<unsigned long long>(res[5][kRtt20].pacing_delays),
              pacing_used ? "(pacing active)" : "(FAIL: never paced)");
  std::printf("tail drops (cubic run): %llu %s\n",
              static_cast<unsigned long long>(res[1][kRtt20].queue_drops),
              taildrop_seen ? "(FIFO bound exercised)" : "(FAIL: no drops)");
  ok = ok && pacing_used && taildrop_seen;

  std::printf("%s\n", ok ? "bench_cc: all assertions hold"
                         : "bench_cc: ASSERTION FAILURE");
  return ok ? 0 : 1;
}
