#include "workloads.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "rpc_load.h"
#include "src/core/apps.h"
#include "src/core/fault_injection.h"
#include "src/servers/driver_server.h"

namespace newtos::bench {

namespace {

constexpr sim::Time kMs = sim::kMillisecond;
constexpr sim::Time kSec = sim::kSecond;
constexpr std::uint16_t kRpcPort = 7000;
// After the last RPC is due, the run waits this long for the stragglers:
// an overloaded or stalled step answers its last requests more than 1 s
// late, and a request the bench stopped waiting for counts as broken.
constexpr sim::Time kDrainCap = 3 * kSec;

std::uint64_t total_tasks(sim::Simulator& sim) {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < sim.core_count(); ++i) {
    n += sim.core(i).tasks_run();
  }
  return n;
}

// Busy cycles of every core of `node` (the DUT's cores are "newtos.*").
std::uint64_t busy_cycles(Node& node) {
  const std::string prefix = node.config().name + ".";
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < node.sim().core_count(); ++i) {
    const sim::SimCore& c = node.sim().core(i);
    if (c.name().rfind(prefix, 0) == 0) {
      n += static_cast<std::uint64_t>(c.busy_cycles());
    }
  }
  return n;
}

// Frames the node's NICs put on or took off the wire.
std::uint64_t nic_frames(Node& node) {
  std::uint64_t n = 0;
  for (int i = 0; i < node.nic_count(); ++i) {
    n += node.nic(i)->stats().tx_frames + node.nic(i)->stats().rx_frames;
  }
  return n;
}

double gbps(std::uint64_t bytes, sim::Time window) {
  return static_cast<double>(bytes) * 8.0 /
         (static_cast<double>(window) / 1e9) / 1e9;
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// The paper's Table II machine: split stack + SYSCALL, PF on, gigabit-style
// NICs at `gbps`, iperf-style 64 KiB writes (bench_table2's base()).
TestbedOptions split_syscall(int nics, double wire_gbps) {
  TestbedOptions o;
  o.mode = StackMode::kSplitSyscall;
  o.nics = nics;
  o.gbps = wire_gbps;
  o.tso = false;
  o.use_pf = true;
  o.pf_filler_rules = 0;
  o.app_write_size = 65536;
  return o;
}

// --- bulk flows -----------------------------------------------------------------------

struct BulkFlows {
  std::vector<std::unique_ptr<apps::BulkReceiver>> rx;
  std::vector<std::unique_ptr<apps::BulkSender>> tx;
  Node* tx_node = nullptr;

  std::uint64_t bytes() const {
    std::uint64_t b = 0;
    for (const auto& r : rx) b += r->bytes();
    return b;
  }
  bool connected() const {
    return std::all_of(tx.begin(), tx.end(),
                       [](const auto& s) { return s->connected(); });
  }
  std::uint64_t resets() const {
    return tx_node->stats().get("iperf_tx.resets");
  }
};

// `n` bulk TCP flows, flow f over NIC (first_nic + f) % nics, out of
// (`outbound`) or into the system under test.  Apps are created in the
// order bench_table2 creates them, so its datapoints reproduce exactly.
void add_bulk(Testbed& tb, BulkFlows& flows, int n, bool outbound,
              const std::string& rx_name, const std::string& tx_name,
              std::uint16_t port0, int first_nic = 0) {
  Node& rx_node = outbound ? tb.peer() : tb.newtos();
  Node& tx_node = outbound ? tb.newtos() : tb.peer();
  flows.tx_node = &tx_node;
  for (int f = 0; f < n; ++f) {
    AppActor* rx_app = rx_node.add_app(rx_name + std::to_string(f));
    apps::BulkReceiver::Config rc;
    rc.port = static_cast<std::uint16_t>(port0 + f);
    rc.record_series = false;
    flows.rx.push_back(
        std::make_unique<apps::BulkReceiver>(rx_node, rx_app, rc));
    flows.rx.back()->start();
    AppActor* tx_app = tx_node.add_app(tx_name + std::to_string(f));
    apps::BulkSender::Config sc;
    sc.dst = tx_node.peer_addr((first_nic + f) % tb.nic_count());
    sc.port = rc.port;
    sc.write_size = tb.newtos().config().app_write_size;
    flows.tx.push_back(
        std::make_unique<apps::BulkSender>(tx_node, tx_app, sc));
    flows.tx.back()->start();
  }
}

struct BulkBed {
  std::unique_ptr<Testbed> tb;  // declared first: outlives the apps
  BulkFlows flows;
};

struct BulkSpec {
  TestbedOptions opts;
  int flows = 1;
  bool outbound = true;
  std::string rx_name, tx_name;
  std::uint16_t port0 = 5001;
};

bool setup_bulk(Harness& h, const BulkSpec& spec, BulkBed& bed) {
  return h.setup(
      [&]() -> Testbed& {
        bed.tb = std::make_unique<Testbed>(spec.opts);
        add_bulk(*bed.tb, bed.flows, spec.flows, spec.outbound, spec.rx_name,
                 spec.tx_name, spec.port0);
        return *bed.tb;
      },
      [&] { return bed.flows.connected(); }, h.scaled(kSec));
}

// The measured window of a bulk workload: goodput, DUT cycles per goodput
// byte, and the flows that reset or delivered nothing.
void bulk_window(Harness& h, BulkBed& bed, sim::Time end,
                 const std::function<void(sim::Time)>& at_slice_end = {}) {
  Testbed& tb = *bed.tb;
  const sim::Time start = tb.sim().now();
  std::vector<std::uint64_t> per_flow;
  for (const auto& r : bed.flows.rx) per_flow.push_back(r->bytes());
  const std::uint64_t b0 = bed.flows.bytes();
  const std::uint64_t busy0 = busy_cycles(tb.newtos());
  const std::uint64_t resets0 = bed.flows.resets();
  h.window(tb, end, at_slice_end);
  const std::uint64_t bytes = bed.flows.bytes() - b0;
  const std::uint64_t busy = busy_cycles(tb.newtos()) - busy0;

  const std::uint64_t flows = per_flow.size();
  const std::uint64_t broken =
      std::min(bed.flows.resets() - resets0, flows);
  std::uint64_t starved = 0;
  for (std::size_t f = 0; f < per_flow.size(); ++f) {
    if (bed.flows.rx[f]->bytes() == per_flow[f]) ++starved;
  }
  const std::uint64_t failed = std::max(broken, starved);
  RunOutput& o = h.out();
  o.attempted += flows;
  o.failed += broken;
  o.goodput_bytes += bytes;
  h.metric("goodput_gbps", gbps(bytes, end - start), "Gb/s");
  h.metric("cycles_per_byte",
           bytes ? static_cast<double>(busy) / static_cast<double>(bytes)
                 : 0.0,
           "cycles/B");
  h.metric("fail_ratio",
           static_cast<double>(failed) / static_cast<double>(flows), "ratio");
  std::printf("  window %.2f-%.2f s: %.4f Gb/s over %llu flows, %llu failed\n",
              static_cast<double>(start) / 1e9, static_cast<double>(end) / 1e9,
              gbps(bytes, end - start), static_cast<unsigned long long>(flows),
              static_cast<unsigned long long>(failed));
}

// Set-up time is reported as the median of at least five set-ups; a bulk
// workload builds one testbed, so it repeats the set-up alone.
void extra_setups(Harness& h, const BulkSpec& spec) {
  while (!h.self_test() && h.out().setup_s.size() < 5) {
    BulkBed bed;
    setup_bulk(h, spec, bed);
    h.next_testbed(*bed.tb);
  }
}

// Table II row 3: 5 x 1 GbE, TSO off, 5 outbound bulk flows.  The TCP
// server is the saturated core: the per-segment TX path, ACK intake and
// loss recovery are what this measures.
void tx_bulk(Harness& h) {
  BulkSpec spec;
  spec.opts = split_syscall(5, 1.0);
  spec.flows = 5;
  spec.outbound = true;
  spec.rx_name = "iperf_rx";
  spec.tx_name = "iperf_tx";
  spec.port0 = 5001;
  {
    BulkBed bed;
    h.check("connections_up", setup_bulk(h, spec, bed));
    Testbed& tb = *bed.tb;
    if (h.self_test()) {
      h.warmup(tb, h.scaled(kSec));
    } else {
      // bench_table2 measures row 3 over 0.4-1.0 s.
      h.warmup(tb, 400 * kMs);
      const std::uint64_t b0 = bed.flows.bytes();
      h.warmup(tb, 1000 * kMs);
      const std::string row3 =
          fmt("%.4f", gbps(bed.flows.bytes() - b0, 600 * kMs));
      std::printf("  0.4-1.0 s: %s Gb/s (Table II row 3: 3.6798)\n",
                  row3.c_str());
      h.check("table2_row3_3.6798", row3 == "3.6798", row3);
    }
    bulk_window(h, bed, h.scaled(4 * kSec));
    h.next_testbed(tb);
  }
  extra_setups(h, spec);
}

// 32 inbound flows over 5 x 2 GbE into 4 TCP shards fed by 4 RSS queues,
// per-frame receive.  The drv -> IpFastPath -> tcp shard path is CPU-bound
// below the 10 Gb/s the wires allow; the central IP server carries only
// the ACKs.
void rx_rss(Harness& h) {
  BulkSpec spec;
  spec.opts = split_syscall(5, 2.0);
  spec.opts.tcp_shards = 4;
  spec.opts.rx_queues = 4;
  spec.flows = 32;
  spec.outbound = false;
  spec.rx_name = "rx";
  spec.tx_name = "tx";
  spec.port0 = 6001;
  {
    BulkBed bed;
    h.check("connections_up", setup_bulk(h, spec, bed));
    Testbed& tb = *bed.tb;
    const sim::Time warm = h.scaled(300 * kMs);
    h.warmup(tb, warm);
    // bench_table2's RSS datapoint measures 0.3-0.8 s.
    const std::uint64_t b0 = bed.flows.bytes();
    std::uint64_t b_rss = 0;
    bulk_window(h, bed, h.scaled(1300 * kMs), [&](sim::Time t) {
      if (t == 800 * kMs) b_rss = bed.flows.bytes();
    });
    if (!h.self_test()) {
      const std::string rss = fmt("%.2f", gbps(b_rss - b0, 500 * kMs));
      std::printf("  0.3-0.8 s: %s Gb/s (bench_table2 RSS datapoint: 7.41)\n",
                  rss.c_str());
      h.check("table2_rss_7.41", rss == "7.41", rss);
    }
    h.next_testbed(tb);
  }
  extra_setups(h, spec);
}

// --- RPC ------------------------------------------------------------------------------

struct RpcBed {
  std::unique_ptr<Testbed> tb;  // declared first: outlives the apps
  std::unique_ptr<apps::EchoServer> server;       // rpc
  std::unique_ptr<EchoService> crash_safe_server;  // faults
  std::unique_ptr<RpcLoad> load;
};

// Latency of the requests due in [from, to), in µs from the due time.  A
// request that never completed counts with the time the bench waited for
// it (until `stop`).
struct Latencies {
  std::vector<double> us;
  std::vector<double> gen_late_us;  // due -> client handler ran
  std::uint64_t broken = 0;  // never completed
  // Broken, refused or reset at least once, or done more than 1 s after due.
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;   // request + reply payload of completed requests

  void add(const Latencies& o) {
    us.insert(us.end(), o.us.begin(), o.us.end());
    gen_late_us.insert(gen_late_us.end(), o.gen_late_us.begin(),
                       o.gen_late_us.end());
    broken += o.broken;
    failed += o.failed;
    bytes += o.bytes;
  }
};

Latencies collect(const RpcLoad& load, sim::Time from, sim::Time to,
                  sim::Time stop) {
  Latencies l;
  for (const RpcLoad::Request& r : load.requests()) {
    if (r.due < from || r.due >= to) continue;
    const bool done = r.done >= 0;
    const sim::Time lat = (done ? r.done : stop) - r.due;
    l.us.push_back(static_cast<double>(lat) / 1e3);
    if (r.submit >= 0) {
      l.gen_late_us.push_back(static_cast<double>(r.submit - r.due) / 1e3);
    }
    if (!done) ++l.broken;
    if (!done || r.refused || lat > kSec) ++l.failed;
    if (done) l.bytes += 2ull * r.bytes;
  }
  return l;
}

// Adds a workload's RPC requests to the operation counts and the per-layer
// generator metrics.
void report_rpc(Harness& h, const Latencies& all) {
  RunOutput& o = h.out();
  o.attempted += all.us.size();
  o.failed += all.broken;
  o.goodput_bytes += all.bytes;
  o.layer["rpc.gen_late_p99_us"] = {percentile(all.gen_late_us, 0.99), "us"};
  o.layer["rpc.samples"] = {static_cast<double>(all.us.size()), "count"};
}

struct RpcSpec {
  TestbedOptions opts;
  int conns = 64;
  int nic = 0;  // the DUT NIC the connections arrive on
  bool crash_safe_echo = false;
  std::uint64_t load_seed = 1;
  std::uint64_t trace_base = 0;
};

// The RPC service: an echo server on the system under test and
// `spec.conns` persistent connections to it from the peer.  `extra` adds
// further apps; `extra_up` says when their connections are up.
bool setup_rpc(Harness& h, const RpcSpec& spec, RpcBed& bed,
               const std::function<void(Testbed&)>& extra = {},
               const std::function<bool()>& extra_up = {}) {
  return h.setup(
      [&]() -> Testbed& {
        bed.tb = std::make_unique<Testbed>(spec.opts);
        Node& dut = bed.tb->newtos();
        AppActor* server_app = dut.add_app("rpc_srv");
        if (spec.crash_safe_echo) {
          bed.crash_safe_server =
              std::make_unique<EchoService>(*server_app, kRpcPort);
          bed.crash_safe_server->start();
        } else {
          apps::EchoServer::Config sc;
          sc.port = kRpcPort;
          sc.prefix = "rpc_srv";
          bed.server =
              std::make_unique<apps::EchoServer>(dut, server_app, sc);
          bed.server->start();
        }
        RpcLoad::Config lc;
        lc.dst = bed.tb->peer().peer_addr(spec.nic);
        lc.port = kRpcPort;
        lc.conns = spec.conns;
        lc.seed = spec.load_seed;
        lc.trace_id_base = spec.trace_base;
        bed.load =
            std::make_unique<RpcLoad>(bed.tb->peer(), lc, h.trace());
        bed.load->connect();
        if (extra) extra(*bed.tb);
        return *bed.tb;
      },
      [&] { return bed.load->all_connected() && (!extra_up || extra_up()); },
      h.scaled(kSec));
}

// Small-message RPC over 1 x 10 GbE: 64 persistent connections, Poisson
// arrivals, 64-256 B requests, a rate ladder 60k -> 200k req/s with a fresh
// testbed per step.  Smallest packets, so per-operation costs dominate:
// syscalls, socket-ring traps, mwait wake-ups, TCP per-segment work.
void rpc(Harness& h) {
  constexpr double kP99LimitUs = 500.0;
  constexpr int kReportStep = 1;  // 80k req/s
  double max_kps = 0.0;
  Latencies all;
  bool byte_exact = true;
  bool up = true;
  std::printf("  %8s %8s %9s %9s %9s %7s\n", "req/s", "samples", "p50 us",
              "p99 us", "p999 us", "failed");
  for (int k = 0; k < 8; ++k) {
    const double rate = 60000.0 + 20000.0 * k;
    RpcSpec spec;
    spec.opts = split_syscall(1, 10.0);
    spec.conns = 64;
    spec.load_seed = h.seed() * 1000 + static_cast<std::uint64_t>(k);
    spec.trace_base = static_cast<std::uint64_t>(k) << 24;
    RpcBed bed;
    up &= setup_rpc(h, spec, bed);
    Testbed& tb = *bed.tb;
    const sim::Time t0 = tb.sim().now();
    const sim::Time from = t0 + h.scaled(200 * kMs);
    const sim::Time to = from + h.scaled(500 * kMs);
    bed.load->generate(rate, t0, to);
    h.warmup(tb, from);
    h.window(tb, to);
    h.drain(tb, [&] { return bed.load->settled(to); }, to + kDrainCap);
    const Latencies step = collect(*bed.load, from, to, tb.sim().now());
    byte_exact &= bed.load->bad_bytes() == 0;
    const double p50 = percentile(step.us, 0.50);
    const double p99 = percentile(step.us, 0.99);
    const double p999 = percentile(step.us, 0.999);
    std::printf("  %8.0f %8zu %9.1f %9.1f %9.1f %7llu\n", rate, step.us.size(),
                p50, p99, p999, static_cast<unsigned long long>(step.failed));
    if (p99 <= kP99LimitUs && step.failed == 0) {
      max_kps = std::max(max_kps, rate / 1e3);
    }
    if (k == kReportStep) {
      h.metric("rpc_p50_us", p50, "us");
      h.metric("rpc_p999_us", p999, "us");
      std::printf("  rpc_p50_us, rpc_p999_us: %.0f req/s, %zu samples\n", rate,
                  step.us.size());
    }
    all.add(step);
    h.next_testbed(tb);
  }
  h.check("connections_up", up);
  h.check("rpc_replies_byte_exact_fifo", byte_exact);
  h.metric("rpc_max_kps", max_kps, "kreq/s");
  h.metric("fail_ratio",
           all.us.empty() ? 0.0
                          : static_cast<double>(all.failed) /
                                static_cast<double>(all.us.size()),
           "ratio");
  report_rpc(h, all);
}

// --- faults ---------------------------------------------------------------------------

// The first `n` faults of the seeded SWIFI campaign plan, without SyncHang:
// a hang of the unconverted synchronous part needs a reboot and has no
// recovery to time.
std::vector<FaultInjector::PlannedFault> plan_faults(Node& dut,
                                                     std::uint64_t seed,
                                                     std::size_t n) {
  FaultInjector planner(dut, seed);
  std::vector<FaultInjector::PlannedFault> plan;
  for (auto& f : planner.plan_campaign(static_cast<int>(4 * n))) {
    if (f.type != FaultType::SyncHang && plan.size() < n) plan.push_back(f);
  }
  return plan;
}

// Recovery: time from injection to the first 10 ms window after which every
// request due in the next 100 ms completes within 1 ms of its due time.
// Capped at the observation length.
double recovery_ms(const RpcLoad& load, sim::Time inject, sim::Time end) {
  constexpr sim::Time kStep = 10 * kMs;
  constexpr int kAhead = 10;  // 100 ms of due times
  const int buckets = static_cast<int>((end - inject) / kStep);
  std::vector<char> bad(static_cast<std::size_t>(std::max(buckets, 0)), 0);
  for (const RpcLoad::Request& r : load.requests()) {
    if (r.due < inject || r.due >= inject + buckets * kStep) continue;
    if (r.refused || r.done < 0 || r.done - r.due > kMs) {
      bad[static_cast<std::size_t>((r.due - inject) / kStep)] = 1;
    }
  }
  for (int k = 0; k + kAhead <= buckets; ++k) {
    if (std::none_of(bad.begin() + k, bad.begin() + k + kAhead,
                     [](char b) { return b != 0; })) {
      return static_cast<double>(k * kStep) / 1e6;
    }
  }
  return static_cast<double>(end - inject) / 1e6;
}

// Supervised restarts of `component`, or NIC resets when it is a driver
// (a device wedge is cleared by the driver's watchdog, not by a restart).
std::uint64_t recoveries(Node& dut, const std::string& component) {
  std::uint64_t n = 0;
  const auto& cs = dut.reincarnation()->child_stats();
  if (auto it = cs.find(component); it != cs.end()) n += it->second.restarts;
  if (auto* drv =
          dynamic_cast<servers::DriverServer*>(dut.server(component))) {
    n += drv->wedge_resets();
  }
  return n;
}

// Eight independent fault trials on a testbed with every plane on: 2 x 1
// GbE, 2 TCP shards on 2 RSS queues, RX coalescing + GRO, connection
// checkpointing, supervision, 128 PF filler rules.  Traffic: 20k req/s RPC
// over 16 connections on nic0, one inbound bulk flow on nic1, the DNS pair.
void faults(Harness& h) {
  constexpr std::size_t kTrials = 8;
  const sim::Time inject = h.scaled(kSec);
  const sim::Time end = h.scaled(4 * kSec);
  std::vector<FaultInjector::PlannedFault> plan;
  std::vector<double> recovery, detect;
  Latencies all;
  std::uint64_t bulk_bytes = 0, bulk_broken = 0, bulk_failed = 0;
  int undetected = 0;
  bool up = true, byte_exact = true;
  for (std::size_t i = 0; i < kTrials; ++i) {
    RpcSpec spec;
    TestbedOptions& o = spec.opts;
    o = split_syscall(2, 1.0);
    o.app_write_size = 8192;
    o.tcp_shards = 2;
    o.rx_queues = 2;
    o.rx_coalesce_frames = 8;
    o.rx_coalesce_usecs = 50;
    o.gro = true;
    o.tcp_checkpoint = true;
    o.supervision = true;
    o.pf_filler_rules = 128;
    o.seed = h.seed() * 1000003 + i;
    spec.conns = 16;
    spec.crash_safe_echo = true;
    spec.load_seed = h.seed() * 1000 + 100 + i;
    spec.trace_base = (100 + i) << 24;
    RpcBed bed;
    BulkFlows bulk;
    std::unique_ptr<apps::DnsServer> named;
    std::unique_ptr<apps::DnsClient> resolver;
    up &= setup_rpc(
        h, spec, bed,
        [&](Testbed& tb) {
          add_bulk(tb, bulk, 1, false, "iperf_rx", "iperf_tx", 5001, 1);
          named = std::make_unique<apps::DnsServer>(
              tb.peer(), tb.peer().add_app("named"));
          named->start();
          apps::DnsClient::Config dc;
          dc.dst = tb.newtos().peer_addr(0);
          resolver = std::make_unique<apps::DnsClient>(
              tb.newtos(), tb.newtos().add_app("resolver"), dc);
          resolver->start();
        },
        [&] { return bulk.connected(); });
    Testbed& tb = *bed.tb;
    Node& dut = tb.newtos();
    if (i == 0) plan = plan_faults(dut, h.seed(), kTrials);
    if (i >= plan.size()) break;
    const FaultInjector::PlannedFault& f = plan[i];

    bed.load->generate(20000.0, tb.sim().now(), end);
    h.warmup(tb, inject);
    const std::uint64_t base = recoveries(dut, f.component);
    const std::uint64_t b0 = bulk.bytes();
    const std::uint64_t resets0 = bulk.resets();
    FaultInjector injector(dut, h.seed() + i);
    injector.inject(f.component, f.type, 64.0);
    double detect_ms = -1.0;
    h.window(tb, end, [&](sim::Time t) {
      if (detect_ms < 0.0 && recoveries(dut, f.component) > base) {
        detect_ms = static_cast<double>(t - inject) / 1e6;
      }
    });
    const std::uint64_t bytes = bulk.bytes() - b0;
    const bool bulk_reset = bulk.resets() != resets0;
    h.drain(tb, [&] { return bed.load->settled(end); }, end + kDrainCap);

    const Latencies trial = collect(*bed.load, inject, end, tb.sim().now());
    byte_exact &= bed.load->bad_bytes() == 0;
    const double rec = recovery_ms(*bed.load, inject, end);
    recovery.push_back(rec);
    if (detect_ms >= 0.0) {
      detect.push_back(detect_ms);
    } else {
      ++undetected;
    }
    bulk_bytes += bytes;
    bulk_broken += bulk_reset ? 1 : 0;
    bulk_failed += bulk_reset || bytes == 0 ? 1 : 0;
    std::printf("  trial %zu: %-5s %-12s detect %5.0f ms  recovery %5.0f ms  "
                "rpc p999 %10.1f us  failed %5llu/%zu  bulk %.3f Gb/s\n",
                i + 1, f.component.c_str(), to_string(f.type), detect_ms, rec,
                percentile(trial.us, 0.999),
                static_cast<unsigned long long>(trial.failed),
                trial.us.size(), gbps(bytes, end - inject));
    all.add(trial);
    h.next_testbed(tb);
  }
  const std::size_t trials = recovery.size();
  h.check("connections_up", up);
  h.check("rpc_replies_byte_exact_fifo", byte_exact);
  h.check("fault_plan_complete", trials == kTrials,
          std::to_string(trials) + " trials");
  const double window_s =
      static_cast<double>(trials) * static_cast<double>(end - inject) / 1e9;
  h.metric("goodput_gbps",
           window_s > 0.0 ? static_cast<double>(bulk_bytes) * 8.0 / window_s /
                                1e9
                          : 0.0,
           "Gb/s");
  h.metric("rpc_p50_us", percentile(all.us, 0.50), "us");
  h.metric("rpc_p999_us", percentile(all.us, 0.999), "us");
  std::printf("  rpc latency over %zu samples from %zu trials\n",
              all.us.size(), trials);
  h.metric("recovery_p50_ms", percentile(recovery, 0.50), "ms");
  h.metric("recovery_max_ms", percentile(recovery, 1.0), "ms");
  const double ops = static_cast<double>(all.us.size() + trials);
  h.metric("fail_ratio",
           ops > 0.0 ? static_cast<double>(all.failed + bulk_failed) / ops
                     : 0.0,
           "ratio");
  report_rpc(h, all);
  h.out().attempted += trials;  // one bulk flow per trial
  h.out().failed += bulk_broken;
  h.out().goodput_bytes += bulk_bytes;
  h.out().layer["rs.detect_ms_p50"] = {percentile(detect, 0.50), "ms"};
  h.out().layer["rs.undetected"] = {static_cast<double>(undetected), "count"};
}

}  // namespace

// --- harness --------------------------------------------------------------------------

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

double host_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double host_reference_ns() {
  // One random cycle through the whole walk (Sattolo's shuffle), built once.
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(kReferenceBytes / sizeof(std::uint32_t));
    for (std::uint32_t i = 0; i < v.size(); ++i) v[i] = i;
    sim::Rng rng(1);
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      std::swap(v[i], v[rng.below(i)]);
    }
    return v;
  }();
  static std::uint32_t at = 0;  // continue the walk where the last one ended
  constexpr int kSteps = 4096;
  const double t0 = host_cpu_ns();
  for (int k = 0; k < kSteps; ++k) at = next[at];
  return (host_cpu_ns() - t0) / kSteps;
}

Harness::Harness(std::uint64_t seed, bool self_test, Trace& trace,
                 Ledger* ledger)
    : seed_(seed), self_test_(self_test), trace_(trace), ledger_(ledger) {}

void Harness::check(const std::string& name, bool ok,
                    const std::string& detail) {
  out_.checks.push_back(Check{name, ok, detail});
}

void Harness::metric(const std::string& name, double value,
                     const std::string& unit) {
  out_.sim[name] = Metric{value, unit};
}

bool Harness::setup(const std::function<Testbed&()>& build,
                    const std::function<bool()>& connected,
                    sim::Time deadline) {
  const double c0 = host_cpu_ns();
  const double h0 = trace_.host_us();
  Testbed& tb = build();
  const double h1 = trace_.host_us();
  while (!connected() && tb.sim().now() < deadline) {
    tb.run_until(tb.sim().now() + kMs);
  }
  out_.setup_s.push_back((host_cpu_ns() - c0) / 1e9);
  const double h2 = trace_.host_us();
  trace_.span(Trace::kHostPid, 0, "setup", h0, h2 - h0);
  trace_.span(Trace::kHostPid, 0, "setup.ctor+boot", h0, h1 - h0);
  trace_.span(Trace::kHostPid, 0, "setup.connect", h1, h2 - h1);
  trace_.span(Trace::kSimPid, 0, "setup.connect", 0.0,
              static_cast<double>(tb.sim().now()) / 1e3);
  return connected();
}

void Harness::warmup(Testbed& tb, sim::Time to) {
  const sim::Time from = tb.sim().now();
  const double h0 = trace_.host_us();
  if (ledger_ == nullptr) {
    tb.run_until(to);
  } else {
    // Traced runs slice the warm-up too, on a ledger of its own, so the
    // trace shows what happened before the window (a collapse can start
    // there) without it counting towards the per-layer metrics.
    Ledger warm;
    warm.attach(tb.newtos());
    std::uint64_t frames = nic_frames(tb.newtos());
    for (sim::Time t = from; t < to;) {
      const sim::Time next = std::min(to, t + kSlice);
      const double hs = trace_.host_us();
      const double c0 = host_cpu_ns();
      tb.run_until(next);
      const std::uint64_t f = nic_frames(tb.newtos());
      trace_slice(warm, t, next, hs, host_cpu_ns() - c0, f - frames);
      frames = f;
      t = next;
    }
  }
  trace_.span(Trace::kHostPid, 0, "warmup", h0, trace_.host_us() - h0);
  trace_.span(Trace::kSimPid, 0, "warmup", static_cast<double>(from) / 1e3,
              static_cast<double>(to - from) / 1e3);
}

void Harness::window(Testbed& tb, sim::Time to,
                     const std::function<void(sim::Time)>& at_slice_end) {
  Node& dut = tb.newtos();
  const sim::Time start = tb.sim().now();
  const std::uint64_t tasks0 = total_tasks(tb.sim());
  const double h0 = trace_.host_us();
  if (ledger_ != nullptr) ledger_->attach(dut);
  std::uint64_t frames = nic_frames(dut);
  for (sim::Time t = start; t < to;) {
    const sim::Time next = std::min(to, t + kSlice);
    const double hs = trace_.host_us();
    const double c0 = host_cpu_ns();
    tb.run_until(next);
    const double ns = host_cpu_ns() - c0;
    const std::uint64_t f = nic_frames(dut);
    out_.window_host_ns += ns;
    out_.window_calibrated_ns += ns * kReferenceStepNs / host_reference_ns();
    out_.window_frames += f - frames;
    if (ledger_ != nullptr) trace_slice(*ledger_, t, next, hs, ns, f - frames);
    frames = f;
    t = next;
    if (at_slice_end) at_slice_end(t);
  }
  if (ledger_ != nullptr) ledger_->add_window(to - start);
  out_.window_sim_ns += to - start;
  out_.window_tasks += total_tasks(tb.sim()) - tasks0;
  trace_.span(Trace::kHostPid, 0, "window", h0, trace_.host_us() - h0);
  trace_.span(Trace::kSimPid, 0, "window", static_cast<double>(start) / 1e3,
              static_cast<double>(to - start) / 1e3);
}

void Harness::trace_slice(Ledger& ledger, sim::Time t, sim::Time next,
                          double host_us, double cpu_ns,
                          std::uint64_t frames) {
  // Per-server busy cycles, tasks and messages of this slice, plus the
  // channel sends that failed: where a throughput collapse starts.
  std::string args = "\"frames\":" + std::to_string(frames);
  for (const auto& [key, d] : ledger.tick()) {
    const std::size_t slash = key.find('/');
    const std::string counter = key.substr(slash + 1);
    if (counter == "busy" || counter == "tasks" || counter == "handled" ||
        counter == "send_failures") {
      args += ",\"" + key.substr(0, slash) + "." + counter +
              "\":" + std::to_string(d);
    }
  }
  trace_.span(Trace::kHostPid, 1, "slice", host_us, cpu_ns / 1e3, args);
  trace_.span(Trace::kSimPid, 1, "slice", static_cast<double>(t) / 1e3,
              static_cast<double>(next - t) / 1e3, args);
}

void Harness::drain(Testbed& tb, const std::function<bool()>& done,
                    sim::Time cap) {
  const sim::Time from = tb.sim().now();
  const double h0 = trace_.host_us();
  while (!done() && tb.sim().now() < cap) {
    tb.run_until(std::min(cap, tb.sim().now() + kSlice));
  }
  trace_.span(Trace::kHostPid, 0, "drain", h0, trace_.host_us() - h0);
  trace_.span(Trace::kSimPid, 0, "drain", static_cast<double>(from) / 1e3,
              static_cast<double>(tb.sim().now() - from) / 1e3);
}

void Harness::next_testbed(Testbed& tb) {
  trace_.advance_sim_origin(
      static_cast<double>(tb.sim().now() + 10 * kMs) / 1e3);
}

Workload find_workload(const std::string& name) {
  if (name == "tx_bulk") return tx_bulk;
  if (name == "rx_rss") return rx_rss;
  if (name == "rpc") return rpc;
  if (name == "faults") return faults;
  return {};
}

}  // namespace newtos::bench
