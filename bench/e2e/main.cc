// bench_e2e: runs one workload of the end-to-end benchmark in one
// single-threaded process, checks its outputs and prints every metric with
// its unit, then one JSON line with the same numbers.
//
//   bench_e2e --workload=tx_bulk|rx_rss|rpc|faults --seed=N
//             [--trace=FILE] [--self-test]
//
// The end-to-end metrics come from one untraced run.  With --trace the
// workload then runs a second time, traced: that run gives the per-layer
// metrics and writes FILE as Chrome trace-event JSON.  --self-test runs the
// workload at a tenth of its simulated length (used by ctest).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "layers.h"
#include "trace.h"
#include "workloads.h"

using namespace newtos;
using namespace newtos::bench;

namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  std::string trace_path;
  bool self_test = false;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&a](const char* key) -> const char* {
      const std::size_t n = std::strlen(key);
      return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v = value("--seed=")) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--trace=")) {
      o.trace_path = v;
    } else if (a == "--self-test") {
      o.self_test = true;
    } else {
      return false;
    }
  }
  return !o.workload.empty();
}

// Peak resident memory of the program, without the calibration walk: its
// pages are all written before the first testbed and stay resident.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double walk_mb = static_cast<double>(kReferenceBytes) / (1 << 20);
  return static_cast<double>(ru.ru_maxrss) / 1024.0 - walk_mb;  // KiB -> MB
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_metrics(const char* title, const Metrics& m,
                   const std::string& note_key = {},
                   const std::string& note = {}) {
  std::printf("%s\n", title);
  for (const auto& [name, v] : m) {
    std::printf("  %-26s %16.6g %-14s%s\n", name.c_str(), v.value,
                v.unit.c_str(),
                name == note_key ? ("(" + note + ")").c_str() : "");
  }
}

std::string json_metrics(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, v] : m) {
    char num[64] = "null";  // metrics_finite fails the run in that case
    if (std::isfinite(v.value)) std::snprintf(num, sizeof num, "%.17g", v.value);
    if (out.size() > 1) out += ",";
    out += json_str(name) + ":{\"value\":" + num +
           ",\"unit\":" + json_str(v.unit) + "}";
  }
  return out + "}";
}

struct Run {
  RunOutput out;
  double cpu_s = 0.0;  // host CPU time of the whole run
};

Run run(const Workload& w, const Options& o, Trace& trace, Ledger* ledger) {
  const double t0 = host_cpu_ns();
  Harness h(o.seed, o.self_test, trace, ledger);
  w(h);
  return Run{h.out(), (host_cpu_ns() - t0) / 1e9};
}

bool same_bits(const Metrics& a, const Metrics& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, v] : a) {
    auto it = b.find(name);
    if (it == b.end() ||
        std::memcmp(&v.value, &it->second.value, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload=tx_bulk|rx_rss|rpc|faults "
                 "--seed=N [--trace=FILE] [--self-test]\n");
    return 2;
  }
  const Workload w = find_workload(o.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload \"%s\"\n", o.workload.c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu%s\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.self_test ? " (self-test: 1/10 length)" : "");
  std::fflush(stdout);

  host_reference_ns();  // builds the calibration walk outside any timing

  // The untraced run: the end-to-end metrics.
  Trace off(false);
  const Run untraced = run(w, o, off, nullptr);
  const RunOutput& out = untraced.out;
  std::vector<Check> checks = out.checks;
  Metrics e2e = out.sim;
  // Host CPU of every window slice per DUT frame.  The gated metric times
  // each slice against the calibration walk, which takes out most of the
  // slowdown other tenants of a shared machine cause; the raw one does not.
  const double frames = static_cast<double>(out.window_frames);
  e2e["host_ns_per_frame"] = {
      frames > 0.0 ? out.window_calibrated_ns / frames : 0.0, "ns"};
  e2e["host_ns_per_frame_raw"] = {
      frames > 0.0 ? out.window_host_ns / frames : 0.0, "ns"};
  e2e["setup_s"] = {percentile(out.setup_s, 0.50), "s"};
  e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  // The traced run: per-layer metrics and the trace file.
  Metrics layers;
  std::string bottleneck;
  if (!o.trace_path.empty()) {
    Trace trace(true);
    Ledger ledger;
    const Run traced = run(w, o, trace, &ledger);
    const RunOutput& t = traced.out;
    checks.push_back({"trace_keeps_simulated_metrics",
                      same_bits(t.sim, out.sim), {}});
    layers = layer_metrics(ledger, t.goodput_bytes, &bottleneck);
    for (const auto& [name, v] : t.layer) layers[name] = v;
    const double host_s = t.window_host_ns / 1e9;
    layers["sim.wall_s"] = {host_s, "s"};
    layers["sim.speed"] = {
        host_s > 0.0 ? static_cast<double>(t.window_sim_ns) / 1e9 / host_s
                     : 0.0,
        "sim_s/host_s"};
    layers["sim.tasks"] = {static_cast<double>(t.window_tasks), "count"};
    layers["sim.host_ns_per_task"] = {
        t.window_tasks ? t.window_host_ns / static_cast<double>(t.window_tasks)
                       : 0.0,
        "ns"};
    for (const auto& [name, v] : run_probes(trace)) layers[name] = v;
    layers["trace.overhead_pct"] = {
        (traced.cpu_s / untraced.cpu_s - 1.0) * 100.0, "%"};
    const bool written = trace.write(o.trace_path);
    checks.push_back({"trace_written", written,
                      o.trace_path + ", " + std::to_string(trace.size()) +
                          " events"});
  }

  bool finite = true;
  for (const Metrics* m : {&e2e, &layers}) {
    for (const auto& [name, v] : *m) finite &= std::isfinite(v.value);
  }
  checks.push_back({"metrics_finite", finite, {}});

  print_metrics("end-to-end:", e2e);
  if (!layers.empty()) {
    print_metrics("per-layer (traced run):", layers, "dut.bottleneck_util",
                  "core " + bottleneck);
  }
  bool correct = true;
  std::string checks_json = "[";
  std::printf("checks:\n");
  for (const Check& c : checks) {
    correct &= c.ok;
    std::printf("  %-4s %s%s%s\n", c.ok ? "ok" : "FAIL", c.name.c_str(),
                c.detail.empty() ? "" : ": ", c.detail.c_str());
    if (checks_json.size() > 1) checks_json += ",";
    checks_json += "{\"name\":" + json_str(c.name) +
                   ",\"ok\":" + (c.ok ? "true" : "false") +
                   ",\"detail\":" + json_str(c.detail) + "}";
  }
  checks_json += "]";

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"compiler\":%s,"
      "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"checks\":%s,"
      "\"metrics\":%s,\"layers\":%s}\n",
      json_str(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      json_str(kCompiler).c_str(), correct ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), checks_json.c_str(),
      json_metrics(e2e).c_str(), json_metrics(layers).c_str());
  return correct ? 0 : 1;
}
