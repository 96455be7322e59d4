#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (Python standard library only).

Every workload runs in its own single-threaded process, one after another.

  python3 bench/e2e/run.py                      all workloads, 5 runs each:
                                                median and quartiles per metric
  python3 bench/e2e/run.py --repeat 5 --out A.json [--layers]
  python3 bench/e2e/run.py --compare A.json B.json
  python3 bench/e2e/run.py --workload rpc --seed 1 --seconds 10 --trace 0
                                                one run; the last line of
                                                stdout is its result as JSON
                                                (--seconds is accepted and
                                                ignored)

The benchmark is built from the checkout's sources with CMake into
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e).  BENCHMARK.json at the
root of the checkout lists the metrics a single run reports and the bounds
of the host-clock metrics.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ["tx_bulk", "rx_rss", "rpc", "faults"]
RUN_TIMEOUT_S = 170

# The regression bounds of the simulated end-to-end metrics; the host-clock
# metrics' bounds are read from BENCHMARK.json.  Simulated metrics are
# deterministic for a seed, so they repeat bit for bit and a bound only has
# to absorb a deliberate model change.
# name: (better, bound, kind); kind "rel" is a share of the base median,
# "abs" is in the metric's own unit.
SIM_METRICS = {
    "goodput_gbps": ("higher", 0.005, "rel"),
    "cycles_per_byte": ("lower", 0.005, "rel"),
    "rpc_p50_us": ("lower", 0.01, "rel"),
    "rpc_p999_us": ("lower", 0.02, "rel"),
    "rpc_max_kps": ("higher", 0.0, "abs"),
    "recovery_p50_ms": ("lower", 0.02, "rel"),
    "recovery_max_ms": ("lower", 0.02, "rel"),
    "fail_ratio": ("lower", 0.001, "abs"),
}


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"{path} not found")
    return json.loads(path.read_text())


def bounds(spec):
    """name -> (better, bound, kind) for every end-to-end metric."""
    table = dict(SIM_METRICS)
    for m in spec["end_to_end"]:
        table[m["name"]] = (m["better"], m["bound"], "rel")
    return table


def build_dir():
    # The benchmark harness points CARGO_TARGET_DIR at the directory meant
    # for build outputs; CMake builds there too.
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base if base.is_absolute() else ROOT / base) / "e2e"


def build():
    if not (ROOT / "src").is_dir():
        die(f"simulator sources not found in {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release", *gen]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(out), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")
    return out / "bench_e2e"


def run_binary(binary, workload, seed, trace=None, echo=None):
    """Runs one workload process; returns its result JSON (last line)."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}"]
    if trace:
        cmd.append(f"--trace={trace}")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = p.stdout.rstrip("\n").split("\n")
    if echo is not None:
        print("\n".join(lines[:-1]), file=echo, flush=True)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(p.stdout, file=sys.stderr)
        die(f"{workload} exited {p.returncode} without a result", 1)
    return result


def single(args):
    """One run in the form the benchmark harness reads."""
    spec = benchmark_spec()
    binary = build()
    trace = None
    if args.trace:
        trace = build_dir() / "traces" / f"{args.workload}_seed{args.seed}.json"
        trace.parent.mkdir(parents=True, exist_ok=True)
    res = run_binary(binary, args.workload, args.seed, trace, echo=sys.stdout)
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    have = res["layers" if args.trace else "metrics"]
    missing = [n for n in wanted if n not in have]
    if missing:
        print(f"run.py: metrics missing from the run: {missing}",
              file=sys.stderr)
    out = {
        "correct": bool(res["correct"]) and not missing,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": have[n]["value"], "unit": have[n]["unit"]}
                    for n in wanted if n in have},
    }
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def quartiles(values):
    """First and third quartile, interpolated between the observed values
    (the inclusive method: one outlier among five runs does not move them)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs):
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q3 = quartiles(values)
        metrics[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "clock": "sim" if name in SIM_METRICS else "host",
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "values": values,
        }
    return metrics


def print_table(title, metrics):
    print(title)
    print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14}  unit")
    for name, m in metrics.items():
        print(f"  {name:<20} {m['median']:>14.6g} {m['q1']:>14.6g} "
              f"{m['q3']:>14.6g}  {m['unit']} ({m['clock']})")


def meta(binary_result):
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    build_type = "unknown"
    cache = build_dir() / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": binary_result.get("compiler", "unknown"),
        "build_type": build_type,
        "commit": commit,
    }


def run_set(args):
    """Every workload `--repeat` times, one process each, in sequence."""
    binary = build()
    report = {"meta": None, "seed": args.seed, "repeat": args.repeat,
              "workloads": {}}
    ok = True
    for w in args.workloads:
        runs = []
        for i in range(args.repeat):
            t0 = time.monotonic()
            runs.append(run_binary(binary, w, args.seed))
            print(f"{w} run {i + 1}/{args.repeat}: "
                  f"{time.monotonic() - t0:.1f} s", file=sys.stderr)
        metrics = summarize(runs)
        identical = all(len(set(m["values"])) == 1
                        for m in metrics.values() if m["clock"] == "sim")
        correct = all(r["correct"] for r in runs)
        ok &= identical and correct
        entry = {"correct": correct, "sim_bit_identical": identical,
                 "attempted": runs[0]["attempted"],
                 "failed": runs[0]["failed"], "metrics": metrics}
        if args.layers:
            trace = build_dir() / "traces" / f"{w}_seed{args.seed}.json"
            trace.parent.mkdir(parents=True, exist_ok=True)
            traced = run_binary(binary, w, args.seed, trace)
            entry["layers"] = traced["layers"]
            ok &= traced["correct"]
        report["workloads"][w] = entry
        report["meta"] = report["meta"] or meta(runs[0])
        print_table(f"{w}: {args.repeat} runs, seed {args.seed}, checks "
                    f"{'ok' if correct else 'FAILED'}, simulated metrics "
                    f"{'bit-identical' if identical else 'DIFFER'}", metrics)
        if args.layers:
            print("  per-layer (traced run):")
            for name, m in entry["layers"].items():
                print(f"    {name:<26} {m['value']:>14.6g}  {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


def judge(a, b, better, bound, kind):
    """improved / unchanged / regressed / unresolved for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(a["median"]) if kind == "rel" and a["median"] != 0 else 1.0
    worse = sign * (b["median"] - a["median"]) / scale
    spread = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) / scale
    pairs = [sign * (vb - va) for va in a["values"] for vb in b["values"]]
    b_always_better = all(d < 0 for d in pairs)
    if spread > bound:
        return "improved" if b_always_better else "unresolved"
    if worse > bound:
        return "regressed"
    # A gain needs B to win nine tenths of all run pairs (ties win for
    # neither) and the medians to differ by more than the spread.
    b_wins = sum(d < 0 for d in pairs) >= 0.9 * len(pairs)
    if worse < 0 and -worse > spread and b_wins:
        return "improved"
    return "unchanged"


def compare(path_a, path_b):
    table = bounds(benchmark_spec())
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    counts = {}
    print(f"  {'workload':<8} {'metric':<18} {'A median':>12} "
          f"{'B median':>12} {'bound':>7}  verdict")
    for w, wa in a.items():
        for name, ma in wa["metrics"].items():
            if name not in table:
                continue
            better, bound, kind = table[name]
            shown = f"{bound:g}" + ("" if kind == "rel" else " abs")
            mb = b.get(w, {}).get("metrics", {}).get(name)
            if mb is None:
                # A workload or metric B lost is a regression, not a skip.
                verdict, b_median = "regressed", "missing"
            else:
                verdict = judge(ma, mb, better, bound, kind)
                b_median = f"{mb['median']:.6g}"
            counts[verdict] = counts.get(verdict, 0) + 1
            print(f"  {w:<8} {name:<18} {ma['median']:>12.6g} "
                  f"{b_median:>12} {shown:>7}  {verdict}")
    print(", ".join(f"{v} {k}" for k, v in sorted(counts.items())))
    return 1 if counts.get("regressed") or counts.get("unresolved") else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload once (result JSON on the last line)")
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed (default 1; 2 is the held-out seed)")
    p.add_argument("--seconds", type=float, default=0,
                   help="accepted for the benchmark harness and ignored: each "
                        "workload measures a fixed span of simulated time")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="with --workload: report the per-layer metrics of a "
                        "traced run")
    p.add_argument("--repeat", type=int, default=5,
                   help="runs per workload in a set (default 5)")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                   default=WORKLOADS, help="workloads of a set")
    p.add_argument("--layers", action="store_true",
                   help="add one traced run per workload to a set")
    p.add_argument("--out", help="write a set's results as JSON")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two result files against the bounds")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return single(args)
    return run_set(args)


if __name__ == "__main__":
    sys.exit(main())
