#!/usr/bin/env python3
"""Compares bench/e2e's simulated metrics at seed 1 with their golden copy.

  python3 bench/golden/e2e.py BENCH_E2E           compare; exit 1 on any
                                                  difference
  python3 bench/golden/e2e.py BENCH_E2E --write   re-record e2e_seed1.json

BENCH_E2E is a built bench/e2e binary (for example build-bench/bench_e2e).
Each workload runs once at seed 1.  Its simulated end-to-end metrics (the
names in bench/e2e/run.py's SIM_METRICS that the workload reports) and its
attempted and failed operation counts must equal the golden values
exactly, because the simulation is deterministic for a seed.  A deliberate
change is re-baselined with --write, so it shows up as a reviewed diff.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "e2e_seed1.json"
SEED = 1

sys.dont_write_bytecode = True  # leave nothing behind in bench/e2e
sys.path.insert(0, str(HERE.parent / "e2e"))
from run import SIM_METRICS, WORKLOADS, run_binary  # noqa: E402


def measure(binary):
    out = {}
    for workload in WORKLOADS:
        res = run_binary(binary, workload, SEED)
        have = res["metrics"]
        out[workload] = {"attempted": res["attempted"],
                         "failed": res["failed"]}
        out[workload].update({n: have[n]["value"] for n in SIM_METRICS
                              if n in have})
        print(f"e2e.py: {workload} done", file=sys.stderr, flush=True)
    return out


def diff(golden, now):
    lines = []
    for workload in sorted(set(golden) | set(now)):
        g = golden.get(workload, {})
        n = now.get(workload, {})
        for key in sorted(set(g) | set(n)):
            if g.get(key) != n.get(key):
                lines.append(f"{workload}.{key}: golden {g.get(key)}, "
                             f"now {n.get(key)}")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("binary", type=Path, help="the bench_e2e executable")
    p.add_argument("--write", action="store_true",
                   help=f"record the run as {GOLDEN.name}")
    args = p.parse_args()

    now = measure(args.binary.resolve())
    if args.write:
        doc = {"seed": SEED, "workloads": now}
        GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"e2e.py: wrote {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text())["workloads"]
    lines = diff(golden, now)
    for line in lines:
        print(line)
    if lines:
        print(f"e2e.py: the run differs from {GOLDEN}; if the change is "
              "intended, re-record it with --write")
        return 1
    print(f"e2e.py: every workload equals {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
