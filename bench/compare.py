#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 bench/compare.py BASE_DIR HEAD_DIR

Each directory holds result files written by bench/run.py (its
``bench/results``, copied aside).  For every end-to-end metric of every
workload the script prints both sides' medians and quartiles and flags a
head median worse than the base median by more than the metric's bound in
BENCHMARK.json.  It refuses to compare runs made with different arithmetic
kernels: the compiled kernel is several times faster than the Python one,
so a mixed comparison would show a gain no change made.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> list[dict]:
    runs = [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace0.json"))]
    if not runs:
        raise SystemExit(f"compare: no untraced results in {directory}")
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (load(Path(a)) for a in argv)
    kernels = {r["env"]["kernel"] for r in base + head}
    if len(kernels) != 1:
        print(f"compare: refusing to compare runs made with kernels {sorted(kernels)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    worse = 0
    for workload in sorted({r["workload"] for r in base + head}):
        b_runs = [r for r in base if r["workload"] == workload]
        h_runs = [r for r in head if r["workload"] == workload]
        if not b_runs or not h_runs:
            print(f"{workload}: results on one side only")
            continue
        print(f"{workload}  ({len(b_runs)} base runs, {len(h_runs)} head runs)")
        for m in spec["end_to_end"]:
            name = m["name"]
            b = quartiles([r["metrics"][name]["value"] for r in b_runs])
            h = quartiles([r["metrics"][name]["value"] for r in h_runs])
            change = (h[1] - b[1]) / b[1]
            regressed = (-change if m["better"] == "higher" else change) > m["bound"]
            worse += regressed
            print(f"  {name:12s} base {b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}]  "
                  f"head {h[1]:.5g} [{h[0]:.5g}, {h[2]:.5g}]  {change:+.1%}"
                  f"{'  WORSE than bound ' + str(m['bound']) if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
