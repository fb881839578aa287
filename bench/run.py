#!/usr/bin/env python3
"""vertexlink benchmark: run one workload for a fixed time and check every output.

Run from the root of a checkout (the package is imported from ./src, never
from an installed copy):

    python3 bench/run.py --workload closure-cap --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload markov-skein --seed 1 --seconds 30 --trace 1

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The line before it starts with ``# env`` and records the kernel, Python,
host, CPU count and commit.  The full result, with the tail percentile,
its sample count and the failed-op ratio, goes to
``bench/results/<workload>-seed<seed>-trace<trace>.json``.  The traced run
covers a fixed number of segments of the workload, not ``--seconds``.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 5
TAIL_BEYOND_MIN = 10
SETUP_TIMEOUT_S = 120


def load_package():
    """Import vertexlink from the checkout's src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "vertexlink" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source at {src}; run from a full checkout")
    # one thread: numpy's BLAS would otherwise start a worker per CPU
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import vertexlink

    if Path(vertexlink.__file__).resolve().parent != (src / "vertexlink").resolve():
        raise SystemExit(f"bench: imported vertexlink from {vertexlink.__file__}, not {src}")
    return vertexlink


def load_oracle():
    """The independent Kauffman-bracket state sum under tests/oracle."""
    path = ROOT / "tests" / "oracle" / "kauffman_bracket.py"
    if not path.is_file():
        raise SystemExit(f"bench: oracle {path} missing")
    spec = importlib.util.spec_from_file_location("kauffman_bracket", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies a commit without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(vertexlink) -> dict:
    return {
        "kernel": vertexlink.kernel_name(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import, build and warm up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls every 50 ms and would round set-up
        # times to 50 ms steps; without one it blocks until the exit
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(time.perf_counter() - t0)
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd)
    return times


def run_ops(ops, seconds: float, count: int | None = None, min_segments: int = 1):
    """Closed loop: until the deadline passes, or for exactly ``count`` ops.

    With a deadline the loop stops only at the end of a segment (an op whose
    ``end`` is set) and not before ``min_segments`` segments.  Returns
    ``[(op, output or exception, seconds)]`` and the loop's wall time.
    """
    done = []
    segments = 0
    start = time.perf_counter()
    deadline = start + seconds
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # a raising op is a failed op; the run goes on
            out = exc
        t1 = time.perf_counter()
        done.append((op, out, t1 - t0))
        segments += op.end
        if len(done) == count or (count is None and op.end and t1 >= deadline
                                  and segments >= min_segments):
            break
    return done, time.perf_counter() - start


def traced_run(W, tracer, problems: list[str]):
    """``W.trace_segments`` segments, each run traced and then again untraced.

    The traced work is fixed, so per-layer totals fall when a layer gets
    faster and counts change only when the work done changes.  A segment
    ends at an op whose ``end`` is set; the workload clears its caches
    there, so the untraced replay starts from the same state.  Alternating
    segment by segment reduces the effect of drift in machine speed on the
    overhead, which is the traced wall time minus the untraced one.
    """
    traced_ops, replay = W.ops(), W.ops()
    done = []
    traced_wall = untraced_wall = 0.0
    for _ in range(W.trace_segments):
        tracer.install()
        hits0, misses0 = W.cache.totals()
        seg, wall = run_ops(traced_ops, 0)
        hits1, misses1 = W.cache.totals()
        tracer.uninstall()
        tracer.cache_hits += hits1 - hits0
        tracer.cache_misses += misses1 - misses0
        again, wall_again = run_ops(replay, 0, count=len(seg))
        traced_wall += wall
        untraced_wall += wall_again
        if [(op.key, out) for op, out, _ in again] != [(op.key, out) for op, out, _ in seg]:
            problems.append("untraced replay disagrees with the traced ops")
        done += seg
    return done, {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
                  "overhead_s": traced_wall - untraced_wall}


def check_ops(W, done, oracle) -> dict[int, str]:
    """Failed ops by position: raised, or an output the workload's checks reject."""
    failures: dict[int, str] = {}
    for pos, (op, out, _) in enumerate(done):
        if isinstance(out, Exception):
            failures[pos] = f"{type(out).__name__}: {out}"
        else:
            why = W.check(op, out)
            if why:
                failures[pos] = why
    for pos, why in W.check_all([(op, out) for op, out, _ in done], oracle).items():
        failures.setdefault(pos, why)
    return failures


def gate_self_test(W, done) -> str | None:
    """The checker must reject a perturbed copy of a correct output."""
    import workloads

    for op, out, _ in done:
        if not isinstance(out, Exception) and W.check(op, out) is None:
            if W.check(op, workloads.perturb(out)) is None:
                return f"checker accepted a perturbed {op.kind} output"
            return None
    return "no correct output to perturb"


def tail(durations: list[float], percentile: float) -> tuple[float, int]:
    """Nearest-rank ``percentile`` of the op times: (value, samples beyond it).

    Each workload fixes its percentile so that, over whole segments, it
    falls on the same input however many segments ran (see workloads.py).
    """
    xs = sorted(durations)
    rank = math.ceil(percentile / 100 * len(xs))
    return xs[rank - 1], len(xs) - rank


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    vertexlink = load_package()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    pinned = json.loads((BENCH / "pinned.json").read_text())
    W = workloads.WORKLOADS[args.workload](args.seed, pinned)
    if args.setup_only:
        W.setup()
        return 0

    oracle = load_oracle()
    env = environment(vertexlink)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    tracer = None
    setups = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        setups = time_setups(args.workload, args.seed)
    W.setup()

    problems = []
    overhead = {}
    if tracer is not None:
        tracer.uninstall()
        done, overhead = traced_run(W, tracer, problems)
        wall = overhead["traced_wall_s"]
        for name in W.expected_layers:
            if tracer.layers[name].calls == 0:
                problems.append(f"wrapper {name} recorded no calls")
    else:
        done, wall = run_ops(W.ops(), args.seconds, min_segments=W.min_segments)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = check_ops(W, done, oracle)
    why = gate_self_test(W, done)
    if why:
        problems.append(why)

    durations = [dt for _, _, dt in done]
    tail_value, tail_beyond = tail(durations, W.tail_percentile)
    if tracer is None and tail_beyond < TAIL_BEYOND_MIN:
        problems.append(f"only {tail_beyond} samples beyond the tail percentile")
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = (overhead["overhead_s"], "s")
        metrics["trace.overhead_ratio"] = (
            overhead["overhead_s"] / overhead["untraced_wall_s"], "ratio")
    else:
        metrics = {
            "ops_per_s": (len(done) / wall, "1/s"),
            "op_p50_s": (statistics.median(durations), "s"),
            "op_tail_s": (tail_value, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    by_kind: dict[str, list[float]] = {}
    for op, _, dt in done:
        by_kind.setdefault(op.kind, []).append(dt)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "ops": len(done), "wall_s": wall, "op_fail_ratio": len(failures) / len(done),
        "op_tail_percentile": W.tail_percentile, "op_tail_samples_beyond": tail_beyond,
        "setup_runs_s": setups, "peak_rss_mb": peak_rss_mb,
        "per_kind": {k: {"ops": len(v), "p50_s": statistics.median(v)}
                     for k, v in sorted(by_kind.items())},
        "failures": [f"op {pos}: {why}" for pos, why in sorted(failures.items())][:20],
        "problems": problems, **overhead,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    for line in detail["failures"] + problems:
        print(f"# FAIL {line}", file=sys.stderr)

    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(done),
        "failed": len(failures),
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
