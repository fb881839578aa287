"""Tests of the benchmark's own checks; run with `python3 -m pytest bench -q`."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.load_package()
import compare  # noqa: E402
import workloads  # noqa: E402

PINNED = json.loads((run.BENCH / "pinned.json").read_text())


def first_ops(W, count):
    W.setup()
    done, _ = run.run_ops(W.ops(), 0, count=count)
    return done


def test_perturbed_closure_value_is_a_failed_op():
    W = workloads.ClosureCap(7, PINNED)
    W.setup()
    short = next(op for op in W.ops() if op.key == 0)  # the 8-letter N=2 word
    done, _ = run.run_ops(iter([short]), 0, count=1)
    oracle = run.load_oracle()
    assert run.check_ops(W, done, oracle) == {}
    op, value, dt = done[0]
    bad = [(op, workloads.perturb(value), dt)]
    assert list(run.check_ops(W, bad, oracle)) == [0]


def test_perturbed_skein_residual_is_a_failed_op():
    W = workloads.MarkovSkein(7, PINNED)
    W.setup()
    skein = next(op for op in W.ops() if op.kind.startswith("skein"))
    done, _ = run.run_ops(iter([skein]), 0, count=1)
    assert run.check_ops(W, done, None) == {}
    op, value, dt = done[0]
    assert list(run.check_ops(W, [(op, workloads.perturb(value), dt)], None)) == [0]


def test_perturbed_cycle_output_is_a_failed_op():
    W = workloads.VerifyIdentities(7, PINNED)
    done = first_ops(W, 1)
    assert run.check_ops(W, done, None) == {}
    op, out, dt = done[0]
    assert list(run.check_ops(W, [(op, workloads.perturb(out), dt)], None)) == [0]


def test_raising_op_is_a_failed_op():
    def boom():
        raise ValueError("no")

    done, _ = run.run_ops(iter([workloads.Op("x", 0, boom)]), 0, count=1)
    assert list(run.check_ops(workloads.VerifyIdentities(0, PINNED), done, None)) == [0]


def test_components_count_cycles_of_the_braid_permutation():
    assert workloads.components(3, ()) == 3
    assert workloads.components(2, (1, 1, 1)) == 1   # trefoil
    assert workloads.components(2, (1, 1)) == 2      # Hopf link
    assert workloads.components(3, (1, -2, 1, -2)) == 1


@pytest.mark.parametrize("W", [workloads.ClosureCap, workloads.MarkovSkein,
                               workloads.VerifyIdentities])
def test_tail_falls_on_one_input_however_many_segments_run(W):
    """In whole segments the tail is always the same input's repeats."""
    M = workloads.MarkovSkein
    size = {"closure-cap": len(workloads.ClosureCap.corpus()),
            "markov-skein": len(workloads.CAP) * (len(M.BASE_LINKS) * M.TRIALS_PER_BASE
                                                  + M.SKEIN_PER_N),
            "verify-identities": 1}[W.name]
    costs = [float(i) for i in range(size)]
    picked = set()
    for segments in range(W.min_segments, W.min_segments + 40):
        value, beyond = run.tail(costs * segments, W.tail_percentile)
        picked.add(value)
        assert beyond >= run.TAIL_BEYOND_MIN
    assert len(picked) == 1


def test_compare_refuses_mixed_kernels(tmp_path):
    for side, kernel in (("a", "py"), ("b", "cy")):
        (tmp_path / side).mkdir()
        result = {"workload": "closure-cap", "env": {"kernel": kernel},
                  "metrics": {"ops_per_s": {"value": 1.0, "unit": "1/s"}}}
        (tmp_path / side / "closure-cap-seed1-trace0.json").write_text(json.dumps(result))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
