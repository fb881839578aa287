"""Command-line interface: exit codes, JSON contract, determinism."""

import dataclasses
import json
import subprocess
import sys

import pytest

from vertexlink import cli, ring, selftest
from vertexlink.braid import parse_braid
from vertexlink.invariants import ambient_invariant, regular_invariant
from vertexlink.models import build_model
from vertexlink.tensor import SqMatrix


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_matches_library(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--model", "2",
                           "--braid", "1 1 1", "--normalization", "ambient")
    assert code == 0
    want = ambient_invariant(parse_braid("1 1 1"), build_model(2))
    assert ring.render(want, "t") in out


def test_invariant_regular_normalization(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--model", "2",
                           "--braid", "1 1 1", "--normalization", "regular")
    assert code == 0
    want = regular_invariant(parse_braid("1 1 1"), build_model(2))
    assert ring.render(want, "s") in out


def test_invariant_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--model", "3",
                           "--braid", "1 -2 1 -2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["model"] == 3
    assert data["strands"] == 3
    assert data["writhe"] == 0
    want = ambient_invariant(parse_braid("1 -2 1 -2"), build_model(3))
    assert ring.parse(data["value"]["s"]) == want
    assert ring.parse(data["value"]["q"]) == want


def test_invariant_sign_branch(capsys):
    code, out, _ = run_cli(capsys, "invariant", "--model", "2",
                           "--braid", "1 1 1", "--sign", "minus", "--json")
    assert code == 0
    data = json.loads(out)
    want = ambient_invariant(parse_braid("1 1 1"), build_model(2, -1))
    assert ring.parse(data["value"]["s"]) == want


def test_model_choice_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main(["invariant", "--model", "5", "--braid", "1"])
    assert exc.value.code == 2


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_bad_braid_letter(capsys):
    code, _, err = run_cli(capsys, "invariant", "--model", "2", "--braid", "1 x")
    assert code == 2
    assert "cannot read letter" in err


def test_strand_cap(capsys, monkeypatch):
    args = ["invariant", "--model", "4", "--braid", "1 2 3 4 5"]
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "strand" in err
    code, _, _ = run_cli(capsys, *args, "--strand-cap", "6")
    assert code == 0
    monkeypatch.setenv("VERTEXLINK_STRAND_CAP", "6")
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    monkeypatch.setenv("VERTEXLINK_STRAND_CAP", "noise")
    code, _, err = run_cli(capsys, *args)
    assert code == 2


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--model", "4", "--all")
    assert code == 0
    assert "conditions hold" in out
    code, out, _ = run_cli(capsys, "verify", "--model", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(data["checks"].values())


def test_solve_m_json(capsys):
    code, out, _ = run_cli(capsys, "solve-m", "--model", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["uniqueness"] == 1
    assert data["twin_consistent"] is True
    assert len(data["md_basis"]) == 1
    # basis entries parse back into the ring
    for text in data["md_basis"][0].values():
        ring.parse(text)


def test_solve_m_discover(capsys):
    code, out, _ = run_cli(capsys, "solve-m", "--model", "3", "--discover", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["fitted_exponent"] == -4
    assert len(data["z_candidates"]) == 2


def test_skein(capsys):
    code, out, _ = run_cli(capsys, "skein", "--model", "2", "--trials", "5")
    assert code == 0
    assert "5/5 random contexts exact" in out
    code, out, _ = run_cli(capsys, "skein", "--model", "4", "--trials", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["tables_match"] is True
    assert data["failures"] == 0


def test_skein_refuses_negative_trials(capsys):
    code, out, err = run_cli(capsys, "skein", "--model", "2", "--trials", "-1")
    assert code == 2
    assert out == ""
    assert "trials" in err


def test_tl(capsys):
    code, out, _ = run_cli(capsys, "tl", "--model", "2")
    assert code == 0
    assert "bracket" in out
    code, out, _ = run_cli(capsys, "tl", "--model", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["checks"]["dubrovnik"] is True


@pytest.mark.parametrize("bound", ["1", "0", "-1", "8"])
def test_tl_refuses_short_max_strands(capsys, bound):
    code, out, err = run_cli(capsys, "tl", "--model", "2", "--max-strands", bound)
    assert code == 2
    assert out == ""
    assert "max_strands" in err


def test_uq_half_spin(capsys):
    code, out, _ = run_cli(capsys, "uq", "--j", "1/2", "--q", "1.5")
    assert code == 0
    assert "correspondence holds" in out


def test_uq_spin_three_halves_at_large_q(capsys):
    code, out, _ = run_cli(capsys, "uq", "--j", "3/2", "--q", "30", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["crossing_symmetry"] <= 1e-15


@pytest.mark.parametrize("q", ["1e7", "1e8"])
def test_uq_spin_three_halves_at_huge_q(capsys, q):
    # the residuals are relative to the terms they compare, which grow with q
    code, out, _ = run_cli(capsys, "uq", "--j", "3/2", "--q", q, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["algebra"] <= 1e-15 and data["w_conjugation"] <= 1e-15


def test_uq_integer_spin_fails_honestly(capsys):
    # the plain proportionality criterion does not hold at j = 1; the CLI
    # must say so and exit nonzero rather than report the gauged variant
    code, out, _ = run_cli(capsys, "uq", "--j", "1", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["passed_gauged"] is True
    assert data["ratio_spread"] > 1.0


def test_uq_bad_spin(capsys):
    code, _, err = run_cli(capsys, "uq", "--j", "x")
    assert code == 2
    code, _, err = run_cli(capsys, "uq", "--j=-1/2")
    assert code == 2
    assert "not a spin" in err


@pytest.mark.parametrize("argv", [
    ("--j", "1/2", "--q", "inf"),
    ("--j", "1/2", "--q", "1e300"),
    ("--j", "1/2", "--q", "1e-300"),
    ("--j", "3/2", "--q", "1e80"),
    ("--j", "2"),
    ("--j", "5/2"),
], ids=["inf", "huge", "tiny", "j3/2-huge", "j2", "j5/2"])
def test_uq_refuses_what_it_cannot_check(capsys, argv):
    # no vertex model to compare with, or q beyond the float arithmetic
    code, out, err = run_cli(capsys, "uq", *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_selftest_only(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--only", "axioms")
    assert code == 0
    assert "1/1 checks passed" in out
    code, out, _ = run_cli(capsys, "selftest", "--only", "no-such-check")
    assert code == 2


def test_selftest_mutate_hook(capsys, monkeypatch):
    def bumped_model(N, sign=1):
        m = build_model(N, sign)
        entries = dict(m.R.entries)
        entries[(0, 0)] = entries[(0, 0)] + ring.one()
        return dataclasses.replace(m, R=SqMatrix(N * N, entries))

    monkeypatch.setattr(selftest, "build_model", bumped_model)
    code, out, _ = run_cli(capsys, "selftest", "--only", "axioms")
    assert code == 1
    assert "FAIL" in out


def test_selftest_subset_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "selftest", "--only", "jones-oracle", "--seed", "5")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "vertexlink.cli", "invariant", "--model", "2",
         "--braid", "1 1", "--json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert ring.parse(data["value"]["s"]) == ambient_invariant(
        parse_braid("1 1"), build_model(2))
