"""Command-line interface: exit codes, JSON contract, determinism."""

import dataclasses
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

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


# sha256 of the stdout of each command, for both signs.  The radical left
# the ring with outputs unchanged, and these pins hold any later change to
# the same bytes: a pin moves only when an output is meant to.
_GOLDEN = {
    ("verify", "--model", "4", "--all", "--json"): (
        "4deeb85c88ed4942fdf7bc153869dd52788b241eb806d2c74bbb4261e0d7ea20",
        "31ec9dfcb76c33bf4261fb3bc45421eb66f3f04075997bc3724841f04ddef59f"),
    ("solve-m", "--model", "4", "--discover", "--json"): (
        "cc09dd7ac3eb817e07f1542c2311fb5577554f9882bf1fd49aed95eccfb34619",
        "08ebeaa67c0c1f53894492c8e8767e35324e1aa48e843fe92dadf3326c26a947"),
    ("solve-m", "--model", "2", "--json"): (
        "3686a1352f892d8d64ed89617cfbcfdc3fdfd83db99985da055e69a030692472",
        "fb93da99ce270adecdb55bc7fc65f896a27eaa57475f9dfbeeaa1d81adde230a"),
    ("solve-m", "--model", "2", "--discover", "--json"): (
        "2791d6937c7f01a740ab357dedd4ce27588b71eca09dd22f36fcff775829da35",
        "91a2d36ac83433c1adb6c3257b571285f61a5177264d97d6ae5381d0b6666fb4"),
    ("solve-m", "--model", "3", "--json"): (
        "2ae137eecf38aba0df0c9d898ee27d217c0480d26f60cdfefd6a4c21e018b69b",
        "bbb8569a75867daa729dc13f16c7fd6dedcc8561fe277e784b493263109cf3cf"),
    ("solve-m", "--model", "3", "--discover", "--json"): (
        "9f23f8966f4eff292f39b2bf0fe8cfe74bc1468f2d3360d608ee17f2ee0f5c7f",
        "ecf33eec548b7d83cc369cc22f39eabc2dfabd3a7fab5b34bb342fa71b4dd532"),
    ("tl", "--model", "4", "--json"): (
        "bc8dce19b0770f95d3b9e079be0f009b9269f8f89d6b1b0e5d4c2a6ea84bd8d4",
        "f867bb0dc2a0bcd709661989d2f2b9a40dd1d40758bb8291e96c3c15b8217d80"),
    ("skein", "--model", "4", "--trials", "10", "--seed", "3", "--json"): (
        "c19b44873322df7badf7fb80ece315186bc06bb9e6672fa242f2e800d15480f3",
        "1c7d947619bb7855a1974442e3c965f0813355b785c82b1b12094ad98d6380e6"),
    # one word at each model's strand cap: 7, 6, 5 strands for N = 2, 3, 4
    ("invariant", "--model", "2", "--braid", "1 -2 3 -4 5 -6 1 2", "--json"): (
        "47bf691f5e150befd3df490450bc34ea285683c3280835dd2fb9da49c63482da",
        "77b729bf240a6aa3d3929d2977efdb6c73afb0ddca5ba6bcc4ee1fb02e8f45ea"),
    ("invariant", "--model", "3", "--braid", "1 -2 3 -4 5 2 -1", "--json"): (
        "4df09d054e733a737fa57d9b46097ca2a19f57b3988611b2be4445dbf20233dd",
        "250237027e4f1f96f5c8693a33165604ec0bda1fb6c2053b7c1cf8cd63413c48"),
    ("invariant", "--model", "4", "--braid", "1 -2 3 -4 2 1 -3", "--json"): (
        "629dda43983982a426cbff8082db7fee1087c169f049c084c362bb593ee27aa0",
        "45886703e4984ed17f3fe3cba9c1109df44f8be79adaaf66df7aa5fc69bc7222"),
}


@pytest.mark.parametrize("sign", ["plus", "minus"])
@pytest.mark.parametrize("argv", list(_GOLDEN), ids=" ".join)
def test_golden_stdout(capsys, argv, sign):
    code, out, _ = run_cli(capsys, *argv, "--sign", sign)
    assert code == 0
    want = _GOLDEN[argv][sign == "minus"]
    assert hashlib.sha256(out.encode()).hexdigest() == want, out


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


def test_strand_cap(capsys):
    args = ["invariant", "--model", "4", "--braid", "1 2 3 4 5"]
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "above the cap 5 (raise with --strand-cap)" in err
    code, _, _ = run_cli(capsys, *args, "--strand-cap", "6")
    assert code == 0


def test_strand_cap_bounds_the_widest_piece_of_a_split_word(capsys):
    """b_1^3 on 8 strands is a 2-strand piece and free strands: under the cap 7."""
    args = ["invariant", "--model", "2", "--braid", "1 1 1", "--normalization", "regular"]
    code, out, err = run_cli(capsys, *args, "--strands", "8")
    assert (code, err) == (0, "")
    narrow = regular_invariant(parse_braid("1 1 1"), build_model(2))
    free = regular_invariant(parse_braid("", 1), build_model(2))
    assert ring.render(narrow * free ** 6, "s") in out
    code, _, err = run_cli(capsys, "invariant", "--model", "4", "--braid", "1 2 3 4 5")
    assert code == 2
    assert "braid needs 6 strands, above the cap 5" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_strand_cap_below_one_is_a_usage_error(capsys, cap):
    args = ["invariant", "--model", "2", "--braid", "1 1 1"]
    code, out, err = run_cli(capsys, *args, "--strand-cap", cap)
    assert (code, out) == (2, "")
    assert f"--strand-cap must be at least 1, got {cap}" in err


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
    code, out, _ = run_cli(capsys, "uq", "--j", "1/2")
    assert code == 0
    assert "correspondence holds" in out


def test_uq_spin_three_halves(capsys):
    code, out, _ = run_cli(capsys, "uq", "--j", "3/2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["crossing_symmetry"] is True and data["plain_witness"] is None


def test_uq_integer_spin_fails_honestly(capsys):
    # the plain identification does not hold at j = 1; the CLI must say
    # so, name the first entry where it fails and exit nonzero rather than
    # report the gauged variant
    code, out, _ = run_cli(capsys, "uq", "--j", "1", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["passed"] is False
    assert data["passed_gauged"] is True
    assert data["plain_witness"] == [1, 3] and data["gauged_witness"] is None
    assert data["ratio_spread"] == 2.0
    code, out, _ = run_cli(capsys, "uq", "--j", "1")
    assert code == 1
    assert "FAILS at entry [1, 3]" in out
    assert "sign-gauged form   holds" in out


def test_uq_bad_spin(capsys):
    code, _, err = run_cli(capsys, "uq", "--j", "x")
    assert code == 2
    assert "not a spin" in err
    code, _, err = run_cli(capsys, "uq", "--j=-1/2")
    assert code == 2
    assert "not a spin" in err


@pytest.mark.parametrize("argv", [
    ("--j", "inf"),
    ("--j", "1e300"),
    ("--j", "1e-300"),
    ("--j", "2"),
    ("--j", "5/2"),
], ids=["inf", "huge", "tiny", "j2", "j5/2"])
def test_uq_refuses_what_it_cannot_check(capsys, argv):
    # not a spin, or no vertex model to compare with
    code, out, err = run_cli(capsys, "uq", *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_uq_has_no_q_option(capsys):
    # every clause is exact in q, so there is no sample to choose
    with pytest.raises(SystemExit) as exc:
        cli.main(["uq", "--j", "3/2", "--q", "1e80"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --q" in capsys.readouterr().err


def test_selftest_only(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--only", "axioms")
    assert code == 0
    assert "1/1 checks passed" in out
    code, out, _ = run_cli(capsys, "selftest", "--only", "no-such-check")
    assert code == 2


def test_selftest_seed0_stdout_matches_the_golden_file():
    # the same file CI diffs the installed `vertexlink selftest --seed 0` against
    golden = Path(__file__).parent / "golden" / "selftest_seed0.txt"
    out = io.StringIO()
    assert selftest.run(seed=0, out=out, err=io.StringIO()) == 1
    assert out.getvalue() == golden.read_text()


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
