"""Identity checks and the exact twist solver."""

import dataclasses
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexlink import axioms, ring, selftest, tensor
from vertexlink.axioms import (
    check_axioms,
    check_markov_conditions,
    equation_sides,
    nullspace,
    solve_twist,
)
from vertexlink.errors import NoSolution, VertexLinkError
from vertexlink.models import build_model, gauge_powers, mirror_model
from vertexlink.tensor import SqMatrix, inverse_blockwise, legs


def test_axioms_pass(each_signed_model):
    rep = check_axioms(each_signed_model)
    assert rep.passed
    assert set(rep.results) == {"m", "r", "braid", "twist1", "twist2"}
    assert not rep.witnesses


def test_axioms_pass_for_mirrors(each_model):
    assert check_axioms(mirror_model(each_model)).passed


def test_mutated_r_fails_with_witness(m2):
    bad_entries = dict(m2.R.entries)
    bad_entries[(1, 1)] = bad_entries[(1, 1)] + ring.one()
    bad = dataclasses.replace(m2, R=SqMatrix(4, bad_entries))
    rep = check_axioms(bad)
    assert not rep.passed
    assert not rep.results["braid"]
    assert "at (" in rep.witnesses["braid"]  # names a concrete index tuple
    # the first differing index tuple and both sides' values, pinned
    assert rep.witnesses["braid"] == (
        "at (0, 0, 1, 0, 0, 1): -s + s^-2 + s^-3 != -s^2 - s + s^-1 + 2*s^-2 + s^-3"
    )
    assert rep.witnesses["twist1"] == "at (1, 0, 1, 0): s - s^-3 != s - s^-2 - s^-3"
    assert rep.witnesses["twist2"] == "at (1, 0, 1, 0): s - s^-3 != s - s^-2 - s^-3"
    # R R^-1 = 1 is a row too: its witness names an entry, not a fixed string
    assert rep.witnesses["r"] == "at (0, 1, 1, 0): s^-1 != 0"
    assert rep.results["m"] and "m" not in rep.witnesses


def test_broken_crossing_matrices_fail_m_with_an_entry(m3):
    bad = dataclasses.replace(m3, M_d=m3.M_d * ring.q_power(1))
    rep = check_axioms(bad)
    assert not rep.results["m"]
    assert rep.witnesses["m"] == "at (0, 0): s^2 != 1"


def test_braid_equation_sides_structural(m3):
    [(lhs, rhs)] = equation_sides("braid", {"R": legs(m3.R, 3)})
    assert lhs == rhs
    assert lhs  # nonempty contraction
    twisted = SqMatrix(9, {k: v for k, v in m3.R.entries.items()})
    twisted.entries[(4, 4)] = ring.s_power(7)
    [(lhs2, rhs2)] = equation_sides("braid", {"R": legs(twisted, 3)})
    assert lhs2 != rhs2


def test_markov_conditions_pass(each_signed_model):
    rep = check_markov_conditions(each_signed_model)
    assert rep.passed
    assert set(rep.results) == {"c1", "c1_inv", "c2", "c2_inv"}


def test_markov_fails_on_mutated_mu(m2):
    bad_mu = SqMatrix(2, {(0, 0): -ring.q_power(1), (1, 1): ring.q_power(3)})
    bad = dataclasses.replace(m2, mu=bad_mu)
    rep = check_markov_conditions(bad)
    assert not rep.passed


def test_markov_conditions_form_each_product_once(each_signed_model, monkeypatch):
    # X (mu (x) mu) serves c1 and c2 alike: one product per X, plus (mu (x) mu) X
    calls = []
    spgemm = tensor.K.spgemm

    def counting(a, b):
        calls.append((len(a), len(b)))
        return spgemm(a, b)

    monkeypatch.setattr(tensor.K, "spgemm", counting)
    assert check_markov_conditions(each_signed_model).passed
    assert len(calls) == 4


def test_check_axioms_forms_no_ring_product(each_signed_model, monkeypatch):
    # every row, m and r included, is contracted on packed ints
    def refuse(a, b):
        raise AssertionError("check_axioms multiplied SqMatrix operands")

    monkeypatch.setattr(tensor.K, "spgemm", refuse)
    assert check_axioms(each_signed_model).passed


# --------------------------------------------------------------- nullspace


def random_rows(rng, nrows, ncols):
    rows = []
    for _ in range(nrows):
        rows.append([
            ring.s_power(rng.randint(-2, 2), rng.randint(-2, 2))
            if rng.random() < 0.6 else ring.zero()
            for _ in range(ncols)
        ])
    return rows


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.integers(2, 5))
@settings(max_examples=40)
def test_nullspace_vectors_annihilate(seed, nrows, ncols):
    rng = random.Random(seed)
    rows = random_rows(rng, nrows, ncols)
    basis = nullspace(rows, ncols)
    for vec in basis:
        assert len(vec) == ncols
        assert any(not e.is_zero() for e in vec)
        for row in rows:
            acc = ring.zero()
            for a, b in zip(row, vec):
                acc = acc + a * b
            assert acc.is_zero()


def test_nullspace_coranks():
    one = ring.one()
    z = ring.zero()
    # full rank: no nullspace
    assert nullspace([[one, z], [z, one]], 2) == []
    # repeated row: corank 1
    row = [one, ring.s_power(2)]
    assert len(nullspace([row, row, row], 2)) == 1
    # zero system: corank = ncols
    assert len(nullspace([[z, z, z]], 3)) == 3
    # scaled copies of one row across three columns: corank 2
    r = [one, ring.s_power(1), ring.s_power(-1)]
    scaled = [[ring.s_power(3) * e for e in r], r]
    assert len(nullspace(scaled, 3)) == 2


def test_nullspace_primitive_vectors(m2):
    # solver output is normalized: no common s-power or integer factor
    sol = solve_twist(m2.R * ring.invert_unit(m2.Z), z=m2.Z)
    vec = [v for _, v in sorted(sol.md_basis[0].entries.items())]
    exps = []
    ints = []
    for e in vec:
        off, coeffs = e.rat
        exps.append(off)
        ints.extend(abs(c) for c in coeffs if c)
    assert min(exps) == 0
    g = 0
    for c in ints:
        g = __import__("math").gcd(g, c)
    assert g == 1


# ------------------------------------------------ two-term relation solver


def _dense_twist_rows(R: SqMatrix, R_inv: SqMatrix, N: int) -> list[list[ring.RingElem]]:
    """The reference rows: twist 1 multiplied by M_d, dense over the unknown M_d.

    Row (a', b, c, d) reads sum_a R^-1[(a,b),(c,d)] M_d[a',a]
    - sum_f R[(b,f),(a',c)] M_d[f,d] = 0, with column a'N + a or fN + d,
    rows in order of first appearance, R^-1 entries before R entries.
    """
    zero = ring.zero()
    rows: dict[tuple, list[ring.RingElem]] = {}
    for (rp, cp), v in R_inv.entries.items():
        a, b = divmod(rp, N)
        c, d = divmod(cp, N)
        for ap in range(N):
            row = rows.setdefault((ap, b, c, d), [zero] * (N * N))
            row[ap * N + a] = row[ap * N + a] + v
    for (rp, cp), v in R.entries.items():
        b, f = divmod(rp, N)
        ap, c = divmod(cp, N)
        for d in range(N):
            row = rows.setdefault((ap, b, c, d), [zero] * (N * N))
            row[f * N + d] = row[f * N + d] - v
    return list(rows.values())


def _dense(row: dict, ncols: int) -> list[ring.RingElem]:
    return [row.get(c, ring.zero()) for c in range(ncols)]


def _same_line(u, v) -> bool:
    # u and v span one line over Q(s): every 2x2 minor vanishes
    return any(u) and any(v) and all(
        u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(i + 1, len(u)))


def _twist_systems(R: SqMatrix, R_inv: SqMatrix):
    # M_d from (R, R^-1), M_u from the transposes
    yield R, R_inv
    yield R.transpose(), R_inv.transpose()


_SOLVER_CASES = [f"N{N}{sign}{mirror}" for N in (2, 3, 4) for sign in "+-" for mirror in ("", "m")]


def _solver_case(case: str) -> tuple[SqMatrix, int, int]:
    """(R, N, nullity of each twist system) for a case id."""
    if case == "flip":
        return SqMatrix.permutation(2), 2, 4
    if case == "N3-conjugated":
        return _conjugated_n3(build_model(3).R), 3, 1
    m = build_model(int(case[1]), 1 if case[2] == "+" else -1)
    return (mirror_model(m) if case.endswith("m") else m).R, m.N, 1


@pytest.mark.parametrize("case", _SOLVER_CASES + ["N3-conjugated", "flip"])
def test_relation_solver_matches_dense_nullspace(case):
    R, N, nullity = _solver_case(case)
    R_inv = inverse_blockwise(R)
    for X, X_inv in _twist_systems(R, R_inv):
        sparse = axioms._twist_rows(X, X_inv, N)
        dense = _dense_twist_rows(X, X_inv, N)
        # the same rows, less those whose terms all cancel
        assert [_dense(row, N * N) for row in sparse] == [row for row in dense if any(row)]
        assert all(len(row) <= 2 for row in sparse)
        basis = axioms._relation_nullspace(sparse, N * N)
        assert basis == nullspace(dense, N * N)
        assert len(basis) == nullity


def _poly(rng: random.Random, unit: bool) -> ring.RingElem:
    # a unit +-s^k, or a non-unit such as 2 s^k or s^k (1 + s^2)
    e = ring.s_power(rng.randint(-2, 2), rng.choice((1, -1)))
    if unit:
        return e
    return e * rng.choice((ring.integer(2), ring.s_power(2) + 1, ring.s_power(1) - 3))


def _random_two_term_system(rng: random.Random, ncols: int, nrows: int) -> list[dict]:
    # rows planted on a hidden vector close consistent cycles; free-drawn
    # rows usually close inconsistent ones; one-term rows force zeros
    hidden = [_poly(rng, rng.random() < 0.5) for _ in range(ncols)]
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.15:
            rows.append({rng.randrange(ncols): _poly(rng, rng.random() < 0.5)})
            continue
        if ncols < 2:
            continue
        i, j = rng.sample(range(ncols), 2)
        if kind < 0.75:
            c = _poly(rng, rng.random() < 0.5)
            rows.append({i: c * hidden[j], j: -c * hidden[i]})
        else:
            rows.append({i: _poly(rng, rng.random() < 0.5), j: _poly(rng, rng.random() < 0.5)})
    return rows


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(0, 10))
@settings(max_examples=60)
def test_relation_solver_random_two_term_systems(seed, ncols, nrows):
    rng = random.Random(seed)
    rows = _random_two_term_system(rng, ncols, nrows)
    basis = axioms._relation_nullspace(rows, ncols)
    ref = nullspace([_dense(row, ncols) for row in rows], ncols)
    assert len(basis) == len(ref)
    for vec, want in zip(basis, ref):
        assert len(vec) == ncols
        assert _same_line(vec, want)
        for row in rows:
            acc = ring.zero()
            for c, a in row.items():
                acc = acc + a * vec[c]
            assert acc.is_zero()


def test_relation_solver_inconsistent_cycle_zeroes_its_component_only():
    one, s = ring.one(), ring.s_power(1)
    rows = [
        {0: one, 1: -one}, {1: one, 2: -one}, {2: one, 0: -ring.integer(2)},  # x0 = x1 = x2 = 2 x0
        {3: one, 4: -s},                                                       # x3 = s x4
    ]
    basis = axioms._relation_nullspace(rows, 6)
    assert basis == nullspace([_dense(row, 6) for row in rows], 6)
    zero = ring.zero()
    assert basis == [[zero, zero, zero, s, one, zero], [zero] * 5 + [one]]
    # the same triangle made consistent keeps its component
    rows[2] = {2: one, 0: -one}
    assert len(axioms._relation_nullspace(rows, 6)) == 3


def test_relation_solver_forced_zero_spreads_along_relations():
    one = ring.one()
    rows = [{0: one, 1: one}, {1: ring.s_power(2), 2: -one}, {2: ring.integer(3)}, {3: one, 4: one}]
    zero = ring.zero()
    assert axioms._relation_nullspace(rows, 5) == [[zero, zero, zero, one, -one]]


def test_relation_solver_scales_on_inexact_division():
    # x1 = 2 x0 / (1 + s^2) is not in the ring: the component is scaled by 1 + s^2
    rows = [{0: ring.integer(2), 1: -(ring.s_power(2) + 1)}]
    basis = axioms._relation_nullspace(rows, 2)
    assert basis == nullspace([_dense(rows[0], 2)], 2)
    assert basis == [[ring.s_power(2) + 1, ring.integer(2)]]


def test_cancelling_terms_leave_the_unknown_free():
    # for the flip the R^-1 and R terms of every row land in one column and
    # cancel: no row is left, and each entry of M is free
    flip = SqMatrix.permutation(2)
    assert axioms._twist_rows(flip, flip, 2) == []
    one, zero = ring.one(), ring.zero()
    assert axioms._relation_nullspace([], 4) == [
        [one if i == j else zero for i in range(4)] for j in range(4)]


def test_relation_solver_refuses_three_unknowns(m2):
    one = ring.one()
    with pytest.raises(VertexLinkError, match="charge conservation"):
        axioms._relation_nullspace([{0: one, 1: one, 2: one}], 3)
    # R[(0,0),(1,1)] and R[(0,1),(1,1)] join charge sectors, and the twist
    # row (a',b,c,d) = (1,0,1,0) then meets three entries of M_d
    entries = dict(m2.R.entries)
    entries[(0, 3)] = entries[(1, 3)] = one
    with pytest.raises(VertexLinkError, match="charge conservation"):
        axioms._solve_exact(SqMatrix(4, entries), m2.R_inv, 2)


# ------------------------------------------------------------------ solver


def test_solver_recovers_m(each_model):
    m = each_model
    sol = solve_twist(m.R * ring.invert_unit(m.Z), z=m.Z)
    assert sol.uniqueness == 1
    assert sol.twin_consistent
    md = sol.md_basis[0]
    ratios = {ring.exact_divide(v, md.entries[pos]) for pos, v in m.M_d.entries.items()}
    assert len(ratios) == 1
    assert next(iter(ratios)).is_unit()
    mu = sol.mu_basis[0]
    ratios_u = {ring.exact_divide(v, mu.entries[pos]) for pos, v in m.M_u.entries.items()}
    assert len(ratios_u) == 1


def test_solver_discovery(each_model):
    m = each_model
    sol = solve_twist(m.R * ring.invert_unit(m.Z))
    assert sol.fitted_exponent == -((m.N - 1) ** 2)
    assert m.Z in sol.z_candidates
    assert len(sol.z_candidates) == 2  # both square roots confirm symbolically
    assert sol.uniqueness == 1


def test_solver_discovery_solves_once(m4, monkeypatch):
    # +s^m and -s^m give the same twist system up to row signs: one solve
    calls = []
    real = axioms._solve_exact

    def counted(R, R_inv, N):
        calls.append(R)
        return real(R, R_inv, N)

    monkeypatch.setattr(axioms, "_solve_exact", counted)
    sol = solve_twist(m4.R * ring.invert_unit(m4.Z))
    assert len(calls) == 1
    assert sol.z_candidates == [ring.s_power(-9), ring.s_power(-9, -1)]


@pytest.mark.parametrize("with_z", [False, True], ids=["discover", "given-z"])
def test_solver_inverts_r_once(m3, monkeypatch, with_z):
    # discovery reads Z^2 off R_hat^-1 and solves with the same inverse, scaled by s^-m
    calls = []
    real = axioms.inverse_blockwise

    def counted(R):
        calls.append(R)
        return real(R)

    monkeypatch.setattr(axioms, "inverse_blockwise", counted)
    r_hat = m3.R * ring.invert_unit(m3.Z)
    sol = solve_twist(r_hat, z=m3.Z) if with_z else solve_twist(r_hat)
    assert len(calls) == 1
    assert sol.uniqueness == 1


def test_selftest_solver_check_solves_once_per_model(monkeypatch):
    # the discovery solve at +s^m is the solve at Z of build_model(N)
    calls = []
    real = axioms._solve_exact

    def counted(R, R_inv, N):
        calls.append(R)
        return real(R, R_inv, N)

    monkeypatch.setattr(axioms, "_solve_exact", counted)
    out = io.StringIO()
    assert selftest.run(only="twist-solver", out=out, err=io.StringIO()) == 0
    assert "twist-solver" in out.getvalue() and "PASS" in out.getvalue()
    assert len(calls) == 3


def test_solver_no_solution():
    bad = SqMatrix(4, {(0, 0): ring.s_power(1), (1, 1): ring.s_power(2),
                       (2, 2): ring.s_power(5), (3, 3): ring.one()})
    with pytest.raises(NoSolution):
        solve_twist(bad, z=ring.one())
    # its partial-trace ratios are s^-2 and 1, not one common q^m
    with pytest.raises(NoSolution):
        solve_twist(bad)


def test_solver_degenerate_crossing():
    # the flip itself: every M solves the twist system
    sol = solve_twist(SqMatrix.permutation(2), z=ring.one())
    assert sol.uniqueness == 4
    assert sol.twin_consistent is None
    # discovery reads Z^2 = 1, but neither +-1 leaves a unique M to confirm
    with pytest.raises(NoSolution):
        solve_twist(SqMatrix.permutation(2))


def test_solver_refuses_charge_violation(m2):
    entries = dict(m2.R.entries)
    entries[(0, 3)] = ring.one()  # charge -1 row meets the charge +1 column
    r_hat = SqMatrix(4, entries)
    with pytest.raises(VertexLinkError, match="charge conservation"):
        solve_twist(r_hat, z=m2.Z)
    with pytest.raises(VertexLinkError, match="charge conservation"):
        solve_twist(r_hat)


def _conjugated_n3(R: SqMatrix) -> SqMatrix:
    # (D x D) R (D x D)^-1 with D = diag(1, q, 1): charge-conserving, not symmetric
    d = {0: 0, 1: 1, 2: 0}
    return SqMatrix(9, {
        (r, c): v * ring.q_power(d[r // 3] + d[r % 3] - d[c // 3] - d[c % 3])
        for (r, c), v in R.entries.items()
    })


@pytest.mark.parametrize("case", ["N2", "N3", "N4", "N3-conjugated"])
def test_mu_basis_solves_twist2(case):
    # twist 2 multiplied by M_u, written out index by index:
    # sum_c R^-1[(a,b),(c,d)] M_u[p,c] = sum_f R[(p,a),(d,f)] M_u[f,b]
    m = build_model(int(case[1]))
    R = _conjugated_n3(m.R) if case == "N3-conjugated" else m.R
    # the models are symmetric up to their gauge D = diag(r^g(a)), r^2 = [3]_q,
    # where both twist systems coincide: (D^2 (x) D^2) R^t = R (D^2 (x) D^2),
    # cross-multiplied to E = [3]_q^(-min g) D^2 = diag([3]_q^(g(a) - min g))
    g = gauge_powers(m.N)
    three = ring.q_power(-2) + 1 + ring.q_power(2)
    E = SqMatrix(m.N, {(i, i): three ** (x - min(g)) for i, x in enumerate(g)})
    EE = E.kron(E)
    assert (EE @ R.transpose() == R @ EE) == (case != "N3-conjugated")
    sol = solve_twist(R * ring.invert_unit(m.Z), z=m.Z)
    assert len(sol.mu_basis) == 1
    R_inv = inverse_blockwise(R)
    N = m.N
    zero = ring.zero()

    def at(X, r, c):
        return X.entries.get((r, c), zero)

    for M in sol.mu_basis:
        for p in range(N):
            for a in range(N):
                for b in range(N):
                    for d in range(N):
                        lhs = zero
                        rhs = zero
                        for c in range(N):
                            lhs = lhs + at(R_inv, a * N + b, c * N + d) * at(M, p, c)
                        for f in range(N):
                            rhs = rhs + at(R, p * N + a, d * N + f) * at(M, f, b)
                        assert lhs == rhs, (p, a, b, d)


_SOLVER_REPORT = """
import io, json
from vertexlink import ring, selftest
from vertexlink.axioms import solve_twist
from vertexlink.models import build_model
found = []
for N in (2, 3, 4):
    m = build_model(N)
    sol = solve_twist(m.R * ring.invert_unit(m.Z))
    found.append([sol.fitted_exponent, [ring.render(z) for z in sol.z_candidates],
                  [b.to_json() for b in sol.md_basis + sol.mu_basis]])
out = io.StringIO()
code = selftest.run(only="twist-solver", out=out, err=io.StringIO())
print(json.dumps([found, code, out.getvalue()]))
"""


# refuses every import outside the standard library and the package
_DECLARED_ONLY = """
import sys
class Refuse:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in sys.stdlib_module_names and top != "vertexlink":
            raise ImportError(f"{name} is not a declared dependency")
sys.meta_path.insert(0, Refuse())
"""


def test_solver_runs_on_declared_dependencies_only(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    child = subprocess.run(
        [sys.executable, "-c", _DECLARED_ONLY + _SOLVER_REPORT],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert child.returncode == 0, child.stderr
    exec(_SOLVER_REPORT, {})
    assert child.stdout == capsys.readouterr().out
    found, code, _ = json.loads(child.stdout)
    assert [row[0] for row in found] == [-1, -4, -9]
    assert code == 0
