"""Model construction fixtures and the numeric weight limits."""

import dataclasses
import itertools
import math
from fractions import Fraction

import pytest

from vertexlink import axioms, models, ring
from vertexlink.errors import (
    ConventionValidationFailed,
    DimensionMismatch,
    DomainError,
    MinPolyViolated,
    UnsupportedN,
)
from vertexlink.models import (
    SpectralModel,
    boltzmann_tensor,
    build_model,
    generic_eigenvalues,
    limit_check,
    loop_sum,
    mirror_model,
    rho,
    spectral_checks,
)
from vertexlink.invariants import compute_constants
from vertexlink.tensor import SqMatrix

Q = ring.q_power
S = ring.s_power


def test_normalization_constant(each_signed_model):
    m = each_signed_model
    assert m.Z == S(-((m.N - 1) ** 2), m.sign)
    assert m.Z * m.Z == Q(-((m.N - 1) ** 2))


def test_loop_sum():
    assert loop_sum(2) == ring.one() + Q(2)
    assert loop_sum(3) == ring.one() + Q(2) + Q(4)
    assert loop_sum(4) == ring.one() + Q(2) + Q(4) + Q(6)


def test_closure_weight_closed_form(each_signed_model):
    m = each_signed_model
    assert m.k == Q(-(m.N - 1), (-1) ** (m.N - 1)) * m.D
    assert m.mu.trace() == m.k
    # k does not depend on the sign branch
    assert m.k == build_model(m.N, 1).k


def test_mu_is_diagonal_of_units(each_model):
    m = each_model
    for (r, c), v in m.mu.entries.items():
        assert r == c
        assert v.is_unit()
    assert m.mu == m.M_u @ m.M_d.transpose()


def test_mu_fixture_n2(m2):
    assert m2.mu.entries == {(0, 0): -Q(1), (1, 1): -Q(-1)}


def test_closure_character(each_model):
    # mu_a = sigma q^(kappa a): kappa = -2, and +2 once the mirror transposes M
    m = each_model
    want = ((-1) ** (m.N - 1), 2 if m.mirrored else -2)
    assert models.closure_character(m.mu) == want


def test_closure_character_refuses_a_one_by_one_mu():
    # N = 1 has the one label 0, so no slope kappa is fixed
    with pytest.raises(DimensionMismatch, match="N >= 2"):
        models.closure_character(SqMatrix(1, {(0, 0): ring.one()}))


def _refused_before_trace_constants(monkeypatch, m, M_u, M_d):
    def unreachable(*args):
        pytest.fail("trace constants checked before the closure weight")

    monkeypatch.setattr(models, "check_trace_constants", unreachable)
    with pytest.raises(ConventionValidationFailed, match="closure weight"):
        models._finalize(m.N, m.sign, m.Z, m.R, M_u, M_d)


def test_finalize_refuses_non_diagonal_mu(m2, monkeypatch):
    # a unipotent M_u and its inverse give mu = [[0, 1], [-1, 1]]
    one = ring.one()
    M_u = SqMatrix(2, {(0, 0): one, (0, 1): one, (1, 1): one})
    M_d = SqMatrix(2, {(0, 0): one, (0, 1): -one, (1, 1): one})
    assert M_d @ M_u == SqMatrix.identity(2)
    _refused_before_trace_constants(monkeypatch, m2, M_u, M_d)


def test_finalize_refuses_mu_that_is_not_a_character(m4, monkeypatch):
    # a diagonal of units, but q^5 sits where the slope from q^3 puts q^1
    u = [Q(3), Q(5), ring.one(), ring.one()]
    M_u = SqMatrix(4, {(i, 3 - i): u[i] for i in range(4)})
    M_d = SqMatrix(4, {(3 - i, i): ring.invert_unit(u[i]) for i in range(4)})
    assert (M_u @ M_d.transpose()).entries == {
        (0, 0): Q(3), (1, 1): Q(5), (2, 2): Q(-5), (3, 3): Q(-3)}
    _refused_before_trace_constants(monkeypatch, m4, M_u, M_d)


def test_crossing_matrices_inverse(each_model):
    m = each_model
    ident = SqMatrix.identity(m.N)
    assert m.M_u @ m.M_d == ident
    assert m.M_d @ m.M_u == ident
    assert _leibniz_det(m.M_u) == ring.one()


def _leibniz_det(M):
    """sum over permutations p of sign(p) prod_i M[i, p(i)]; small N only."""
    zero = ring.zero()
    acc = zero
    for p in itertools.permutations(range(M.dim)):
        term = ring.one()
        for i, j in enumerate(p):
            term = term * M.entries.get((i, j), zero)
        inversions = sum(p[i] > p[j] for i in range(M.dim) for j in range(i + 1, M.dim))
        acc = acc - term if inversions % 2 else acc + term
    return acc


def test_r_inverse(each_model):
    m = each_model
    ident = SqMatrix.identity(m.N * m.N)
    assert m.R @ m.R_inv == ident
    assert m.R_inv @ m.R == ident


def test_charge_conservation(each_model):
    m = each_model
    for (r, c) in m.R.entries:
        assert sum(divmod(r, m.N)) == sum(divmod(c, m.N))


def _r_hat_display(N):
    """R / Z written out as the N^2 x N^2 matrix [flatten(a, b), flatten(c, d)]."""
    one, z = ring.one(), ring.zero()
    if N == 2:
        return [
            [one, z, z, z],
            [z, one - Q(2), Q(1), z],
            [z, Q(1), z, z],
            [z, z, z, one],
        ]
    a = one - Q(4)
    b = -Q(2)
    c = (one - Q(2)) * a
    d = Q(1) * a
    e = Q(4)
    return [
        [one, z, z, z, z, z, z, z, z],
        [z, a, z, b, z, z, z, z, z],
        [z, z, c, z, d, z, e, z, z],
        [z, b, z, z, z, z, z, z, z],
        [z, z, d, z, Q(2), z, z, z, z],
        [z, z, z, z, z, a, z, b, z],
        [z, z, e, z, z, z, z, z, z],
        [z, z, z, z, z, b, z, z, z],
        [z, z, z, z, z, z, z, z, one],
    ]


@pytest.mark.parametrize("N", [2, 3])
def test_r_hat_fixture(N):
    # pins the orientation of the tensor tables: (a, c, b, d) lands at
    # row flatten(a, b), column flatten(c, d)
    m = build_model(N)
    r_hat = m.R * ring.invert_unit(m.Z)
    rows = _r_hat_display(N)
    want = {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)}
    assert r_hat == SqMatrix(N * N, want)


def test_build_refuses_mis_signed_r(monkeypatch):
    table = models._r3_tensor_table()
    table[(-1, 1, 1, -1)] = -table[(-1, 1, 1, -1)]
    monkeypatch.setattr(models, "_r3_tensor_table", lambda: dict(table))
    # __wrapped__ skips the lru_cache, so no cached model is replaced
    with pytest.raises(MinPolyViolated):
        models._build_model.__wrapped__(3, 1)


def test_build_refuses_charge_violation(monkeypatch):
    table = models._r3_tensor_table()
    table[(-1, 1, 1, 0)] = table.pop((-1, 1, 1, -1))
    monkeypatch.setattr(models, "_r3_tensor_table", lambda: dict(table))
    with pytest.raises(ConventionValidationFailed, match="charge conservation"):
        models._build_model.__wrapped__(3, 1)


def _gauged_r(m, g):
    """(D (x) D) R (D (x) D)^-1 for D = diag(q^g[a]) over the label positions a."""
    N = m.N
    power = [g[i // N] + g[i % N] for i in range(N * N)]
    return SqMatrix(N * N, {(i, j): v * Q(power[i] - power[j])
                            for (i, j), v in m.R.entries.items()})


def test_build_refuses_a_broken_flip(m4):
    # D = diag(q, 1, 1, 1) keeps charge conservation, the minimal polynomial,
    # M_u, M_d, mu, the trace constants and every closure trace; only the
    # flip (C (x) C) R (C (x) C) = P R P breaks
    R = _gauged_r(m4, (1, 0, 0, 0))
    with pytest.raises(ConventionValidationFailed, match=r"fails for X = R at \(1, 1, 1, 3\): "):
        models._finalize(4, 1, m4.Z, R, m4.M_u, m4.M_d)


def test_gauged_r_needs_the_gauged_flip(m4):
    # D moves an entry and its flip image by different powers of r, so the
    # plain label flip C0 refuses the N = 4 model, and C = r^2 D C0 D^-1 passes it
    C0 = SqMatrix(4, {(i, 3 - i): ring.one() for i in range(4)})
    with pytest.raises(ConventionValidationFailed,
                       match=r"fails for X = R at \(1, 1, 1, 3\): -s\^9 - s\^5 \+ s\^-3 \+ s\^-7 "
                             r"!= -s\^5 \+ s\^-3$"):
        models._verify_flip("R", m4.R, C0)
    for X in (m4.R, m4.R_inv):
        models._verify_flip("R", X, models._label_flip(4))


def test_check_flip_refuses_a_flip_that_is_not_antidiagonal(m3):
    # a zero on the antidiagonal, or an entry off it, is named, not a KeyError
    C = models._label_flip(3)
    models._verify_flip("R", m3.R, C)
    extra = SqMatrix(3, {**C.entries, (0, 0): ring.one()})
    with pytest.raises(ConventionValidationFailed, match=r"flip entry \[0,0\] is off the antidiagonal"):
        models._verify_flip("R", m3.R, extra)
    gap = SqMatrix(3, {k: v for k, v in C.entries.items() if k != (1, 1)})
    with pytest.raises(ConventionValidationFailed, match=r"flip entry \[1,1\] is zero"):
        models._verify_flip("R", m3.R, gap)


def test_a_zero_flip_is_refused_though_its_row_holds(m3):
    # C = 0 makes both sides of the flip row zero, so the shape check is what refuses it
    zero = SqMatrix(3)
    exact = axioms.equation_operands(3, R=m3.R, C=zero)
    assert axioms.equation_witnesses(3, ("flip",), exact) == {"flip": ""}
    with pytest.raises(ConventionValidationFailed, match=r"flip entry \[0,2\] is zero"):
        models._verify_flip("R", m3.R, zero)


def test_crossing_matrices_from_one_formula_keep_the_tables(each_signed_model):
    # M_u[k, N-1-k] = (-1)^k s^(N-1-2k) and M_d = M_u^-1 reproduce the
    # tables the models were first written with: M_d = -M_u for even N,
    # M_d = M_u for odd N
    m = each_signed_model
    M_u = {
        2: {(0, 1): S(1), (1, 0): S(-1, -1)},
        3: {(0, 2): Q(1), (1, 1): ring.integer(-1), (2, 0): Q(-1)},
        4: {(0, 3): S(3), (1, 2): S(1, -1), (2, 1): S(-1), (3, 0): S(-3, -1)},
    }[m.N]
    assert m.M_u == SqMatrix(m.N, M_u)
    assert m.M_d == (-m.M_u if m.N % 2 == 0 else m.M_u)


def test_diagonal_gauge_keeps_the_flip_for_n3(m3):
    # a gauge moves R[(a,b),(c,d)] and its flip image by
    # h(a) + h(b) - h(c) - h(d), h(a) = g(a) - g(-a); h is odd, so linear on
    # the labels -1, 0, 1, and charge conservation cancels it
    R = _gauged_r(m3, (1, 0, 0))
    assert R != m3.R
    assert models._finalize(3, 1, m3.Z, R, m3.M_u, m3.M_d).R == R


def test_build_refuses_table_key_typed_twice(monkeypatch):
    # (Fraction(0), 0, 0, 0) and (0, 0, 0, 0) are one dict key, so typing it
    # in place of another entry leaves 13 of the 14 entries
    items = list(models._r3_tensor_table().items())
    items[items.index(((1, 0, 0, 1), Q(2, -1)))] = ((Fraction(0), 0, 0, 0), Q(2))
    monkeypatch.setattr(models, "_r3_tensor_table", lambda: dict(items))
    with pytest.raises(ConventionValidationFailed, match="14 entries"):
        models._build_model.__wrapped__(3, 1)


def test_eigenvalue_fixtures():
    # alternating signs on q^0, q^e1, ... times Z
    for N, exps in ((2, (0, 2)), (3, (0, 4, 6)), (4, (0, 6, 10, 12))):
        m = build_model(N)
        signed = tuple(Q(exps[i], (-1) ** i) * m.Z for i in range(N))
        assert m.eigenvalues == signed
        assert generic_eigenvalues(N, m.Z) == m.eigenvalues


def test_trace_constants(each_signed_model):
    m = each_signed_model
    c = compute_constants(m)
    assert c.tau == (m.Z, m.D)
    assert c.taubar == (m.Z * Q(m.N * m.N - 1), m.D)
    # spot checks with the constants written out longhand in q
    if m.N == 2:
        assert c.tau[0] == S(-1, m.sign) and c.tau[1] == Q(2) + 1
        assert c.taubar[0] == S(5, m.sign)
    if m.N == 3:
        assert c.tau[0] == Q(-2, m.sign) and c.tau[1] == Q(4) + Q(2) + 1
        assert c.taubar[0] == Q(6, m.sign)
    if m.N == 4:
        assert c.tau[0] == S(-9, m.sign)
        assert c.taubar[0] == S(21, m.sign)


def test_sign_branch_flips_r(each_model):
    m = each_model
    neg = build_model(m.N, -1)
    assert neg.R == -m.R
    assert neg.Z == -m.Z
    assert neg.k == m.k


def test_sign_parsing():
    assert build_model(2, 1).sign == 1
    assert build_model(2, -1).sign == -1
    # True == 1 and 1.0 == 1, but neither is a sign
    for bad in (0, 2, "+", "-", "neg", None, True, False, 1.0, -1.0):
        with pytest.raises(DomainError):
            build_model(2, bad)


def test_unsupported_n():
    build_model(2)  # a warm cache keys 2.0 like 2: it must not answer for it
    for bad in (1, 5, 0, -3, 2.0, 3.0, True, "2", None):
        with pytest.raises(UnsupportedN):
            build_model(bad)


def test_mirror_model(each_model):
    m = each_model
    mir = mirror_model(m)
    P = SqMatrix.permutation(m.N)
    assert mir.R == P @ m.R @ P
    assert mir.M_u == m.M_u.transpose()
    assert mir.mirrored
    assert mir.Z == m.Z
    assert mir.k == m.k


def _models_and_mirrors():
    out = []
    for N in (2, 3, 4):
        for sign in (1, -1):
            m = build_model(N, sign)
            out += [m, mirror_model(m)]
    return out


def test_radical_appears_only_in_n4():
    # the paper writes r into 4 of the 30 N = 4 entries and nowhere else
    for N, count in ((2, 0), (3, 0), (4, 4)):
        assert sum(isinstance(v, tuple) for v in models.paper_table(N).values()) == count
    # the models hold none: R and R^-1 lie in Z[s^+-1], and in Z[q^+-1]
    # once the unit Z is factored out
    for m in _models_and_mirrors():
        for X, unit in ((m.R, ring.invert_unit(m.Z)), (m.R_inv, m.Z)):
            for v in X.entries.values():
                off, coeffs = v.rat
                assert isinstance(off, int) and all(isinstance(c, int) for c in coeffs)
                assert all(e % 2 == 0 for e in (v * unit).terms)


def test_gauge_refuses_an_entry_that_keeps_the_radical():
    table = models.paper_table(4)
    assert models.gauge(table, 4)  # the paper's table clears
    h, t = Fraction(1, 2), Fraction(3, 2)
    # D (x) D moves this entry by r^1: its rational part would keep r
    key = (-t, -h, h, -h)
    table[key] = (Q(1), table[key][1])
    with pytest.raises(ConventionValidationFailed, match="keeps the radical"):
        models.gauge(table, 4)
    # this one does not move: a radical part stays
    table = models.paper_table(4)
    table[(t, t, t, t)] = (ring.one(), ring.one())
    with pytest.raises(ConventionValidationFailed, match="keeps the radical"):
        models.gauge(table, 4)


def test_gauge_leaves_m_u_m_d_and_mu_unchanged():
    # D M D moves M[a, b] by r^(g(a) + g(b)), and D mu D^-1 moves mu[a, b]
    # by r^(g(a) - g(b)): every entry stays where it is
    for m in _models_and_mirrors():
        g = models.gauge_powers(m.N)
        for M in (m.M_u, m.M_d):
            assert all(g[a] + g[b] == 0 for a, b in M.entries)
        assert all(g[a] == g[b] for a, b in m.mu.entries)
    assert models.gauge_powers(4) == (1, 0, 0, -1)


# ---------------------------------------------------------------- numerics


def test_spectral_model_validation():
    with pytest.raises(UnsupportedN):
        SpectralModel(5, 1.0)
    with pytest.raises(DomainError):
        SpectralModel(2, 0.0)
    with pytest.raises(DomainError):
        SpectralModel(2, -1.0)


def test_weights_at_zero_are_proportional_identity():
    # every weight off the (a, a, b, b) keys is exactly zero at u = 0, and so dropped
    for N in (2, 3):
        sm = SpectralModel(N, 0.9)
        T = boltzmann_tensor(sm, 0.0)
        assert T.keys() == {(a, a, b, b) for a in range(N) for b in range(N)}
        for v in T.values():
            assert v == pytest.approx(rho(sm, 0.0), rel=1e-5, abs=1e-14)


def test_boltzmann_tensor_keys_are_positions():
    # R^(-1/2)_(-1/2)^(1/2)_(1/2)(u) = e^u sinh(lam) at anisotropy 1/2 sits at
    # positions (0, 0, 1, 1); its mirror weight (1, 1, 0, 0) carries e^-u
    sm = SpectralModel(2, 0.7)
    T = boltzmann_tensor(sm, 0.4)
    assert all(v for v in T.values())
    assert T[0, 0, 1, 1] == math.exp(0.4) * math.sinh(0.7)
    assert T[1, 1, 0, 0] == math.exp(-0.4) * math.sinh(0.7)
    assert boltzmann_tensor(SpectralModel(3, 0.7), 0.4)[2, 2, 0, 0] == (
        math.exp(-0.8) * math.sinh(0.7) * math.sinh(1.4))


def test_spectral_residual_nan_fails():
    # sinh(300)^2 overflows to inf, and inf - inf leaves NaN in the
    # Yang-Baxter sides: the residual must read NaN and fail, not be skipped
    rep = spectral_checks(SpectralModel(2, 1.0), 300.0, 300.0)
    assert math.isnan(rep.ybe)
    assert not rep.ok(1e-9)
    # wherever the NaN falls, as numpy's max; Python's max drops a later one
    for vals in ([0.5, math.nan, 2.0], [math.nan, 0.5], [0.5, math.nan]):
        assert math.isnan(models._worst(vals))
    assert models._worst([]) == 0.0


def test_rho_factors():
    sm = SpectralModel(3, 0.7)
    assert rho(sm, 0.2) == pytest.approx(math.sinh(0.5) * math.sinh(1.2))


def test_spectral_residuals_small():
    for N in (2, 3):
        for (lam, u, v) in ((0.5, 0.3, -0.7), (1.2, 2.5, 1.1), (0.9, -2.0, 2.8)):
            rep = spectral_checks(SpectralModel(N, lam), u, v)
            assert rep.ok(1e-9), (N, lam, u, v, rep)


def test_spectral_unsupported_n4():
    with pytest.raises(UnsupportedN):
        SpectralModel(4, 1.0)


def test_limit_check():
    for N in (2, 3):
        sm = SpectralModel(N, 0.8)
        rep = limit_check(sm, build_model(N), u_large=15.0, u_reference=8.0)
        assert rep.deviation <= 1e-6
        assert rep.monotone
        assert rep.ok()


def test_limit_check_requires_matching_setup():
    with pytest.raises(DomainError):
        limit_check(SpectralModel(2, 0.8), build_model(3))


def test_limit_check_reads_the_table_in_q():
    # R/Z with an odd power of s has no value at q alone: refused
    m = build_model(2)
    odd = dataclasses.replace(m, Z=m.Z * S(1))
    with pytest.raises(DomainError, match="odd power"):
        limit_check(SpectralModel(2, 0.8), odd)
    # a table entry moved by q^2 is caught, as is a dropped entry
    for N in (2, 3):
        m = build_model(N)
        sm = SpectralModel(N, 0.8)
        for key in sorted(m.R.entries)[:3]:
            for new in (m.R.entries[key] * Q(2), ring.zero()):
                entries = {**m.R.entries, key: new}
                bad = dataclasses.replace(m, R=SqMatrix(N * N, entries))
                assert not limit_check(sm, bad).ok(1e-6), (N, key)
