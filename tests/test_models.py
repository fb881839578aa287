"""Model construction fixtures and the numeric weight limits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from vertexlink import models, ring
from vertexlink.errors import (
    ConventionValidationFailed,
    DomainError,
    MinPolyViolated,
    UnsupportedN,
)
from vertexlink.models import (
    SpectralModel,
    boltzmann_matrix,
    build_model,
    generic_eigenvalues,
    limit_check,
    loop_sum,
    mirror_model,
    rho,
    spectral_checks,
)
from vertexlink.tensor import SqMatrix, charge_of_pair

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
    assert models.closure_character(m.mu, m.conv) == want


def _refused_before_trace_constants(monkeypatch, m, M_u, M_d):
    def unreachable(*args):
        pytest.fail("trace constants checked before the closure weight")

    monkeypatch.setattr(models, "check_trace_constants", unreachable)
    with pytest.raises(ConventionValidationFailed, match="closure weight"):
        models._finalize(m.N, m.sign, m.conv, m.Z, m.R, M_u, M_d)


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
    assert m.det_mu_u == ring.one()


def test_r_inverse(each_model):
    m = each_model
    ident = SqMatrix.identity(m.N * m.N)
    assert m.R @ m.R_inv == ident
    assert m.R_inv @ m.R == ident


def test_charge_conservation(each_model):
    m = each_model
    for (r, c) in m.R.entries:
        assert charge_of_pair(m.conv, r) == charge_of_pair(m.conv, c)


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
    with pytest.raises(ConventionValidationFailed, match=r"entry \[\d+,\d+\] breaks the flip"):
        models._finalize(4, 1, m4.conv, m4.Z, R, m4.M_u, m4.M_d)


def test_diagonal_gauge_keeps_the_flip_for_n3(m3):
    # a gauge moves R[(a,b),(c,d)] and its flip image by
    # h(a) + h(b) - h(c) - h(d), h(a) = g(a) - g(-a); h is odd, so linear on
    # the labels -1, 0, 1, and charge conservation cancels it
    R = _gauged_r(m3, (1, 0, 0))
    assert R != m3.R
    assert models._finalize(3, 1, m3.conv, m3.Z, R, m3.M_u, m3.M_d).R == R


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
    assert m.tau == (m.Z, m.D)
    assert m.taubar == (m.Z * Q(m.N * m.N - 1), m.D)
    # spot checks with the constants written out longhand in q
    if m.N == 2:
        assert m.tau[0] == S(-1, m.sign) and m.tau[1] == Q(2) + 1
        assert m.taubar[0] == S(5, m.sign)
    if m.N == 3:
        assert m.tau[0] == Q(-2, m.sign) and m.tau[1] == Q(4) + Q(2) + 1
        assert m.taubar[0] == Q(6, m.sign)
    if m.N == 4:
        assert m.tau[0] == S(-9, m.sign)
        assert m.taubar[0] == S(21, m.sign)


def test_sign_branch_flips_r(each_model):
    m = each_model
    neg = build_model(m.N, -1)
    assert neg.R == -m.R
    assert neg.Z == -m.Z
    assert neg.k == m.k


def test_sign_parsing():
    assert build_model(2, "+") is build_model(2, 1)
    assert build_model(2, "neg") is build_model(2, -1)
    with pytest.raises(DomainError):
        build_model(2, 0)


def test_unsupported_n():
    for bad in (1, 5, 0, -3):
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


def test_radical_appears_only_in_n4():
    for N in (2, 3):
        m = build_model(N)
        assert all(v.radical_part.is_zero() for v in m.R.entries.values())
    m4 = build_model(4)
    assert any(not v.radical_part.is_zero() for v in m4.R.entries.values())


# ---------------------------------------------------------------- numerics


def test_spectral_model_validation():
    with pytest.raises(UnsupportedN):
        SpectralModel(5, 1.0)
    with pytest.raises(DomainError):
        SpectralModel(2, 0.0)
    with pytest.raises(DomainError):
        SpectralModel(2, -1.0)


def test_weights_at_zero_are_proportional_identity():
    for N in (2, 3):
        sm = SpectralModel(N, 0.9)
        B = boltzmann_matrix(sm, 0.0)
        assert np.allclose(B, rho(sm, 0.0) * np.eye(N * N), atol=1e-14)


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
        limit_check(SpectralModel(2, 0.8, mu_aniso=0.3), build_model(2))
    with pytest.raises(DomainError):
        limit_check(SpectralModel(2, 0.8), build_model(3))
