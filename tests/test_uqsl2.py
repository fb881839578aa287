"""Quantum sl2 spin representations against the vertex models."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from vertexlink import ring
from vertexlink.errors import DimensionMismatch, DomainError, UnsupportedN
from vertexlink.models import build_model
from vertexlink.uqsl2 import (
    build_rep,
    build_w,
    casimir_scalar,
    correspondence_report,
    cs_residuals,
    exact_twist_substitution,
    exact_w_matches_md,
    exchange_sign_gauge,
    model_ratio_residual,
    rep_residuals,
    universal_r,
    universal_r_inverse,
    w_conjugation_residual,
)

SPINS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
QS = (1.2, 1.5, 2.0)
# where a float inverse of R^jj, or a cut relative to its largest entry, loses digits
LARGE_QS = (30.0, 1e3, 1e5)
# where products of generators outgrow the generators themselves by q^(2j)
HUGE_QS = (1e7, 1e8, 1e10)


def test_spin_validation():
    for bad in (0, -1, Fraction(1, 3), "2/3"):
        with pytest.raises(UnsupportedN):
            build_rep(bad, 1.5)
    with pytest.raises(DomainError):
        build_rep(Fraction(1, 2), 1.0)
    with pytest.raises(DomainError):
        build_rep(Fraction(1, 2), -2.0)


def test_algebra_relations():
    for j in SPINS:
        for q in QS:
            rep = build_rep(j, q)
            res = rep_residuals(rep)
            assert set(res) == {"h_xp", "h_xm", "xp_xm"}
            assert max(res.values()) <= 1e-10, (j, q, res)
            assert np.allclose(rep.Xm, rep.Xp.T)


def test_residuals_stay_at_rounding_level_for_huge_q():
    # each residual is relative to the largest of the terms it compares
    for j in SPINS:
        for q in HUGE_QS:
            assert max(rep_residuals(build_rep(j, q)).values()) <= 1e-15, (j, q)
            assert w_conjugation_residual(j, q) <= 1e-15, (j, q)


def test_perturbed_generator_fails_the_algebra_at_huge_q():
    rep = build_rep(Fraction(3, 2), 1e7)
    Xp = rep.Xp.copy()
    Xp[1, 0] *= 1 + 1e-6
    res = rep_residuals(dataclasses.replace(rep, Xp=Xp))
    assert res["xp_xm"] > 1e-10  # the algebra tolerance of correspondence_report


def test_report_holds_plain_numbers():
    # a numpy scalar would make a failed verdict a numpy bool, which the
    # JSON output cannot encode
    rep = correspondence_report(Fraction(3, 2), q_samples=(1.5, 1e7))
    for name in ("algebra", "casimir", "truncation", "wconj", "cs", "ratio_spread",
                 "gauged_spread", "constant_dev"):
        assert type(getattr(rep, name)) is float, name
    assert type(rep.ok()) is bool and type(rep.ok_gauged()) is bool


def test_casimir_both_orderings():
    for j in SPINS:
        for q in QS:
            rep = build_rep(j, q)
            value, dev = casimir_scalar(rep)
            x = float(j) + 0.5
            want = ((q ** x - q ** -x) / (q - 1 / q)) ** 2
            assert dev <= 1e-10
            assert value == pytest.approx(want, rel=1e-10)


def test_w_fixture_half():
    W = build_w(Fraction(1, 2))
    assert W.entries == {(0, 1): ring.one(), (1, 0): ring.s_power(2, -1)}


def test_w_fixture_one():
    W = build_w(Fraction(1))
    assert W.entries == {
        (0, 2): ring.one(),
        (1, 1): ring.s_power(2, -1),
        (2, 0): ring.s_power(4),
    }


def test_w_transpose_matches_crossing_matrix():
    for j in SPINS:
        assert exact_w_matches_md(j)


def test_twist_equations_with_w():
    for j in SPINS:
        assert exact_twist_substitution(j)


def test_w_conjugation_numeric():
    for j in SPINS:
        for q in QS:
            assert w_conjugation_residual(j, q) <= 1e-9


def test_crossing_symmetry_residuals():
    # (R^jj)^-1 comes from its own series: rounding level at every q
    for j in SPINS:
        for q in QS + LARGE_QS:
            res = cs_residuals(j, q)
            assert max(res.values()) <= 1e-15, (j, q, res)


def test_inverse_series_inverts_r():
    for j in SPINS:
        for q in QS:
            rep = build_rep(j, q)
            R, _ = universal_r(rep)
            assert np.allclose(R @ universal_r_inverse(rep), np.eye(rep.dim ** 2), rtol=0, atol=1e-12)


def test_universal_r_truncates():
    # the series ends at n = 2j: the first dropped term is exactly zero
    for j in SPINS:
        for q in QS:
            _, tail = universal_r(build_rep(j, q))
            assert tail == 0.0


def test_ratio_plain_half_integer():
    for j in (Fraction(1, 2), Fraction(3, 2)):
        N = int(2 * j) + 1
        m = build_model(N)
        for q in QS:
            spread, const = model_ratio_residual(m, build_rep(j, q))
            assert spread <= 1e-8
            assert const == pytest.approx(q ** float(2 * j * j), rel=1e-9)


def test_ratio_plain_fails_for_integer_spin(m3):
    """Documented discrepancy: the plain proportionality is false at j = 1.

    The entrywise ratios split into +q^2 and -q^2 blocks, so the spread
    sits at exactly 2 (in units of the constant), far above any rounding
    level.  The identification that does hold is the sign-gauged one
    below.
    """
    for q in QS + LARGE_QS:
        spread, _ = model_ratio_residual(m3, build_rep(Fraction(1), q))
        assert spread == pytest.approx(2.0, abs=1e-9)


def test_ratio_gauged_exact_for_integer_spin(m3):
    for q in QS + LARGE_QS:
        spread, const = model_ratio_residual(m3, build_rep(Fraction(1), q), gauge=True)
        assert spread <= 1e-10
        # constant q^(2 j^2) = 1/Z: equality of matrices, not just rays
        assert const == pytest.approx(q ** 2.0, rel=1e-12)


def test_gauge_signs():
    d1, d2 = exchange_sign_gauge(Fraction(1, 2))
    assert np.array_equal(d1, np.ones(2)) and np.array_equal(d2, np.ones(2))
    d1, d2 = exchange_sign_gauge(Fraction(1))
    assert np.array_equal(d1, np.array([1.0, 1.0, -1.0]))
    assert np.array_equal(d2, np.array([1.0, -1.0, -1.0]))


def test_ratio_gauge_is_identity_for_half_integer(m2):
    # gauging changes nothing when the plain claim already holds
    for q in QS:
        rep = build_rep(Fraction(1, 2), q)
        assert model_ratio_residual(m2, rep) == model_ratio_residual(m2, rep, gauge=True)


def test_ratio_dimension_mismatch(m2):
    with pytest.raises(DimensionMismatch):
        model_ratio_residual(m2, build_rep(Fraction(1), 1.5))


def test_correspondence_reports():
    reports = {j: correspondence_report(j) for j in SPINS}
    assert reports[Fraction(1, 2)].ok()
    assert not reports[Fraction(1)].ok()  # the plain j=1 claim fails
    assert reports[Fraction(3, 2)].ok()
    for rep in reports.values():
        assert rep.ok_gauged()
        assert rep.md_exact and rep.twist_exact
        assert rep.truncation == 0.0


def test_correspondence_needs_a_vertex_model():
    for j in (Fraction(2), Fraction(5, 2)):
        with pytest.raises(UnsupportedN):
            correspondence_report(j)


@pytest.mark.parametrize("q", [math.inf, -math.inf, math.nan, 0.0, 1.0])
def test_build_rep_refuses_q(q):
    with pytest.raises(DomainError, match="q must be"):
        build_rep(Fraction(1, 2), q)


def test_overflow_names_q():
    with pytest.raises(DomainError, match="q = 1e\\+80"):
        correspondence_report(Fraction(3, 2), q_samples=(1.5, 1e80))


def test_large_spin_numeric_only():
    # no five-state crossing matrices exist, but the algebra side still runs
    j = Fraction(5, 2)
    rep = build_rep(j, 1.5)
    assert max(rep_residuals(rep).values()) <= 1e-10
    assert w_conjugation_residual(j, 1.5) <= 1e-9
    assert max(cs_residuals(j, 1.5).values()) <= 1e-9
    with pytest.raises(UnsupportedN):
        exact_w_matches_md(j)
