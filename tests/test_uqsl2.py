"""Quantum sl2 spin representations against the vertex models, exactly."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

from vertexlink import ring, uqsl2
from vertexlink.errors import DimensionMismatch, UnsupportedN
from vertexlink.models import build_model
from vertexlink.tensor import SqMatrix
from vertexlink.uqsl2 import (
    build_rep,
    build_w,
    casimir_scalar,
    correspondence_report,
    crossing_symmetry,
    exact_twist_substitution,
    exact_w_matches_md,
    exchange_sign_gauge,
    first_mismatch,
    identification_signs,
    ratio_spread,
    rep_relations,
    universal_r,
    universal_r_inverse,
    w_conjugation,
)

SPINS = (Fraction(1, 2), Fraction(1), Fraction(3, 2))
# the algebra side needs no vertex model
ALL_SPINS = SPINS + (Fraction(2), Fraction(5, 2))


def _r_pair(j):
    rep = build_rep(j)
    R, _ = universal_r(rep)
    return rep, R, universal_r_inverse(rep)


def test_spin_validation():
    for bad in (0, -1, Fraction(1, 3), "2/3"):
        with pytest.raises(UnsupportedN, match="not a spin"):
            build_rep(bad)


@pytest.mark.parametrize("bad", ["x", math.nan, math.inf, None, "1/0"],
                         ids=["text", "nan", "inf", "none", "zero-denominator"])
def test_bad_spin_is_refused_typed(bad):
    for call in (correspondence_report, build_w, build_rep):
        with pytest.raises(UnsupportedN, match="not a spin"):
            call(bad)


def test_integral_generators():
    # X+ v_m = [j-m] v_(m+1), X- v_m = [j+m] v_(m-1): for j = 1, [2] and [1]
    rep = build_rep(Fraction(1))
    two = uqsl2.qint(2)
    assert rep.Xp.entries == {(1, 0): two, (2, 1): ring.one()}
    assert rep.Xm.entries == {(0, 1): ring.one(), (1, 2): two}
    assert rep.H.entries == {(0, 0): ring.integer(-2), (2, 2): ring.integer(2)}
    assert two == ring.q_power(1) + ring.q_power(-1)
    assert uqsl2.qbinomial(3, 1) == uqsl2.qint(3)


def test_algebra_relations():
    for j in ALL_SPINS:
        assert rep_relations(build_rep(j)) == {"h_xp": True, "h_xm": True, "xp_xm": True}, j


def test_perturbed_generator_fails_the_algebra():
    rep = build_rep(Fraction(3, 2))
    entries = dict(rep.Xp.entries)
    entries[(1, 0)] = entries[(1, 0)] + 1
    res = rep_relations(dataclasses.replace(rep, Xp=SqMatrix(rep.dim, entries)))
    assert res == {"h_xp": True, "h_xm": True, "xp_xm": False}


def test_report_holds_plain_numbers():
    # the verdicts are plain bools and the witness plain ints, which the
    # JSON output encodes
    for j in SPINS:
        rep = correspondence_report(j)
        for name in ("algebra", "casimir", "series", "wconj", "cs", "md_exact", "twist_exact"):
            assert type(getattr(rep, name)) is bool, name
        assert type(rep.ok()) is bool and type(rep.ok_gauged()) is bool
        assert type(rep.ratio_spread) is float
        for witness in (rep.plain_witness, rep.gauged_witness):
            assert witness is None or all(type(i) is int for i in witness)
        json.dumps(dataclasses.asdict(rep), default=str)


def test_casimir_both_orderings():
    for j in ALL_SPINS:
        x = ring.s_power(int(2 * j) + 1) - ring.s_power(-int(2 * j) - 1)
        assert casimir_scalar(build_rep(j)) == x * x, j


def test_casimir_of_a_perturbed_generator_is_not_scalar():
    rep = build_rep(Fraction(1))
    entries = dict(rep.Xm.entries)
    entries[(0, 1)] = entries[(0, 1)] * ring.q_power(1)
    assert casimir_scalar(dataclasses.replace(rep, Xm=SqMatrix(rep.dim, entries))) is None


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
    # w H = -H w, w X+ = -q^-1 X- w, w X- = -q X+ w: exact, so at every q
    for j in ALL_SPINS:
        assert w_conjugation(j), j


def test_crossing_symmetry_residuals():
    # cs1 and cs2 with w rescaled by the q-binomials, exactly
    for j in ALL_SPINS[:4]:
        assert crossing_symmetry(*_r_pair(j)) == {"cs1": True, "cs2": True}, j


def test_crossing_symmetry_needs_the_rescaled_w(monkeypatch):
    # the plain w conjugates the normalised basis only: both forms fail from j = 1
    monkeypatch.setattr(uqsl2, "crossing_w", build_w)
    assert crossing_symmetry(*_r_pair(Fraction(1, 2))) == {"cs1": True, "cs2": True}
    for j in (Fraction(1), Fraction(3, 2), Fraction(2)):
        assert crossing_symmetry(*_r_pair(j)) == {"cs1": False, "cs2": False}, j


def test_perturbed_r_fails_crossing_symmetry():
    rep, R, R_inv = _r_pair(Fraction(1))
    entries = dict(R.entries)
    entries[(0, 0)] = entries[(0, 0)] + 1
    assert crossing_symmetry(rep, SqMatrix(R.dim, entries), R_inv)["cs1"] is False


def test_inverse_series_inverts_r():
    for j in ALL_SPINS[:4]:
        rep, R, R_inv = _r_pair(j)
        eye = SqMatrix.identity(rep.dim ** 2)
        assert R @ R_inv == eye and R_inv @ R == eye, j


def test_universal_r_truncates():
    # the series ends at n = 2j: the first dropped term is exactly zero
    for j in ALL_SPINS:
        _, tail = universal_r(build_rep(j))
        assert tail.is_zero(), j


def _signs(j, gauge=False, m=None):
    rep, R, _ = _r_pair(j)
    return identification_signs(m or build_model(rep.dim), rep, R, gauge=gauge)


def test_ratio_plain_half_integer():
    # R/Z = q^(2j^2) P R^jj in the gauge G, entry for entry
    for j in (Fraction(1, 2), Fraction(3, 2)):
        signs = _signs(j)
        assert set(signs.values()) == {1}
        assert ratio_spread(signs) == 0.0 and first_mismatch(signs) is None


def test_ratio_plain_fails_for_integer_spin(m3):
    """Documented discrepancy: the plain identification is false at j = 1.

    It fails on exactly four exchange entries, where the two sides are
    opposite, so the ratios split into +1 and -1 and the spread is exactly
    2.  The identification that does hold is the sign-gauged one below.
    """
    signs = _signs(Fraction(1), m=m3)
    bad = [key for key, v in signs.items() if v != 1]
    assert bad == [(1, 3), (3, 1), (5, 7), (7, 5)]
    assert all(signs[key] == -1 for key in bad)
    assert first_mismatch(signs) == (1, 3)
    assert ratio_spread(signs) == 2.0


def test_ratio_gauged_exact_for_integer_spin(m3):
    signs = _signs(Fraction(1), gauge=True, m=m3)
    assert set(signs.values()) == {1}


def test_ratio_spread_is_infinite_off_the_unit_ratios():
    assert ratio_spread({(0, 0): 1, (1, 1): 0}) == math.inf
    assert ratio_spread({(0, 0): -1, (1, 1): -1}) == 0.0


@pytest.mark.parametrize("N, key", [(2, (1, 2)), (4, (14, 11))])
def test_negated_model_entry_is_the_witness(N, key):
    m = build_model(N)
    entries = dict(m.R.entries)
    entries[key] = -entries[key]
    signs = _signs(Fraction(N - 1, 2), m=dataclasses.replace(m, R=SqMatrix(m.R.dim, entries)))
    assert first_mismatch(signs) == key
    assert [k for k, v in signs.items() if v != 1] == [key]


def test_gauge_signs():
    assert exchange_sign_gauge(Fraction(1, 2)) == ((1, 1), (1, 1))
    assert exchange_sign_gauge(Fraction(1)) == ((1, 1, -1), (1, -1, -1))


def test_ratio_gauge_is_identity_for_half_integer():
    # gauging changes nothing when the plain claim already holds
    for j in (Fraction(1, 2), Fraction(3, 2)):
        assert _signs(j) == _signs(j, gauge=True)


def test_ratio_dimension_mismatch(m2):
    rep, R, _ = _r_pair(Fraction(1))
    with pytest.raises(DimensionMismatch):
        identification_signs(m2, rep, R)


def test_correspondence_reports():
    reports = {j: correspondence_report(j) for j in SPINS}
    assert reports[Fraction(1, 2)].ok()
    assert not reports[Fraction(1)].ok()  # the plain j=1 claim fails
    assert reports[Fraction(1)].plain_witness == (1, 3)
    assert reports[Fraction(1)].ratio_spread == 2.0
    assert reports[Fraction(3, 2)].ok()
    for rep in reports.values():
        assert rep.ok_gauged() and rep.gauged_witness is None
        assert rep.md_exact and rep.twist_exact
        assert rep.series


def test_correspondence_needs_a_vertex_model():
    for j in (Fraction(2), Fraction(5, 2)):
        with pytest.raises(UnsupportedN):
            correspondence_report(j)


def test_large_spin_numeric_only():
    # no five-state crossing matrices exist, but the algebra side still runs
    j = Fraction(5, 2)
    rep, R, R_inv = _r_pair(j)
    assert all(rep_relations(rep).values())
    assert w_conjugation(j)
    assert all(crossing_symmetry(rep, R, R_inv).values())
    with pytest.raises(UnsupportedN):
        exact_w_matches_md(j)
