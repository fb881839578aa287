"""Coefficient ring: exact Laurent arithmetic with one radical."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vertexlink import packed, ring
from vertexlink.errors import DomainError, InexactDivision

coeffs = st.integers(min_value=-40, max_value=40)
exps = st.integers(min_value=-8, max_value=8)


@st.composite
def ring_elems(draw, radical=True):
    rat = draw(st.dictionaries(exps, coeffs, max_size=4))
    rad = draw(st.dictionaries(exps, coeffs, max_size=3)) if radical else {}
    return ring.RingElem.from_parts(rat, rad)


@given(ring_elems(), ring_elems(), ring_elems())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ring.zero() == a
    assert a * ring.one() == a
    assert a - a == ring.zero()


@given(ring_elems())
def test_radical_square_law(a):
    # r^2 = q^-2 + 1 + q^2 collapses to the rational part
    rho = ring.q_power(-2) + ring.one() + ring.q_power(2)
    assert ring.radical() * ring.radical() == rho
    prod = (a * ring.radical()) * ring.radical()
    assert prod == a * rho


@given(ring_elems(), ring_elems())
def test_exact_divide_round_trip(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            ring.exact_divide(a, b)
        return
    assert ring.exact_divide(a * b, b) == a


@given(ring_elems(), ring_elems())
@example(ring.radical(), ring.radical())
def test_weight_is_submultiplicative(a, b):
    # the packing width lemma: r*r = s^-4 + 1 + s^4 weighs 3, so the
    # radical's weight must square to at least 3; weight 1 fails on r, r
    assert packed.weight(a * b) <= packed.weight(a) * packed.weight(b)
    for part in (a.rat, a.rad):
        assert all(abs(c) <= packed.weight(a) for c in part[1])


def test_inexact_division_raises():
    with pytest.raises(InexactDivision):
        ring.exact_divide(ring.s_power(1) + 1, ring.integer(2))
    with pytest.raises(InexactDivision):
        ring.exact_divide(ring.s_power(2) + 1, ring.s_power(1) + 1)


def test_divide_by_radical_divisor():
    a = (ring.s_power(3) + ring.radical() * ring.s_power(-1)) * (2 + ring.radical())
    assert ring.exact_divide(a, 2 + ring.radical()) == ring.s_power(3) + ring.radical() * ring.s_power(-1)


def test_units():
    for k in (-5, 0, 3):
        for sign in (1, -1):
            u = ring.s_power(k, sign)
            assert u.is_unit()
            assert u.as_unit() == (sign, k)
            assert u * ring.invert_unit(u) == ring.one()
    assert not (ring.s_power(1) + 1).is_unit()
    assert not ring.integer(2).is_unit()
    assert not ring.radical().is_unit()
    with pytest.raises(DomainError):
        ring.integer(2).as_unit()


def test_power_operator():
    a = ring.s_power(1) + ring.one()
    assert a ** 0 == ring.one()
    assert a ** 3 == a * a * a
    assert ring.s_power(2) ** -2 == ring.s_power(-4)


def test_q_and_t_shorthands():
    assert ring.q_power(3) == ring.s_power(6)
    assert ring.t_power(2) == ring.s_power(8)
    assert ring.q_power(1, -1) == -ring.s_power(2)


@given(ring_elems())
def test_render_parse_round_trip(a):
    assert ring.parse(ring.render(a, "s")) == a


def test_render_variable_fallback():
    even = ring.q_power(2) + ring.q_power(-1)
    assert "q" in ring.render(even, "q")
    odd = ring.s_power(1) + ring.one()
    with pytest.warns(UserWarning, match="rendering in s"):
        text = ring.render(odd, "q")
    assert ring.parse(text) == odd


def test_render_radical_and_zero():
    assert ring.render(ring.zero()) == "0"
    text = ring.render(ring.one() + ring.radical() * ring.s_power(2))
    assert "rad" in text
    assert ring.parse(text) == ring.one() + ring.radical() * ring.s_power(2)


def test_parse_rejects_garbage():
    for bad in ("s^", "1 +", "(s", "x + 1", "s^^2"):
        with pytest.raises(DomainError):
            ring.parse(bad)


@given(ring_elems(), ring_elems(), st.sampled_from([0.7, 1.3, 2.0, -1.5]))
@settings(max_examples=60)
def test_eval_is_homomorphism(a, b, q):
    va, vb = ring.eval_numeric(a, q), ring.eval_numeric(b, q)
    vab = ring.eval_numeric(a * b, q)
    scale = 1.0 + abs(vab)
    assert abs(va * vb - vab) <= 1e-9 * scale
    assert abs(va + vb - ring.eval_numeric(a + b, q)) <= 1e-9 * (1 + abs(va + vb))


def test_eval_numeric_radical_positive():
    # the radical evaluates to sqrt(q^2+1+q^-2) > 0 for real q
    for q in (0.5, 2.0, -3.0):
        v = ring.eval_numeric(ring.radical(), q)
        assert v == pytest.approx(math.sqrt(q * q + 1 + q ** -2))


def test_eval_numeric_rejects_q_zero():
    with pytest.raises(DomainError):
        ring.eval_numeric(ring.one(), 0)


def test_eval_exact():
    a = ring.s_power(3) - 2 * ring.s_power(-1)
    assert ring.eval_exact(a, Fraction(3, 2)) == Fraction(27, 8) - Fraction(4, 3)
    with pytest.raises(DomainError):
        ring.eval_exact(ring.radical(), Fraction(2))
    with pytest.raises(DomainError):
        ring.eval_exact(a, Fraction(0))


def test_laurent_polynomial_views():
    a = ring.RingElem.from_parts({2: 5, -1: -3}, {0: 7})
    assert a.rational_part.terms == {2: 5, -1: -3}
    assert a.radical_part.terms == {0: 7}
    assert a.rational_part.min_exp() == -1
    assert a.rational_part.max_exp() == 2
    with pytest.raises(DomainError):
        ring.zero().rational_part.min_exp()


def test_int_coercion():
    a = ring.s_power(2)
    assert a + 1 == a + ring.one()
    assert 1 + a == a + ring.one()
    assert a - 1 == a - ring.one()
    assert 2 * a == a + a
    assert bool(a) and not bool(ring.zero())
