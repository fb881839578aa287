"""Coefficient ring: exact Laurent arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vertexlink import packed, ring
from vertexlink.errors import DomainError, InexactDivision

coeffs = st.integers(min_value=-40, max_value=40)
exps = st.integers(min_value=-8, max_value=8)


@st.composite
def ring_elems(draw):
    return ring.RingElem.from_terms(draw(st.dictionaries(exps, coeffs, max_size=5)))


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


@given(ring_elems(), ring_elems())
def test_exact_divide_round_trip(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            ring.exact_divide(a, b)
        return
    assert ring.exact_divide(a * b, b) == a


@given(ring_elems(), ring_elems())
@example(ring.s_power(-4) + 1 + ring.s_power(4), ring.one() - ring.s_power(4))
def test_weight_is_submultiplicative(a, b):
    # the packing width lemma
    assert packed.weight(a * b) <= packed.weight(a) * packed.weight(b)
    assert all(abs(c) <= packed.weight(a) for c in a.rat[1])


def test_inexact_division_raises():
    with pytest.raises(InexactDivision):
        ring.exact_divide(ring.s_power(1) + 1, ring.integer(2))
    with pytest.raises(InexactDivision):
        ring.exact_divide(ring.s_power(2) + 1, ring.s_power(1) + 1)


def test_units():
    for k in (-5, 0, 3):
        for sign in (1, -1):
            u = ring.s_power(k, sign)
            assert u.is_unit()
            assert u.as_unit() == (sign, k)
            assert u * ring.invert_unit(u) == ring.one()
    assert not (ring.s_power(1) + 1).is_unit()
    assert not ring.integer(2).is_unit()
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


def test_render_refuses_unrepresentable_variable():
    even = ring.q_power(2) + ring.q_power(-1)
    assert "q" in ring.render(even, "q")
    with pytest.raises(DomainError, match="cannot render in t"):
        ring.render(even, "t")
    odd = ring.s_power(1) + ring.one()
    with pytest.raises(DomainError, match="cannot render in q"):
        ring.render(odd, "q")


def test_render_radical_and_zero():
    assert ring.render(ring.zero()) == "0"
    assert ring.parse("0") == ring.zero()
    # the ring has no radical, so the old "(...)*rad" form does not parse
    with pytest.raises(DomainError, match="unknown symbol"):
        ring.parse("1 + (s^2)*rad")


def test_parse_rejects_garbage():
    # "rad", the radical, is no symbol of the ring; "²" is no ASCII digit
    for bad in ("s^", "1 +", "(s", "x + 1", "s^^2", "s²", "s^²", "rad"):
        with pytest.raises(DomainError):
            ring.parse(bad)


def test_parse_refuses_deep_nesting_with_a_typed_error():
    # each parenthesis recurses; deep input would raise a bare RecursionError
    assert ring.parse("(" * 100 + "s" + ")" * 100) == ring.s_power(1)
    for depth in (101, 2000):
        with pytest.raises(DomainError, match="nest deeper than 100"):
            ring.parse("(" * depth + "s" + ")" * depth)


def test_eval_exact():
    a = ring.s_power(3) - 2 * ring.s_power(-1)
    assert ring.eval_exact(a, Fraction(3, 2)) == Fraction(27, 8) - Fraction(4, 3)
    with pytest.raises(DomainError):
        ring.eval_exact(a, Fraction(0))


def test_laurent_polynomial_views():
    a = ring.RingElem.from_terms({2: 5, -1: -3, 0: 0})
    assert a.terms == {2: 5, -1: -3}
    assert ring.zero().terms == {}


def test_int_coercion():
    a = ring.s_power(2)
    assert a + 1 == a + ring.one()
    assert 1 + a == a + ring.one()
    assert a - 1 == a - ring.one()
    assert 2 * a == a + a
    assert bool(a) and not bool(ring.zero())
