"""Temperley-Lieb generators, bracket decomposition, Dubrovnik form."""

import dataclasses

import pytest

from vertexlink import ring
from vertexlink.braid import embed_two_site, letter_matrix
from vertexlink.errors import DomainError, NotDecomposable, NotScalar
from vertexlink.models import build_model
from vertexlink.tlbracket import (
    bracket_decompose_n2,
    build_tl,
    curl_factors,
    dubrovnik_check_n3,
    tl_relations_check,
)
from vertexlink.tensor import SqMatrix

Q = ring.q_power
S = ring.s_power


def test_build_tl_display_n2(m2):
    tl = build_tl(m2)
    # central block rows/cols 1, 2: [[-q, 1], [1, -1/q]]
    assert tl.e.entries[(1, 1)] == Q(1, -1)
    assert tl.e.entries[(1, 2)] == ring.one()
    assert tl.e.entries[(2, 1)] == ring.one()
    assert tl.e.entries[(2, 2)] == Q(-1, -1)
    assert (0, 0) not in tl.e.entries
    assert tl.k == m2.k


def test_build_tl_display_n3(m3):
    tl = build_tl(m3)
    idx = [2, 4, 6]
    block = [
        [Q(2), Q(1, -1), ring.one()],
        [Q(1, -1), ring.one(), Q(-1, -1)],
        [ring.one(), Q(-1, -1), Q(-2)],
    ]
    for bi, r in enumerate(idx):
        for bj, c in enumerate(idx):
            assert tl.e.entries[(r, c)] == block[bi][bj]
    assert set(tl.e.entries) == {(r, c) for r in idx for c in idx}


def test_tl_generator_identities(each_signed_model):
    m = each_signed_model
    tl = build_tl(m)
    assert tl.e @ tl.e == m.k * tl.e
    assert tl.e.trace() == m.k
    assert tl.f @ tl.f == m.k * tl.f
    P = SqMatrix.permutation(m.N)
    assert tl.f == P @ tl.e @ P


def test_bracket_identity_on_braid_generators(m2):
    # b_i = A 1 + B E_i and b_i^-1 = B 1 + A E_i, E_i = e on strands i, i+1
    A, B = bracket_decompose_n2(m2)
    e = build_tl(m2).e
    for n in range(2, 5):
        ident = SqMatrix.identity(2 ** n)
        for i in range(1, n):
            E = embed_two_site(e, 2, n, i)
            assert letter_matrix(m2, n, i) == A * ident + B * E
            assert letter_matrix(m2, n, -i) == B * ident + A * E


def test_tl_relations_up_to_four_strands(each_model):
    rep = tl_relations_check(each_model, max_strands=4)
    assert rep.passed
    assert any(name.startswith("e:hook:n4") for name in rep.results)
    assert any(name.startswith("f:far:n4") for name in rep.results)


@pytest.mark.parametrize("bound", [1, 0, -1, 8])  # 8 is above the N = 2 strand cap
def test_tl_relations_refuse_short_bound(m2, bound):
    with pytest.raises(DomainError, match="max_strands"):
        tl_relations_check(m2, max_strands=bound)



def test_bracket_decomposition(m2):
    A, B = bracket_decompose_n2(m2)
    assert (A, B) == (S(-1), S(1))
    minus = build_model(2, -1)
    assert bracket_decompose_n2(minus) == (S(-1, -1), S(1, -1))


def test_bracket_refuses_what_it_cannot_read(m2):
    # A is read at (0, 0) and B at (1, 2): a missing entry, or one that
    # fails the verification, is refused
    missing = {key: v for key, v in m2.R.entries.items() if key != (0, 0)}
    bumped = {**m2.R.entries, (0, 0): m2.R.entries[(0, 0)] * Q(1)}
    for entries in (missing, bumped):
        with pytest.raises(NotDecomposable):
            bracket_decompose_n2(dataclasses.replace(m2, R=SqMatrix(4, entries)))


def test_bracket_not_decomposable_n3(m3, m4):
    for m in (m3, m4):
        with pytest.raises(NotDecomposable):
            bracket_decompose_n2(m)


def test_dubrovnik(m3):
    assert dubrovnik_check_n3(m3)
    assert dubrovnik_check_n3(build_model(3, -1))


def test_dubrovnik_rejects_other_models(m2, m4):
    assert not dubrovnik_check_n3(m2)
    assert not dubrovnik_check_n3(m4)


def test_curl_factors(each_signed_model):
    m = each_signed_model
    fixtures = {
        2: (S(-3, -1), S(3, -1)),
        3: (S(-8), S(8)),
        4: (S(-15, -1), S(15, -1)),
    }
    pos, neg = curl_factors(m)
    want_pos, want_neg = fixtures[m.N]
    if m.sign < 0:
        want_pos, want_neg = -want_pos, -want_neg
    assert (pos, neg) == (want_pos, want_neg)
    # closed forms tau k and taubar k
    assert pos * m.D == m.Z * m.k
    assert neg * m.D == m.Z * Q(m.N * m.N - 1) * m.k


def test_curl_factors_not_scalar(m2):
    bad = dataclasses.replace(m2, mu=SqMatrix.identity(2))
    with pytest.raises(NotScalar):
        curl_factors(bad)

