"""Closure invariants: fixtures, oracle cross-checks, skein and invariance."""

import dataclasses
import random
from fractions import Fraction

import pytest

from oracle.kauffman_bracket import jones_via_bracket
from vertexlink import ring
from vertexlink.axioms import check_axioms
from vertexlink.braid import BraidWord, random_word
from vertexlink.errors import ClosedFormMismatch, DomainError
from vertexlink.invariants import (
    ambient_invariant,
    compute_constants,
    derived_skein_coefficients,
    global_sign_ratio,
    invariance_suite,
    markov_phi,
    minpoly_check,
    mirror_model_check,
    regular_invariant,
    skein_coefficients,
    skein_contexts,
    skein_residual,
)
from vertexlink.models import build_model
from vertexlink.tensor import SqMatrix

UNKNOT = BraidWord(1, ())
HOPF = BraidWord(2, (1, 1))
TREFOIL = BraidWord(2, (1, 1, 1))
LEFT_TREFOIL = BraidWord(2, (-1, -1, -1))
FIG8 = BraidWord(3, (1, -2, 1, -2))
SOLOMON = BraidWord(2, (1, 1, 1, 1))
CINQUEFOIL = BraidWord(2, (1, 1, 1, 1, 1))


def test_unknot_normalized_to_one(each_signed_model):
    assert ambient_invariant(UNKNOT, each_signed_model) == ring.one()


def test_regular_fixture_trefoil(m2):
    want = ring.parse("-s^9 + s + s^-3 + s^-7")
    assert regular_invariant(TREFOIL, m2) == want


def test_ambient_fixtures():
    cases = [
        (2, TREFOIL, "-t^4 + t^3 + t"),
        (2, HOPF, "q^5 + q"),
        (2, FIG8, "t^2 - t + 1 - t^-1 + t^-2"),
        (3, TREFOIL, "q^22 - q^20 - q^18 + q^16 - q^14 + q^10 + q^4"),
        (4, TREFOIL,
         "-t^21 + t^20 + t^19 - t^17 + t^15 - t^14 - t^13 + t^11 - t^10 + t^7 + t^3"),
    ]
    for N, word, text in cases:
        assert ambient_invariant(word, build_model(N)) == ring.parse(text), (N, word)


def test_mirror_word_inverts_variable(m2):
    # alpha of the mirror image is alpha at s -> 1/s
    left = ambient_invariant(LEFT_TREFOIL, m2)
    right = ambient_invariant(TREFOIL, m2)
    flipped = ring.RingElem.from_parts(
        {-e: c for e, c in right.rational_part.terms.items()})
    assert left == flipped


def test_markov_phi_pair(m2):
    num, den = markov_phi(TREFOIL, m2)
    assert num == regular_invariant(TREFOIL, m2)
    assert den == m2.k ** 2


def test_ambient_divides_exactly(each_model):
    # the D division inside the ambient normalization must be exact for
    # arbitrary words, not only for the fixtures
    rng = random.Random(1)
    for _ in range(8):
        n = rng.randint(2, 3)
        alphabet = [k for k in range(-(n - 1), n) if k != 0]
        w = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 5))))
        ambient_invariant(w, each_model)  # raises InexactDivision on failure


# ------------------------------------------------------------------ oracle


ORACLE_LINKS = [UNKNOT, HOPF, TREFOIL, LEFT_TREFOIL, FIG8, SOLOMON, CINQUEFOIL]
ORACLE_SAMPLES = [Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(-2), Fraction(5, 3)]


def test_jones_matches_independent_state_sum(m2):
    """The braid-closure engine and the diagrammatic state sum agree.

    Dictionary: alpha = (-1)^(n+e) V_L / (q + q^-1) with V_L the bracket
    polynomial times (-s^3)^e, evaluated at rational s.
    """
    for word in ORACLE_LINKS:
        alpha = ambient_invariant(word, m2)
        n, e = word.strands, word.writhe
        sgn = -1 if (n + e) % 2 else 1
        for s in ORACLE_SAMPLES:
            v = jones_via_bracket(word.strands, list(word.letters), s)
            q = s * s
            assert ring.eval_exact(alpha, s) == sgn * v / (q + 1 / q), (word, s)


def test_jones_matches_state_sum_at_strand_cap(m2):
    """The same dictionary on 6 and 7 strands, where the packed trace runs on
    the charges w >= 0 with and without a sector w = 0.

    Each state sum enumerates 2^letters smoothings, so the words stop at
    13 letters (16 take about 5 s per sample).
    """
    rng = random.Random(11)
    for n, length in ((6, 9), (6, 12), (7, 8), (7, 13)):
        word = random_word(rng, n, length)
        alpha = ambient_invariant(word, m2)
        sgn = -1 if (n + word.writhe) % 2 else 1
        for s in (Fraction(3, 2), Fraction(2)):
            v = jones_via_bracket(n, list(word.letters), s)
            q = s * s
            assert ring.eval_exact(alpha, s) == sgn * v / (q + 1 / q), (word, s)


# --------------------------------------------------------------- constants


def test_compute_constants(each_signed_model):
    m = each_signed_model
    c = compute_constants(m)
    assert c.tau == (m.Z, m.D)
    assert c.taubar == (m.Z * ring.q_power(m.N * m.N - 1), m.D)
    assert c.curl_ratio == ring.q_power(m.N * m.N - 1)
    assert c.k == m.k


def test_compute_constants_rejects_mutation(m2):
    bad = dataclasses.replace(m2, mu=SqMatrix(2, {(0, 0): ring.one(),
                                                  (1, 1): ring.one()}))
    with pytest.raises(ClosedFormMismatch):
        compute_constants(bad)


def test_minpoly(each_signed_model):
    assert minpoly_check(each_signed_model)


def test_minpoly_rejects_wrong_list(m3):
    wrong = (m3.eigenvalues[0],) * 3
    assert not minpoly_check(m3, eigenvalues=wrong)
    padded = tuple(m3.eigenvalues) + (m3.eigenvalues[0],)
    assert not minpoly_check(m3, eigenvalues=padded)  # annihilates but not minimal


# ------------------------------------------------------------------- skein


def test_skein_tables_agree(each_signed_model):
    m = each_signed_model
    assert skein_coefficients(m) == derived_skein_coefficients(m)


def test_skein_residual_zero(each_model):
    m = each_model
    rng = random.Random(7 + m.N)
    for _ in range(12):
        n = rng.randint(2, 4)
        alphabet = [k for k in range(-(n - 1), n) if k != 0]
        ctx = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6))))
        i = rng.randint(1, n - 1)
        assert skein_residual(m, ctx, i).is_zero(), (m.N, ctx, i)


def test_skein_residual_detects_wrong_table(m2):
    # drop the leading coefficient: the relation must fail on some context
    orig = skein_coefficients(m2)
    bad = [(orig[0][0], orig[0][1] + ring.one())] + orig[1:]
    ctx = HOPF
    lhs = ambient_invariant(ctx.powers_of(1, 1), m2)
    acc = ring.zero()
    for power, coeff in bad:
        word = ctx.powers_of(1, power) if power else ctx
        acc = acc + coeff * ambient_invariant(word, m2)
    assert lhs != acc


# -------------------------------------------------------------- invariance


BASES = [TREFOIL, FIG8, HOPF]


def test_invariance_under_markov_moves(each_model):
    m = each_model
    for base in BASES:
        rep = invariance_suite(base, m, trials=12, seed=21)
        assert rep.ok, rep.failures
        assert rep.moves_applied > 0
        assert rep.stab_checks > 0


def test_invariance_suite_reports_each_failure(m2):
    # a wrong k breaks every stabilization identity and nothing else
    bad = dataclasses.replace(m2, k=m2.k * ring.q_power(2))
    rep = invariance_suite(TREFOIL, bad, trials=12, seed=21)
    assert not rep.ok
    assert rep.stab_checks > 0 and len(rep.failures) == rep.stab_checks
    assert all("stabilization identity failed" in f for f in rep.failures)


def test_invariance_suite_refuses_negative_trials(m2):
    with pytest.raises(DomainError, match="non-negative"):
        invariance_suite(BraidWord(2, (1,)), m2, trials=-3)


def test_stabilization_identities_direct(each_model):
    # D <L(w b_n)> = Z k <L(w)> and D <L(w b_n^-1)> = Z q^(N^2-1) k <L(w)>
    m = each_model
    for w in (TREFOIL, FIG8):
        up = regular_invariant(w.stabilize(1), m)
        dn = regular_invariant(w.stabilize(-1), m)
        base = regular_invariant(w, m)
        assert m.D * up == m.Z * m.k * base
        assert m.D * dn == m.Z * ring.q_power(m.N * m.N - 1) * m.k * base


def test_conjugation_exact(each_model):
    m = each_model
    w = FIG8
    for g in (1, -2, 2):
        assert regular_invariant(w.conjugate(g), m) == regular_invariant(w, m)


def test_ambient_display_identities():
    # alpha * k = (-1)^(n+1) s^(3e) <L> for two states,
    # alpha * k = s^(8e) <L> for three states
    m2, m3 = build_model(2), build_model(3)
    for w in (TREFOIL, FIG8, HOPF, CINQUEFOIL):
        e, n = w.writhe, w.strands
        a2 = ambient_invariant(w, m2)
        assert a2 * m2.k == ring.integer((-1) ** (n + 1)) * ring.s_power(3 * e) \
            * regular_invariant(w, m2)
        a3 = ambient_invariant(w, m3)
        assert a3 * m3.k == ring.s_power(8 * e) * regular_invariant(w, m3)


def test_ambient_closed_form_squared(each_model):
    # alpha^2 (tau taubar)^(n-1) = (taubar/tau)^e phi^2, cleared of
    # denominators so everything stays polynomial
    m = each_model
    h = m.N * m.N - 1
    for w in (TREFOIL, FIG8):
        n, e = w.strands, w.writhe
        alpha = ambient_invariant(w, m)
        val = regular_invariant(w, m)
        lhs = alpha * alpha * (m.Z * m.Z * ring.q_power(h)) ** (n - 1) * m.k ** (2 * n)
        rhs = ring.q_power(h * e) * m.D ** (2 * (n - 1)) * val * val
        assert lhs == rhs


def test_mirror_model_closes_identically(each_model):
    for w in (TREFOIL, FIG8):
        assert mirror_model_check(w, each_model)


def test_global_sign_ratio():
    for N in (2, 3, 4):
        assert global_sign_ratio(HOPF, N) == ring.one()
        assert global_sign_ratio(TREFOIL, N) == -ring.one()
        assert global_sign_ratio(UNKNOT, N) == ring.one()


# ------------------------------------------------------- radical (4 states)


def test_radical_cancellation_n4(m4):
    rng = random.Random(13)
    for _ in range(10):
        n = rng.randint(2, 4)
        alphabet = [k for k in range(-(n - 1), n) if k != 0]
        w = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 8))))
        reg = regular_invariant(w, m4)
        amb = ambient_invariant(w, m4)
        assert reg.radical_part.is_zero()
        assert amb.radical_part.is_zero()


# ------------------------------------------------------------ gauge freedom


def test_crossing_matrix_rescale_gauge(each_model):
    # M_d -> c M_d, M_u -> c^-1 M_u leaves mu and every closure unchanged
    m = each_model
    for c in (ring.one(), -ring.one(), ring.q_power(1)):
        c_inv = ring.exact_divide(ring.one(), c)
        g = dataclasses.replace(m, M_u=m.M_u * c_inv, M_d=m.M_d * c)
        assert g.M_u @ g.M_d.transpose() == m.mu
        assert check_axioms(g).passed
        assert regular_invariant(TREFOIL, g) == regular_invariant(TREFOIL, m)


def test_skein_contexts_draw_order():
    # strands, length, letters, then the generator: seeded runs replay
    rng = random.Random(7)
    want = []
    for _ in range(30):
        n = rng.randint(2, 4)
        length = rng.randint(0, 6)
        alphabet = [k for k in range(-(n - 1), n) if k != 0]
        letters = tuple(rng.choice(alphabet) for _ in range(length))
        want.append((BraidWord(n, letters), rng.randint(1, n - 1)))
    assert list(skein_contexts(random.Random(7), 30)) == want
