"""The ambient invariant of torus knots equals the Rosso-Jones closed form.

``tests/oracle/torus_knots.py`` computes [N] alpha_N(T(p, r)) with its own
Laurent arithmetic.  Here it is compared, cross-multiplied by [N], with
``ambient_invariant`` on every model and mirror: on torus words up to each
model's strand cap, on their mirror words and on words scrambled by the
oracle's Markov moves.  One flipped letter must break the match.
"""

import random

import pytest

from oracle import torus_knots as tk
from vertexlink.braid import BraidWord
from vertexlink.invariants import STRAND_CAP, ambient_invariant
from vertexlink.models import build_model, mirror_model

MODELS = [(N, sign, mirrored) for N in (2, 3, 4) for sign in (1, -1) for mirrored in (False, True)]
IDS = [f"N{N}{'+' if s > 0 else '-'}{'m' if mir else ''}" for N, s, mir in MODELS]

# (p, r) with gcd(p, r) = 1 and p up to each model's strand cap
KNOTS = {
    2: [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (6, 5), (7, 2)],
    3: [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 3), (6, 5)],
    4: [(2, 3), (2, 5), (3, 4), (3, 5), (4, 3), (5, 3)],
}


def signed_model(N, sign, mirrored):
    m = build_model(N, sign)
    return mirror_model(m) if mirrored else m


def alpha(word, m):
    """ambient_invariant of the oracle's (strands, letters), as {exponent of s: coefficient}."""
    return ambient_invariant(BraidWord(*word), m).terms


def test_the_closed_form_is_one_on_the_unknot_and_symmetric_in_p_and_r():
    """T(p, 1) is the unknot, and T(p, r) = T(r, p): checks of the oracle alone."""
    for N in (2, 3, 4, 5):
        for p in (2, 3, 7):
            assert tk.numerator(N, p, 1) == tk.qint(N)
        for p, r in [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]:
            assert tk.numerator(N, p, r) == tk.numerator(N, r, p)
            assert tk.numerator(N, p, r, mirrored=True) != tk.numerator(N, p, r)


@pytest.mark.parametrize("N,sign,mirrored", MODELS, ids=IDS)
def test_torus_words_and_their_mirrors_match_the_closed_form(N, sign, mirrored):
    m = signed_model(N, sign, mirrored)
    assert max(p for p, _ in KNOTS[N]) == STRAND_CAP[N]
    for p, r in KNOTS[N]:
        word = tk.torus_word(p, r)
        assert tk.holds(N, p, r, alpha(word, m)), (p, r)
        assert tk.holds(N, p, r, alpha(tk.mirror_word(word), m), mirrored=True), (p, r)


@pytest.mark.parametrize("N,sign,mirrored", MODELS, ids=IDS)
def test_markov_scrambled_torus_words_keep_the_closed_form(N, sign, mirrored):
    """Words below the cap, scrambled by conjugations, rotations, inserted inverse
    pairs and stabilizations up to the cap."""
    m = signed_model(N, sign, mirrored)
    rng = random.Random(N)
    cap = STRAND_CAP[N]
    stabilized = 0
    for p, r in KNOTS[N]:
        if p == cap:
            continue
        for mirror in (False, True):
            word = tk.torus_word(p, r)
            word = tk.mirror_word(word) if mirror else word
            scrambled = tk.scramble(word, rng, 4, cap)
            assert scrambled != word
            stabilized += scrambled[0] > p
            assert tk.holds(N, p, r, alpha(scrambled, m), mirrored=mirror), scrambled
    assert stabilized


@pytest.mark.parametrize("N", [2, 3, 4])
def test_one_flipped_letter_breaks_the_closed_form(N):
    m = build_model(N)
    for p, r in KNOTS[N]:
        strands, letters = tk.torus_word(p, r)
        flipped = (strands, (-letters[0],) + letters[1:])
        assert not tk.holds(N, p, r, alpha(flipped, m)), (p, r)
