"""Braid words, Markov moves and the tensor representation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexlink.braid import (
    BraidWord,
    embed_two_site,
    letter_matrix,
    parse_braid,
    random_word,
    represent,
    site_runs,
)
from vertexlink.errors import BadLetter, DimensionMismatch
from vertexlink.tensor import SqMatrix


@st.composite
def braid_words(draw, max_strands=4, max_len=8):
    n = draw(st.integers(2, max_strands))
    alphabet = [k for k in range(-(n - 1), n) if k != 0]
    letters = draw(st.lists(st.sampled_from(alphabet), max_size=max_len))
    return BraidWord(n, tuple(letters))


def test_word_validation():
    with pytest.raises(BadLetter):
        BraidWord(0, ())
    with pytest.raises(BadLetter):
        BraidWord(2, (0,))
    with pytest.raises(BadLetter):
        BraidWord(2, (2,))
    with pytest.raises(BadLetter):
        BraidWord(3, (1, -3))
    BraidWord(1, ())  # one free strand is fine


def test_random_word_on_one_strand_has_no_letters_to_draw():
    with pytest.raises(BadLetter, match="no generator"):
        random_word(random.Random(0), 1, 1)
    with pytest.raises(BadLetter, match="no generator"):
        random_word(random.Random(0), 1, 5)
    assert random_word(random.Random(0), 1, 0) == BraidWord(1, ())


def test_random_word_refuses_a_negative_length():
    for strands in (1, 3):
        with pytest.raises(BadLetter, match="-1 letters"):
            random_word(random.Random(0), strands, -1)


def test_word_is_slotted_frozen_and_hashable():
    """A word keeps no per-instance dict; it stays immutable and usable as a cache key."""
    w = BraidWord(3, (1, -2))
    assert not hasattr(w, "__dict__")
    with pytest.raises(AttributeError):
        w.strands = 4
    assert {w: 1}[BraidWord(3, (1, -2))] == 1


def test_parse_braid():
    w = parse_braid("1, -2 1\t-2")
    assert w.strands == 3 and w.letters == (1, -2, 1, -2)
    assert parse_braid("").strands == 1
    assert parse_braid("1 1", strands=4).strands == 4
    with pytest.raises(BadLetter):
        parse_braid("1 x 2")
    with pytest.raises(BadLetter):
        parse_braid("1 2", strands=2)


@given(braid_words())
def test_writhe_and_moves(w):
    assert w.writhe == sum(1 if g > 0 else -1 for g in w.letters)
    if w.strands > 1:
        c = w.conjugate(1)
        assert c.writhe == w.writhe
        assert c.strands == w.strands
    s = w.stabilize(1)
    assert s.strands == w.strands + 1
    assert s.writhe == w.writhe + 1
    assert w.stabilize(-1).writhe == w.writhe - 1
    r = w.free_reduce()
    assert r.writhe == w.writhe  # cancellation removes +-pairs only
    assert r.free_reduce() == r


def test_free_reduce_cancels_nested():
    w = BraidWord(3, (1, 2, -2, -1, 2))
    assert w.free_reduce().letters == (2,)


def test_word_product_and_powers():
    a, b = BraidWord(3, (1,)), BraidWord(3, (2, 2))
    assert (a * b).letters == (1, 2, 2)
    with pytest.raises(DimensionMismatch):
        a * BraidWord(2, (1,))
    assert a.powers_of(2, -3).letters == (1, -2, -2, -2)
    with pytest.raises(BadLetter):
        a.powers_of(3, 1)


def test_pieces_cut_at_every_missing_generator():
    assert BraidWord(4, (1, 1, -3, 1, 3)).pieces() == (
        BraidWord(2, (1, 1, 1)), BraidWord(2, (-1, 1)))
    assert BraidWord(4, (2, -3, 2)).pieces() == (BraidWord(1), BraidWord(3, (1, -2, 1)))
    assert BraidWord(4, (1, -2, 1)).pieces() == (BraidWord(3, (1, -2, 1)), BraidWord(1))
    assert BraidWord(5, (2, -4, 2)).pieces() == (
        BraidWord(1), BraidWord(2, (1, 1)), BraidWord(2, (-1,)))
    assert BraidWord(3).pieces() == (BraidWord(1),) * 3
    w = BraidWord(3, (1, 2, -1))
    assert w.pieces() == (w,)
    assert BraidWord(1).pieces() == (BraidWord(1),)


@given(braid_words(max_strands=5))
@settings(max_examples=60, deadline=None)
def test_pieces_use_every_generator_and_keep_each_letter(w):
    pieces = w.pieces()
    assert sum(p.strands for p in pieces) == w.strands
    assert sum(p.writhe for p in pieces) == w.writhe
    lo, letters = 0, []
    for p in pieces:
        assert {abs(x) for x in p.letters} == set(range(1, p.strands))
        letters += [x + lo if x > 0 else x - lo for x in p.letters]
        lo += p.strands
    assert sorted(letters) == sorted(w.letters)


def test_represent_of_a_split_word_is_the_kron_of_its_pieces(each_model):
    for w in (BraidWord(4, (1, -3, 1, 3)), BraidWord(4, (2, -3)), BraidWord(3, (-1,))):
        a, *rest = w.pieces()
        want = represent(a, each_model)
        for p in rest:
            want = want.kron(represent(p, each_model))
        assert represent(w, each_model) == want, w


def test_letter_matrix_matches_kron(each_model):
    m = each_model
    N = m.N
    ident = SqMatrix.identity(N)
    # explicit 1 (x) R and R (x) 1 on three strands
    assert letter_matrix(m, 3, 2) == ident.kron(m.R)
    assert letter_matrix(m, 3, 1) == m.R.kron(ident)
    assert letter_matrix(m, 3, -2) == ident.kron(m.R_inv)
    with pytest.raises(BadLetter):
        letter_matrix(m, 2, 2)


def test_letter_zero_is_a_bad_letter(m2):
    with pytest.raises(BadLetter):
        letter_matrix(m2, 3, 0)


@pytest.mark.parametrize("i", [0, 3, -1], ids=["i=0", "i=n", "i=-1"])
def test_embed_two_site_rejects_sites_outside_the_word(m2, i):
    with pytest.raises(BadLetter):
        embed_two_site(m2.R, 2, 3, i)


def test_represent_is_homomorphism(each_model):
    m = each_model
    rng = random.Random(3)
    n = 3
    alphabet = [k for k in range(-(n - 1), n) if k != 0]
    for _ in range(5):
        u = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(3)))
        v = BraidWord(n, tuple(rng.choice(alphabet) for _ in range(3)))
        assert represent(u * v, m) == represent(u, m) @ represent(v, m)
    assert represent(BraidWord(n, ()), m) == SqMatrix.identity(m.N ** n)


def test_represent_inverse_letters(each_model):
    m = each_model
    w = BraidWord(3, (1, -1, 2, -2))
    assert represent(w, m) == SqMatrix.identity(m.N ** 3)


def test_braid_relation_in_representation(each_model):
    m = each_model
    lhs = represent(BraidWord(3, (1, 2, 1)), m)
    rhs = represent(BraidWord(3, (2, 1, 2)), m)
    assert lhs == rhs


@pytest.mark.parametrize("letters,runs", [
    ((), []),
    ((1, 1, 1, 1), [(1, [1, 1, 1, 1])]),
    ((2, 4, -2, 1), [(2, [2, -2]), (4, [4]), (1, [1])]),
    ((2, 3, 2), [(2, [2]), (3, [3]), (2, [2])]),
    ((1, 3, -1, 2, 3), [(1, [1, -1]), (3, [3]), (2, [2]), (3, [3])]),
    ((3, 1, -3, 5, 1, 3), [(3, [3, -3, 3]), (1, [1, 1]), (5, [5])]),
])
def test_site_runs(letters, runs):
    assert site_runs(letters) == runs


@given(braid_words(max_strands=6, max_len=12))
@settings(max_examples=100, deadline=None)
def test_site_runs_move_a_letter_only_past_far_letters(w):
    """The runs hold every letter once, and two letters one or no generator apart keep
    their order: the product of the runs is the word's."""
    runs = site_runs(w.letters)
    queues = {}  # the positions of each generator's letters, in word order
    for pos, x in enumerate(w.letters):
        queues.setdefault(abs(x), []).append(pos)
    order = []  # the word position of each letter of the runs, in run order
    for i, run in runs:
        for x in run:
            assert abs(x) == i
            order.append(queues[i].pop(0))
            assert w.letters[order[-1]] == x
    assert sorted(order) == list(range(len(w.letters)))
    for a, pa in enumerate(order):
        for pb in order[a + 1:]:
            if abs(abs(w.letters[pa]) - abs(w.letters[pb])) < 2:
                assert pa < pb


def test_far_commutation_in_representation(each_model):
    m = each_model
    lhs = represent(BraidWord(4, (1, 3)), m)
    rhs = represent(BraidWord(4, (3, 1)), m)
    assert lhs == rhs


@given(braid_words(max_strands=3, max_len=6))
@settings(max_examples=20, deadline=None)
def test_free_reduction_preserves_representation(w):
    from vertexlink.models import build_model

    m = build_model(2)
    assert represent(w, m) == represent(w.free_reduce(), m)
