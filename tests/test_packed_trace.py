"""The Kronecker-packed closure trace equals the exact SqMatrix reference.

``invariants.regular_invariant`` runs the braid chain on ints at q = 2^B;
the reference runs it on ``SqMatrix`` through the kernel's ``spgemm``.
"""

import random

import pytest

from vertexlink import braid, invariants, packed, ring, tensor
from vertexlink.braid import BraidWord
from vertexlink.errors import DomainError
from vertexlink.models import build_model, mirror_model
from vertexlink.tensor import SqMatrix

SIGNED = [(2, 1), (2, -1), (3, 1), (3, -1), (4, 1), (4, -1)]


def reference(word, m):
    """tr(rep(word) mu^(x)n) on SqMatrix, through the kernel's spgemm."""
    mu = m.mu
    for _ in range(word.strands - 1):
        mu = mu.kron(m.mu)
    return tensor.trace_product(braid.represent(word, m), mu)


def small_words(seed):
    """The empty and one-strand words, then random words on 1-4 strands with 0-8 letters."""
    rng = random.Random(seed)
    words = [BraidWord(1, ()), BraidWord(3, ())]
    for _ in range(6):
        n = rng.randint(1, 4)
        words.append(braid.random_word(rng, n, rng.randint(0, 8) if n > 1 else 0))
    return words


def cap_word(N):
    """A short word on the model's strand cap touching its first and last generator."""
    n = invariants.STRAND_CAP[N]
    return BraidWord(n, (1, -(n - 1), 2, 1))


def max_coeff_bits(value):
    return max(abs(c).bit_length() for part in (value.rat, value.rad) for c in part[1])


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_packed_trace_matches_reference(N, sign, mirrored):
    m = build_model(N, sign)
    if mirrored:
        m = mirror_model(m)
    for w in small_words(10 * N + sign):
        assert invariants.regular_invariant(w, m) == reference(w, m), w


@pytest.mark.parametrize("N", [2, 3, 4])
def test_packed_trace_at_strand_cap(N):
    m = build_model(N)
    w = cap_word(N)
    assert invariants.regular_invariant(w, m) == reference(w, m)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_bound_dominates_coefficients(N):
    m = build_model(N)
    for w in small_words(N) + [cap_word(N)]:
        value = reference(w, m)
        if value:
            assert packed.closure_bits(m, w) - 1 > max_coeff_bits(value), w


@pytest.mark.parametrize("N", [2, 3, 4])
def test_too_narrow_width_reads_back_wrong(N):
    m = build_model(N)
    w = BraidWord(4, (1, 1, 3, 3))
    want = reference(w, m)
    width = max_coeff_bits(want)
    assert width >= 2
    # balanced digits at this width stop short of the widest coefficient
    assert m.Z ** w.writhe * invariants._closure_trace(w, m, width) != want
    assert m.Z ** w.writhe * invariants._closure_trace(w, m, width + 1) == want


def test_packed_product_entries_with_radicals(m4):
    """N = 4 closure traces come out radical-free, so read single entries of a product back."""
    A = m4.R * ring.invert_unit(m4.Z)
    want = A @ A
    bits = packed.closure_bits(m4, BraidWord(2, (1, 1)))  # also bounds each entry of A A
    got = packed.pack_matrix(A, bits, True) @ packed.pack_matrix(A, bits, True)
    assert set(got.entries) == set(want.entries)
    for (r, c), v in want.entries.items():
        probe = packed.pack_matrix(SqMatrix(A.dim, {(c, r): ring.one()}), bits, True)
        assert tensor.trace_product(got, probe) == v
    assert any(v.rad[1] for v in want.entries.values())


def test_one_bit_width_is_refused(m2):
    with pytest.raises(DomainError):
        invariants._closure_trace(BraidWord(2, (1,)), m2, 1)


def test_packed_matrices_stay_packed_through_represent(m4):
    img = packed.image(m4, 40)
    rep = braid.represent(BraidWord(3, (1, -2)), img)
    assert isinstance(rep, packed.PackedMatrix) and rep.bits == 40
    assert isinstance(braid.represent(BraidWord(2, ()), img), packed.PackedMatrix)


def test_closure_trace_builds_each_letter_once(m3, monkeypatch):
    built = []
    letter_matrix = braid.letter_matrix

    def counting(model, n, letter):
        built.append(letter)
        return letter_matrix(model, n, letter)

    monkeypatch.setattr(braid, "letter_matrix", counting)
    w = BraidWord(4, (1, -2, 3, 1, -2, 3))  # every letter sits in both halves
    want = reference(w, m3)
    built.clear()
    assert m3.Z ** w.writhe * invariants._closure_trace(w, m3, packed.closure_bits(m3, w)) == want
    assert sorted(built) == [-2, 1, 3]
