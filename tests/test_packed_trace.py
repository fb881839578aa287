"""The Kronecker-packed closure trace equals the exact SqMatrix reference.

``invariants.regular_invariant`` runs the braid chain on ints at q^2 = 2^B,
its letters in the parity gauge; the reference runs it on ``SqMatrix``
through the kernel's ``spgemm``.
"""

import dataclasses
import io
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle.quadratic_closure import field, laurent_at
from vertexlink import braid, invariants, packed, ring, selftest, tensor
from vertexlink.braid import BraidWord
from vertexlink.errors import DimensionMismatch, DomainError
from vertexlink.models import build_model, gauge_powers, labels, mirror_model, paper_table
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
    return max(abs(c).bit_length() for c in value.rat[1])


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_packed_trace_matches_reference(N, sign, mirrored):
    m = build_model(N, sign)
    if mirrored:
        m = mirror_model(m)
    for w in small_words(10 * N + sign):
        assert invariants.regular_invariant(w, m) == reference(w, m), w


def charge_twice(N, n, r):
    """2 w for the row r on n strands: twice the sum of its labels."""
    level = 0
    for _ in range(n):
        r, p = divmod(r, N)
        level += p
    return 2 * level - n * (N - 1)


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_closure_weight_is_the_diagonal_of_mu_power(N, mirrored):
    """Row r of charge w > 0 weighs mu^(x)n at r plus at the flipped row of charge -w."""
    m = build_model(N)
    if mirrored:
        m = mirror_model(m)
    for n in (1, 2, 3):
        dim = N ** n
        unit, weights = packed.image(m, 8).closure_weight(n)
        mu = m.mu
        for _ in range(n - 1):
            mu = mu.kron(m.mu)
        for r in range(dim):
            w2 = charge_twice(N, n, r)
            assert (r in weights) == (w2 >= 0), r
            if w2 < 0:
                continue
            got = unit * sum((ring.q_power(2 * d) for d in weights[r]), ring.zero())
            flipped = dim - 1 - r  # every label a -> -a: the charge -w
            assert charge_twice(N, n, flipped) == -w2
            want = mu.entries[(r, r)] + (mu.entries[(flipped, flipped)] if w2 else ring.zero())
            assert got == want, r
        half_trace = sum((unit * ring.q_power(2 * d) for ds in weights.values() for d in ds),
                         ring.zero())
        assert reference(BraidWord(n, ()), m) == half_trace == mu.trace()


def sector_traces(word, m):
    """{2 w: tr(rep(word)|S_w)} on the SqMatrix reference, from the diagonal."""
    rep = braid.represent(word, m)
    out = {}
    for r in range(m.N ** word.strands):
        v = rep.entries.get((r, r))
        if v is not None:
            w2 = charge_twice(m.N, word.strands, r)
            out[w2] = out.get(w2, ring.zero()) + v
    return out


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_sector_traces_of_w_and_minus_w_agree(N, sign, mirrored):
    """t_w = t_-w, which lets the packed trace run on the charges w >= 0 only.

    On 1-5 strands the sector w = 0 is there for every n when N = 3 and for
    even n only when N = 2, 4.
    """
    m = build_model(N, sign)
    if mirrored:
        m = mirror_model(m)
    rng = random.Random(100 * N + 10 * sign + mirrored)
    for n in range(1, 6):
        w = braid.random_word(rng, n, rng.randint(1, 6) if n > 1 else 0)
        traces = sector_traces(w, m)
        assert (0 in traces) == (n * (N - 1) % 2 == 0), w
        for w2, v in traces.items():
            assert traces.get(-w2, ring.zero()) == v, (w, w2)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_packed_trace_at_strand_cap(N):
    m = build_model(N)
    w = cap_word(N)
    assert invariants.regular_invariant(w, m) == reference(w, m)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_right_half_in_blocks_of_any_size_gives_the_whole_trace(N, monkeypatch):
    """The right half traced in blocks of rows gives the trace of the whole half, for
    blocks of any size, cut across charge sectors or not: each block trace sums some of
    the same path products, and the sectors' weights are read per row."""
    m = build_model(N)
    n = invariants.STRAND_CAP[N]
    w = BraidWord(n, cap_word(N).letters + braid.random_word(random.Random(N), n, 4).letters)
    bits = packed.closure_bits(m, w)
    sizes = (1, 7, 100, invariants.TRACE_BLOCK)
    monkeypatch.setattr(invariants, "TRACE_BLOCK", N ** n)
    whole = invariants._closure_trace(w, m, bits)
    assert m.Z ** w.writhe * whole == reference(w, m)
    for size in sizes:
        monkeypatch.setattr(invariants, "TRACE_BLOCK", size)
        assert invariants._closure_trace(w, m, bits) == whole, size


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
    """The N = 4 table carries r; read each entry of a packed product of its gauged letters back."""
    assert any(isinstance(v, tuple) for v in paper_table(4).values())
    A = packed._letters(m4).R_hat
    want = A @ A
    bits = packed.closure_bits(m4, BraidWord(2, (1, 1)))  # also bounds each entry of A A
    got = packed.pack_matrix(A, bits) @ packed.pack_matrix(A, bits)
    assert {(r, c) for r, row in got.rows.items() for c in row} == set(want.entries)
    for (r, c), v in want.entries.items():
        probe = packed.pack_matrix(SqMatrix(A.dim, {(c, r): ring.one()}), bits)
        assert tensor.trace_product(got, probe) == v


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_gauge_clears_the_radical_and_fixes_the_closure(N, sign, mirrored):
    """R / Z is the paper's table conjugated by D (x) D, checked in Q(sqrt([3]_q)) at s = 2.

    D = diag(r^g(a)), r = sqrt([3]_q), is a diagonal that commutes with
    mu^(x)n, so every closure trace is fixed (the ungauged closures are
    traced in tests/oracle/quadratic_closure.py).  For N = 2, 3, D = 1.
    """
    m = build_model(N, sign)
    if mirrored:
        m = mirror_model(m)
    s = Fraction(2)
    F = field(s ** -4 + 1 + s ** 4)
    r = F(0, 1)
    g = dict(zip(labels(N), gauge_powers(N)))
    pos = {a: p for p, a in enumerate(labels(N))}
    R_hat = m.R * ring.invert_unit(m.Z)
    table = paper_table(N)
    if mirrored:  # P R P: the entry [(a,b),(c,d)] moves to [(b,a),(d,c)]
        table = {(b, d, a, c): v for (a, c, b, d), v in table.items()}
    assert len(R_hat.entries) == len(table)
    for (a, c, b, d), v in table.items():
        x, y = v if isinstance(v, tuple) else (v, ring.zero())
        paper = F(laurent_at(x.terms, s), laurent_at(y.terms, s))
        gauged = F(ring.eval_exact(R_hat.entries[(pos[a] * N + pos[b], pos[c] * N + pos[d])], s))
        # D(a) D(b) paper = gauged D(c) D(d), both sides times r^4 so no power is negative
        lhs, rhs = paper, gauged
        for _ in range(4 + g[a] + g[b]):
            lhs = lhs * r
        for _ in range(4 + g[c] + g[d]):
            rhs = rhs * r
        assert lhs == rhs, (a, c, b, d)


def test_one_bit_width_is_refused(m2):
    with pytest.raises(DomainError):
        invariants._closure_trace(BraidWord(2, (1,)), m2, 1)


def test_packed_matrices_stay_packed_through_represent(m4):
    img = packed.image(m4, 40)
    rep = braid.represent(BraidWord(3, (1, -2)), img)
    assert isinstance(rep, packed.PackedMatrix) and rep.bits == 40
    assert isinstance(braid.represent(BraidWord(2, ()), img), packed.PackedMatrix)


def signed_model(N, sign, mirrored):
    m = build_model(N, sign)
    return mirror_model(m) if mirrored else m


def exact_twin(m):
    """The gauged unit-free letters the packed image holds, over the exact ring, as a model
    for represent."""
    L = packed._letters(m)
    return SimpleNamespace(N=m.N, R=L.R_hat, R_inv=L.R_bar)


def unfolded(M):
    """A PackedMatrix read back entry by entry, at its own variable, as {(r, c): RingElem}."""
    return {(r, c): packed.unpack(v, M.bits, M.shift, M.step)
            for r, row in M.rows.items() for c, v in row.items()}


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_letter_on_rows_is_the_letter_restricted(N, sign, mirrored):
    """letter_matrix(..., rows=S) builds the rows in S of the full letter, exact and packed."""
    m = signed_model(N, sign, mirrored)
    img = packed.image(m, 40)
    n = 4
    rng = random.Random(10 * N + sign)
    halves = set(img.closure_weight(n)[1])  # the charges w >= 0
    scattered = set(rng.sample(range(N ** n), N ** n // 3))
    for letter in (1, -1, 2, -2, 3, -3):
        for model in (m, img):
            full = braid.letter_matrix(model, n, letter)
            for S in (halves, scattered):
                part = braid.letter_matrix(model, n, letter, rows=S)
                assert part.rows == {r: row for r, row in full.rows.items() if r in S}
        assert unfolded(braid.letter_matrix(img, n, letter)) == \
            braid.letter_matrix(exact_twin(m), n, letter).entries


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_packed_product_matches_the_exact_product(N, sign, mirrored):
    """Every packed product reads back as the SqMatrix product, and keeps no zero entry.

    A letter next to its inverse cancels most sums, which must then be
    dropped, as SqMatrix drops them.
    """
    m = signed_model(N, sign, mirrored)
    twin = exact_twin(m)
    rng = random.Random(20 * N + sign)
    for n in (2, 3, 4):
        word = braid.random_word(rng, n, 5)
        word = BraidWord(n, word.letters + (1, -1) + word.letters[:2])
        img = packed.image(m, packed.closure_bits(m, word))  # bounds every entry too
        acc, want = None, None
        for letter in word.letters:
            g = braid.letter_matrix(img, n, letter)
            e = braid.letter_matrix(twin, n, letter)
            acc, want = (g, e) if acc is None else (acc @ g, want @ e)
            assert all(0 not in row.values() for row in acc.rows.values())
            assert unfolded(acc) == want.entries
    ident = braid.letter_matrix(img, 2, 1) @ braid.letter_matrix(img, 2, -1)
    assert unfolded(ident) == SqMatrix.identity(N * N).entries


def on_rows(entries, rows):
    """The entries {(r, c): v} in the rows ``rows``, or all of them for None."""
    return {rc: v for rc, v in entries.items() if rows is None or rc[0] in rows}


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_two_site_walk_matches_the_embedded_product(N, sign, mirrored):
    """acc.times_two_site(op, ...) reads back as acc @ letter_matrix(...) on the SqMatrix twin.

    Every letter +-i at every site, up to the model's strand cap, on the
    rows of charge w >= 0 and on all rows.  The product ends in b_1, so the
    letter -1 cancels most sums, which must then be dropped.
    """
    m = signed_model(N, sign, mirrored)
    twin = exact_twin(m)
    rng = random.Random(30 * N + sign)
    for n in sorted({2, 3, 4, invariants.STRAND_CAP[N]}):
        word = BraidWord(n, braid.random_word(rng, n, 2).letters + (1,))
        img = packed.image(m, packed.closure_bits(m, BraidWord(n, word.letters + (1, -1))))
        halves = img.closure_weight(n)[1].keys()  # the charges w >= 0
        accs = [(S, braid.represent(word, img, rows=S)) for S in (halves, None)]
        exact = braid.represent(word, twin)
        for S, acc in accs:
            assert unfolded(acc) == on_rows(exact.entries, S)
        for i in range(1, n):
            for letter in (i, -i):
                op = img.R if letter > 0 else img.R_inv
                want = (exact @ braid.letter_matrix(twin, n, letter)).entries
                for S, acc in accs:
                    got = acc.times_two_site(op, N, n, i)
                    assert all(0 not in row.values() for row in got.rows.values()), (n, letter)
                    assert unfolded(got) == on_rows(want, S), (n, letter)


def test_two_site_walk_refuses_a_site_or_size_that_does_not_fit(m2):
    img = packed.image(m2, 20)
    acc = braid.represent(BraidWord(3, (1,)), img)
    for args in ((img.R, 2, 3, 0), (img.R, 2, 3, 3), (img.R, 2, 4, 1), (img.R, 3, 3, 1),
                 (packed.image(m2, 21).R, 2, 3, 1)):
        with pytest.raises(DimensionMismatch):
            acc.times_two_site(*args)


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_two_site_walk_one_site_off_breaks_the_trace(N, mirrored, monkeypatch):
    """The walk applying b_i at the site next to i changes the closure trace.

    Each half of (1, 2, 1, 2) then runs b_1 b_1, and each half of
    (2, 1, 2, 1) runs b_2 b_2: the packed trace of a trefoil becomes that
    of the (2, 4) torus link and a free strand, so it fails the comparison
    with the SqMatrix reference.
    """
    m = signed_model(N, 1, mirrored)
    walk = packed.PackedMatrix.times_two_site
    words = [BraidWord(3, (1, 2, 1, 2)), BraidWord(3, (2, 1, 2, 1))]

    def trace(w):
        return m.Z ** w.writhe * invariants._closure_trace(w, m, packed.closure_bits(m, w))

    assert all(trace(w) == reference(w, m) for w in words)

    def one_site_off(self, op, N, n, i):
        return walk(self, op, N, n, i - 1 if i > 1 else i + 1)

    monkeypatch.setattr(packed.PackedMatrix, "times_two_site", one_site_off)
    assert all(trace(w) != reference(w, m) for w in words)


def recording_letters(monkeypatch):
    """Patch braid.letter_matrix to record each (letter, matrix) it builds."""
    built = []
    letter_matrix = braid.letter_matrix

    def recording(model, n, letter, rows=None):
        g = letter_matrix(model, n, letter, rows=rows)
        built.append((letter, g))
        return g

    monkeypatch.setattr(braid, "letter_matrix", recording)
    return built


@pytest.mark.parametrize("N", [2, 3, 4])
def test_represent_on_rows_is_the_product_restricted(N, monkeypatch):
    """represent(..., rows=) builds its one letter on ``rows`` only, and the product is
    the full product's rows in ``rows``."""
    m = build_model(N)
    n = invariants.STRAND_CAP[N] - 1
    word = braid.random_word(random.Random(N), n, 8)
    img = packed.image(m, packed.closure_bits(m, word))
    rows = img.closure_weight(n)[1].keys()
    built = recording_letters(monkeypatch)
    part = braid.represent(word, img, rows=rows)
    assert [x for x, _ in built] == [word.letters[0]]
    assert set(built[0][1].rows) <= rows
    full = braid.represent(word, img)
    assert part.rows == {r: row for r, row in full.rows.items() if r in rows}
    empty = braid.represent(BraidWord(n, ()), img, rows=rows)
    assert empty.rows == {r: {r: 1} for r in rows}


@pytest.mark.parametrize("letters,firsts", [
    ((1, -2, 3, 1, -2, 3), [1, 1]),
    ((-2, 3, 1), [-2, 3]),
    ((3,), [3]),
    ((), []),
], ids=["six", "three", "one", "empty"])
def test_closure_trace_builds_one_letter_per_half(m3, monkeypatch, letters, firsts):
    """Each non-empty half-word embeds only its first letter; the rest act as two-site
    operators."""
    w = BraidWord(4, letters)
    want = reference(w, m3)
    built = recording_letters(monkeypatch)
    assert m3.Z ** w.writhe * invariants._closure_trace(w, m3, packed.closure_bits(m3, w)) == want
    assert [x for x, _ in built] == firsts


# ------------------------------------------------------------- same-site runs

RUN_WORDS = {
    "powers": BraidWord(2, (1, 1, 1, 1)),
    "inverse-pair-split-by-far-letters": BraidWord(5, (2, 4, -2, 1)),
    "same-site-pair-blocked-by-a-neighbour": BraidWord(4, (2, 3, 2)),
    "blocked-after-the-first-letter": BraidWord(4, (1, 2, 3, 2)),
    "pair-around-a-blocked-letter": BraidWord(4, (3, 1, -2, 1, -1, 3, -3)),
    "split-middle-gap": BraidWord(4, (1, 1, -3, 1, 3)),
    "split-several-gaps": BraidWord(5, (1, 4, -1, -4, 1)),
}


def runs_match(word, m):
    """Whether packed represent equals the SqMatrix product taken one letter at a time,
    entry by entry, on the rows of charge w >= 0 and on all rows, with no zero entry kept."""
    img = packed.image(m, packed.closure_bits(m, word))
    halves = img.closure_weight(word.strands)[1].keys()
    want = braid.represent(word, exact_twin(m)).entries
    for S in (halves, None):
        got = braid.represent(word, img, rows=S)
        if any(0 in row.values() for row in got.rows.values()) or unfolded(got) != on_rows(want, S):
            return False
    return True


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_runs_equal_the_letter_by_letter_product(N, sign, mirrored):
    """Packed represent, each run multiplied into one operator, reads back entry by entry
    as the SqMatrix product taken one letter at a time."""
    m = signed_model(N, sign, mirrored)
    for name, w in RUN_WORDS.items():
        assert runs_match(w, m), name


SIGNED_MIRRORED = [(N, s, mir) for N, s in SIGNED for mir in (False, True)]


@given(st.sampled_from(SIGNED_MIRRORED), st.integers(2, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_runs_equal_the_letter_by_letter_product_on_random_words(model, n, data):
    alphabet = [k for k in range(-(n - 1), n) if k != 0]
    letters = data.draw(st.lists(st.sampled_from(alphabet), min_size=1, max_size=9))
    assert runs_match(BraidWord(n, tuple(letters)), signed_model(*model))


def runs_jumping_a_neighbour(letters):
    """site_runs with one fault: a letter joins its generator's latest run past a
    neighbouring generator, which does not commute with it."""
    runs = []
    for letter in letters:
        i = abs(letter)
        target = next((run for g, run in runs if g == i), None)
        if target is None:
            runs.append((i, [letter]))
        else:
            target.append(letter)
    return runs


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_a_run_jumping_a_neighbour_fails_the_matrix_comparison(N, sign, mirrored, monkeypatch):
    """The negative control of the run tests: the faulty grouping takes b_2 b_3 b_2 after
    the first letter to b_2 b_2 b_3.  That changes the matrix, which the comparison sees;
    the closure trace of a random word changes only now and then."""
    m = signed_model(N, sign, mirrored)
    w = RUN_WORDS["blocked-after-the-first-letter"]
    assert runs_jumping_a_neighbour(w.letters[1:]) == [(2, [2, 2]), (3, [3])]
    assert runs_match(w, m)
    monkeypatch.setattr(braid, "site_runs", runs_jumping_a_neighbour)
    assert not runs_match(w, m)


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_an_inverse_pair_run_is_exactly_the_identity(N, sign, mirrored):
    """Packed R-hat R-bar and R-bar R-hat are the identity operator: each row holds its
    diagonal int x^shift alone, at the summed shift, at every width the run words pack at."""
    m = signed_model(N, sign, mirrored)
    for bits in sorted({packed.closure_bits(m, w) for w in RUN_WORDS.values()}):
        img = packed.image(m, bits)
        shift = img.R.shift + img.R_inv.shift
        for run in (img.R @ img.R_inv, img.R_inv @ img.R):
            assert run.shift == shift
            assert run.rows == {p: {p: 1 << bits * shift} for p in range(N * N)}
            assert run == img.R.identity(N * N)


# ------------------------------------------------------------ split closures

SPLIT_WORDS = {
    "middle-gap": BraidWord(4, (1, 1, -3, 1, 3)),
    "top-gap": BraidWord(4, (1, -2, 1, 2, -1)),
    "bottom-gap": BraidWord(4, (2, -3, 2, 3, 3)),
    "several-gaps": BraidWord(4, (2, -2, 2, 2)),
    "one-side-low": BraidWord(4, (1, -1, 1)),
    "one-side-high": BraidWord(4, (3, 3, -3)),
}


def unsplit(w, m):
    """The chain on all of w's strands, as ``regular_invariant`` runs a word that
    uses every generator."""
    return m.Z ** w.writhe * invariants._closure_trace(w, m, packed.closure_bits(m, w))


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_split_word_equals_the_unsplit_chain(N, sign, mirrored):
    m = signed_model(N, sign, mirrored)
    for name, w in SPLIT_WORDS.items():
        assert len(w.pieces()) > 1, name
        got = invariants.regular_invariant(w, m)
        assert got == unsplit(w, m), name
        assert got == reference(w, m), name


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_empty_word_on_n_strands_is_k_to_the_n(N, sign, mirrored):
    m = signed_model(N, sign, mirrored)
    for n in range(1, 5):
        w = BraidWord(n)
        assert invariants.regular_invariant(w, m) == m.k ** n, n
        assert unsplit(w, m) == m.k ** n, n


def recorded_chains(monkeypatch):
    """The words ``_closure_trace`` runs from here on, with the invariant cache cleared."""
    invariants.regular_invariant.cache_clear()
    seen = []
    closure_trace = invariants._closure_trace

    def recording(word, m, bits):
        seen.append(word)
        return closure_trace(word, m, bits)

    monkeypatch.setattr(invariants, "_closure_trace", recording)
    return seen


def test_no_chain_runs_on_all_strands_when_a_generator_is_missing(m3, monkeypatch):
    w = BraidWord(5, (1, 2, -4, 1, 4))  # no b_3
    want = unsplit(w, m3)
    seen = recorded_chains(monkeypatch)
    assert invariants.regular_invariant(w, m3) == want
    assert seen == [BraidWord(3, (1, 2, 1)), BraidWord(2, (-1, 1))]
    seen.clear()
    # the free strands are one piece, run once and then read from the cache
    assert invariants.regular_invariant(BraidWord(5, (2,)), m3) == m3.k ** 3 * reference(
        BraidWord(2, (1,)), m3)
    assert seen == [BraidWord(1), BraidWord(2, (1,))]


def test_a_word_using_every_generator_runs_one_chain(m3, monkeypatch):
    w = BraidWord(4, (1, -2, 3, -2))
    seen = recorded_chains(monkeypatch)
    assert invariants.regular_invariant(w, m3) == reference(w, m3)
    assert seen == [w]


# ------------------------------------------------------------- parity gauge


def ungauged_twin(m):
    """R / Z and Z R^-1 as the model holds them, before the parity gauge."""
    return SimpleNamespace(N=m.N, R=m.R * ring.invert_unit(m.Z), R_inv=m.R_inv * m.Z)


def s_classes(values):
    """The classes mod 4 of every exponent of s in ``values``."""
    return {e % 4 for v in values for e in v.terms}


# (lam, beta) the search returns first: beta(0) = 0, lam = 0 tried first
GAUGE = {2: (1, (0, 0)), 3: (0, (0, 0, 1)), 4: (1, (0, 0, 0, 0))}


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_parity_gauge_is_found_for_every_model(N, sign, mirrored):
    """Every letter entry is q^eps P(q^2); one (lam, beta) clears eps and keeps each weight."""
    m = signed_model(N, sign, mirrored)
    raw = ungauged_twin(m)
    assert s_classes([*raw.R.entries.values(), *raw.R_inv.entries.values()]) == {0, 2}
    gauge = packed.parity_gauge(N, (raw.R, raw.R_inv))
    assert gauge == GAUGE[N]
    L = packed._letters(m)
    for before, after in ((raw.R, L.R_hat), (raw.R_inv, L.R_bar)):
        assert packed.gauged(before, N, gauge).entries == after.entries
        assert s_classes(after.entries.values()) == {0}
        assert after.entries.keys() == before.entries.keys()
        for key, v in before.entries.items():  # a monomial moves each entry
            assert v.rat[1] == after.entries[key].rat[1]
        assert packed.row_weight(after) == packed.row_weight(before)


def test_a_letter_with_one_odd_parity_entry_is_refused(m3):
    """A diagonal entry moves by q^0 in every gauge, so one of odd parity is refused."""
    L = packed._letters(m3)
    entries = dict(L.R_hat.entries)
    entries[(0, 0)] = entries[(0, 0)] * ring.q_power(1)
    odd = SqMatrix(L.R_hat.dim, entries)
    with pytest.raises(DomainError, match="no diagonal gauge"):
        packed.parity_gauge(3, (odd, L.R_bar))
    # an entry of mixed parity, or with an odd power of s, is no q^eps P(q^2)
    for bad in (ring.one() + ring.q_power(1), ring.s_power(1)):
        entries[(0, 0)] = bad
        with pytest.raises(DomainError, match="no q\\^eps"):
            packed.parity_gauge(3, (SqMatrix(L.R_hat.dim, entries),))


def test_gauged_checks_every_entry_exactly(m3):
    """A gauge that leaves an odd power of q is refused entry by entry."""
    raw = ungauged_twin(m3)
    with pytest.raises(DomainError, match="not in Z\\[q\\^\\+-2\\]"):
        packed.gauged(raw.R, 3, (0, (0, 0, 0)))


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_gauge_keeps_every_sector_trace(N, sign, mirrored):
    """G = diag(q^(sum_k lam k i_k + beta(i_k))) conjugates the chain: every t_w is unchanged.

    The chains themselves differ: the gauge moves off-diagonal entries.
    """
    m = signed_model(N, sign, mirrored)
    twin, raw = exact_twin(m), ungauged_twin(m)
    rng = random.Random(30 * N + 3 * sign + mirrored)
    moved = False
    for n in range(2, 5):
        w = braid.random_word(rng, n, rng.randint(1, 6))
        traces = sector_traces(w, twin)
        assert traces == sector_traces(w, raw), w
        moved |= braid.represent(w, twin) != braid.represent(w, raw)
    assert moved


def with_odd_kappa(m):
    """``m`` with mu = sigma diag(q^a) over the labels a: kappa = 1, which no
    model's trace constants allow."""
    sigma, _ = tensor.closure_character(m.mu)
    mu = SqMatrix(m.N, {(i, i): ring.s_power(int(2 * a), sigma)
                        for i, a in enumerate(labels(m.N))})
    return dataclasses.replace(m, mu=mu)


@pytest.mark.parametrize("mirrored", [False, True], ids=["plain", "mirror"])
@pytest.mark.parametrize("N,sign", SIGNED, ids=[f"N{N}{'+' if s > 0 else '-'}" for N, s in SIGNED])
def test_packed_trace_refuses_a_kappa_other_than_two(N, sign, mirrored):
    """The closure weights are powers of x = q^2 only for |kappa| = 2."""
    m = with_odd_kappa(signed_model(N, sign, mirrored))
    assert tensor.closure_character(m.mu)[1] == 1
    with pytest.raises(DomainError, match="kappa = 1"):
        invariants.regular_invariant(BraidWord(2, (1,)), m)


def test_selftest_packed_trace_row_covers_both_gauge_forms(monkeypatch):
    """The row runs N = 2 and 4 (lam = 1) and N = 3 (beta = (0, 0, 1)), and names a bad N."""
    seen = []
    build = selftest.build_model

    def recording(N, *args):
        seen.append(N)
        return build(N, *args)

    monkeypatch.setattr(selftest, "build_model", recording)
    out = io.StringIO()
    assert selftest.run(only="packed-trace", out=out, err=io.StringIO()) == 0
    assert out.getvalue().splitlines()[1].split() == [
        "packed-trace", "PASS", "60", "closures,", "N=2,3,4,", "match", "the", "SqMatrix",
        "chain"]
    assert seen == [2, 3, 4]

    def off_at_n3(word, m):
        value = invariants.regular_invariant(word, m)
        return value + ring.one() if m.N == 3 else value

    monkeypatch.setattr(selftest, "regular_invariant", off_at_n3)
    out = io.StringIO()
    assert selftest.run(only="packed-trace", out=out, err=io.StringIO()) == 1
    assert "FAIL  N=3 trial 0: packed trace differs from the chain" in out.getvalue()
