"""Braid words and their tensor representation.

A braid on n strands is a word in generators b_1 .. b_(n-1); the letter i
stands for b_i and -i for its inverse.  The representation sends b_i to
1 (x) ... (x) R (x) ... (x) 1 with R acting on factors i, i+1, so a word
maps to a product of sparse matrices of dimension N^n, over the exact ring
or over its packed image.
"""

from __future__ import annotations

import functools
import operator
import random
import re
from dataclasses import dataclass, field

from .errors import BadLetter, DimensionMismatch
from .packed import PackedMatrix


@dataclass(frozen=True, slots=True)
class BraidWord:
    # slotted: 48 bytes in place of about 350 with a __dict__, and caches
    # and callers keep many words
    strands: int
    letters: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.strands < 1:
            raise BadLetter(f"strand count must be positive, got {self.strands}")
        for letter in self.letters:
            if letter == 0:
                raise BadLetter("letter 0 names no generator")
            if abs(letter) >= self.strands:
                raise BadLetter(
                    f"letter {letter} needs at least {abs(letter) + 1} strands, "
                    f"word has {self.strands}"
                )

    @property
    def writhe(self) -> int:
        return sum(1 if letter > 0 else -1 for letter in self.letters)

    def conjugate(self, g: int) -> "BraidWord":
        """g w g^-1 for a single generator letter g."""
        if g == 0 or abs(g) >= self.strands:
            raise BadLetter(f"conjugating letter {g} out of range")
        return BraidWord(self.strands, (g,) + self.letters + (-g,))

    def stabilize(self, sign: int) -> "BraidWord":
        """Append b_n^(+-1) on one more strand."""
        if sign not in (1, -1):
            raise BadLetter("stabilization sign must be +1 or -1")
        return BraidWord(self.strands + 1, self.letters + (sign * self.strands,))

    def free_reduce(self) -> "BraidWord":
        """Cancel adjacent letter pairs i, -i until none remain."""
        out: list[int] = []
        for letter in self.letters:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return BraidWord(self.strands, tuple(out))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise DimensionMismatch("concatenating words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def pieces(self) -> tuple["BraidWord", ...]:
        """The word cut at every generator it lacks: one word per block of strands.

        Without b_i no letter crosses strand i with strand i + 1, so the
        braid is the tensor product of the words on the blocks between the
        cuts, each letter of a block shifted to the block's first strand.
        A word that uses every generator is its one piece.
        """
        n = self.strands
        used = {abs(x) for x in self.letters}
        if len(used) == n - 1:
            return (self,)
        out = []
        lo = 0  # strands left of the block
        for cut in [i for i in range(1, n) if i not in used] + [n]:
            out.append(BraidWord(cut - lo, tuple(x - lo if x > 0 else x + lo
                                                 for x in self.letters if lo < abs(x) < cut)))
            lo = cut
        return tuple(out)

    def powers_of(self, i: int, p: int) -> "BraidWord":
        """This word followed by b_i^p (p may be negative)."""
        if i <= 0 or i >= self.strands:
            raise BadLetter(f"generator {i} out of range")
        tail = (i if p > 0 else -i,) * abs(p)
        return BraidWord(self.strands, self.letters + tail)


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse a comma- or space-separated list of signed letters.

    Without an explicit strand count the word gets the smallest braid
    group it fits in, max |letter| + 1 (so the empty word is one strand).
    """
    tokens = [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]
    letters = []
    for tok in tokens:
        try:
            letters.append(int(tok))
        except ValueError:
            raise BadLetter(f"cannot read letter {tok!r}") from None
    needed = max((abs(letter) for letter in letters), default=0) + 1
    if strands is None:
        strands = needed
    return BraidWord(strands, tuple(letters))


def embed_two_site(op, N: int, n: int, i: int, rows=None):
    """1 (x) ... (x) op (x) ... (x) 1 on n factors of size N, op on factors i, i+1.

    ``op`` is a ``SqMatrix`` or a ``PackedMatrix``; the result is of the
    same kind.  With ``rows``, only those rows are built.  Row r spells
    (x, p, y) with p the two-site row of op and x, y the untouched factors
    left and right of it; its entries are op's row p with x and y put back.
    """
    if not 1 <= i < n:
        raise BadLetter(f"generator {i} on {n} strands")
    right = N ** (n - i - 1)
    block = N * N * right
    op_rows = op.rows
    out = {}
    for r in range(N ** n) if rows is None else rows:
        x, rest = divmod(r, block)
        p, y = divmod(rest, right)
        row = op_rows.get(p)
        if row:
            base = x * block + y
            out[r] = {base + c * right: v for c, v in row.items()}
    return op.like(N ** n, out)


def letter_matrix(model, n: int, letter: int, rows=None):
    """Sparse matrix of one generator on n strands, over the ring of ``model.R``.

    With ``rows``, only those rows are built (:func:`embed_two_site`).
    """
    return embed_two_site(model.R if letter > 0 else model.R_inv, model.N, n, abs(letter), rows)


def random_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    """``length`` letters drawn uniformly from the generators and their inverses."""
    if length < 0:
        raise BadLetter(f"a word cannot have {length} letters")
    alphabet = [k for k in range(-(strands - 1), strands) if k != 0]
    if length and not alphabet:
        raise BadLetter(f"{strands} strands have no generator to draw {length} letters from")
    return BraidWord(strands, tuple(rng.choice(alphabet) for _ in range(length)))


def site_runs(letters) -> list[tuple[int, list[int]]]:
    """``letters`` grouped into runs of one generator each, as (i, letters of the run).

    The letter b_i^(+-1) joins the latest run of generator i when every
    run after that one has a generator j with |i - j| >= 2, and otherwise
    opens a new run.  Generators two or more apart act on disjoint factors
    and commute, so the product of the runs in order, each run's letters in
    word order, is the product of ``letters``.
    """
    runs: list[tuple[int, list[int]]] = []
    for letter in letters:
        i = abs(letter)
        target = None
        for g, run in reversed(runs):
            if abs(g - i) < 2:
                target = run if g == i else None
                break
        if target is None:
            runs.append((i, [letter]))
        else:
            target.append(letter)
    return runs


def represent(word: BraidWord, model, *, rows=None):
    """Product of generator matrices; the identity for the empty word.

    ``model`` needs ``N``, ``R`` and ``R_inv``: a vertex model, or its
    packed image (:mod:`vertexlink.packed`), whose matrices the product
    stays over.  Over a model every letter is embedded
    (:func:`letter_matrix`) and multiplied in, one at a time.  Over a
    packed image only the first letter is embedded, and it starts the
    product.  The later letters are grouped into runs on one site each
    (:func:`site_runs`); each run's two-site letters are multiplied into
    one N^2 x N^2 operator, which acts on the product once
    (:meth:`~vertexlink.packed.PackedMatrix.times_two_site`).  That is
    exact: the product is associative, and a letter only joins a run past
    letters that commute with it.  An inverse pair multiplies to the
    identity operator and is applied like any other run.  ``rows`` builds
    the product on those rows only.  That is its restriction when the rows
    are a union of charge sectors: row r of A B is row r of A times B, and
    a row of A in a sector reaches only columns, and so rows of B, in that
    sector.  Over a packed image any rows will do, since only the first
    letter is built on ``rows`` and every later operator acts whole.
    """
    n = word.strands
    if not word.letters:
        return model.R.identity(model.N ** n, rows)
    first, *rest = word.letters
    acc = letter_matrix(model, n, first, rows=rows)
    if not isinstance(acc, PackedMatrix):
        for letter in rest:
            acc = acc @ letter_matrix(model, n, letter, rows=rows)
        return acc
    for i, run in site_runs(rest):
        op = functools.reduce(operator.matmul, [model.R if x > 0 else model.R_inv for x in run])
        acc = acc.times_two_site(op, model.N, n, i)
    return acc
