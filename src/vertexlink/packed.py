"""Kronecker-packed closure traces: the braid chain on plain ints.

The closure trace only adds and multiplies ring elements, and substituting
a number for q is a ring homomorphism, so the chain can run on Python ints
(Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009).  Factoring
the unit Z out of every letter (R/Z and Z R^-1) leaves entries in
Z[q^+-1]: every exponent in s is even.  (The N = 4 model is built in the
gauge that clears the radical of its table, :mod:`vertexlink.models`.)  A
:class:`PackedMatrix` stores q^shift times a matrix over Z[q^+-1], shifted
to nonnegative degree and evaluated at q = 2^bits: one int per entry.

Only the final scalar is unpacked, as balanced base-2^bits digits.  That is
exact when every coefficient of the result has absolute value below
2^(bits-1), which :func:`closure_bits` proves with the l1 norm of the
coefficients.  It bounds every coefficient and ||xy|| <= ||x|| ||y||, so
the largest row sum rho of entry weights obeys rho(AB) <= rho(A) rho(B),
and a trace weighs at most dim times a row sum.  The closure weight
mu^(x)n adds no factor: it is the unit sigma^n q^(kappa w) on each charge
sector w (:func:`vertexlink.models.closure_character`), of weight 1, so
the trace shifts each sector's sum by its power of q once and never forms
mu^(x)n as a matrix.  No value is ever rounded.

The trace runs over the charges w >= 0 only.  Write t_w = tr(rep(b)|S_w)
for the block of the braid b on the charge sector S_w; R conserves charge,
so rep(b) is block diagonal and tr(rep(b) mu^(x)n) = sum_w mu(w) t_w with
mu(w) = sigma^n q^(kappa w).  Every model passes the flip
(C (x) C) R = P R P (C (x) C) at build (:func:`vertexlink.tensor.check_flip`),
P the swap of two factors and C a label flip: antidiagonal, taking the
label a to -a with a nonzero factor (the gauged flip of
:mod:`vertexlink.models`).  Then t_w = t_-w, over the field of fractions:

* Let W be the reversal of the n factors followed by C^(x)n.  Reversal
  takes b_i to P R P on the factors n-i, n-i+1, and C (x) C commutes with
  P, so (C (x) C) P R P (C (x) C)^-1 = P (C (x) C) R (C (x) C)^-1 P = R by
  the flip: W b_i W^-1 = b_(n-i).  Each label changes sign, so W maps S_w
  onto S_-w.
* b_i -> b_(n-i) is conjugation by the Garside half-twist Delta, so
  W^-1 rep(b) W = rep(Delta b Delta^-1) = rep(Delta) rep(b) rep(Delta)^-1,
  and rep(Delta), a product of letters, preserves every sector.  Hence
  t_-w = tr(W^-1 rep(b) W | S_w) = tr(rep(b)|S_w) = t_w.
* The letters here are R/Z and Z R^-1: the chain is Z^-writhe rep(b).

So the trace is sum over w >= 0 of sigma^n (q^(kappa w) + q^(-kappa w)) t_w,
with q^0 once for w = 0.  The product is row-local and conserves charge,
and the rows of charge w >= 0 form whole sectors: a row there reaches only
columns there, and so only rows there of the next factor.  So every letter
of both half-words is built on those rows only, and the chain runs on about
half the rows.  The value is the same polynomial as the full trace, so the
same width unpacks it.

A :class:`PackedMatrix` is keyed by row, {r: {c: int}}: a product walks
the right factor's rows as stored, and the closure trace looks up
B[c][r] for each entry A[r][c] of a row of weight.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import _kernel as K
from . import ring
from .errors import DimensionMismatch, DomainError
from .models import closure_character
from .ring import RingElem


class PackedMatrix:
    """Square sparse matrix over the image of Z[q^+-1] at q = 2^bits.

    It stands for q^-shift times the matrix whose entries unpack from the
    ints in ``rows``, keyed by row and then column: {r: {c: int}}.  A row
    with no entry is left out.
    """

    __slots__ = ("dim", "rows", "bits", "shift")

    def __init__(self, dim: int, rows: dict[int, dict[int, int]], bits: int, shift: int):
        self.dim = dim
        self.rows = rows
        self.bits = bits
        self.shift = shift

    def like(self, dim: int, rows: dict[int, dict[int, int]]) -> "PackedMatrix":
        """A matrix over the same image with the same shift, entries taken as given."""
        return PackedMatrix(dim, rows, self.bits, self.shift)

    def identity(self, dim: int, rows=None) -> "PackedMatrix":
        """The identity, or only its rows in ``rows``."""
        return PackedMatrix(dim, {i: {i: 1} for i in (range(dim) if rows is None else rows)},
                            self.bits, 0)

    def __matmul__(self, other: "PackedMatrix") -> "PackedMatrix":
        if self.dim != other.dim or self.bits != other.bits:
            raise DimensionMismatch(f"{self!r} @ {other!r}")
        get = other.rows.get
        out = {}
        for r, row in self.rows.items():
            acc: dict[int, int] = {}
            for k, u in row.items():
                b = get(k)
                if b is not None:
                    for c, v in b.items():
                        if c in acc:
                            acc[c] += u * v
                        else:
                            acc[c] = u * v
            if 0 in acc.values():  # drop the sums that cancel
                acc = {c: v for c, v in acc.items() if v}
            if acc:
                out[r] = acc
        return PackedMatrix(self.dim, out, self.bits, self.shift + other.shift)

    def trace_product(self, other: "PackedMatrix", weights=None) -> RingElem:
        """tr(self @ other @ W), unpacked, without forming the product.

        W is diagonal: row r weighs the sum of q^e over the exponents e in
        ``weights[r]``, and a row ``weights`` leaves out weighs 0; without
        ``weights``, W = 1.  The diagonal terms are summed per row weight
        (per charge sector, for a closure weight), and each sum is shifted
        by its powers of q once.
        """
        if self.dim != other.dim or self.bits != other.bits:
            raise DimensionMismatch(f"{self!r} vs {other!r}")
        if weights is None:
            weights = dict.fromkeys(range(self.dim), (0,))
        get = other.rows.get
        weigh = weights.get
        sums: dict[tuple[int, ...], int] = {}
        for r, row in self.rows.items():
            es = weigh(r)
            if es is not None:
                t = 0
                for c, v in row.items():
                    b = get(c)
                    if b is not None and r in b:
                        t += v * b[r]
                sums[es] = sums.get(es, 0) + t
        total = sum(t << self.bits * e for es, t in sums.items() for e in es)
        return unpack(total, self.bits, self.shift + other.shift)

    def __repr__(self):
        nnz = sum(len(row) for row in self.rows.values())
        return f"PackedMatrix(dim={self.dim}, nnz={nnz}, bits={self.bits})"


def _q_terms(poly, lift: int):
    """(q-exponent, coeff) of a kernel polynomial in s, times q^lift; exponents must be even."""
    off, coeffs = poly
    for i, c in enumerate(coeffs):
        if c:
            if (off + i) % 2:
                raise DomainError("odd power of s: the entry is not in Z[q^+-1]")
            yield (off + i) // 2 + lift, c


def pack_matrix(M, bits: int) -> PackedMatrix:
    """M (a SqMatrix over Z[q^+-1]) at q = 2^bits, shifted to nonnegative degree."""
    shift = -min((min(e for e, _ in _q_terms(v.rat, 0)) for v in M.entries.values()), default=0)
    rows = {r: {c: sum(x << bits * e for e, x in _q_terms(v.rat, shift)) for c, v in row.items()}
            for r, row in M.rows.items()}
    return PackedMatrix(M.dim, rows, bits, shift)


def _digits(x: int, bits: int) -> list[int]:
    """Balanced base-2^bits digits of x, lowest first; each lies in [-2^(bits-1), 2^(bits-1))."""
    if bits < 2:
        raise DomainError("one-bit balanced digits {-1, 0} cannot spell a positive number")
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    out = []
    while x:
        d = x & mask
        if d >= half:
            d -= 1 << bits
        out.append(d)
        x = (x - d) >> bits
    return out


def unpack(a: int, bits: int, shift: int) -> RingElem:
    """q^-shift a read back at q = 2^bits, as a ring element in s."""
    digits = _digits(a, bits)
    buf = [0] * (2 * len(digits) - 1)  # digit i is the coefficient of s^(2 (i - shift))
    buf[::2] = digits
    return RingElem(K.canon(-2 * shift, buf))


@functools.lru_cache(maxsize=32)
def _closure_weight(N: int, n: int, sigma: int, kappa: int) -> tuple[RingElem, dict]:
    levels = [0]  # label positions summed per row: the charge is w = level - top / 2
    for _ in range(n):
        levels = [x + p for x in levels for p in range(N)]
    top = n * (N - 1)
    # q^(+-kappa w) = q^(e - |kappa| top / 2) with e = |kappa| level or
    # |kappa| (top - level), both >= 0; one e on the sector w = 0
    k = abs(kappa)
    pair = {x: (k * x, k * (top - x)) if 2 * x > top else (k * x,)
            for x in range(top + 1)}
    weights = {r: pair[x] for r, x in enumerate(levels) if 2 * x >= top}
    return ring.s_power(-k * top, sigma ** n), weights


@dataclass(frozen=True)
class PackedImage:
    """A model's unit-free letters at q = 2^bits, and the character (sigma, kappa) of its mu.

    ``braid.represent`` reads ``N``, ``R`` and ``R_inv``, as on a model.
    """

    N: int
    R: PackedMatrix
    R_inv: PackedMatrix
    character: tuple[int, int]

    def closure_weight(self, n: int) -> tuple[RingElem, dict]:
        """mu^(x)n on n strands folded onto the charges w >= 0, as (unit, weights).

        Row r of charge w > 0 weighs unit (q^e1 + q^e2), the weights of w
        and -w, for (e1, e2) = weights[r]; a row of charge 0 weighs unit q^e
        for (e,) = weights[r]; rows of charge w < 0 are left out.
        """
        return _closure_weight(self.N, n, *self.character)


@dataclass(frozen=True)
class _Letters:
    R_hat: object  # R / Z
    R_bar: object  # Z R^-1
    rho_pos: int  # largest row sums of entry weights
    rho_neg: int


def weight(v: RingElem) -> int:
    """l1 norm of the coefficients: it bounds each, and is submultiplicative on Z[q^+-1]."""
    return sum(abs(x) for x in v.rat[1])


def _row_weight(M) -> int:
    """Largest row sum of entry weights."""
    return max((sum(map(weight, row.values())) for row in M.rows.values()), default=0)


@functools.lru_cache(maxsize=32)
def _letters(m) -> _Letters:
    R_hat = m.R * ring.invert_unit(m.Z)
    R_bar = m.R_inv * m.Z
    return _Letters(R_hat, R_bar, _row_weight(R_hat), _row_weight(R_bar))


def closure_bits(m, word) -> int:
    """Packing width that makes the closure trace of ``word`` unpack exactly.

    With rho(M) the largest row sum of entry weights, the trace of
    R_1 ... R_L mu^(x)n weighs at most X = dim prod rho(R_i): mu^(x)n is a
    diagonal of units, each of weight 1.  So bits = bitlen(2 X) + 1 leaves
    every coefficient below 2^(bits-2).  The trace over the charges w >= 0
    is the same polynomial, so the same width holds for it.
    """
    L = _letters(m)
    n = word.strands
    pos = sum(1 for x in word.letters if x > 0)
    bound = (m.N ** n) * L.rho_pos ** pos * L.rho_neg ** (len(word.letters) - pos)
    return (2 * bound).bit_length() + 1


@functools.lru_cache(maxsize=64)
def image(m, bits: int) -> PackedImage:
    """The unit-free letters of ``m`` packed at q = 2^bits, with the character of its mu."""
    L = _letters(m)
    return PackedImage(m.N, pack_matrix(L.R_hat, bits), pack_matrix(L.R_bar, bits),
                       closure_character(m.mu, m.conv))
