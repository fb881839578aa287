"""Kronecker-packed closure traces: the braid chain on plain ints.

The closure trace only adds and multiplies ring elements, and substituting
a number for q is a ring homomorphism, so the chain can run on Python ints
(Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009).  Factoring
the unit Z out of every letter (R/Z and Z R^-1) leaves entries in
Z[q^+-1][r]: every exponent in s is even.

The radical r, the square root of [3]_q = q^-2 + 1 + q^2, comes from
normalising the spin-3/2 weight basis (Kirby-Melvin, Invent. Math. 105,
1991), and a diagonal gauge takes it out of the letters.  With
D = diag(g_a) = diag(r, 1, 1, r^-1) over the labels a = -3/2 .. 3/2 (D = 1
for N = 2, 3), every N = 4 letter X becomes (D (x) D) X (D (x) D)^-1, whose
entries lie in Z[q^+-1].  The closure trace does not change: the chain is
conjugated by D^(x)n letter by letter, and D^(x)n commutes with the
diagonal mu^(x)n, so tr(D^(x)n B D^(x)-n mu^(x)n) = tr(B mu^(x)n).  Nor does
the rest of the model: an entry M[a, b] of M_u or M_d moves by
(g_a g_b)^(+-1), these antidiagonal matrices have b = -a and g_a g_-a = 1,
so M_u, M_d and mu = M_u M_d^t stay as they are.  A :class:`PackedMatrix`
stores q^shift times a matrix over Z[q^+-1], shifted to nonnegative degree
and evaluated at q = 2^bits: one int per entry.

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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import _kernel as K
from . import ring
from .errors import DimensionMismatch, DomainError
from .models import closure_character
from .ring import RingElem


class PackedMatrix:
    """Square sparse matrix over the image of Z[q^+-1] at q = 2^bits.

    It stands for q^-shift times the matrix whose entries unpack from the
    ints in ``entries``.
    """

    __slots__ = ("dim", "entries", "bits", "shift")

    def __init__(self, dim: int, entries: dict, bits: int, shift: int):
        self.dim = dim
        self.entries = entries
        self.bits = bits
        self.shift = shift

    def like(self, dim: int, entries: dict) -> "PackedMatrix":
        """A matrix over the same image with the same shift, entries taken as given."""
        return PackedMatrix(dim, entries, self.bits, self.shift)

    def identity(self, dim: int) -> "PackedMatrix":
        return PackedMatrix(dim, {(i, i): 1 for i in range(dim)}, self.bits, 0)

    def __matmul__(self, other: "PackedMatrix") -> "PackedMatrix":
        if self.dim != other.dim or self.bits != other.bits:
            raise DimensionMismatch(f"{self!r} @ {other!r}")
        rows_b: dict[int, list] = {}
        for (r, c), v in other.entries.items():
            row = rows_b.get(r)
            if row is None:
                rows_b[r] = [(c, v)]
            else:
                row.append((c, v))
        out: dict = {}
        get = out.get
        for (r, k), u in self.entries.items():
            row = rows_b.get(k)
            if row is None:
                continue
            for c, v in row:
                key = (r, c)
                out[key] = get(key, 0) + u * v
        entries = {k: v for k, v in out.items() if v}
        return PackedMatrix(self.dim, entries, self.bits, self.shift + other.shift)

    def trace_product(self, other: "PackedMatrix", exps=None) -> RingElem:
        """tr(self @ other @ diag(q^exps)), unpacked, without forming the product.

        The diagonal terms are summed per exponent (per charge sector, for a
        closure weight), and each sum is shifted by its power of q once.
        """
        exps = exps or (0,) * self.dim
        if self.dim != other.dim or self.bits != other.bits or len(exps) != self.dim:
            raise DimensionMismatch(f"{self!r} vs {other!r}")
        get = other.entries.get
        sums: dict[int, int] = {}
        for (r, c), v in self.entries.items():
            w = get((c, r))
            if w is not None:
                e = exps[r]
                sums[e] = sums.get(e, 0) + v * w
        total = sum(t << self.bits * e for e, t in sums.items())
        return unpack(total, self.bits, self.shift + other.shift)

    def __repr__(self):
        return f"PackedMatrix(dim={self.dim}, nnz={len(self.entries)}, bits={self.bits})"


def _q_terms(poly, lift: int):
    """(q-exponent, coeff) of a kernel polynomial in s, times q^lift; exponents must be even."""
    off, coeffs = poly
    for i, c in enumerate(coeffs):
        if c:
            if (off + i) % 2:
                raise DomainError("odd power of s: the entry is not in Z[q^+-1]")
            yield (off + i) // 2 + lift, c


def pack_matrix(M, bits: int) -> PackedMatrix:
    """M (a SqMatrix over Z[q^+-1]) at q = 2^bits, shifted to nonnegative degree.

    A radical entry is refused: the letters are gauged free of r first."""
    if any(v.rad[1] for v in M.entries.values()):
        raise DomainError("radical entry: only Z[q^+-1] packs as an int")
    shift = -min((min(e for e, _ in _q_terms(v.rat, 0)) for v in M.entries.values()), default=0)
    entries = {key: sum(c << bits * e for e, c in _q_terms(v.rat, shift))
               for key, v in M.entries.items()}
    return PackedMatrix(M.dim, entries, bits, shift)


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
def _closure_weight(N: int, n: int, sigma: int, kappa: int) -> tuple[RingElem, tuple[int, ...]]:
    levels = [0]  # label positions summed per row: the charge is w = level - top / 2
    for _ in range(n):
        levels = [x + p for x in levels for p in range(N)]
    top = n * (N - 1)
    # q^(kappa w) = q^(e - |kappa| top / 2), with e >= 0 for every row
    exps = tuple(abs(kappa) * (x if kappa > 0 else top - x) for x in levels)
    return ring.s_power(-abs(kappa) * top, sigma ** n), exps


@dataclass(frozen=True)
class PackedImage:
    """A model's unit-free letters at q = 2^bits, and the character (sigma, kappa) of its mu.

    ``braid.represent`` reads ``N``, ``R`` and ``R_inv``, as on a model.
    """

    N: int
    R: PackedMatrix
    R_inv: PackedMatrix
    character: tuple[int, int]

    def closure_weight(self, n: int) -> tuple[RingElem, tuple[int, ...]]:
        """mu^(x)n on n strands as (unit, exps): row r weighs unit q^(exps[r])."""
        return _closure_weight(self.N, n, *self.character)


@dataclass(frozen=True)
class _Letters:
    R_hat: object  # R / Z, gauged
    R_bar: object  # Z R^-1, gauged
    rho_pos: int  # largest row sums of entry weights
    rho_neg: int


def weight(v: RingElem) -> int:
    """l1 norm of the coefficients: it bounds each, and is submultiplicative on Z[q^+-1]."""
    return sum(abs(x) for part in (v.rat, v.rad) for x in part[1])


def _row_weight(M) -> int:
    """Largest row sum of entry weights."""
    rows: dict[int, int] = {}
    for (r, _), v in M.entries.items():
        rows[r] = rows.get(r, 0) + weight(v)
    return max(rows.values(), default=0)


# the power of r in D = diag(r, 1, 1, r^-1) at each label; D = 1 for N = 2, 3
_GAUGE = {Fraction(-3, 2): 1, Fraction(3, 2): -1}


def _gauged(M, conv):
    """(D (x) D) M (D (x) D)^-1, entry by entry and exact."""
    power = [sum(_GAUGE.get(a, 0) for a in conv.unflatten(i)) for i in range(M.dim)]
    r = ring.radical()
    entries = {}
    for (i, j), v in M.entries.items():
        k = power[i] - power[j]
        entries[(i, j)] = v * r ** k if k >= 0 else ring.exact_divide(v, r ** -k)
    return M.like(M.dim, entries)


@functools.lru_cache(maxsize=32)
def _letters(m) -> _Letters:
    R_hat = _gauged(m.R * ring.invert_unit(m.Z), m.conv)
    R_bar = _gauged(m.R_inv * m.Z, m.conv)
    return _Letters(R_hat, R_bar, _row_weight(R_hat), _row_weight(R_bar))


def closure_bits(m, word) -> int:
    """Packing width that makes the closure trace of ``word`` unpack exactly.

    With rho(M) the largest row sum of entry weights, the trace of
    R_1 ... R_L mu^(x)n weighs at most X = dim prod rho(R_i): mu^(x)n is a
    diagonal of units, each of weight 1.  So bits = bitlen(2 X) + 1 leaves
    every coefficient below 2^(bits-2).
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
