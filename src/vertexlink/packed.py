"""Kronecker-packed closure traces: the braid chain on plain ints.

The closure trace only adds and multiplies ring elements, and substituting
a number for q is a ring homomorphism, so the chain can run on Python ints
(Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009).  Factoring
the unit Z out of every letter (R/Z and Z R^-1) leaves entries in
Z[q^+-1][r]: every exponent in s is even.  With r' = q r the radical obeys
r'^2 = 1 + q^2 + q^4, a polynomial in q, so a value a + b r is carried as
the pair (a, b/q) over the basis 1, r'.  A :class:`PackedMatrix` stores
q^shift times a matrix of such values, shifted to nonnegative degree and
evaluated at q = 2^bits: an int per entry, or a pair of ints when the
model has a radical.

Only the final scalar is unpacked, as balanced base-2^bits digits.  That is
exact when every coefficient of the result has absolute value below
2^(bits-1), which :func:`closure_bits` proves with the weighted norm
w(a + b r) = ||a|| + 2 ||b|| (l1 norms of the coefficients).  It bounds
every coefficient of both parts, and w(xy) <= w(x) w(y): the product
(a + b r)(c + d r) = (ac + bd r^2) + (ad + bc) r weighs at most
||a|| ||c|| + 3 ||b|| ||d|| + 2 ||a|| ||d|| + 2 ||b|| ||c||, as
||r^2|| = 3 <= 2^2 (likewise ||r'^2|| = 3 in the packed basis).  So the
largest row sum rho of entry weights obeys rho(AB) <= rho(A) rho(B) and
rho(A (x) B) <= rho(A) rho(B), and a trace weighs at most dim times a row
sum.  No value is ever rounded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import _kernel as K
from . import ring
from .errors import DimensionMismatch, DomainError
from .ring import RingElem


class PackedMatrix:
    """Square sparse matrix over the image of the ring at q = 2^bits.

    It stands for q^-shift times the matrix whose entries unpack from
    ``entries``; ``rho`` is r'^2 at q = 2^bits, or None when the entries
    are plain ints (no radical).
    """

    __slots__ = ("dim", "entries", "bits", "rho", "shift")

    def __init__(self, dim: int, entries: dict, bits: int, rho: int | None, shift: int):
        self.dim = dim
        self.entries = entries
        self.bits = bits
        self.rho = rho
        self.shift = shift

    def like(self, dim: int, entries: dict) -> "PackedMatrix":
        """A matrix over the same image with the same shift, entries taken as given."""
        return PackedMatrix(dim, entries, self.bits, self.rho, self.shift)

    def identity(self, dim: int) -> "PackedMatrix":
        one = 1 if self.rho is None else (1, 0)
        return PackedMatrix(dim, {(i, i): one for i in range(dim)}, self.bits, self.rho, 0)

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
        rho = self.rho
        if rho is None:
            for (r, k), u in self.entries.items():
                row = rows_b.get(k)
                if row is None:
                    continue
                for c, v in row:
                    key = (r, c)
                    out[key] = get(key, 0) + u * v
            entries = {k: v for k, v in out.items() if v}
        else:
            for (r, k), (ua, ub) in self.entries.items():
                row = rows_b.get(k)
                if row is None:
                    continue
                for c, (va, vb) in row:
                    if vb:
                        ta, tb = ua * va, ub * vb
                        a, b = ta + tb * rho, (ua + ub) * (va + vb) - ta - tb
                    else:
                        a, b = ua * va, ub * va
                    key = (r, c)
                    acc = get(key)
                    out[key] = (a, b) if acc is None else (acc[0] + a, acc[1] + b)
            entries = {k: v for k, v in out.items() if v[0] or v[1]}
        return PackedMatrix(self.dim, entries, self.bits, rho, self.shift + other.shift)

    def kron(self, other: "PackedMatrix") -> "PackedMatrix":
        d2 = other.dim
        rho = self.rho
        entries = {}
        for (r1, c1), u in self.entries.items():
            for (r2, c2), v in other.entries.items():
                entries[(r1 * d2 + r2, c1 * d2 + c2)] = (
                    u * v if rho is None
                    else (u[0] * v[0] + u[1] * v[1] * rho, u[0] * v[1] + u[1] * v[0]))
        return PackedMatrix(self.dim * d2, entries, self.bits, rho, self.shift + other.shift)

    def trace_product(self, other: "PackedMatrix") -> RingElem:
        """tr(self @ other), unpacked, without forming the product."""
        if self.dim != other.dim or self.bits != other.bits:
            raise DimensionMismatch(f"{self!r} vs {other!r}")
        get = other.entries.get
        shift = self.shift + other.shift
        if self.rho is None:
            acc = 0
            for (r, c), v in self.entries.items():
                w = get((c, r))
                if w is not None:
                    acc += v * w
            return unpack(acc, 0, self.bits, shift)
        rho = self.rho
        acc_a = acc_b = 0
        for (r, c), (va, vb) in self.entries.items():
            w = get((c, r))
            if w is not None:
                wa, wb = w
                acc_a += va * wa + vb * wb * rho
                acc_b += va * wb + vb * wa
        return unpack(acc_a, acc_b, self.bits, shift)

    def __repr__(self):
        return f"PackedMatrix(dim={self.dim}, nnz={len(self.entries)}, bits={self.bits})"


def _q_terms(poly, lift: int):
    """(q-exponent, coeff) of a kernel polynomial in s, times q^lift; exponents must be even."""
    off, coeffs = poly
    for i, c in enumerate(coeffs):
        if c:
            if (off + i) % 2:
                raise DomainError("odd power of s: the entry is not in Z[q^+-1][r]")
            yield (off + i) // 2 + lift, c


def _min_q_exp(v: RingElem) -> int:
    """Lowest q-exponent of v over the basis 1, r' (the r' part sits one lower)."""
    exps = [e for e, _ in _q_terms(v.rat, 0)] + [e for e, _ in _q_terms(v.rad, -1)]
    return min(exps)


def _evaluate(poly, lift: int, bits: int) -> int:
    return sum(c << (bits * e) for e, c in _q_terms(poly, lift))


def pack_matrix(M, bits: int, radical: bool) -> PackedMatrix:
    """M (a SqMatrix over the ring) at q = 2^bits, shifted to nonnegative degree."""
    shift = -min((_min_q_exp(v) for v in M.entries.values()), default=0)
    entries = {}
    for key, v in M.entries.items():
        a = _evaluate(v.rat, shift, bits)
        if radical:
            entries[key] = (a, _evaluate(v.rad, shift - 1, bits))
        elif v.rad[1]:
            raise DomainError("radical entry packed as a plain int")
        else:
            entries[key] = a
    rho = (1 + (1 << 2 * bits) + (1 << 4 * bits)) if radical else None
    return PackedMatrix(M.dim, entries, bits, rho, shift)


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


def _q_digits_in_s(digits: list[int], q_offset: int):
    """Kernel polynomial sum digits[i] s^(2 (i + q_offset)), canonical."""
    buf = [0] * (2 * len(digits) - 1)
    buf[::2] = digits
    return K.canon(2 * q_offset, buf)


def unpack(a: int, b: int, bits: int, shift: int) -> RingElem:
    """q^-shift (a + b r') read back at q = 2^bits, as a ring element in s."""
    # b r' = q b r, so the radical part sits one power of q higher
    return RingElem(_q_digits_in_s(_digits(a, bits), -shift),
                    _q_digits_in_s(_digits(b, bits), 1 - shift))


@dataclass(frozen=True)
class PackedImage:
    """A model's unit-free letters and closure weight at q = 2^bits.

    ``braid.represent`` reads ``N``, ``R`` and ``R_inv``, as on a model.
    """

    N: int
    R: PackedMatrix
    R_inv: PackedMatrix
    mu: PackedMatrix

    def mu_power(self, n: int) -> PackedMatrix:
        acc = self.mu
        for _ in range(n - 1):
            acc = acc.kron(self.mu)
        return acc


@dataclass(frozen=True)
class _Letters:
    R_hat: object  # R / Z
    R_bar: object  # Z R^-1
    radical: bool
    # largest row sums of entry weights
    rho_pos: int
    rho_neg: int
    rho_mu: int


def weight(v: RingElem) -> int:
    """w(a + b r) = ||a|| + 2 ||b||, a submultiplicative bound on every coefficient."""
    return sum(abs(x) for x in v.rat[1]) + 2 * sum(abs(x) for x in v.rad[1])


def _row_weight(M) -> int:
    """Largest row sum of entry weights."""
    rows: dict[int, int] = {}
    for (r, _), v in M.entries.items():
        rows[r] = rows.get(r, 0) + weight(v)
    return max(rows.values(), default=0)


@functools.lru_cache(maxsize=32)
def _letters(m) -> _Letters:
    inv_z = ring.invert_unit(m.Z)
    R_hat = m.R * inv_z
    R_bar = m.R_inv * m.Z
    radical = any(v.rad[1] for M in (R_hat, R_bar, m.mu) for v in M.entries.values())
    return _Letters(R_hat, R_bar, radical,
                    _row_weight(R_hat), _row_weight(R_bar), _row_weight(m.mu))


def closure_bits(m, word) -> int:
    """Packing width that makes the closure trace of ``word`` unpack exactly.

    With rho(M) the largest row sum of entry weights, the trace of
    R_1 ... R_L mu^(x)n weighs at most X = dim rho(mu)^n prod rho(R_i),
    so bits = bitlen(2 X) + 1 leaves every coefficient below 2^(bits-2).
    """
    L = _letters(m)
    n = word.strands
    pos = sum(1 for x in word.letters if x > 0)
    bound = (m.N ** n) * L.rho_mu ** n * L.rho_pos ** pos * L.rho_neg ** (len(word.letters) - pos)
    return (2 * bound).bit_length() + 1


@functools.lru_cache(maxsize=64)
def image(m, bits: int) -> PackedImage:
    """The unit-free letters and mu of ``m`` packed at q = 2^bits."""
    L = _letters(m)
    return PackedImage(m.N, pack_matrix(L.R_hat, bits, L.radical),
                       pack_matrix(L.R_bar, bits, L.radical), pack_matrix(m.mu, bits, L.radical))
