"""Kronecker-packed matrices: closure traces and exact identity checks on plain ints.

The closure trace only adds and multiplies ring elements, and substituting
a number for a power of s is a ring homomorphism, so the chain can run on
Python ints (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009).
Factoring the unit Z out of every letter (R/Z and Z R^-1) leaves entries in
Z[q^+-1]: every exponent in s is even.  (The N = 4 model is built in the
gauge that clears the radical of its table, :mod:`vertexlink.models`.)  A
:class:`PackedMatrix` stores x^shift times a matrix over Z[x^+-1], shifted
to nonnegative degree and evaluated at x = 2^bits: one int per entry.  The
variable x is s^step.  The closure letters pack at x = q^2 = s^4 after the
parity gauge below; a check whose operands hold odd powers of s (R, M_u and
M_d for N = 2 and 4) packs at x = s, and one over Z[q^+-1] at x = q.

The parity gauge.  Every entry of R/Z and Z R^-1 is q^eps P(q^2), with one
parity eps per entry, so at x = q about half the base-2^bits digits of
every int in the chain would be zero.  Over the label indices 0..N-1,
multiply the entry [(a, b), (c, d)] of both letters by q^g with
g = lam (b - d) + beta(a) + beta(b) - beta(c) - beta(d) (:func:`gauged`).
One (lam, beta) puts every entry in Z[q^+-2], and it is read from the
parities eps alone (:func:`parity_gauge`).  On n strands this conjugates
every letter by G = diag(q^(sum_k lam k i_k + beta(i_k))) over the rows
(i_1, ..., i_n):

* At the sites k, k+1 the row (.., a, b, ..) and the column (.., c, d, ..)
  of b_k differ by q^(lam (k a + (k+1) b - k c - (k+1) d) + beta(a) +
  beta(b) - beta(c) - beta(d)).  R conserves charge, a + b = c + d, so
  that is q^g at every site: one gauged two-site letter, and so one
  product of such letters, serves every site, applied there by
  :meth:`PackedMatrix.times_two_site`.
* G is diagonal, so it keeps every charge sector, and G rep(b) G^-1 has
  the diagonal of rep(b): each t_w below, the flip argument and the trace
  are unchanged.
* Each entry moves by a monomial, so its weight, rho and
  :func:`closure_bits` are unchanged, and the width proof below holds as
  it is.

Only scalars are unpacked, as balanced base-2^bits digits: the trace, or
the traces over blocks of rows that add up to it.  That is exact when
every coefficient of the result has absolute value below 2^(bits-1),
which :func:`closure_bits` proves with the l1 norm of the coefficients.
It bounds every coefficient and ||xy|| <= ||x|| ||y||, so the largest row
sum rho of entry weights obeys rho(AB) <= rho(A) rho(B), and a trace
weighs at most dim times a row sum.  A trace over some of the rows weighs
no more: each row's diagonal term weighs at most a row sum.  The closure
weight mu^(x)n adds no factor: it is the unit sigma^n q^(kappa w) on each
charge sector w (:func:`vertexlink.tensor.closure_character`), of weight
1, so the trace shifts each sector's sum by its power of x once and never
forms mu^(x)n as a matrix.  No value is ever rounded.

The trace runs over the charges w >= 0 only.  Write t_w = tr(rep(b)|S_w)
for the block of the braid b on the charge sector S_w; R conserves charge,
so rep(b) is block diagonal and tr(rep(b) mu^(x)n) = sum_w mu(w) t_w with
mu(w) = sigma^n q^(kappa w).  Every model passes the flip
(C (x) C) R = P R P (C (x) C) at build (the ``flip`` row of
:data:`vertexlink.axioms.EQUATIONS`), P the swap of two factors and C a
label flip: antidiagonal, taking the label a to -a with a nonzero factor
(the gauged flip of :mod:`vertexlink.models`).  Then t_w = t_-w, over the
field of fractions:

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
columns there, and so only rows there of the next factor.  So the first
letter of each half-word is built on those rows only, every later letter
acts on them, and the chain runs on about half the rows.  The value is the
same polynomial as the full trace, so the same width unpacks it.

The later letters act in same-site runs (:func:`vertexlink.braid.site_runs`).
A run is a list of letters on one generator b_i: a letter joins the latest
run of its generator when every run after that one has a generator j with
|i - j| >= 2, and otherwise opens a new run.  Each run's packed two-site
letters are multiplied into one N^2 x N^2 operator, which acts on the
product once (:meth:`PackedMatrix.times_two_site`).  That is exact:

* b_i and b_j with |i - j| >= 2 act on disjoint factors, so their
  embeddings commute, and a letter joins a run only past letters that
  commute with it; the product of the runs in order is the word's.
* The product is associative, and over ints it is exact whatever the
  order: the image at x = 2^bits is a ring homomorphism, so the fused
  chain ends on the same ints as the letter-by-letter one, and the same
  width unpacks it.  A fused operator is never unpacked.
* No letter is dropped and no run is a special case: an inverse pair
  multiplies to the identity operator exactly, its ints x^shift on the
  diagonal and no other entry (R R^-1 = 1 is the ``r`` row of
  :data:`vertexlink.axioms.EQUATIONS`, checked at build), and it is
  applied like any other run.

The first letter stays embedded, on the rows of charge w >= 0, and joins
no run: it starts the product with one letter's entries per row, so no
identity is built and walked, and each non-empty half-word embeds only
its first letter (:func:`vertexlink.braid.letter_matrix`).

Every model has |kappa| = 2 (its trace constants pin mu, and :func:`image`
refuses any other kappa).  A row whose label positions sum to l has the
charge w = l - top/2, top = n (N - 1), so q^(+-kappa w) = q^-top x^d for
d = l or top - l, x = q^2: the trace shifts each sector's sum left by
bits d for each d, adds the ints and unpacks once
(:meth:`PackedMatrix.trace_product`), then multiplies by sigma^n q^-top.
With the two halves L and R of the word, the closure trace holds L whole
and takes R a block of rows at a time
(:func:`vertexlink.invariants._closure_trace`): the weight is constant on
each sector and both halves keep the sectors, so tr(L R W) = tr(R L W),
the sum of tr(R|B L W) over the blocks B, one unpacked sum per block.  A
row of weight x^d1 + x^d2 counts twice, but the rows of charge w < 0 are
not traced, so the rows' weights still add up to dim.

A :class:`PackedMatrix` is keyed by row, {r: {c: int}}: a product walks
the right factor's rows as stored, a two-site operator finds its row and
columns for each entry by arithmetic on the column index, and the closure
trace looks up B[c][r] for each entry A[r][c] of a row of weight.

Exact identity checks compare two sides on the image instead of reading a
scalar back.  Each operand is packed once, the sides are formed on ints,
and x^-s1 a equals x^-s2 b exactly when a << bits (s2 - s1) == b for
s2 >= s1 (:func:`first_difference`, ``PackedMatrix.__eq__``).  Equal
images mean equal polynomials once every coefficient of both sides lies
below 2^(bits-1) in absolute value: balanced base-2^bits digits are
unique, and the image of a polynomial with such coefficients spells them.
Only a failing check unpacks, to name its witness.  The widths come from
the same two facts as :func:`closure_bits`, every coefficient at most the
weight and the weight submultiplicative, with bits = bitlen(2 X) + 1
(:func:`width`) for a bound X on the weight of every entry of both sides:

* A matrix chain A_1 ... A_L weighs at most prod rho(A_i) in each entry:
  entry (r, c) is a sum over paths, and summing the first factor's row
  first gives rho(A_1) times the largest entry weight of the rest.
  :func:`annihilates` bounds R - lam 1 by rho(R) + ||lam||, and the
  Temperley-Lieb products bound E E' E by rho(e)^3, since an embedding
  1 (x) e (x) 1 keeps the rows of e.
* A contraction (:func:`vertexlink.tensor.contract`) sums, in each output
  entry, at most size^k products of one entry per operand, k the number of
  summed letters and size the range of each index, so it weighs at most
  size^k prod max ||T_i|| (:func:`contraction_bound`).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import _kernel as K
from . import ring
from .errors import DimensionMismatch, DomainError
from .ring import RingElem
from .tensor import SqMatrix, closure_character


class PackedMatrix:
    """Square sparse matrix over the image of Z[x^+-1] at x = 2^bits, x = s^step.

    It stands for x^-shift times the matrix whose entries unpack from the
    ints in ``rows``, keyed by row and then column: {r: {c: int}}.  A row
    with no entry is left out.  The closure letters pack at x = q^2 (step 4).
    """

    __slots__ = ("dim", "rows", "bits", "shift", "step")

    def __init__(self, dim: int, rows: dict[int, dict[int, int]], bits: int, shift: int,
                 step: int = 2):
        self.dim = dim
        self.rows = rows
        self.bits = bits
        self.shift = shift
        self.step = step

    def like(self, dim: int, rows: dict[int, dict[int, int]]) -> "PackedMatrix":
        """A matrix over the same image with the same shift, entries taken as given."""
        return PackedMatrix(dim, rows, self.bits, self.shift, self.step)

    def identity(self, dim: int, rows=None) -> "PackedMatrix":
        """The identity, or only its rows in ``rows``."""
        return PackedMatrix(dim, {i: {i: 1} for i in (range(dim) if rows is None else rows)},
                            self.bits, 0, self.step)

    def _check(self, other: "PackedMatrix"):
        if self.dim != other.dim or self.bits != other.bits or self.step != other.step:
            raise DimensionMismatch(f"{self!r} vs {other!r}")

    def __matmul__(self, other: "PackedMatrix") -> "PackedMatrix":
        self._check(other)
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
        return PackedMatrix(self.dim, out, self.bits, self.shift + other.shift, self.step)

    def times_two_site(self, op: "PackedMatrix", N: int, n: int, i: int) -> "PackedMatrix":
        """self @ (1 (x) ... (x) op (x) ... (x) 1), op on the factors i, i+1 of n of size N.

        The embedded matrix is never built.  Column k of self spells
        (x, p, y) with p its two-site index and right = N^(n-i-1) the size
        of y, so row k of the embedding is op's row p with x and y kept:
        column c of op lands on k + (c - p) right.
        """
        if (not 1 <= i < n or self.dim != N ** n or op.dim != N * N
                or (op.bits, op.step) != (self.bits, self.step)):
            raise DimensionMismatch(f"{op!r} on the factors {i}, {i + 1} of {self!r}")
        right = N ** (n - i - 1)
        NN = N * N
        moves = [[((c - p) * right, v) for c, v in op.rows.get(p, {}).items()]
                 for p in range(NN)]
        out = {}
        for r, row in self.rows.items():
            acc: dict[int, int] = {}
            for k, u in row.items():
                for d, v in moves[k // right % NN]:
                    c = k + d
                    if c in acc:
                        acc[c] += u * v
                    else:
                        acc[c] = u * v
            if 0 in acc.values():  # drop the sums that cancel
                acc = {c: v for c, v in acc.items() if v}
            if acc:
                out[r] = acc
        return PackedMatrix(self.dim, out, self.bits, self.shift + op.shift, self.step)

    def __eq__(self, other) -> bool:
        """Whether both stand for the same matrix, their shifts aligned.

        Exact when every coefficient of both lies below 2^(bits-1) in
        absolute value (see the module docstring).
        """
        if not isinstance(other, PackedMatrix):
            return NotImplemented
        self._check(other)
        a, b = self.rows, other.rows
        if a.keys() != b.keys():
            return False
        da, db = _lifts(self.shift, other.shift, self.bits)
        for r, row in a.items():
            brow = b[r]
            if row.keys() != brow.keys() or any(v << da != brow[c] << db for c, v in row.items()):
                return False
        return True

    def scaled(self, c: RingElem) -> "PackedMatrix":
        """c times this matrix; c is packed at the same width and variable, and
        c = 0 leaves no row."""
        shift = -low_degree([c], self.step)
        v = pack_value(c, self.bits, self.step, shift)
        rows = {r: {k: x * v for k, x in row.items()} for r, row in self.rows.items()} if v else {}
        return PackedMatrix(self.dim, rows, self.bits, self.shift + shift, self.step)

    def trace_product(self, other: "PackedMatrix", weights=None) -> RingElem:
        """tr(self @ other @ W), unpacked, without forming the product.

        W is diagonal: row r weighs the sum of x^d over the exponents d in
        ``weights[r]``, and a row ``weights`` leaves out weighs 0; without
        ``weights``, W = 1.  The diagonal terms are summed per row weight
        (per charge sector, for a closure weight), each sum is shifted by
        its powers of x once, and the total is unpacked once.
        """
        self._check(other)
        if weights is None:
            weights = dict.fromkeys(range(self.dim), (0,))
        get = other.rows.get
        weigh = weights.get
        sums: dict[tuple[int, ...], int] = {}
        for r, row in self.rows.items():
            ds = weigh(r)
            if ds is not None:
                t = 0
                for c, v in row.items():
                    b = get(c)
                    if b is not None and r in b:
                        t += v * b[r]
                sums[ds] = sums.get(ds, 0) + t
        total = 0
        for ds, t in sums.items():
            for d in ds:
                total += t << self.bits * d
        return unpack(total, self.bits, self.shift + other.shift, self.step)

    def __repr__(self):
        nnz = sum(len(row) for row in self.rows.values())
        return f"PackedMatrix(dim={self.dim}, nnz={nnz}, bits={self.bits})"


# ------------------------------------------------------- packing and reading


def variable_step(values) -> int:
    """2 (pack at x = q) when every exponent of s in ``values`` is even, else 1 (x = s)."""
    for v in values:
        off, coeffs = v.rat
        if any((off + i) % 2 for i, c in enumerate(coeffs) if c):
            return 1
    return 2


def low_degree(values, step: int = 2) -> int:
    """The lowest exponent of x = s^step over the nonzero ``values`` (0 if none)."""
    return min((v.rat[0] // step for v in values if v), default=0)


def pack_value(v: RingElem, bits: int, step: int = 2, shift: int = 0) -> int:
    """x^shift v at x = 2^bits, x = s^step; x^shift v must be a polynomial in x."""
    off, coeffs = v.rat
    acc = 0
    for i, c in enumerate(coeffs):
        if c:
            e, odd = divmod(off + i, step)
            if odd:
                raise DomainError(f"s^{off + i} is no power of x = s^{step}")
            if e + shift < 0:
                raise DomainError(f"x^{e + shift} is a negative power: shift too small")
            acc += c << bits * (e + shift)
    return acc


def pack(values: dict, bits: int, step: int = 2) -> tuple[dict, int]:
    """{key: RingElem} at x = 2^bits as ({key: int}, shift), each value times
    x^shift, the lowest degree lifted to 0."""
    shift = -low_degree(values.values(), step)
    return {k: pack_value(v, bits, step, shift) for k, v in values.items()}, shift


def pack_matrix(M, bits: int, step: int = 2, shift: int | None = None) -> PackedMatrix:
    """M (a SqMatrix) at x = 2^bits, shifted to nonnegative degree unless ``shift`` is given."""
    if shift is None:
        shift = -low_degree(M.entries.values(), step)
    rows = {r: {c: pack_value(v, bits, step, shift) for c, v in row.items()}
            for r, row in M.rows.items()}
    return PackedMatrix(M.dim, rows, bits, shift, step)


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


def unpack(a: int, bits: int, shift: int, step: int = 2) -> RingElem:
    """x^-shift a read back at x = 2^bits, x = s^step, as a ring element in s."""
    digits = _digits(a, bits)
    buf = [0] * (step * len(digits) - step + 1 if digits else 0)
    buf[::step] = digits  # digit i is the coefficient of s^(step (i - shift))
    return RingElem(K.canon(-step * shift, buf))


def _lifts(sa: int, sb: int, bits: int) -> tuple[int, int]:
    """Left shifts, in bits, that put ints read as x^-sa a and x^-sb b over the one
    shift max(sa, sb): x^-sa a = x^-sb b exactly when a << da == b << db."""
    return bits * max(sb - sa, 0), bits * max(sa - sb, 0)


def first_difference(lhs: tuple[dict, int], rhs: tuple[dict, int], bits: int, step: int = 2):
    """The first key, in sorted order, where two packed maps differ, with both values
    unpacked, as (key, lhs value, rhs value); None when they stand for the same map.

    Each side is ({key: int}, shift) as :func:`pack` returns it; a missing
    key stands for 0.  Each pair of ints is compared with its shift applied
    in place, so no map is copied.  Exact under the width condition of the
    module docstring.
    """
    (a, sa), (b, sb) = lhs, rhs
    da, db = _lifts(sa, sb, bits)
    if a.keys() == b.keys() and all(v << da == b[k] << db for k, v in a.items()):
        return None
    shift = max(sa, sb)
    for key in sorted(a.keys() | b.keys()):
        x, y = a.get(key, 0) << da, b.get(key, 0) << db
        if x != y:
            return key, unpack(x, bits, shift, step), unpack(y, bits, shift, step)
    return None


# ------------------------------------------------------------------- widths


def weight(v: RingElem) -> int:
    """l1 norm of the coefficients: it bounds each, and is submultiplicative on Z[q^+-1]."""
    return sum(map(abs, v.rat[1]))


def row_weight(M) -> int:
    """Largest row sum of entry weights."""
    return max((sum(map(weight, row.values())) for row in M.rows.values()), default=0)


def width(bound: int) -> int:
    """Packing width that reads back every coefficient of weight at most ``bound``.

    bits = bitlen(2 bound) + 1 leaves every such coefficient below 2^(bits-2).
    """
    return (2 * bound).bit_length() + 1


def contraction_bound(spec: str, size: int, norms) -> int:
    """Weight bound on every entry of ``tensor.contract(spec, *operands)``.

    ``norms`` holds the largest entry weight of each operand.  Each output
    entry sums at most size^k products of one entry per operand, k the
    number of letters summed out, each index ranging over ``size`` values.
    """
    inputs, _, out = spec.partition("->")
    bound = size ** len(set(inputs.replace(",", "")) - set(out))
    for x in norms:
        bound *= x
    return bound


# -------------------------------------------------------- minimal polynomial


def annihilator_bits(R, eigenvalues) -> int:
    """Width that reads every product of the factors R - lam 1, or of some of them.

    rho(R - lam 1) <= rho(R) + ||lam||, and a product of some factors weighs
    at most the product of all of them, since each is at least 1.
    """
    rho = row_weight(R)
    bound = 1
    for lam in eigenvalues:
        bound *= max(1, rho + weight(lam))
    return width(bound)


def annihilates(R, eigenvalues, minimal: bool = False) -> bool:
    """Whether prod (R - lam 1) over ``eigenvalues`` is the zero matrix; with
    ``minimal``, also that no product leaving one factor out is.

    R (a SqMatrix) and every lam are packed once with one shift, at
    :func:`annihilator_bits`, so each factor subtracts ints on the
    diagonal.  The factors are polynomials in R, so they commute: the
    product leaving out factor i is the prefix product before i times the
    suffix product after it, about 3k packed products for k factors in
    place of k^2.
    """
    eig = tuple(eigenvalues)
    return _annihilates(R, eig, minimal, annihilator_bits(R, eig))


def _annihilates(R, eig: tuple, minimal: bool, bits: int) -> bool:
    values = [*R.entries.values(), *eig]
    step = variable_step(values)
    base = pack_matrix(R, bits, step, -low_degree(values, step))

    def factor(lam):
        c = pack_value(lam, bits, step, base.shift)
        rows = {r: dict(row) for r, row in base.rows.items()}
        for i in range(R.dim):
            row = rows.setdefault(i, {})
            v = row.get(i, 0) - c
            if v:
                row[i] = v
            else:
                row.pop(i, None)
        return base.like(R.dim, {r: row for r, row in rows.items() if row})

    F = [factor(lam) for lam in eig]
    if not F:
        return not R.dim  # the empty product is the identity
    prefix = [F[0]]  # prefix[i] = F_0 ... F_i
    for f in F[1:]:
        prefix.append(prefix[-1] @ f)
    if prefix[-1].rows:
        return False
    if not minimal or len(F) == 1:
        return True  # leaving out the only factor leaves the identity
    suffix = {len(F) - 1: F[-1]}  # suffix[i] = F_i ... F_(k-1)
    for i in range(len(F) - 2, 0, -1):
        suffix[i] = F[i] @ suffix[i + 1]
    if not suffix[1].rows or not prefix[-2].rows:
        return False
    return all((prefix[i - 1] @ suffix[i + 1]).rows for i in range(1, len(F) - 1))


# ------------------------------------------------------------ closure trace


@functools.lru_cache(maxsize=32)
def _closure_weight(N: int, n: int, sigma: int) -> tuple[RingElem, dict]:
    levels = [0]  # label positions summed per row: the charge is w = level - top / 2
    for _ in range(n):
        levels = [x + p for x in levels for p in range(N)]
    top = n * (N - 1)
    # q^(+-2 w) = q^-top x^d with d = level or top - level, x = q^2; one d on w = 0
    pair = {x: (x, top - x) if 2 * x > top else (x,) for x in range(top + 1)}
    weights = {r: pair[x] for r, x in enumerate(levels) if 2 * x >= top}
    return ring.q_power(-top, sigma ** n), weights


@dataclass(frozen=True)
class PackedImage:
    """A model's gauged unit-free letters at q^2 = 2^bits, and the sign sigma of its mu.

    ``braid.represent`` reads ``N``, ``R`` and ``R_inv``, as on a model.
    """

    N: int
    R: PackedMatrix
    R_inv: PackedMatrix
    sigma: int

    def closure_weight(self, n: int) -> tuple[RingElem, dict]:
        """mu^(x)n on n strands folded onto the charges w >= 0, as (unit, weights).

        Row r of charge w > 0 weighs unit (x^d1 + x^d2), x = q^2, the weights
        of w and -w, for (d1, d2) = weights[r]; a row of charge 0 weighs unit
        x^d for (d,) = weights[r]; rows of charge w < 0 are left out.
        """
        return _closure_weight(self.N, n, self.sigma)


@dataclass(frozen=True)
class _Letters:
    R_hat: object  # R / Z, in the parity gauge
    R_bar: object  # Z R^-1, in the parity gauge
    rho_pos: int  # largest row sums of entry weights
    rho_neg: int


def parity_gauge(N: int, letters) -> tuple[int, tuple[int, ...]]:
    """(lam, beta) for which :func:`gauged` takes each two-site letter of ``letters`` into Z[q^+-2].

    Each entry must be q^eps P(q^2).  Only eps and (lam, beta) mod 2
    decide, so the gauge is read from the parities alone: lam in {0, 1}
    and beta in {0, 1}^N with beta(0) = 0 (a constant added to beta moves
    no entry), at most 2^N candidates and no ring product.  An entry of
    odd power of s or of mixed parity, or letters no candidate clears, are
    refused.
    """
    need = set()  # (a, b, c, d, eps): eps + lam (b - d) + beta(a) + ... must be even
    for M in letters:
        for (r, c), v in M.entries.items():
            off, coeffs = v.rat
            classes = {(off + i) % 4 for i, x in enumerate(coeffs) if x}
            if len(classes) != 1 or classes & {1, 3}:
                raise DomainError(f"entry ({r}, {c}) = {v!r} is no q^eps P(q^2)")
            need.add((*divmod(r, N), *divmod(c, N), classes.pop() // 2))
    for lam in (0, 1):
        for rest in itertools.product((0, 1), repeat=N - 1):
            beta = (0, *rest)
            if not any((eps + lam * (b - d) + beta[a] + beta[b] + beta[c] + beta[d]) % 2
                       for a, b, c, d, eps in need):
                return lam, beta
    raise DomainError("no diagonal gauge takes the letters into Z[q^+-2]")


def gauged(M, N: int, gauge: tuple[int, tuple[int, ...]]):
    """M (a two-site SqMatrix) with entry [(a, b), (c, d)] times
    q^(lam (b - d) + beta(a) + beta(b) - beta(c) - beta(d)), checked to lie in Z[q^+-2]."""
    lam, beta = gauge
    out = {}
    for (row, col), v in M.entries.items():
        (a, b), (c, d) = divmod(row, N), divmod(col, N)
        off, coeffs = v.rat
        off += 2 * (lam * (b - d) + beta[a] + beta[b] - beta[c] - beta[d])
        if any((off + i) % 4 for i, x in enumerate(coeffs) if x):
            raise DomainError(f"entry ({row}, {col}) is not in Z[q^+-2] in the gauge {gauge}")
        out[(row, col)] = RingElem((off, coeffs))
    return SqMatrix(M.dim, out)


@functools.lru_cache(maxsize=32)
def _letters(m) -> _Letters:
    R_hat = m.R * ring.invert_unit(m.Z)
    R_bar = m.R_inv * m.Z
    gauge = parity_gauge(m.N, (R_hat, R_bar))
    R_hat, R_bar = gauged(R_hat, m.N, gauge), gauged(R_bar, m.N, gauge)
    return _Letters(R_hat, R_bar, row_weight(R_hat), row_weight(R_bar))


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
    return width((m.N ** n) * L.rho_pos ** pos * L.rho_neg ** (len(word.letters) - pos))


@functools.lru_cache(maxsize=64)
def image(m, bits: int) -> PackedImage:
    """The gauged unit-free letters of ``m`` at q^2 = 2^bits, and sigma of its mu; |kappa| = 2."""
    sigma, kappa = closure_character(m.mu)
    if abs(kappa) != 2:
        raise DomainError(f"closure weight mu has kappa = {kappa}, not +-2")
    L = _letters(m)
    return PackedImage(m.N, pack_matrix(L.R_hat, bits, 4), pack_matrix(L.R_bar, bits, 4), sigma)
