"""Sparse exact matrices and index bookkeeping.

Matrices are square, stored as ``{(row, col): RingElem}`` with exact zeros
dropped.  Tensor legs follow one pinned convention: an R-matrix entry
R^a_c^b_d sits at ``[flatten(a, b), flatten(c, d)]``, i.e. rows are the
upper index pair and columns the lower pair, with
``flatten(a, b) = pos(a) * N + pos(b)`` over the ascending index set.
``legs`` keys it as the tensor (a, c, b, d); ``contract`` is an exact einsum.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import _kernel as K
from . import ring
from .errors import ConventionValidationFailed, DimensionMismatch, DomainError
from .ring import RingElem


@dataclass(frozen=True)
class IndexConvention:
    """Ascending spin labels for one tensor factor of size N.

    Labels are half-integers for even N and integers for odd N, symmetric
    around zero, e.g. (-1/2, 1/2) or (-1, 0, 1).
    """

    N: int
    labels: tuple[Fraction, ...]

    @classmethod
    def for_size(cls, N: int) -> "IndexConvention":
        labels = tuple(Fraction(2 * k - (N - 1), 2) for k in range(N))
        return cls(N, labels)

    def pos(self, a: Fraction) -> int:
        k = int(a - self.labels[0])
        if not 0 <= k < self.N or self.labels[k] != a:
            raise DomainError(f"label {a} not in index set of size {self.N}")
        return k

    def flatten(self, a: Fraction, b: Fraction) -> int:
        return self.pos(a) * self.N + self.pos(b)

    def unflatten(self, idx: int) -> tuple[Fraction, Fraction]:
        return self.labels[idx // self.N], self.labels[idx % self.N]

    def pairs(self):
        for a in self.labels:
            for b in self.labels:
                yield a, b


class SqMatrix:
    """Square sparse matrix over the exact coefficient ring."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict[tuple[int, int], RingElem] | None = None):
        self.dim = dim
        clean: dict[tuple[int, int], RingElem] = {}
        if entries:
            for (r, c), v in entries.items():
                if not 0 <= r < dim or not 0 <= c < dim:
                    raise DimensionMismatch(f"entry ({r},{c}) outside dim {dim}")
                if v:
                    clean[(r, c)] = v
        self.entries = clean

    @property
    def rows(self) -> dict[int, dict[int, RingElem]]:
        """The entries grouped by row, {r: {c: v}}, built on each call."""
        out: dict[int, dict[int, RingElem]] = {}
        for (r, c), v in self.entries.items():
            out.setdefault(r, {})[c] = v
        return out

    def like(self, dim: int, rows: dict[int, dict[int, RingElem]]) -> "SqMatrix":
        """A matrix over the same ring from entries {r: {c: v}}, taken as given (no zero check)."""
        res = SqMatrix(dim)
        res.entries = {(r, c): v for r, row in rows.items() for c, v in row.items()}
        return res

    @classmethod
    def identity(cls, dim: int, rows=None) -> "SqMatrix":
        """The identity, or only its rows in ``rows``."""
        e = ring.one()
        return cls(dim, {(i, i): e for i in (range(dim) if rows is None else rows)})

    @classmethod
    def permutation(cls, N: int) -> "SqMatrix":
        """Flip operator P on a two-factor space: P(x (x) y) = y (x) x."""
        e = ring.one()
        return cls(N * N, {(i * N + j, j * N + i): e for i in range(N) for j in range(N)})

    def __matmul__(self, other: "SqMatrix") -> "SqMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} @ {other.dim}")
        a = {k: v.rat for k, v in self.entries.items()}
        b = {k: v.rat for k, v in other.entries.items()}
        out = K.spgemm(a, b)
        res = SqMatrix(self.dim)
        res.entries = {k: RingElem(v) for k, v in out.items()}
        return res

    def __add__(self, other: "SqMatrix") -> "SqMatrix":
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} + {other.dim}")
        acc = dict(self.entries)
        for k, v in other.entries.items():
            cur = acc.get(k)
            acc[k] = v if cur is None else cur + v
        return SqMatrix(self.dim, acc)

    def __sub__(self, other: "SqMatrix") -> "SqMatrix":
        return self + (-other)

    def __neg__(self) -> "SqMatrix":
        res = SqMatrix(self.dim)
        res.entries = {k: -v for k, v in self.entries.items()}
        return res

    def __mul__(self, scalar) -> "SqMatrix":
        s = scalar if isinstance(scalar, RingElem) else ring.integer(scalar)
        return SqMatrix(self.dim, {k: v * s for k, v in self.entries.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, SqMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def transpose(self) -> "SqMatrix":
        res = SqMatrix(self.dim)
        res.entries = {(c, r): v for (r, c), v in self.entries.items()}
        return res

    def trace(self) -> RingElem:
        acc = ring.zero()
        for (r, c), v in self.entries.items():
            if r == c:
                acc = acc + v
        return acc

    def kron(self, other: "SqMatrix") -> "SqMatrix":
        d2 = other.dim
        res = SqMatrix(self.dim * d2)
        out = res.entries
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2), v2 in other.entries.items():
                out[(r1 * d2 + r2, c1 * d2 + c2)] = v1 * v2
        return res

    def is_zero(self) -> bool:
        return not self.entries

    def scalar_value(self) -> RingElem | None:
        """Return c when the matrix equals c * identity, else None."""
        diag = self.entries.get((0, 0), ring.zero())
        for i in range(self.dim):
            if self.entries.get((i, i), ring.zero()) != diag:
                return None
        if len(self.entries) > sum(1 for i in range(self.dim) if self.entries.get((i, i))):
            return None
        return diag

    def __repr__(self):
        return f"SqMatrix(dim={self.dim}, nnz={len(self.entries)})"

    # -- serialization ------------------------------------------------

    def to_json(self) -> str:
        items = sorted(self.entries.items())
        return json.dumps(
            {"dim": self.dim, "entries": [[r, c, ring.render(v)] for (r, c), v in items]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "SqMatrix":
        obj = json.loads(text)
        entries = {(r, c): ring.parse(poly) for r, c, poly in obj["entries"]}
        return cls(obj["dim"], entries)


# -------------------------------------------------------- exact contraction

YANG_BAXTER = ("aibj,jkcf,idke->abcdef", "bicj,adik,kejf->abcdef")
"""The two sides of the constant Yang-Baxter equation over R^a_c^b_d legs:
sum_ijk R^a_i^b_j R^j_k^c_f R^i_d^k_e = sum_ijk R^b_i^c_j R^a_d^i_k R^k_e^j_f."""


def legs(M: SqMatrix, N: int) -> dict[tuple[int, int, int, int], RingElem]:
    """A two-factor matrix as a four-leg tensor: M[(a,b),(c,d)] keyed (a, c, b, d).

    That is R^a_c^b_d, the key order of the model tables and of
    ``models.boltzmann_tensor``.
    """
    if M.dim != N * N:
        raise DimensionMismatch(f"legs need a two-factor matrix of dim {N * N}, got {M.dim}")
    return {(r // N, c // N, r % N, c % N): v for (r, c), v in M.entries.items()}


def _picker(positions):
    """The map from a tuple to the tuple of its items at ``positions``."""
    if len(positions) == 1:
        return lambda t, p=positions[0]: (t[p],)
    return operator.itemgetter(*positions) if positions else lambda t: ()


def _parse_spec(spec: str, operands) -> tuple[list[str], str]:
    """The operand terms and output letters of ``spec``; DomainError if malformed."""
    inputs, arrow, out = spec.partition("->")
    terms = inputs.split(",")
    if not arrow or "->" in out or not all(
            x.isascii() and x.isalpha() for x in (inputs + out).replace(",", "")):
        raise DomainError(f"spec {spec!r} is not letters, commas and one explicit '->'")
    if len(terms) != len(operands):
        raise DomainError(f"spec {spec!r} names {len(terms)} operands, got {len(operands)}")
    if len(set(out)) != len(out) or not set(out) <= set(inputs):
        raise DomainError(f"output {out!r} repeats a letter or has one no input has")
    if any(len(key) != len(term) for term, op in zip(terms, operands) for key in op):
        raise DomainError(f"spec {spec!r}: an operand has a key of another arity")
    return terms, out


def _summed(pairs) -> dict:
    """Add up (key, value) pairs per key, dropping exact zeros."""
    out: dict = {}
    for key, v in pairs:
        cur = out.get(key)
        out[key] = v if cur is None else cur + v
    return {k: v for k, v in out.items() if v}


def _project(op: dict, term: str, keep: str) -> dict:
    """Entries whose repeated letters agree, keyed by ``keep``, the rest summed out."""
    # on the diagonal iff reading each letter at its first position gives k back
    on_diagonal = _picker([term.index(x) for x in term])
    pick = _picker([term.index(x) for x in keep])
    return _summed((pick(k), v) for k, v in op.items() if on_diagonal(k) == k)


def _join(left: dict, l_letters: str, right: dict, r_letters: str, keep: str) -> dict:
    """Multiply matching entries of two tensors, summing every letter not kept."""
    shared = [x for x in r_letters if x in l_letters]
    l_key = _picker([l_letters.index(x) for x in shared])
    r_key = _picker([r_letters.index(x) for x in shared])
    pick = _picker([(l_letters + r_letters).index(x) for x in keep])
    groups: dict = {}
    for k, v in right.items():
        groups.setdefault(r_key(k), []).append((k, v))
    return _summed((pick(k1 + k2), v1 * v2) for k1, v1 in left.items()
                   for k2, v2 in groups.get(l_key(k1), ()))


def contract(spec: str, *operands: dict) -> dict:
    """Exact einsum over sparse tensors ``{index tuple: RingElem}``.

    ``spec`` is numpy's einsum syntax with an explicit ``->``, e.g.
    ``"ae,befc,fd->abcd"`` is sum_ef A[a,e] B[b,e,f,c] C[f,d].  A letter
    repeated inside one operand selects that operand's diagonal.  Operands
    are joined left to right, and each letter is summed out as soon as no
    later operand and not the output needs it.  The result is keyed in
    output-letter order with exact zeros dropped; a malformed spec raises
    DomainError.
    """
    terms, out = _parse_spec(spec, operands)
    letters = ""
    for i, (op, term) in enumerate(zip(operands, terms)):
        own = "".join(dict.fromkeys(term))
        needed = set(out).union(*terms[i + 1:])
        keep = out if i == len(terms) - 1 else "".join(
            x for x in dict.fromkeys(letters + own) if x in needed)
        acc = _project(op, term, keep) if i == 0 else _join(
            acc, letters, _project(op, term, own), own, keep)
        letters = keep
    return acc


def trace_product(a, b, weights=None) -> RingElem:
    """tr(a @ b) without forming the product; packed operands unpack the result
    and alone take row ``weights`` (:meth:`vertexlink.packed.PackedMatrix.trace_product`)."""
    if not isinstance(a, SqMatrix):
        return a.trace_product(b, weights)
    if weights is not None:
        raise DomainError("per-row powers of q apply to packed operands only")
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} vs {b.dim}")
    acc = ring.zero()
    for (r, c), v in a.entries.items():
        w = b.entries.get((c, r))
        if w is not None:
            acc = acc + v * w
    return acc


def partial_close_second(R: SqMatrix, mu: SqMatrix, conv: IndexConvention) -> SqMatrix:
    """Close the second tensor factor of R through mu.

    K[a, b] = sum over c, e of R[flatten(a,c), flatten(b,e)] * mu[e, c].
    For a model matrix this is the scalar tau * k * identity (and the
    analogue with R inverse gives taubar * k).
    """
    N = conv.N
    if R.dim != N * N or mu.dim != N:
        raise DimensionMismatch("partial closure dims do not match the convention")
    return SqMatrix(N, contract("abce,ec->ab", legs(R, N), mu.entries))


def annihilates(R: SqMatrix, eigenvalues) -> bool:
    """Whether prod (R - lam * 1) over ``eigenvalues`` is the zero matrix."""
    ident = SqMatrix.identity(R.dim)
    prod = ident
    for lam in eigenvalues:
        prod = prod @ (R - lam * ident)
    return prod.is_zero()


def _dense(M: SqMatrix) -> list[list[RingElem]]:
    z = ring.zero()
    return [[M.entries.get((r, c), z) for c in range(M.dim)] for r in range(M.dim)]


def _det_dense(rows: list[list[RingElem]]) -> RingElem:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = ring.zero()
    for j in range(n):
        v = rows[0][j]
        if not v:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = v * _det_dense(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def det(M: SqMatrix) -> RingElem:
    """Exact determinant by cofactor expansion (small matrices)."""
    return _det_dense(_dense(M))


def small_inverse(M: SqMatrix) -> SqMatrix:
    """Adjugate inverse for small matrices; entries must divide exactly."""
    rows = _dense(M)
    det = _det_dense(rows)
    if not det:
        raise DomainError("matrix is singular over the ring")
    n = M.dim
    out: dict[tuple[int, int], RingElem] = {}
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j]
                for r in range(n)
                if r != i
            ]
            cof = _det_dense(minor) if minor else ring.one()
            if (i + j) % 2:
                cof = -cof
            if cof:
                out[(j, i)] = ring.exact_divide(cof, det)
    return SqMatrix(n, out)


def charge_of_pair(conv: IndexConvention, flat: int) -> Fraction:
    a, b = conv.unflatten(flat)
    return a + b


def charge_sectors(R: SqMatrix, conv: IndexConvention) -> list[list[int]]:
    """Indices of a two-factor matrix grouped by charge a + b.

    Refuses, naming the entry, any R entry that joins two sectors: a
    charge-conserving R is block diagonal over these groups.
    """
    N = conv.N
    if R.dim != N * N:
        raise DimensionMismatch("charge sectors need a two-factor matrix")
    for (rp, cp) in R.entries:
        a, b = conv.unflatten(rp)
        c, d = conv.unflatten(cp)
        if a + b != c + d:
            raise ConventionValidationFailed(
                f"entry [{rp},{cp}] violates charge conservation: "
                f"{a}+{b} != {c}+{d}"
            )
    groups: dict[Fraction, list[int]] = {}
    for idx in range(N * N):
        groups.setdefault(charge_of_pair(conv, idx), []).append(idx)
    return list(groups.values())


def check_flip(R: SqMatrix, C: SqMatrix, conv: IndexConvention) -> None:
    """Refuse, naming the first bad entry, an R with (C (x) C) R != P R P (C (x) C).

    C is a label flip: antidiagonal, C[-a, a] = c_a != 0 over the labels a,
    and P swaps the two factors.  Entrywise, with u(a, b) = c_a c_b,
    u(a,b) R[(a,b),(c,d)] = u(c,d) R[(-b,-a),(-d,-c)]: both sides are
    products, so nothing is divided.  For c_a = 1 it reads
    R[(a,b),(c,d)] = R[(-b,-a),(-d,-c)].  With charge conservation it makes
    the closure trace on the charge sector w equal that on -w
    (:mod:`vertexlink.packed`).
    """
    N = conv.N
    if R.dim != N * N or C.dim != N:
        raise DimensionMismatch("the flip needs a two-factor matrix and a one-factor flip")
    col = [C.entries[(N - 1 - i, i)] for i in range(N)]
    u = [col[idx // N] * col[idx % N] for idx in range(N * N)]

    def flip(idx: int) -> int:  # (a, b) -> (-b, -a)
        return N * N - 1 - (idx % N) * N - idx // N

    # flip is an involution and u has no zero, so an entry whose image is
    # missing fails from whichever side is present
    zero = ring.zero()
    for r, c in sorted(R.entries):
        fr, fc = flip(r), flip(c)
        if u[r] * R.entries[(r, c)] != u[c] * R.entries.get((fr, fc), zero):
            raise ConventionValidationFailed(
                f"entry [{r},{c}] breaks the flip symmetry against [{fr},{fc}]"
            )


def inverse_blockwise(R: SqMatrix, conv: IndexConvention) -> SqMatrix:
    """Invert a charge-conserving matrix block by block over its sectors."""
    out: dict[tuple[int, int], RingElem] = {}
    for idxs in charge_sectors(R, conv):
        sub = SqMatrix(len(idxs))
        for a, ra in enumerate(idxs):
            for b, cb in enumerate(idxs):
                v = R.entries.get((ra, cb))
                if v is not None:
                    sub.entries[(a, b)] = v
        inv = small_inverse(sub)
        for (a, b), v in inv.entries.items():
            out[(idxs[a], idxs[b])] = v
    return SqMatrix(R.dim, out)
