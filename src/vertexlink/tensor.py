"""Sparse exact matrices and index bookkeeping.

Matrices are square, stored as ``{(row, col): RingElem}`` with exact zeros
dropped.  Indices are positions: position p of a factor of size N carries
the spin label (2p - (N-1))/2, and the pair of positions (a, b) sits at
flat index a N + b, so N is read from a matrix's dimension.  An R-matrix
entry R^a_c^b_d sits at ``[a N + b, c N + d]``: rows are the upper pair,
columns the lower.  ``legs`` keys it as the tensor (a, c, b, d);
``contract`` is an exact einsum.
"""

from __future__ import annotations

import functools
import json
import math
import operator

from . import _kernel as K
from . import ring
from .errors import ConventionValidationFailed, DimensionMismatch, DomainError
from .ring import RingElem


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


# -------------------------------------------------------- exact contraction

YANG_BAXTER = ("aibj,jkcf,idke->abcdef", "bicj,adik,kejf->abcdef")
"""The two sides of the constant Yang-Baxter equation over R^a_c^b_d legs:
sum_ijk R^a_i^b_j R^j_k^c_f R^i_d^k_e = sum_ijk R^b_i^c_j R^a_d^i_k R^k_e^j_f."""


def legs(M: SqMatrix, N: int) -> dict[tuple[int, int, int, int], RingElem]:
    """A two-factor matrix as a four-leg tensor: M[(a,b),(c,d)] keyed (a, c, b, d).

    That is R^a_c^b_d, the key order of the model tables and of
    ``models.boltzmann_tensor``, so ``models.limit_check`` compares a
    constant table with the weights key by key.
    """
    if M.dim != N * N:
        raise DimensionMismatch(f"legs need a two-factor matrix of dim {N * N}, got {M.dim}")
    return {(r // N, c // N, r % N, c % N): v for (r, c), v in M.entries.items()}


def _picker(positions):
    """The map from a tuple to the tuple of its items at ``positions``."""
    if len(positions) == 1:
        return lambda t, p=positions[0]: (t[p],)
    return operator.itemgetter(*positions) if positions else lambda t: ()


@functools.lru_cache(maxsize=64)
def _plan(spec: str, count: int) -> tuple[tuple, object]:
    """``spec`` compiled for ``count`` operands; DomainError if malformed.

    One step per operand: its arity, its diagonal selector (None without a
    repeated letter), the pickers of the shared letters from the kept
    letters and from the operand, of the kept letters still needed and of
    the operand's new letters still needed; then the output permutation.
    """
    inputs, arrow, out = spec.partition("->")
    terms = inputs.split(",")
    if not arrow or "->" in out or not all(
            x.isascii() and x.isalpha() for x in (inputs + out).replace(",", "")):
        raise DomainError(f"spec {spec!r} is not letters, commas and one explicit '->'")
    if len(terms) != count:
        raise DomainError(f"spec {spec!r} names {len(terms)} operands, got {count}")
    if len(set(out)) != len(out) or not set(out) <= set(inputs):
        raise DomainError(f"output {out!r} repeats a letter or has one no input has")
    steps, letters = [], ""
    for i, term in enumerate(terms):
        needed = set(out).union(*terms[i + 1:])
        own = list(dict.fromkeys(term))
        shared = [x for x in own if x in letters]
        kept = [x for x in letters if x in needed]
        new = [x for x in own if x not in letters and x in needed]
        steps.append((len(term),
                      _picker([term.index(x) for x in term]) if len(own) < len(term) else None,
                      _picker([letters.index(x) for x in shared]),
                      _picker([term.index(x) for x in shared]),
                      _picker([letters.index(x) for x in kept]),
                      _picker([term.index(x) for x in new])))
        letters = "".join(kept + new)
    return tuple(steps), None if letters == out else _picker([letters.index(x) for x in out])


def contract(spec: str, *operands: dict) -> dict:
    """Einsum over sparse tensors ``{index tuple: value}``, exact for exact values.

    Values need only ``+``, ``*`` and truth (zero is false): ``RingElem``
    for the identity checks, ``float`` for the spectral checks.

    ``spec`` is numpy's einsum syntax with an explicit ``->``, e.g.
    ``"ae,befc,fd->abcd"`` is sum_ef A[a,e] B[b,e,f,c] C[f,d].  A letter
    repeated inside one operand selects that operand's diagonal.  Operands
    are joined left to right, zero entries left out, and each letter is
    summed out as soon as no later operand and not the output needs it.
    The result is keyed in output-letter order with zeros dropped.  Each
    spec is compiled once (:func:`_plan`); a malformed spec, or a key that
    is not a tuple of the term's length, raises DomainError on every call.
    """
    steps, perm = _plan(spec, len(operands))
    acc = None
    for op, (arity, diagonal, l_shared, r_shared, l_kept, r_new) in zip(operands, steps):
        groups: dict = {}
        for k, v in op.items():
            if not isinstance(k, tuple):
                raise DomainError(f"spec {spec!r}: key {k!r} is not a tuple")
            if len(k) != arity:
                raise DomainError(f"spec {spec!r}: an operand has a key of another arity")
            if v and (diagonal is None or diagonal(k) == k):
                key = r_shared(k)
                if key in groups:
                    groups[key].append((r_new(k), v))
                else:
                    groups[key] = [(r_new(k), v)]
        out: dict = {}
        if acc is None:
            for key, v in groups.get((), ()):
                cur = out.get(key)
                out[key] = v if cur is None else cur + v
        else:
            for k1, v1 in acc.items():
                row = groups.get(l_shared(k1))
                if row is not None:
                    head = l_kept(k1)
                    for tail, v2 in row:
                        key = head + tail
                        cur = out.get(key)
                        out[key] = v1 * v2 if cur is None else cur + v1 * v2
        acc = {k: v for k, v in out.items() if v}
    return acc if perm is None else {perm(k): v for k, v in acc.items()}


def trace_product(a, b, weights=None) -> RingElem:
    """tr(a @ b) without forming the product; packed operands unpack the result
    and alone take row ``weights``, powers of x = q^2 in the closure trace, where
    |kappa| = 2 (:meth:`vertexlink.packed.PackedMatrix.trace_product`)."""
    if not isinstance(a, SqMatrix):
        return a.trace_product(b, weights)
    if weights is not None:
        raise DomainError("per-row powers of x apply to packed operands only")
    if a.dim != b.dim:
        raise DimensionMismatch(f"{a.dim} vs {b.dim}")
    acc = ring.zero()
    for (r, c), v in a.entries.items():
        w = b.entries.get((c, r))
        if w is not None:
            acc = acc + v * w
    return acc


def partial_close_second(R: SqMatrix, mu: SqMatrix) -> SqMatrix:
    """Close the second tensor factor of R through mu.

    K[a, b] = sum over c, e of R[a N + c, b N + e] * mu[e, c].
    For a model matrix this is the scalar tau * k * identity (and the
    analogue with R inverse gives taubar * k).
    """
    N = mu.dim
    return SqMatrix(N, contract("abce,ec->ab", legs(R, N), mu.entries))


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


def small_inverse(M: SqMatrix) -> SqMatrix:
    """Adjugate inverse for small matrices; entries must divide exactly."""
    rows = _dense(M)
    den = _det_dense(rows)
    if not den:
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
                out[(j, i)] = ring.exact_divide(cof, den)
    return SqMatrix(n, out)


def factor_size(dim: int) -> int:
    """N for a two-factor dimension N^2; DimensionMismatch for any other."""
    N = math.isqrt(dim)
    if N * N != dim:
        raise DimensionMismatch(f"dimension {dim} is not N^2 for a two-factor space")
    return N


def charge_sectors(R: SqMatrix) -> list[list[int]]:
    """Indices of a two-factor matrix grouped by charge, the position sum a + b, ascending.

    Refuses, naming the entry, any R entry that joins two sectors: a
    charge-conserving R is block diagonal over these groups.
    """
    N = factor_size(R.dim)
    for (rp, cp) in R.entries:
        (a, b), (c, d) = divmod(rp, N), divmod(cp, N)
        if a + b != c + d:
            raise ConventionValidationFailed(
                f"entry [{rp},{cp}] violates charge conservation: "
                f"positions {a}+{b} != {c}+{d}"
            )
    sectors: list[list[int]] = [[] for _ in range(2 * N - 1)]
    for idx in range(N * N):
        sectors[sum(divmod(idx, N))].append(idx)
    return sectors


def closure_character(mu: SqMatrix) -> tuple[int, int]:
    """(sigma, kappa) with mu = sigma diag(q^(kappa a)) over the labels a, exactly.

    Turaev's enhancement (Invent. Math. 92, 1988): mu^(x)n is then the unit
    sigma^n q^(kappa w) on each charge sector w.  Anything else is refused,
    and so is N < 2, where no slope kappa is fixed.
    """
    N = mu.dim
    if N < 2:
        raise DimensionMismatch(f"a closure weight needs N >= 2, got N = {N}")
    first = mu.entries.get((0, 0))
    if first is None or not first.is_unit():
        raise ConventionValidationFailed("closure weight mu[0,0] is not a unit")
    sigma, lo = first.as_unit()
    # q^(kappa a) = s^(kappa (2p - (N - 1))) at position p, so lo = -kappa (N - 1)
    kappa = -lo // (N - 1)
    if mu != SqMatrix(N, {(p, p): ring.s_power(kappa * (2 * p - (N - 1)), sigma)
                          for p in range(N)}):
        raise ConventionValidationFailed("closure weight mu is not sigma diag(q^(kappa a))")
    return sigma, kappa


def inverse_blockwise(R: SqMatrix) -> SqMatrix:
    """Invert a charge-conserving matrix block by block over its sectors."""
    out: dict[tuple[int, int], RingElem] = {}
    for idxs in charge_sectors(R):
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
