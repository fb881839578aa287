"""Braid closure traces over Q(sqrt(d)), evaluated at a rational point.

Deliberately shares no code with the package under test.  An element
x + y sqrt(d) is a pair of Fractions; d must not be a rational square, so
the pair is unique and every nonzero element is invertible.  The R-matrix
is inverted by Gauss-Jordan elimination over the field, and the trace of
rep(word) mu^(x)n is summed state by state: each basis row vector is
carried through the letters and its diagonal entry read off.

Conventions: R is a dict {(row, col): element} over pairs of label
positions flattened as row = a * N + b, the generator k acts on the
positions k - 1, k of a state (0-based, the first position most
significant), and mu is the list of diagonal entries of the closure
weight.
"""

from __future__ import annotations

import math
from fractions import Fraction


def is_rational_square(d: Fraction) -> bool:
    d = Fraction(d)
    if d < 0:
        return False
    p, q = d.numerator, d.denominator
    return math.isqrt(p) ** 2 == p and math.isqrt(q) ** 2 == q


class QSqrt:
    """x + y sqrt(d) with Fractions x, y."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x, y, d: Fraction):
        self.x = Fraction(x)
        self.y = Fraction(y)
        self.d = d

    def __add__(self, o: "QSqrt") -> "QSqrt":
        return QSqrt(self.x + o.x, self.y + o.y, self.d)

    def __sub__(self, o: "QSqrt") -> "QSqrt":
        return QSqrt(self.x - o.x, self.y - o.y, self.d)

    def __mul__(self, o: "QSqrt") -> "QSqrt":
        return QSqrt(self.x * o.x + self.d * self.y * o.y, self.x * o.y + self.y * o.x, self.d)

    def inverse(self) -> "QSqrt":
        norm = self.x * self.x - self.d * self.y * self.y
        if norm == 0:
            raise ZeroDivisionError("zero has no inverse")
        return QSqrt(self.x / norm, -self.y / norm, self.d)

    def __bool__(self) -> bool:
        return bool(self.x or self.y)

    def __eq__(self, o) -> bool:
        return isinstance(o, QSqrt) and (self.x, self.y, self.d) == (o.x, o.y, o.d)

    def __repr__(self) -> str:
        return f"{self.x} + {self.y} sqrt({self.d})"


def field(d: Fraction):
    """Constructor of Q(sqrt(d)) elements from (x, y); d must not be a rational square."""
    d = Fraction(d)
    if is_rational_square(d):
        raise ValueError(f"{d} is a rational square: Q(sqrt(d)) would be Q")
    return lambda x, y=0: QSqrt(x, y, d)


def laurent_at(terms: dict, s: Fraction) -> Fraction:
    """sum c s^e over the (e, c) of ``terms``."""
    return sum((c * Fraction(s) ** e for e, c in terms.items()), Fraction(0))


def flatten_table(table: dict, N: int) -> dict:
    """{(pos(a) N + pos(b), pos(c) N + pos(d)): v} for a table keyed by labels (a, c, b, d)."""
    def pos(a) -> int:
        return int(a + Fraction(N - 1, 2))

    return {(pos(a) * N + pos(b), pos(c) * N + pos(d)): v for (a, c, b, d), v in table.items()}


def inverse(M: dict, dim: int) -> dict:
    """Inverse of a square matrix over the field, by Gauss-Jordan elimination."""
    some = next(iter(M.values()))
    zero = QSqrt(0, 0, some.d)
    one = QSqrt(1, 0, some.d)
    rows = [[M.get((r, c), zero) for c in range(dim)] + [one if c == r else zero for c in range(dim)]
            for r in range(dim)]
    for col in range(dim):
        piv = next((r for r in range(col, dim) if rows[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        rows[col], rows[piv] = rows[piv], rows[col]
        f = rows[col][col].inverse()
        rows[col] = [v * f for v in rows[col]]
        for r in range(dim):
            if r != col and rows[r][col]:
                g = rows[r][col]
                rows[r] = [a - g * b for a, b in zip(rows[r], rows[col])]
    return {(r, c): rows[r][dim + c] for r in range(dim) for c in range(dim) if rows[r][dim + c]}


def closure_trace(R: dict, R_inv: dict, mu: list, strands: int, letters) -> QSqrt:
    """tr(rep(word) mu^(x)n) with rep(sigma_k) = R and rep(sigma_k^-1) = R_inv on positions k-1, k."""
    N = len(mu)
    rows = {}
    for sign, M in ((1, R), (-1, R_inv)):
        for (r, c), v in M.items():
            rows.setdefault((sign, r), []).append((c, v))
    total = QSqrt(0, 0, mu[0].d)
    for state in range(N ** strands):
        vec = {state: QSqrt(1, 0, mu[0].d)}
        for L in letters:
            k = abs(L)
            right = N ** (strands - k - 1)  # the positions after k
            out: dict = {}
            for x, v in vec.items():
                pair = (x // right) % (N * N)
                rest = x - pair * right
                for c, w in rows.get((1 if L > 0 else -1, pair), ()):
                    y = rest + c * right
                    acc = out.get(y)
                    out[y] = v * w if acc is None else acc + v * w
            vec = {y: v for y, v in out.items() if v}
        diag = vec.get(state)
        if diag:
            weight = QSqrt(1, 0, mu[0].d)
            x = state
            for _ in range(strands):
                weight = weight * mu[x % N]
                x //= N
            total = total + diag * weight
    return total
