"""Closed-form values of the spin-(N-1)/2 invariant on torus knots (Rosso-Jones).

Deliberately shares no code with the package under test: a Laurent
polynomial in s is a dict {exponent: coefficient}, and the Markov moves
that scramble a word are written here.

The torus knot T(p, r), gcd(p, r) = 1, is the closure of
(b_1 b_2 ... b_(p-1))^r on p strands (:func:`torus_word`).  With q = s^2
and the quantum integer [d] = (q^d - q^-d) / (q - q^-1), so that
[-d] = -[d],

    [N] alpha_N(T(p, r)) = s^((N^2-1) p r) sum_k [2pk+1] s^(-4rk(pk+1)),

k running over -(N-1)/2, ..., (N-1)/2 in steps of 1 (Rosso and Jones,
J. Knot Theory Ramif. 2, 1993; Morton, Math. Proc. Camb. Phil. Soc. 117,
1995).  It is checked cross-multiplied by [N] (:func:`holds`), so no
polynomial is divided.  The mirror word, every letter negated, gives
s -> 1/s.

Where each factor comes from.  Write V_d for the irreducible module of
dimension d, of quantum dimension [d] and twist theta_d = s^-(d^2-1), and
V = V_N.

* The sum.  The Adams operation psi^p takes the character sum_k x^(2k) of
  V to sum_k x^(2pk), and since the k run symmetrically about 0 that is
  sum_k (x^(2pk+1) - x^-(2pk+1)) / (x - x^-1): psi^p(V) = sum_k V_(2pk+1),
  V_-d read as -V_d.  The full twist (b_1 ... b_(p-1))^p acts on a summand
  V_d of V^(x)p as theta_d theta_N^-p, and Rosso-Jones take its r/p-th
  power through psi^p: the quantum trace of the braid is
  theta_N^-r sum_k [d_k] theta_(d_k)^(r/p), d_k = 2pk+1.  Since
  (d_k^2 - 1)/4 = pk(pk+1), theta_(d_k)^(r/p) = s^(-4rk(pk+1)).
* The factor s^((N^2-1) p r).  That trace is the invariant of the closure
  framed by the blackboard, whose framing is the writhe (p-1) r.  The
  ambient normalization takes each unit of framing off with theta_N^-1,
  so the zero-framed value is theta_N^-((p-1) r) theta_N^-r times the sum,
  and theta_N^-(pr) = s^((N^2-1) p r).
* The [N].  The unknot has quantum dimension [N], and alpha is normalized
  to 1 on it.

Run as a script, it prints alpha_N(T(p, r)) at a rational s:

    python3 tests/oracle/torus_knots.py N p r s [--mirror]
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction


def _clean(poly: dict) -> dict:
    return {e: c for e, c in poly.items() if c}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _clean(out)


def _mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _clean(out)


def _at(poly: dict, s: Fraction) -> Fraction:
    return sum((c * Fraction(s) ** e for e, c in poly.items()), Fraction(0))


def qint(d: int) -> dict:
    """[d] = q^(d-1) + q^(d-3) + ... + q^(1-d) in s, q = s^2; [-d] = -[d], [0] = 0."""
    sign = 1 if d > 0 else -1
    n = abs(d)
    return {2 * (n - 1 - 2 * j): sign for j in range(n)}


def torus_word(p: int, r: int) -> tuple[int, tuple[int, ...]]:
    """(strands, letters) of (b_1 b_2 ... b_(p-1))^r, whose closure is T(p, r)."""
    return p, tuple(range(1, p)) * r


def mirror_word(word: tuple[int, tuple[int, ...]]) -> tuple[int, tuple[int, ...]]:
    """The word with every letter negated: its closure is the mirror image."""
    strands, letters = word
    return strands, tuple(-x for x in letters)


def numerator(N: int, p: int, r: int, mirrored: bool = False) -> dict:
    """[N] alpha_N(T(p, r)) in s, or of its mirror image (s -> 1/s)."""
    if N < 1 or p < 2 or r < 1 or math.gcd(p, r) != 1:
        raise ValueError(f"T({p},{r}) at N = {N} is no torus knot this formula covers")
    out: dict[int, int] = {}
    for j in range(1 - N, N, 2):  # j = 2k
        # s^((N^2-1) p r) s^(-4rk(pk+1)), and -4rk(pk+1) = -rj(pj+2)
        shift = (N * N - 1) * p * r - r * j * (p * j + 2)
        out = _add(out, {e + shift: c for e, c in qint(p * j + 1).items()})
    return {-e: c for e, c in out.items()} if mirrored else out


def holds(N: int, p: int, r: int, alpha: dict, mirrored: bool = False) -> bool:
    """Whether [N] alpha equals the closed form; ``alpha`` is {exponent of s: coefficient}."""
    return _mul(qint(N), _clean(alpha)) == numerator(N, p, r, mirrored)


def value_at(N: int, p: int, r: int, s: Fraction, mirrored: bool = False) -> Fraction:
    """alpha_N(T(p, r)) at a rational s: the closed form divided by [N] there."""
    return _at(numerator(N, p, r, mirrored), s) / _at(qint(N), s)


# ------------------------------------------------------------- Markov moves


def conjugate(word, g: int):
    """b_g w b_g^-1 (g may be negative): the closure is the same link."""
    strands, letters = word
    return strands, (g, *letters, -g)


def rotate(word, k: int):
    """The first k letters moved to the end: a conjugation."""
    strands, letters = word
    return strands, letters[k:] + letters[:k]


def insert_pair(word, pos: int, g: int):
    """b_g b_g^-1 put in before letter ``pos``: the same braid."""
    strands, letters = word
    return strands, letters[:pos] + (g, -g) + letters[pos:]


def stabilize(word, sign: int):
    """w b_n^sign on one more strand: a Markov stabilization."""
    strands, letters = word
    return strands + 1, letters + (sign * strands,)


def scramble(word, rng: random.Random, moves: int, max_strands: int):
    """``moves`` random Markov moves, never past ``max_strands`` strands."""
    for _ in range(moves):
        strands, letters = word
        g = rng.choice([x for x in range(1 - strands, strands) if x])
        kind = rng.choice(("conjugate", "rotate", "insert", "stabilize")
                          if strands < max_strands else ("conjugate", "rotate", "insert"))
        if kind == "conjugate":
            word = conjugate(word, g)
        elif kind == "rotate":
            word = rotate(word, rng.randrange(len(letters) + 1))
        elif kind == "insert":
            word = insert_pair(word, rng.randrange(len(letters) + 1), g)
        else:
            word = stabilize(word, rng.choice((1, -1)))
    return word


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--mirror"]
    if len(args) != 4:
        sys.exit(__doc__.rsplit("\n\n", 1)[-1])
    N, p, r = map(int, args[:3])
    print(value_at(N, p, r, Fraction(args[3]), mirrored="--mirror" in sys.argv[1:]))
