"""Quantum sl2 spin-j representations and their match with the models.

Every clause is an exact identity over Z[s^+-1] (q = s^2), checked in the
integral weight basis of Kirby and Melvin (Invent. Math. 105, 1991): in
the ascending-m basis v_0, ..., v_2j (v_k of weight m_k = k - j)

    X+ v_k = [j - m_k] v_(k+1),   X- v_k = [j + m_k] v_(k-1),   H = diag(2m),

with E = q^(-H/2) X+ and F = q^(H/2) X-.  The divided powers E^n/[n]! are
integral (``ring.exact_divide`` takes them), so the truncated R^jj, its
inverse and each relation below are matrices over the ring, and every
relation is cross-multiplied so that nothing else is divided.  An
identity that holds in the ring holds at every q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import ring
from .axioms import equation_bits, equation_operands, equation_witnesses
from .errors import DimensionMismatch, UnsupportedN
from .models import VertexModel, build_model
from .ring import RingElem
from .tensor import SqMatrix, small_inverse


def _as_spin(j) -> Fraction:
    try:
        jf = Fraction(j)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise UnsupportedN(f"not a spin: {j!r}") from None
    if jf <= 0 or (2 * jf).denominator != 1:
        raise UnsupportedN(f"not a spin: {j}")
    return jf


def qint(n: int) -> RingElem:
    """The quantum integer [n]_q = q^(n-1) + q^(n-3) + ... + q^(1-n), n >= 0."""
    return RingElem.from_terms({2 * (n - 1 - 2 * k): 1 for k in range(n)})


def qbinomial(n: int, k: int) -> RingElem:
    """[n choose k]_q = [n]! / ([k]! [n-k]!), exactly."""
    num = den = ring.one()
    for i in range(k):
        num = num * qint(n - i)
        den = den * qint(i + 1)
    return ring.exact_divide(num, den)


def _diag(values) -> SqMatrix:
    return SqMatrix(len(values), {(k, k): v for k, v in enumerate(values)})


@dataclass(eq=False)
class SpinRep:
    """Spin-j generators in the ascending-m integral weight basis."""

    j: Fraction
    dim: int
    H: SqMatrix
    Xp: SqMatrix
    Xm: SqMatrix
    ms: tuple[Fraction, ...]

    def q_power_h(self, sign: int) -> SqMatrix:
        """q^(sign H / 2) = diag(s^(2 sign m))."""
        return _diag([ring.s_power(int(2 * sign * m)) for m in self.ms])


def build_rep(j) -> SpinRep:
    jf = _as_spin(j)
    dim = int(2 * jf) + 1
    ms = tuple(-jf + k for k in range(dim))
    H = _diag([ring.integer(int(2 * m)) for m in ms])
    Xp = SqMatrix(dim, {(k + 1, k): qint(int(jf - m)) for k, m in enumerate(ms[:-1])})
    Xm = SqMatrix(dim, {(k - 1, k): qint(int(jf + m)) for k, m in enumerate(ms) if k})
    return SpinRep(j=jf, dim=dim, H=H, Xp=Xp, Xm=Xm, ms=ms)


_Q_MINUS_QINV = ring.q_power(1) - ring.q_power(-1)


def rep_relations(rep: SpinRep) -> dict[str, bool]:
    """[H, X+-] = +-2 X+-, and (q - q^-1) [X+, X-] = q^H - q^-H."""
    H, Xp, Xm = rep.H, rep.Xp, rep.Xm
    q_h = rep.q_power_h(1)
    q_mh = rep.q_power_h(-1)
    return {
        "h_xp": H @ Xp - Xp @ H == 2 * Xp,
        "h_xm": H @ Xm - Xm @ H == -2 * Xm,
        "xp_xm": (Xp @ Xm - Xm @ Xp) * _Q_MINUS_QINV == q_h @ q_h - q_mh @ q_mh,
    }


def casimir_scalar(rep: SpinRep) -> RingElem | None:
    """(q - q^-1)^2 times the Casimir, when both orderings give one scalar.

    diag((s^(2m+1) - s^-(2m+1))^2) + (q - q^-1)^2 X- X+ and
    diag((s^(2m-1) - s^-(2m-1))^2) + (q - q^-1)^2 X+ X- must be the same
    multiple of the identity, (s^(2j+1) - s^-(2j+1))^2; None otherwise.
    """
    sq = _Q_MINUS_QINV * _Q_MINUS_QINV

    def half(shift: int) -> SqMatrix:
        return _diag([(ring.s_power(int(2 * m) + shift) - ring.s_power(-int(2 * m) - shift)) ** 2
                      for m in rep.ms])

    c_up = (half(1) + rep.Xm @ rep.Xp * sq).scalar_value()
    c_dn = (half(-1) + rep.Xp @ rep.Xm * sq).scalar_value()
    return c_up if c_up is not None and c_up == c_dn else None


def build_w(j) -> SqMatrix:
    """Exact inversion-automorphism matrix: w[m, -m] = (-1)^(j+m) q^(j+m)."""
    jf = _as_spin(j)
    dim = int(2 * jf) + 1
    entries: dict[tuple[int, int], RingElem] = {}
    for k in range(dim):
        m = -jf + k
        p = int(jf + m)
        entries[(k, dim - 1 - k)] = ring.s_power(2 * p, (-1) ** p)
    return SqMatrix(dim, entries)


def w_conjugation(j) -> bool:
    """w H = -H w, w X+ = -q^-1 X- w and w X- = -q X+ w."""
    rep = build_rep(j)
    W = build_w(j)
    q, q_inv = ring.q_power(1), ring.q_power(-1)
    return (W @ rep.H == -(rep.H @ W)
            and W @ rep.Xp == rep.Xm @ W * -q_inv
            and W @ rep.Xm == rep.Xp @ W * -q)


def exact_w_matches_md(j) -> bool:
    """build_w(j)^t equals q^j M_d of the matching model, exactly."""
    jf = _as_spin(j)
    N = int(2 * jf) + 1
    m = build_model(N)
    return build_w(jf).transpose() == ring.s_power(int(2 * jf)) * m.M_d


def _rows_hold(exact: dict, N: int, names) -> dict[str, bool]:
    """{name: holds} for the rows ``names`` of ``axioms.EQUATIONS``, on one packed pass."""
    witnesses = equation_witnesses(exact, equation_bits(exact, N, names), names)
    return {name: not w for name, w in witnesses.items()}


def exact_twist_substitution(j) -> bool:
    """Twist equations stay exact with M_d replaced by w^t (and M_u by its inverse),
    checked on the packed image (:func:`vertexlink.axioms.equation_witnesses`)."""
    jf = _as_spin(j)
    N = int(2 * jf) + 1
    m = build_model(N)
    M_d = build_w(jf).transpose()
    exact = equation_operands(N, R=m.R, R_inv=m.R_inv, M_u=small_inverse(M_d), M_d=M_d)
    return all(_rows_hold(exact, N, ("twist1", "twist2")).values())


def _r_series(rep: SpinRep, sign: int) -> tuple[SqMatrix, SqMatrix]:
    """Truncated R^jj (sign = 1) or its inverse (sign = -1), and the first
    discarded term, n = 2j + 1.

    R = q^(-H (x) H / 2) sum_n (1 - q^2)^n q^(-n(n-1)/2) E^n/[n]! (x) F^n,
    and R^-1 = sum_n (-1)^n (1 - q^2)^n q^(n(n-1)/2) E^n/[n]! (x) F^n q^(H (x) H / 2).
    """
    dim = rep.dim
    E = rep.q_power_h(-1) @ rep.Xp
    F = rep.q_power_h(1) @ rep.Xm
    cartan = _diag([ring.s_power(-sign * int(4 * a * b)) for a in rep.ms for b in rep.ms])
    step = (ring.one() - ring.q_power(2)) * sign
    total = SqMatrix(dim * dim)
    e_n = f_n = SqMatrix.identity(dim)
    fact = ring.one()
    for n in range(dim + 1):
        if n:
            e_n, f_n, fact = e_n @ E, f_n @ F, fact * qint(n)
        divided = SqMatrix(dim, {k: ring.exact_divide(v, fact) for k, v in e_n.entries.items()})
        coeff = step ** n * ring.s_power(-sign * n * (n - 1))
        term = divided.kron(f_n) * coeff
        if n < dim:
            total = total + term
    return (cartan @ total if sign > 0 else total @ cartan), term


def universal_r(rep: SpinRep) -> tuple[SqMatrix, SqMatrix]:
    """Truncated universal R on the spin-j square, and the first discarded
    term (exactly zero: E^(2j+1) = 0)."""
    return _r_series(rep, 1)


def universal_r_inverse(rep: SpinRep) -> SqMatrix:
    """(R^jj)^-1 from its own series."""
    return _r_series(rep, -1)[0]


def crossing_w(j) -> SqMatrix:
    """w' [m, -m] = w[m, -m] L / [2j choose j+m]_q, L the product of those binomials.

    The plain w conjugates the normalised weight basis; in the integral
    basis the crossing forms need it rescaled by the basis change."""
    W = build_w(j)
    n = W.dim - 1
    binom = [qbinomial(n, k) for k in range(W.dim)]
    L = math.prod(binom, start=ring.one())
    return SqMatrix(W.dim, {(k, c): v * ring.exact_divide(L, binom[k])
                            for (k, c), v in W.entries.items()})


def crossing_symmetry(rep: SpinRep, R: SqMatrix, R_inv: SqMatrix) -> dict[str, bool]:
    """Crossing-symmetry forms of R = R^jj on the spin-j square, with
    W = :func:`crossing_w`: the rows ``cs1`` and ``cs2`` of ``axioms.EQUATIONS``,

    cs1: (R^-1)^t1 (W x 1) = (W x 1) R
    cs2: R^t2 (1 x W) = (1 x W) R^-1
    """
    exact = equation_operands(rep.dim, R=R, R_inv=R_inv, W=crossing_w(rep.j))
    return _rows_hold(exact, rep.dim, ("cs1", "cs2"))


def exchange_sign_gauge(j) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sign pair (d1, d2) conjugating P R^(jj) onto the vertex matrix.

    For half-integer spin both are all ones: the truncated universal R
    reproduces the vertex R-matrix entry for entry.  For integer spin the
    two matrices agree only up to conjugation by diag(d1) x diag(d2) with
    d1[p] = (-1)^floor(p/2), d2[p] = (-1)^ceil(p/2): the exchange entries
    of the vertex matrix carry extra signs that no choice of weight-basis
    phases (which would force d1 = d2) absorbs.
    """
    jf = _as_spin(j)
    dim = int(2 * jf) + 1
    if jf.denominator == 2:
        return (1,) * dim, (1,) * dim
    return (tuple((-1) ** (p // 2) for p in range(dim)),
            tuple((-1) ** ((p + 1) // 2) for p in range(dim)))


def identification_signs(m: VertexModel, rep: SpinRep, R: SqMatrix,
                         gauge: bool = False) -> dict[tuple[int, int], int]:
    """Entry by entry, how R/Z compares with P R^jj:

        (R/Z)[(a,b),(c,d)] G(c) G(d)  against  q^(2j^2) e(a,b) e(c,d) (P R^jj)[(a,b),(c,d)] G(a) G(b).

    G = diag([2j]_q, 1, ..., 1) is the model gauge diag(r^g(a))
    (:func:`vertexlink.models.gauge_powers`) times the basis change
    diag([2j choose j+m]_q^(-1/2)) from the integral to the normalised
    weight basis, times the charge character and scalar that make it
    integral; both drop out of the comparison by charge conservation.
    e(a, b) = d1[a] d2[b] from exchange_sign_gauge with ``gauge``, else 1.
    Over the union of both supports, each entry maps to +1 where the two
    sides are equal, -1 where they are opposite and 0 otherwise.
    """
    N = m.N
    if rep.dim != N:
        raise DimensionMismatch(f"rep dim {rep.dim} != N {N}")
    G = [qint(N - 1)] + [ring.one()] * (N - 1)
    d1, d2 = exchange_sign_gauge(rep.j) if gauge else ((1,) * N, (1,) * N)
    z_inv = ring.invert_unit(m.Z)
    const = ring.s_power(int(4 * rep.j * rep.j))
    cand = SqMatrix.permutation(N) @ R
    signs = {}
    for key in sorted(m.R.entries.keys() | cand.entries.keys()):
        (a, b), (c, d) = (divmod(i, N) for i in key)
        lhs = m.R.entries.get(key, ring.zero()) * z_inv * G[c] * G[d]
        rhs = cand.entries.get(key, ring.zero()) * const * G[a] * G[b] * (d1[a] * d2[b] * d1[c] * d2[d])
        signs[key] = 1 if lhs == rhs else -1 if lhs == -rhs else 0
    return signs


def ratio_spread(signs: dict[tuple[int, int], int]) -> float:
    """Spread of the entrywise ratios about the first, relative to it:
    0 when all agree, 2 when both +1 and -1 occur, inf when one is not +-1."""
    values = set(signs.values())
    if 0 in values:
        return math.inf
    return 2.0 if len(values) > 1 else 0.0


def first_mismatch(signs: dict[tuple[int, int], int]) -> tuple[int, int] | None:
    """The first entry in row-major order where the two sides differ."""
    return next((key for key, v in signs.items() if v != 1), None)


@dataclass(eq=False)
class CorrespondenceReport:
    """Every clause for one spin, each an exact identity over the ring."""

    j: Fraction
    algebra: bool
    casimir: bool
    series: bool
    wconj: bool
    cs: bool
    md_exact: bool
    twist_exact: bool
    plain_witness: tuple[int, int] | None
    gauged_witness: tuple[int, int] | None
    ratio_spread: float

    def _shared_ok(self) -> bool:
        """Every clause both forms of the R identification rely on."""
        return all((self.algebra, self.casimir, self.series, self.wconj, self.cs,
                    self.md_exact, self.twist_exact))

    def ok(self) -> bool:
        """The plain claim: R/Z = q^(2j^2) P R^jj in the gauge G, entry for entry.

        This is false for integer spin (ratio_spread is 2 there: the
        entries split into two sign classes); ok_gauged() is the version
        that holds.
        """
        return self._shared_ok() and self.plain_witness is None

    def ok_gauged(self) -> bool:
        """Same, with the sign-gauge form of the R identification."""
        return self._shared_ok() and self.gauged_witness is None


def correspondence_report(j) -> CorrespondenceReport:
    """Run every clause for one spin; a spin without a vertex model raises UnsupportedN."""
    jf = _as_spin(j)
    m = build_model(int(2 * jf) + 1)
    rep = build_rep(jf)
    R, tail = universal_r(rep)
    R_inv = universal_r_inverse(rep)
    plain = identification_signs(m, rep, R)
    sq = ring.s_power(int(2 * jf) + 1) - ring.s_power(-int(2 * jf) - 1)
    return CorrespondenceReport(
        j=jf,
        algebra=all(rep_relations(rep).values()),
        casimir=casimir_scalar(rep) == sq * sq,
        series=tail.is_zero() and _rows_hold(equation_operands(rep.dim, R=R, R_inv=R_inv),
                                             rep.dim, ("r",))["r"],
        wconj=w_conjugation(jf),
        cs=all(crossing_symmetry(rep, R, R_inv).values()),
        md_exact=exact_w_matches_md(jf),
        twist_exact=exact_twist_substitution(jf),
        plain_witness=first_mismatch(plain),
        gauged_witness=first_mismatch(identification_signs(m, rep, R, gauge=True)),
        ratio_spread=ratio_spread(plain),
    )
