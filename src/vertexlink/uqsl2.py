"""Quantum sl2 spin-j representations and their match with the models.

Numeric (float) construction of the spin-j generators, Casimir, the
universal R-matrix truncated on a finite representation, and the w
matrix implementing the inversion automorphism.  The exact claims (w is
proportional to M_d, and substituting it into the twist equations keeps
them exact) run over the symbolic ring; everything else is float with
pinned tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ring
from .axioms import twist1_sides, twist2_sides
from .errors import DimensionMismatch, DomainError, UnsupportedN
from .models import VertexModel, build_model, gauge_powers
from .tensor import SqMatrix, small_inverse


def _as_spin(j) -> Fraction:
    jf = Fraction(j)
    if jf <= 0 or (2 * jf).denominator != 1:
        raise UnsupportedN(f"not a spin: {j}")
    return jf


def _qint(x: float, q: float) -> float:
    return (q ** x - q ** (-x)) / (q - 1.0 / q)


@dataclass(eq=False)
class SpinRep:
    """Spin-j generators in the ascending-m weight basis."""

    j: Fraction
    q: float
    dim: int
    H: np.ndarray
    Xp: np.ndarray
    Xm: np.ndarray
    ms: list[Fraction] = field(repr=False, default_factory=list)


def build_rep(j, q: float) -> SpinRep:
    jf = _as_spin(j)
    if not 0 < q < math.inf or q == 1.0:
        raise DomainError(f"q must be positive, finite and != 1, got {q}")
    dim = int(2 * jf) + 1
    ms = [-jf + k for k in range(dim)]
    H = np.diag([float(2 * m) for m in ms])
    Xp = np.zeros((dim, dim))
    Xm = np.zeros((dim, dim))
    for k, m in enumerate(ms):
        if k + 1 < dim:
            Xp[k + 1, k] = np.sqrt(_qint(float(jf - m), q) * _qint(float(jf + m + 1), q))
        if k - 1 >= 0:
            Xm[k - 1, k] = np.sqrt(_qint(float(jf + m), q) * _qint(float(jf - m + 1), q))
    return SpinRep(j=jf, q=q, dim=dim, H=H, Xp=Xp, Xm=Xm, ms=ms)


def _rel(delta: np.ndarray, scale: float) -> float:
    # a plain float: a numpy scalar would make the report's verdicts numpy
    # bools, which the JSON output cannot encode
    return float(np.max(np.abs(delta)) / max(1.0, scale))


def _balance(*terms: np.ndarray) -> float:
    """Largest entry of the sum of ``terms``, relative to the largest entry among them.

    Rounding error scales with the terms compared, not with the generators:
    at q = 1e7 the products X+ X- are about |X+-|^2.
    """
    return _rel(sum(terms), max(float(np.max(np.abs(t))) for t in terms))


def rep_residuals(rep: SpinRep) -> dict[str, float]:
    """Defining relations: [H, X+-] = +-2 X+-, [X+, X-] = (q^H - q^-H)/(q - q^-1)."""
    H, Xp, Xm, q = rep.H, rep.Xp, rep.Xm, rep.q
    qH = np.diag(np.array([q ** d for d in np.diag(H)]))
    qHinv = np.diag(np.array([q ** (-d) for d in np.diag(H)]))
    return {
        "h_xp": _balance(H @ Xp, -(Xp @ H), -2.0 * Xp),
        "h_xm": _balance(H @ Xm, -(Xm @ H), 2.0 * Xm),
        "xp_xm": _balance(Xp @ Xm, -(Xm @ Xp), -(qH - qHinv) / (q - 1.0 / q)),
    }


def casimir_scalar(rep: SpinRep) -> tuple[float, float]:
    """Casimir value and its worst relative deviation from a scalar matrix.

    Both orderings are checked: shifting H by +1 against Xm Xp and by -1
    against Xp Xm must give the same multiple of the identity.
    """
    H, Xp, Xm, q = rep.H, rep.Xp, rep.Xm, rep.q
    d = np.diag(H)

    def half(shift: float) -> np.ndarray:
        vals = np.array([_qint((x + shift) / 2.0, q) for x in d])
        return np.diag(vals * vals)

    c_up = half(1.0) + Xm @ Xp
    c_dn = half(-1.0) + Xp @ Xm
    value = float(c_up[0, 0])
    dev = max(
        _rel(c_up - value * np.eye(rep.dim), abs(value)),
        _rel(c_dn - value * np.eye(rep.dim), abs(value)),
    )
    return value, dev


def build_w(j) -> SqMatrix:
    """Exact inversion-automorphism matrix: w[m, -m] = (-1)^(j+m) q^(j+m)."""
    jf = _as_spin(j)
    dim = int(2 * jf) + 1
    entries: dict[tuple[int, int], ring.RingElem] = {}
    for k in range(dim):
        m = -jf + k
        p = int(jf + m)
        entries[(k, dim - 1 - k)] = ring.s_power(2 * p, (-1) ** p)
    return SqMatrix(dim, entries)


def _w_numeric(j, q: float) -> np.ndarray:
    W = build_w(j)
    dim = W.dim
    out = np.zeros((dim, dim))
    for (r, c), v in W.entries.items():
        out[r, c] = ring.eval_numeric(v, q)
    return out


def w_conjugation_residual(j, q: float) -> float:
    """w H w^-1 = -H and w X+- w^-1 = -q^(-+1) X-+, as float residuals."""
    rep = build_rep(j, q)
    W = _w_numeric(j, q)
    Winv = np.linalg.inv(W)
    return max(
        _balance(W @ rep.H @ Winv, rep.H),
        _balance(W @ rep.Xp @ Winv, rep.Xm / q),
        _balance(W @ rep.Xm @ Winv, q * rep.Xp),
    )


def exact_w_matches_md(j) -> bool:
    """build_w(j)^t equals q^j M_d of the matching model, exactly."""
    jf = _as_spin(j)
    N = int(2 * jf) + 1
    m = build_model(N)
    return build_w(jf).transpose() == ring.s_power(int(2 * jf)) * m.M_d


def exact_twist_substitution(j) -> bool:
    """Twist equations stay exact with M_d replaced by w^t (and M_u by its inverse)."""
    jf = _as_spin(j)
    N = int(2 * jf) + 1
    m = build_model(N)
    M_d = build_w(jf).transpose()
    M_u = small_inverse(M_d)
    l1, r1 = twist1_sides(m.R, m.R_inv, M_u, M_d, N)
    l2, r2 = twist2_sides(m.R, m.R_inv, M_u, M_d, N)
    return l1 == r1 and l2 == r2


def _r_series(rep: SpinRep, sign: float) -> tuple[np.ndarray, float]:
    """Truncated R^jj (sign = 1) or its inverse (sign = -1), and the largest
    entry of the first discarded term.

    With E = q^(-H/2) X+ and F = q^(H/2) X-, R = q^(-H (x) H / 2) sum_n c_n
    E^n (x) F^n, c_n = (1 - q^2)^n q^(-n(n-1)/2) / [n]!, and R^-1 =
    sum_n (-1)^n (1 - q^2)^n q^(+n(n-1)/2) / [n]! E^n (x) F^n q^(+H (x) H / 2).
    """
    q, dim = rep.q, rep.dim
    d = np.diag(rep.H)
    cartan = np.zeros((dim * dim, dim * dim))
    for a in range(dim):
        for b in range(dim):
            i = a * dim + b
            cartan[i, i] = q ** (-sign * d[a] * d[b] / 2.0)
    qmh = np.diag(np.array([q ** (-x / 2.0) for x in d]))
    qph = np.diag(np.array([q ** (+x / 2.0) for x in d]))
    up = qmh @ rep.Xp
    dn = qph @ rep.Xm
    total = np.zeros((dim * dim, dim * dim))
    up_n = np.eye(dim)
    dn_n = np.eye(dim)
    fact = 1.0
    nmax = int(2 * rep.j)
    tail = 0.0
    for n in range(nmax + 2):
        if n > 0:
            fact *= _qint(float(n), q)
            up_n = up_n @ up
            dn_n = dn_n @ dn
        coeff = ((sign * (1.0 - q * q)) ** n / fact) * q ** (-sign * n * (n - 1) / 2.0)
        term = coeff * np.kron(up_n, dn_n)
        if n <= nmax:
            total += term
        else:
            tail = float(np.max(np.abs(term)))
    return (cartan @ total if sign > 0 else total @ cartan), tail


def universal_r(rep: SpinRep) -> tuple[np.ndarray, float]:
    """Truncated universal R on the spin-j square, and the norm of the
    first discarded term (must vanish: X+^(2j+1) = 0)."""
    return _r_series(rep, 1.0)


def universal_r_inverse(rep: SpinRep) -> np.ndarray:
    """(R^jj)^-1 from its own series: no float inversion to lose digits as q grows."""
    return _r_series(rep, -1.0)[0]


def exchange_sign_gauge(j) -> tuple[np.ndarray, np.ndarray]:
    """Sign pair (D1, D2) conjugating P R^(jj) onto the vertex matrix.

    For half-integer spin both factors are the identity: the truncated
    universal R reproduces the vertex R-matrix entry for entry.  For
    integer spin the two matrices agree only up to conjugation by
    D1 x D2 with D1[p] = (-1)^floor(p/2), D2[p] = (-1)^ceil(p/2): the
    exchange entries of the vertex matrix carry extra signs that no
    choice of weight-basis phases (which would force D1 = D2) absorbs.
    """
    jf = _as_spin(j)
    dim = int(2 * jf) + 1
    if (2 * jf) % 2 == 1:
        return np.ones(dim), np.ones(dim)
    d1 = np.array([(-1.0) ** (p // 2) for p in range(dim)])
    d2 = np.array([(-1.0) ** ((p + 1) // 2) for p in range(dim)])
    return d1, d2


def _ratio_spread(target: np.ndarray, cand: np.ndarray) -> tuple[float, float]:
    """Fit the constant from the first nonzero entry, return (spread, constant).

    Every entry of the model's support counts, however small at large q."""
    mask = target != 0.0
    if not np.allclose(cand[~mask], 0.0, atol=1e-9 * max(1.0, np.abs(cand).max())):
        return float("inf"), 0.0
    ratios = target[mask] / cand[mask]
    c = float(ratios.flat[0])
    return float(np.max(np.abs(ratios - c))) / abs(c), c


def model_ratio_residual(m: VertexModel, rep: SpinRep, gauge: bool = False) -> tuple[float, float]:
    """Spread of the entrywise ratio between R/Z and P R^(jj).

    The model is built in the gauge D = diag(r^g(a)), r = sqrt([3]_q)
    (:func:`vertexlink.models.gauge_powers`; D = 1 for j = 1/2, 1), and
    R^(jj) lives in the normalised weight basis, so the candidate is
    conjugated by D (x) D first.  With gauge=False the comparison is then
    the plain proportionality claim; with gauge=True the candidate is also
    conjugated by the sign pair from exchange_sign_gauge, which is the
    form that actually holds for integer spin.  Returns (spread, fitted
    constant); the constant is q^(2 j^2), i.e. exactly 1/Z, so the gauged
    identification needs no scalar at all.
    """
    N = m.N
    if rep.dim != N:
        raise DimensionMismatch(f"rep dim {rep.dim} != N {N}")
    Rjj, _ = universal_r(rep)
    q = rep.q
    target = np.zeros((N * N, N * N))
    zinv = ring.invert_unit(m.Z)
    for (r, c), v in m.R.entries.items():
        target[r, c] = ring.eval_numeric(v * zinv, q)
    P = np.zeros((N * N, N * N))
    for a in range(N):
        for b in range(N):
            P[a * N + b, b * N + a] = 1.0
    d = math.sqrt(q * q + 1.0 + 1.0 / (q * q)) ** np.array(gauge_powers(m.conv), dtype=float)
    dd = np.kron(d, d)
    cand = dd[:, None] * (P @ Rjj) / dd[None, :]
    if gauge:
        d1, d2 = exchange_sign_gauge(rep.j)
        E = np.diag(np.kron(d1, d2))
        cand = E @ cand @ E
    return _ratio_spread(target, cand)


def cs_residuals(j, q: float) -> dict[str, float]:
    """Crossing-symmetry forms of the truncated R on the spin-j square.

    cs1: ((R^jj)^-1)^t1 = (w x 1) R^jj (w^-1 x 1)
    cs2: (R^jj)^t2 = (1 x w) (R^jj)^-1 (1 x w^-1)
    """
    rep = build_rep(j, q)
    dim = rep.dim
    Rjj, _ = universal_r(rep)
    Rinv = universal_r_inverse(rep)
    W = _w_numeric(j, q)
    Winv = np.linalg.inv(W)
    eye = np.eye(dim)

    def t1(X: np.ndarray) -> np.ndarray:
        return X.reshape(dim, dim, dim, dim).transpose(2, 1, 0, 3).reshape(dim * dim, dim * dim)

    def t2(X: np.ndarray) -> np.ndarray:
        return X.reshape(dim, dim, dim, dim).transpose(0, 3, 2, 1).reshape(dim * dim, dim * dim)

    scale = float(np.abs(Rjj).max())
    lhs1 = t1(Rinv)
    rhs1 = np.kron(W, eye) @ Rjj @ np.kron(Winv, eye)
    lhs2 = t2(Rjj)
    rhs2 = np.kron(eye, W) @ Rinv @ np.kron(eye, Winv)
    return {
        "cs1": _rel(lhs1 - rhs1, scale),
        "cs2": _rel(lhs2 - rhs2, scale),
    }


@dataclass(eq=False)
class CorrespondenceReport:
    j: Fraction
    q_samples: tuple[float, ...]
    algebra: float = 0.0
    casimir: float = 0.0
    truncation: float = 0.0
    wconj: float = 0.0
    cs: float = 0.0
    ratio_spread: float = 0.0
    gauged_spread: float = 0.0
    constant_dev: float = 0.0
    md_exact: bool = False
    twist_exact: bool = False

    def _shared_ok(self) -> bool:
        """Every check both forms of the R identification rely on."""
        return (self.algebra <= 1e-10 and self.casimir <= 1e-10 and self.truncation <= 1e-10
                and self.wconj <= 1e-9 and self.cs <= 1e-9 and self.md_exact and self.twist_exact)

    def ok(self) -> bool:
        """The plain claim: P R^(jj) proportional to R/Z entry for entry.

        This is false for integer spin (ratio_spread is about 2 there,
        not a rounding artifact); ok_gauged() is the version that holds.
        """
        return self._shared_ok() and self.ratio_spread <= 1e-8

    def ok_gauged(self) -> bool:
        """Same, with the sign-gauge form of the R identification."""
        return self._shared_ok() and self.gauged_spread <= 1e-8 and self.constant_dev <= 1e-8


def correspondence_report(j, q_samples: tuple[float, ...] = (1.2, 1.5, 2.0)) -> CorrespondenceReport:
    """Run every check for one spin across the sample q values.

    A spin without a vertex model raises UnsupportedN, and a sample q at
    which the float arithmetic overflows raises DomainError naming it.
    """
    jf = _as_spin(j)
    out = CorrespondenceReport(j=jf, q_samples=tuple(q_samples))
    m = build_model(int(2 * jf) + 1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for q in q_samples:
                rep = build_rep(jf, q)
                out.algebra = max(out.algebra, max(rep_residuals(rep).values()))
                out.casimir = max(out.casimir, casimir_scalar(rep)[1])
                _, tail = universal_r(rep)
                out.truncation = max(out.truncation, tail)
                out.wconj = max(out.wconj, w_conjugation_residual(jf, q))
                out.cs = max(out.cs, max(cs_residuals(jf, q).values()))
                spread, _ = model_ratio_residual(m, rep)
                gspread, c = model_ratio_residual(m, rep, gauge=True)
                out.ratio_spread = max(out.ratio_spread, spread)
                out.gauged_spread = max(out.gauged_spread, gspread)
                # the fitted constant must be q^(2 j^2) = 1/Z: the gauged
                # identification is an equality of matrices, not just a ray
                expect = q ** float(2 * jf * jf)
                out.constant_dev = max(out.constant_dev, abs(c - expect) / expect)
    except (OverflowError, FloatingPointError) as exc:
        raise DomainError(f"q = {q} overflows the spin-{jf} arithmetic") from exc
    out.md_exact = exact_w_matches_md(jf)
    out.twist_exact = exact_twist_substitution(jf)
    return out

