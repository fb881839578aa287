"""Exact vertex models for N = 2, 3, 4 and their Boltzmann-weight limits.

Each model packages the constant R-matrix, its inverse, the crossing
matrices M_u and M_d, the closure weight mu = M_u M_d^T and the trace
constants.  Every N is written one way: a tensor table of R / Z keyed by
(a, c, b, d), the form that charge conservation reads.

The N = 4 table is kept as the paper writes it: four entries carry the
radical r = sqrt([3]_q), from the normalisation of the spin-3/2 weight
basis (Kirby-Melvin, Invent. Math. 105, 1991), written as pairs (x, y)
for x + y r.  The model is built in the gauge D = diag(r^g(a)) over the
labels a, g = (1, 0, 0, -1) for N = 4 and 0 otherwise: :func:`gauge`
conjugates the table by D (x) D using r^2 = [3]_q and refuses any entry
that keeps r, which proves at build that r cancels.  D commutes with the
diagonal mu^(x)n, so no closure trace moves; M_u and M_d are
antidiagonal and g(-a) = -g(a), so they and mu are unchanged.

Construction checks R in this order and aborts on any failure, so a
successfully built model is already a verified one: charge conservation
and the flip (C (x) C) R = P R P (C (x) C), with C the label flip a -> -a
in the gauge and P the factor swap (each error names the offending
entry), annihilation by the minimal polynomial prod(R - lambda), the
inverse taken block by block over the charge sectors, R R^-1 = 1 exactly,
and the flip of R^-1.  M_u and M_d must be mutually inverse, and mu a
charge character sigma diag(q^(kappa a)); the closed forms of k, tau and
taubar, pinned last, leave sigma = (-1)^(N-1) and kappa = -2 (+2 for
mirrors).

The numeric side carries the solvable-model weights R(u) for N = 2, 3
whose u -> infinity limit reproduces the constant matrices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import ring
from .errors import (
    ClosedFormMismatch,
    ConventionValidationFailed,
    DomainError,
    MinPolyViolated,
    UnsupportedN,
)
from .ring import RingElem
from .tensor import (
    YANG_BAXTER,
    IndexConvention,
    SqMatrix,
    annihilates,
    charge_sectors,
    check_flip,
    det,
    inverse_blockwise,
    trace_product,
)

if TYPE_CHECKING:  # numpy loads in the float checks only, not with the exact pipeline
    import numpy as np

_Q = ring.q_power
_S = ring.s_power
_ONE = ring.one()
_ZERO = ring.zero()
_THREE = _Q(-2) + _ONE + _Q(2)  # [3]_q = r^2


def _f(x) -> Fraction:
    return Fraction(x)


# ------------------------------------------------------------------ tables
#
# Entry tables give R-hat = R / Z keyed by tensor indices (a, c, b, d),
# meaning the matrix entry [flatten(a, b), flatten(c, d)].  An entry
# (x, y) stands for x + y r.


def _r2_tensor_table() -> dict:
    h = Fraction(1, 2)
    return {
        (-h, -h, -h, -h): _ONE,
        (-h, -h, h, h): _ONE - _Q(2),
        (-h, h, h, -h): _Q(1),
        (h, -h, -h, h): _Q(1),
        (h, h, h, h): _ONE,
    }


def _r3_tensor_table() -> dict:
    w2 = _ONE - _Q(2)
    w4 = _ONE - _Q(4)
    return {
        (-1, -1, -1, -1): _ONE,
        (1, 1, 1, 1): _ONE,
        (-1, -1, 0, 0): w4,
        (0, 0, 1, 1): w4,
        (-1, 0, 0, -1): _Q(2, -1),
        (0, -1, -1, 0): _Q(2, -1),
        (0, 1, 1, 0): _Q(2, -1),
        (1, 0, 0, 1): _Q(2, -1),
        (-1, -1, 1, 1): w2 * w4,
        (-1, 0, 1, 0): _Q(1) * w4,
        (0, -1, 0, 1): _Q(1) * w4,
        (-1, 1, 1, -1): _Q(4),
        (1, -1, -1, 1): _Q(4),
        (0, 0, 0, 0): _Q(2),
    }


def _r4_tensor_table() -> dict:
    h = Fraction(1, 2)
    t = Fraction(3, 2)
    w2 = _ONE - _Q(2)
    w4 = _ONE - _Q(4)
    w6 = _ONE - _Q(6)
    table = {
        (t, t, t, t): _ONE,
        (-t, -t, -t, -t): _ONE,
        (-t, t, t, -t): _Q(9),
        (t, -t, -t, t): _Q(9),
        (-t, -t, t, t): w2 * w4 * w6,
        (t, h, h, t): _Q(3),
        (-t, -h, -h, -t): _Q(3),
        (h, t, t, h): _Q(3),
        (-h, -t, -t, -h): _Q(3),
        (h, -t, -t, h): _Q(6),
        (-h, t, t, -h): _Q(6),
        (-t, h, h, -t): _Q(6),
        (t, -h, -h, t): _Q(6),
        (-t, -t, -h, -h): w6,
        (h, h, t, t): w6,
        (h, -t, -h, t): _Q(4) * w6,
        (-t, h, t, -h): _Q(4) * w6,
        (-t, -h, h, -h): (_ZERO, _Q(3) * w4),
        (h, -h, h, t): (_ZERO, _Q(3) * w4),
        (-h, h, t, h): (_ZERO, _Q(3) * w4),
        (-h, -t, -h, h): (_ZERO, _Q(3) * w4),
        (-t, -t, h, h): w4 * w6,
        (-h, -h, t, t): w4 * w6,
        (-h, -t, h, t): _Q(1) * w4 * w6,
        (-t, -h, t, h): _Q(1) * w4 * w6,
        (h, h, h, h): _Q(4),
        (-h, -h, -h, -h): _Q(4),
        (h, -h, -h, h): _Q(5),
        (-h, h, h, -h): _Q(5),
        (-h, -h, h, h): _Q(2) * w4 * (_ONE + _Q(2)),
    }
    return table


def paper_table(N: int) -> dict:
    """R / Z as the paper writes it, keyed (a, c, b, d); N = 4 entries may be pairs."""
    if N not in (2, 3, 4):
        raise UnsupportedN(f"no model tables for N = {N}")
    make_table, size = {
        2: (_r2_tensor_table, 5),
        3: (_r3_tensor_table, 14),
        4: (_r4_tensor_table, 30),
    }[N]
    table = make_table()
    # a key typed twice in a dict literal silently drops an entry
    if len(table) != size:
        raise ConventionValidationFailed(f"N = {N} table must have {size} entries")
    return table


# g(a), the power of r in D = diag(r^g(a)) at each label; 0 on the others
_R_POWER = {Fraction(-3, 2): 1, Fraction(3, 2): -1}


def gauge_powers(conv: IndexConvention) -> tuple[int, ...]:
    """g(a) over the labels a: every model is its table conjugated by D (x) D, D = diag(r^g(a))."""
    return tuple(_R_POWER.get(a, 0) for a in conv.labels)


def gauge(table: dict, conv: IndexConvention) -> dict:
    """The table conjugated by D (x) D, exactly, using r^2 = [3]_q.

    D (x) D moves the entry keyed (a, c, b, d) by r^k with
    k = g(a) + g(b) - g(c) - g(d).  Of (x + y r) r^k, the part x r^k is
    free of r for even k and y r^(k+1) for odd k; the other part must be
    zero, or the entry is refused.
    """
    g = dict(zip(conv.labels, gauge_powers(conv)))
    out = {}
    for key, v in table.items():
        a, c, b, d = key
        x, y = v if isinstance(v, tuple) else (v, _ZERO)
        k = g[a] + g[b] - g[c] - g[d]
        keep, drop = (y, x) if k % 2 else (x, y)
        if drop:
            raise ConventionValidationFailed(f"table entry {key} keeps the radical in the gauge")
        e = (k + 1) // 2
        out[key] = keep * _THREE ** e if e >= 0 else ring.exact_divide(keep, _THREE ** -e)
    return out


def _label_flip(conv: IndexConvention) -> SqMatrix:
    """The label flip a -> -a in the gauge, D C0 D^-1 = diag(r^(2 g(a))) C0, times r^(-2 min g).

    The factor takes every entry into Z[q^+-1]; for N = 2, 3 it is C0.
    """
    g = gauge_powers(conv)
    N = conv.N
    return SqMatrix(N, {(i, N - 1 - i): _THREE ** (g[i] - min(g)) for i in range(N)})


def _m_upper(N: int) -> SqMatrix:
    if N == 2:
        return SqMatrix(2, {(0, 1): _S(1), (1, 0): _S(-1, -1)})
    if N == 3:
        return SqMatrix(3, {(0, 2): _Q(1), (1, 1): ring.integer(-1), (2, 0): _Q(-1)})
    if N == 4:
        return SqMatrix(
            4,
            {(0, 3): _S(3), (1, 2): _S(1, -1), (2, 1): _S(-1), (3, 0): _S(-3, -1)},
        )
    raise UnsupportedN(f"no model tables for N = {N}")


def generic_eigenvalues(N: int, Z: RingElem) -> tuple[RingElem, ...]:
    """Eigenvalues (-1)^(i+1) q^(N(N-1) - (N-i+1)(N-i)) Z for i = 1..N."""
    out = []
    for i in range(1, N + 1):
        exp = N * (N - 1) - (N - i + 1) * (N - i)
        out.append(_Q(exp, 1 if i % 2 == 1 else -1) * Z)
    return tuple(out)


def loop_sum(N: int) -> RingElem:
    """D = 1 + q^2 + ... + q^(2(N-1)), the denominator of tau."""
    acc = ring.zero()
    for j in range(N):
        acc = acc + _Q(2 * j)
    return acc


@dataclass(eq=False)
class VertexModel:
    N: int
    sign: int
    conv: IndexConvention
    Z: RingElem
    R: SqMatrix
    R_inv: SqMatrix
    M_u: SqMatrix
    M_d: SqMatrix
    mu: SqMatrix
    k: RingElem
    D: RingElem
    eigenvalues: tuple[RingElem, ...]
    tau_num: RingElem
    taubar_num: RingElem
    det_mu_u: RingElem
    mirrored: bool = False

    @property
    def tau(self) -> tuple[RingElem, RingElem]:
        """Markov trace weight of a positive curl, as (numerator, D)."""
        return self.tau_num, self.D

    @property
    def taubar(self) -> tuple[RingElem, RingElem]:
        return self.taubar_num, self.D

    def __repr__(self):
        tag = "-" if self.sign < 0 else "+"
        mir = ", mirrored" if self.mirrored else ""
        return f"VertexModel(N={self.N}, sign={tag}{mir})"


def check_trace_constants(N: int, Z: RingElem, k: RingElem, D: RingElem,
                          tau_trace: RingElem, taubar_trace: RingElem) -> None:
    """Pin the trace constants to their closed forms.

    k = tr(mu) = (-1)^(N-1) q^-(N-1) D, and the traces of R and R^-1
    against mu (x) mu give tau = Z / D and taubar = Z q^(N^2-1) / D once
    divided by k^2.
    """
    if k != _Q(-(N - 1), (-1) ** (N - 1)) * D:
        raise ClosedFormMismatch("closure weight k disagrees with its closed form")
    if tau_trace * D != Z * k * k:
        raise ClosedFormMismatch("tau disagrees with Z / D")
    if taubar_trace * D != Z * _Q(N * N - 1) * k * k:
        raise ClosedFormMismatch("taubar disagrees with Z q^(N^2-1) / D")


def closure_character(mu: SqMatrix, conv: IndexConvention) -> tuple[int, int]:
    """(sigma, kappa) with mu = sigma diag(q^(kappa a)) over the labels a, exactly.

    Turaev's enhancement (Invent. Math. 92, 1988): mu^(x)n is then the unit
    sigma^n q^(kappa w) on each charge sector w.  Anything else is refused.
    """
    first = mu.entries.get((0, 0))
    if first is None or not first.is_unit():
        raise ConventionValidationFailed("closure weight mu[0,0] is not a unit")
    sigma, lo = first.as_unit()
    kappa = -lo // (conv.N - 1)  # lo = 2 kappa a for the lowest label a = -(N - 1) / 2
    if mu != SqMatrix(conv.N, {(i, i): _S(int(2 * kappa * a), sigma)
                               for i, a in enumerate(conv.labels)}):
        raise ConventionValidationFailed("closure weight mu is not sigma diag(q^(kappa a))")
    return sigma, kappa


def _finalize(
    N: int,
    sign: int,
    conv: IndexConvention,
    Z: RingElem,
    R: SqMatrix,
    M_u: SqMatrix,
    M_d: SqMatrix,
    mirrored: bool = False,
) -> VertexModel:
    charge_sectors(R, conv)
    flip = _label_flip(conv)
    check_flip(R, flip, conv)
    eig = generic_eigenvalues(N, Z)
    # before the inversion, so a mis-signed R is refused as such and not by
    # a later step it happens to break (the adjugate's exact divisions, the
    # trace constants)
    if not annihilates(R, eig):
        raise MinPolyViolated("prod(R - lambda) over the eigenvalues is not zero")
    R_inv = inverse_blockwise(R, conv)
    if R @ R_inv != SqMatrix.identity(N * N):
        raise ClosedFormMismatch("R @ R_inv is not the identity")
    check_flip(R_inv, flip, conv)
    ident = SqMatrix.identity(N)
    if M_d @ M_u != ident or M_u @ M_d != ident:
        raise ClosedFormMismatch("M_u and M_d are not mutually inverse")
    mu = M_u @ M_d.transpose()
    closure_character(mu, conv)
    k = mu.trace()
    D = loop_sum(N)
    mm = mu.kron(mu)
    check_trace_constants(N, Z, k, D, trace_product(R, mm), trace_product(R_inv, mm))
    return VertexModel(
        N=N,
        sign=sign,
        conv=conv,
        Z=Z,
        R=R,
        R_inv=R_inv,
        M_u=M_u,
        M_d=M_d,
        mu=mu,
        k=k,
        D=D,
        eigenvalues=eig,
        tau_num=Z,
        taubar_num=Z * _Q(N * N - 1),
        det_mu_u=det(M_u),
        mirrored=mirrored,
    )


def _normalize_sign(sign) -> int:
    if sign in (1, "+", "+1", "pos"):
        return 1
    if sign in (-1, "-", "-1", "neg"):
        return -1
    raise DomainError(f"sign must be + or -, got {sign!r}")


@functools.lru_cache(maxsize=None)
def _build_model(N: int, sign: int) -> VertexModel:
    conv = IndexConvention.for_size(N)
    Z = _S(-((N - 1) ** 2), sign)
    R = SqMatrix(N * N, {
        (conv.flatten(_f(a), _f(b)), conv.flatten(_f(c), _f(d))): Z * v
        for (a, c, b, d), v in gauge(paper_table(N), conv).items()
    })
    M_u = _m_upper(N)
    M_d = -M_u if N % 2 == 0 else M_u
    return _finalize(N, sign, conv, Z, R, M_u, M_d)


def build_model(N: int, sign=1) -> VertexModel:
    """Verified vertex model for N in {2, 3, 4}; sign picks the Z branch."""
    if N not in (2, 3, 4):
        raise UnsupportedN(f"no model for N = {N}")
    return _build_model(N, _normalize_sign(sign))


@functools.lru_cache(maxsize=None)
def mirror_model(m: VertexModel) -> VertexModel:
    """Mirror solution (P R P, M_u^T, M_d^T) built from an existing model."""
    P = SqMatrix.permutation(m.N)
    R = P @ m.R @ P
    return _finalize(
        m.N, m.sign, m.conv, m.Z, R, m.M_u.transpose(), m.M_d.transpose(),
        mirrored=not m.mirrored,
    )


# ------------------------------------------------------------ numeric side


@dataclass(frozen=True)
class SpectralModel:
    """Solvable-model weights at anisotropy mu_aniso, crossing parameter lam."""

    N: int
    lam: float
    mu_aniso: float = 0.5
    u: float = 0.0

    def __post_init__(self):
        if self.N not in (2, 3):
            raise UnsupportedN(f"no spectral weights for N = {self.N}")
        if self.lam <= 0:
            raise DomainError("crossing parameter lam must be positive")


def rho(sm: SpectralModel, u: float | None = None) -> float:
    """Overall normalization sinh(lam - u) sinh(2 lam - u) ... ((N-1) terms)."""
    x = sm.u if u is None else u
    acc = 1.0
    for j in range(1, sm.N):
        acc *= math.sinh(j * sm.lam - x)
    return acc


def _weights_n2(lam: float, mu_a: float, u: float) -> dict:
    h = Fraction(1, 2)
    sl = math.sinh(lam)
    return {
        (-h, -h, -h, -h): math.sinh(lam - u),
        (h, h, h, h): math.sinh(lam - u),
        (-h, -h, h, h): math.exp(2 * mu_a * u) * sl,
        (h, h, -h, -h): math.exp(-2 * mu_a * u) * sl,
        (-h, h, h, -h): math.sinh(u),
        (h, -h, -h, h): math.sinh(u),
    }


def _weights_n3(lam: float, mu_a: float, u: float) -> dict:
    sl = math.sinh(lam)
    s2l = math.sinh(2 * lam)
    X = s2l * math.sinh(lam - u)
    Y = s2l * math.sinh(u)
    e = math.exp
    return {
        (1, 1, 1, 1): math.sinh(lam - u) * math.sinh(2 * lam - u),
        (-1, -1, -1, -1): math.sinh(lam - u) * math.sinh(2 * lam - u),
        (1, -1, -1, 1): math.sinh(u) * math.sinh(lam + u),
        (-1, 1, 1, -1): math.sinh(u) * math.sinh(lam + u),
        (1, 1, -1, -1): e(-4 * mu_a * u) * sl * s2l,
        (-1, -1, 1, 1): e(4 * mu_a * u) * sl * s2l,
        (1, 0, 0, 1): math.sinh(u) * math.sinh(lam - u),
        (-1, 0, 0, -1): math.sinh(u) * math.sinh(lam - u),
        (0, 1, 1, 0): math.sinh(u) * math.sinh(lam - u),
        (0, -1, -1, 0): math.sinh(u) * math.sinh(lam - u),
        (1, 1, 0, 0): e(-2 * mu_a * u) * X,
        (-1, -1, 0, 0): e(2 * mu_a * u) * X,
        (0, 0, 1, 1): e(2 * mu_a * u) * X,
        (0, 0, -1, -1): e(-2 * mu_a * u) * X,
        (0, -1, 0, 1): e(2 * mu_a * u) * Y,
        (0, 1, 0, -1): e(-2 * mu_a * u) * Y,
        (1, 0, -1, 0): e(-2 * mu_a * u) * Y,
        (-1, 0, 1, 0): e(2 * mu_a * u) * Y,
        (0, 0, 0, 0): sl * s2l - math.sinh(u) * math.sinh(lam - u),
    }


def _weights(sm: SpectralModel, u: float) -> dict:
    if sm.N == 2:
        return _weights_n2(sm.lam, sm.mu_aniso, u)
    return _weights_n3(sm.lam, sm.mu_aniso, u)


def boltzmann_tensor(sm: SpectralModel, u: float | None = None) -> np.ndarray:
    """Four-index array T[pos(a), pos(c), pos(b), pos(d)] = R^a_c^b_d(u)."""
    import numpy as np
    x = sm.u if u is None else u
    conv = IndexConvention.for_size(sm.N)
    T = np.zeros((sm.N,) * 4)
    for (a, c, b, d), v in _weights(sm, x).items():
        T[conv.pos(_f(a)), conv.pos(_f(c)), conv.pos(_f(b)), conv.pos(_f(d))] = v
    return T


def boltzmann_matrix(sm: SpectralModel, u: float | None = None) -> np.ndarray:
    """Weights flattened to the N^2 x N^2 matrix [flat(a,b), flat(c,d)]."""
    T = boltzmann_tensor(sm, u)
    N = sm.N
    return T.transpose(0, 2, 1, 3).reshape(N * N, N * N)


@dataclass(frozen=True)
class SpectralReport:
    N: int
    lam: float
    mu_aniso: float
    u: float
    v: float
    ybe: float
    unitarity: float
    crossing: float
    ybe_abs: float
    unitarity_abs: float
    crossing_abs: float

    def ok(self, tol: float = 1e-9) -> bool:
        return max(self.ybe, self.unitarity, self.crossing) <= tol


def _rel(lhs: np.ndarray, rhs: np.ndarray) -> tuple[float, float]:
    diff = float(abs(lhs - rhs).max())
    scale = max(float(abs(lhs).max()), float(abs(rhs).max()), 1.0)
    return diff / scale, diff


def spectral_checks(sm: SpectralModel, u: float, v: float) -> SpectralReport:
    """Parametrized Yang-Baxter, unitarity and crossing symmetry residuals.

    Residuals are relative to the largest magnitude on either side of the
    identity, which keeps them meaningful when sinh factors grow large.
    """
    import numpy as np
    Tu = boltzmann_tensor(sm, u)
    Tv = boltzmann_tensor(sm, v)
    Tuv = boltzmann_tensor(sm, u + v)
    lhs = np.einsum(YANG_BAXTER[0], Tu, Tuv, Tv)  # the exact braid check's strings
    rhs = np.einsum(YANG_BAXTER[1], Tv, Tuv, Tu)
    ybe_rel, ybe_abs = _rel(lhs, rhs)

    Bu = boltzmann_matrix(sm, u)
    Bmu = boltzmann_matrix(sm, -u)
    prod = Bu @ Bmu
    target = rho(sm, u) * rho(sm, -u) * np.eye(sm.N * sm.N)
    uni_rel, uni_abs = _rel(prod, target)

    conv = IndexConvention.for_size(sm.N)
    Tcross = boltzmann_tensor(sm, sm.lam - u)
    n = sm.N
    lhs_c = np.zeros((n,) * 4)
    rhs_c = np.zeros((n,) * 4)

    def r_of(p: Fraction) -> float:
        return math.exp(-2 * sm.mu_aniso * sm.lam * float(p))

    for i in conv.labels:
        for k in conv.labels:
            for j in conv.labels:
                for L in conv.labels:
                    pi, pk, pj, pl = conv.pos(i), conv.pos(k), conv.pos(j), conv.pos(L)
                    lhs_c[pi, pk, pj, pl] = Tu[pi, pk, pj, pl]
                    mult = math.sqrt(r_of(i) * r_of(k) / (r_of(j) * r_of(L)))
                    rhs_c[pi, pk, pj, pl] = mult * Tcross[
                        pj, conv.pos(-i), conv.pos(-L), pk
                    ]
    cross_rel, cross_abs = _rel(lhs_c, rhs_c)

    return SpectralReport(
        N=sm.N, lam=sm.lam, mu_aniso=sm.mu_aniso, u=u, v=v,
        ybe=ybe_rel, unitarity=uni_rel, crossing=cross_rel,
        ybe_abs=ybe_abs, unitarity_abs=uni_abs, crossing_abs=cross_abs,
    )


@dataclass(frozen=True)
class LimitReport:
    N: int
    lam: float
    u: float
    deviation: float
    reference_u: float
    reference_deviation: float

    @property
    def monotone(self) -> bool:
        return self.deviation < self.reference_deviation

    def ok(self, tol: float = 1e-6) -> bool:
        return self.deviation <= tol and self.monotone


def limit_check(sm: SpectralModel, model: VertexModel, u_large: float = 15.0,
                u_reference: float = 8.0) -> LimitReport:
    """Compare R(u)/rho(u) against the constant matrix at q = -exp(lam).

    The limit identification needs anisotropy 1/2; other values are
    rejected.  Per-entry deviations are absolute for vanishing targets and
    relative for large ones.
    """
    import numpy as np
    if abs(sm.mu_aniso - 0.5) > 1e-15:
        raise DomainError("the constant-matrix limit requires mu_aniso = 1/2")
    if sm.N != model.N:
        raise DomainError("spectral and constant models have different N")
    q = -math.exp(sm.lam)
    z_inv = ring.invert_unit(model.Z)
    dim = model.N ** 2
    exact = np.zeros((dim, dim))
    for (r, c), v in model.R.entries.items():
        exact[r, c] = ring.eval_numeric(v * z_inv, q)

    def deviation(u: float) -> float:
        B = boltzmann_matrix(sm, u) / rho(sm, u)
        return float(np.max(np.abs(B - exact) / np.maximum(1.0, np.abs(exact))))

    return LimitReport(
        N=sm.N, lam=sm.lam, u=u_large,
        deviation=deviation(u_large),
        reference_u=u_reference,
        reference_deviation=deviation(u_reference),
    )
