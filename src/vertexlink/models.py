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
successfully built model is already a verified one: charge conservation;
the flip (C (x) C) R = P R P (C (x) C), C the label flip a -> -a in the
gauge and P the factor swap, the ``flip`` row of ``axioms.EQUATIONS``
on the packed image (C must be antidiagonal with no zero there); then
annihilation by the minimal polynomial prod(R - lambda); the inverse,
taken block by block over the charge sectors, and R R^-1 = 1 exactly;
the flip of R^-1 through the same row.  The charge and flip errors name
the offending entry.  M_u[k, N-1-k] = (-1)^k s^(N-1-2k) and M_d = M_u^-1 must be
mutually inverse, and mu a charge character sigma diag(q^(kappa a)); the
closed forms of k, tau and taubar, pinned last, leave sigma = (-1)^(N-1)
and kappa = -2 (+2 for mirrors).

The numeric side carries the solvable-model weights R(u) for N = 2, 3 at
anisotropy 1/2, as sparse float tensors keyed (a, c, b, d) that
``tensor.contract`` joins like the exact ones.  Their u -> infinity limit
R(u)/rho(u) is the table R/Z, whose entries lie in Z[q, q^-1]: the limit
check reads them at the real q = -exp(lam), with no square root of q.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import ring
from .axioms import equation_bits, equation_operands, equation_witnesses
from .errors import (
    ClosedFormMismatch,
    ConventionValidationFailed,
    DomainError,
    MinPolyViolated,
    UnsupportedN,
)
from .packed import annihilates, variable_step
from .ring import RingElem
from .tensor import (
    YANG_BAXTER,
    SqMatrix,
    charge_sectors,
    closure_character,
    contract,
    inverse_blockwise,
    legs,
    trace_product,
)

_Q = ring.q_power
_S = ring.s_power
_ONE = ring.one()
_ZERO = ring.zero()
_THREE = _Q(-2) + _ONE + _Q(2)  # [3]_q = r^2


def labels(N: int) -> tuple[Fraction, ...]:
    """The spin labels (2p - (N-1))/2 at the positions p of a factor of size N."""
    return tuple(Fraction(2 * p - (N - 1), 2) for p in range(N))


@functools.lru_cache(maxsize=None)
def _positions(N: int) -> dict[Fraction, int]:
    """The position of each label; integer labels look up as their Fractions."""
    return {a: p for p, a in enumerate(labels(N))}


# ------------------------------------------------------------------ tables
#
# Entry tables give R-hat = R / Z keyed by tensor indices (a, c, b, d),
# meaning the matrix entry [a N + b, c N + d] over their positions.  An entry
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


def gauge_powers(N: int) -> tuple[int, ...]:
    """g(a) over the labels a: every model is its table conjugated by D (x) D, D = diag(r^g(a))."""
    return tuple(_R_POWER.get(a, 0) for a in labels(N))


def gauge(table: dict, N: int) -> dict:
    """The table conjugated by D (x) D, exactly, using r^2 = [3]_q.

    D (x) D moves the entry keyed (a, c, b, d) by r^k with
    k = g(a) + g(b) - g(c) - g(d).  Of (x + y r) r^k, the part x r^k is
    free of r for even k and y r^(k+1) for odd k; the other part must be
    zero, or the entry is refused.
    """
    g = dict(zip(labels(N), gauge_powers(N)))
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


def _verify_flip(name: str, X: SqMatrix, C: SqMatrix) -> None:
    """Refuse, naming the first bad entry, an X with (C (x) C) X != P X P (C (x) C),
    the ``flip`` row of ``axioms.EQUATIONS``, or a C that is not a label flip:
    antidiagonal, no zero there, nothing off it (the row holds for C = 0)."""
    N = C.dim
    bad = sorted(set(C.entries) ^ {(N - 1 - i, i) for i in range(N)})
    if bad:
        r, c = bad[0]
        where = "is zero" if r + c == N - 1 else "is off the antidiagonal"
        raise ConventionValidationFailed(f"flip entry [{r},{c}] {where}")
    exact = equation_operands(N, R=X, C=C)
    witness = equation_witnesses(exact, equation_bits(exact, N, ("flip",)), ("flip",))["flip"]
    if witness:
        raise ConventionValidationFailed(
            f"the flip (C (x) C) X = P X P (C (x) C) fails for X = {name} {witness}")


def _label_flip(N: int) -> SqMatrix:
    """The label flip a -> -a in the gauge, D C0 D^-1 = diag(r^(2 g(a))) C0, times r^(-2 min g).

    The factor takes every entry into Z[q^+-1]; for N = 2, 3 it is C0.
    """
    g = gauge_powers(N)
    return SqMatrix(N, {(i, N - 1 - i): _THREE ** (g[i] - min(g)) for i in range(N)})


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
    Z: RingElem
    R: SqMatrix
    R_inv: SqMatrix
    M_u: SqMatrix
    M_d: SqMatrix
    mu: SqMatrix
    k: RingElem
    D: RingElem
    eigenvalues: tuple[RingElem, ...]
    mirrored: bool = False

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


def _finalize(
    N: int,
    sign: int,
    Z: RingElem,
    R: SqMatrix,
    M_u: SqMatrix,
    M_d: SqMatrix,
    mirrored: bool = False,
) -> VertexModel:
    charge_sectors(R)
    flip = _label_flip(N)
    _verify_flip("R", R, flip)
    eig = generic_eigenvalues(N, Z)
    # before the inversion, so a mis-signed R is refused as such and not by
    # a later step it happens to break (the adjugate's exact divisions, the
    # trace constants)
    if not annihilates(R, eig):
        raise MinPolyViolated("prod(R - lambda) over the eigenvalues is not zero")
    R_inv = inverse_blockwise(R)
    if R @ R_inv != SqMatrix.identity(N * N):
        raise ClosedFormMismatch("R @ R_inv is not the identity")
    _verify_flip("R^-1", R_inv, flip)
    ident = SqMatrix.identity(N)
    if M_d @ M_u != ident or M_u @ M_d != ident:
        raise ClosedFormMismatch("M_u and M_d are not mutually inverse")
    mu = M_u @ M_d.transpose()
    closure_character(mu)
    k = mu.trace()
    D = loop_sum(N)
    mm = mu.kron(mu)
    check_trace_constants(N, Z, k, D, trace_product(R, mm), trace_product(R_inv, mm))
    return VertexModel(
        N=N,
        sign=sign,
        Z=Z,
        R=R,
        R_inv=R_inv,
        M_u=M_u,
        M_d=M_d,
        mu=mu,
        k=k,
        D=D,
        eigenvalues=eig,
        mirrored=mirrored,
    )


@functools.lru_cache(maxsize=None)
def _build_model(N: int, sign: int) -> VertexModel:
    pos = _positions(N)
    Z = _S(-((N - 1) ** 2), sign)
    R = SqMatrix(N * N, {
        (pos[a] * N + pos[b], pos[c] * N + pos[d]): Z * v
        for (a, c, b, d), v in gauge(paper_table(N), N).items()
    })
    # M_u[k, N-1-k] = (-1)^k s^(N-1-2k), and M_d = M_u^-1
    M_u = SqMatrix(N, {(k, N - 1 - k): _S(N - 1 - 2 * k, (-1) ** k) for k in range(N)})
    M_d = SqMatrix(N, {(N - 1 - k, k): _S(2 * k - (N - 1), (-1) ** k) for k in range(N)})
    return _finalize(N, sign, Z, R, M_u, M_d)


def build_model(N: int, sign: int = 1) -> VertexModel:
    """Verified vertex model for N in {2, 3, 4}; sign (1 or -1) picks the Z branch."""
    # ints only, not bools or floats: the cache keys 2.0 and True like 2 and 1
    if type(N) is not int or N not in (2, 3, 4):
        raise UnsupportedN(f"no model for N = {N!r}")
    if type(sign) is not int or sign not in (1, -1):
        raise DomainError(f"sign must be 1 or -1, got {sign!r}")
    return _build_model(N, sign)


@functools.lru_cache(maxsize=None)
def mirror_model(m: VertexModel) -> VertexModel:
    """Mirror solution (P R P, M_u^T, M_d^T) built from an existing model."""
    P = SqMatrix.permutation(m.N)
    R = P @ m.R @ P
    return _finalize(
        m.N, m.sign, m.Z, R, m.M_u.transpose(), m.M_d.transpose(),
        mirrored=not m.mirrored,
    )


# ------------------------------------------------------------ numeric side


@dataclass(frozen=True)
class SpectralModel:
    """Solvable-model weights at anisotropy 1/2 and crossing parameter lam."""

    N: int
    lam: float

    def __post_init__(self):
        if self.N not in (2, 3):
            raise UnsupportedN(f"no spectral weights for N = {self.N}")
        if self.lam <= 0:
            raise DomainError("crossing parameter lam must be positive")


def rho(sm: SpectralModel, u: float) -> float:
    """Overall normalization sinh(lam - u) sinh(2 lam - u) ... ((N-1) terms)."""
    acc = 1.0
    for j in range(1, sm.N):
        acc *= math.sinh(j * sm.lam - u)
    return acc


def _weights_n2(lam: float, u: float) -> dict:
    h = Fraction(1, 2)
    sl = math.sinh(lam)
    return {
        (-h, -h, -h, -h): math.sinh(lam - u),
        (h, h, h, h): math.sinh(lam - u),
        (-h, -h, h, h): math.exp(u) * sl,
        (h, h, -h, -h): math.exp(-u) * sl,
        (-h, h, h, -h): math.sinh(u),
        (h, -h, -h, h): math.sinh(u),
    }


def _weights_n3(lam: float, u: float) -> dict:
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
        (1, 1, -1, -1): e(-2 * u) * sl * s2l,
        (-1, -1, 1, 1): e(2 * u) * sl * s2l,
        (1, 0, 0, 1): math.sinh(u) * math.sinh(lam - u),
        (-1, 0, 0, -1): math.sinh(u) * math.sinh(lam - u),
        (0, 1, 1, 0): math.sinh(u) * math.sinh(lam - u),
        (0, -1, -1, 0): math.sinh(u) * math.sinh(lam - u),
        (1, 1, 0, 0): e(-u) * X,
        (-1, -1, 0, 0): e(u) * X,
        (0, 0, 1, 1): e(u) * X,
        (0, 0, -1, -1): e(-u) * X,
        (0, -1, 0, 1): e(u) * Y,
        (0, 1, 0, -1): e(-u) * Y,
        (1, 0, -1, 0): e(-u) * Y,
        (-1, 0, 1, 0): e(u) * Y,
        (0, 0, 0, 0): sl * s2l - math.sinh(u) * math.sinh(lam - u),
    }


def boltzmann_tensor(sm: SpectralModel, u: float) -> dict[tuple[int, ...], float]:
    """R^a_c^b_d(u) as ``{(pos(a), pos(c), pos(b), pos(d)): float}``, zeros dropped."""
    pos = _positions(sm.N)
    weights = (_weights_n2 if sm.N == 2 else _weights_n3)(sm.lam, u)
    return {tuple(pos[i] for i in key): v for key, v in weights.items() if v}


@dataclass(frozen=True)
class SpectralReport:
    N: int
    lam: float
    u: float
    v: float
    ybe: float
    unitarity: float
    crossing: float

    def ok(self, tol: float = 1e-9) -> bool:
        return max(self.ybe, self.unitarity, self.crossing) <= tol


def _worst(values) -> float:
    """The largest of ``values``, 0.0 if there are none; NaN if any is NaN, as numpy's max."""
    vals = list(values)
    return math.nan if any(math.isnan(x) for x in vals) else max(vals, default=0.0)


def _rel(lhs: dict, rhs: dict) -> float:
    """Max |lhs - rhs| over both supports, over the largest magnitude (at least 1)."""
    diff = _worst(abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) for k in lhs.keys() | rhs.keys())
    return diff / max(_worst(map(abs, lhs.values())), _worst(map(abs, rhs.values())), 1.0)


def spectral_checks(sm: SpectralModel, u: float, v: float) -> SpectralReport:
    """Parametrized Yang-Baxter, unitarity and crossing symmetry residuals.

    Residuals are relative to the largest magnitude on either side of the
    identity, which keeps them meaningful when sinh factors grow large.
    """
    Tu = boltzmann_tensor(sm, u)
    Tv = boltzmann_tensor(sm, v)
    Tuv = boltzmann_tensor(sm, u + v)
    lhs = contract(YANG_BAXTER[0], Tu, Tuv, Tv)  # the exact braid check's strings
    rhs = contract(YANG_BAXTER[1], Tv, Tuv, Tu)

    # R(u) R(-u) as matrices is this contraction over the legs (a, c, b, d)
    prod = contract("acbd,cedf->aebf", Tu, boltzmann_tensor(sm, -u))
    n = sm.N
    target = {(a, a, b, b): rho(sm, u) * rho(sm, -u) for a in range(n) for b in range(n)}

    # crossing: R^i_k^j_l(u) = e^(-lam (i + k - j - l) / 2) R^j_(-i)^(-l)_k(lam - u)
    label = labels(n)
    rhs_c = {}
    for (pj, pmi, pml, pk), w in boltzmann_tensor(sm, sm.lam - u).items():
        pi, pl = n - 1 - pmi, n - 1 - pml
        turn = label[pi] + label[pk] - label[pj] - label[pl]
        rhs_c[pi, pk, pj, pl] = math.exp(-sm.lam * float(turn) / 2) * w

    return SpectralReport(
        N=sm.N, lam=sm.lam, u=u, v=v,
        ybe=_rel(lhs, rhs), unitarity=_rel(prod, target), crossing=_rel(Tu, rhs_c),
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
    """Compare R(u)/rho(u) against the constant table R/Z at q = -exp(lam).

    Every entry of R/Z is a Laurent polynomial in q, sum c q^(e/2) over its
    exponents e of s, so it is read at the real q with no square root.
    Per-entry deviations are absolute for vanishing targets and relative
    for large ones.
    """
    if sm.N != model.N:
        raise DomainError("spectral and constant models have different N")
    z_inv = ring.invert_unit(model.Z)
    table = {key: v * z_inv for key, v in legs(model.R, model.N).items()}
    if variable_step(table.values()) != 2:
        raise DomainError("R/Z has an odd power of s, so it is not read in q")
    q = -math.exp(sm.lam)
    exact = {key: sum(c * q ** ((v.rat[0] + i) // 2) for i, c in enumerate(v.rat[1]) if c)
             for key, v in table.items()}

    def deviation(u: float) -> float:
        r = rho(sm, u)
        B = boltzmann_tensor(sm, u)
        return _worst(abs(B.get(k, 0.0) / r - x) / max(1.0, abs(x))
                      for k in B.keys() | exact.keys() for x in [exact.get(k, 0.0)])

    return LimitReport(
        N=sm.N, lam=sm.lam, u=u_large,
        deviation=deviation(u_large),
        reference_u=u_reference,
        reference_deviation=deviation(u_reference),
    )
