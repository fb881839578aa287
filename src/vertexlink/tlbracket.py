"""Temperley-Lieb generator, bracket decomposition and curl factors.

The rank-one projector e built from the crossing matrices satisfies the
TL relations with loop value k; for N = 2 the R-matrix is a ring
combination of 1 and e (the bracket decomposition), for N = 3 the
difference R - R^-1 collapses onto 1 - e (Dubrovnik form).  Partial
closures of R give the curl factors that the ambient normalization
cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import packed, ring
from .axioms import CheckReport
from .errors import (
    ConventionValidationFailed,
    DomainError,
    InexactDivision,
    NotDecomposable,
    NotScalar,
)
from .invariants import STRAND_CAP
from .models import VertexModel
from .ring import RingElem
from .tensor import SqMatrix, partial_close_second


@dataclass(eq=False)
class TLData:
    e: SqMatrix
    f: SqMatrix  # P e P
    k: RingElem


def build_tl(m: VertexModel) -> TLData:
    """e[(a,b),(c,d)] = M_u[a,b] M_d[c,d], validated against e^2 = k e and tr e = k."""
    N = m.N
    entries: dict[tuple[int, int], RingElem] = {}
    for (a, b), vu in m.M_u.entries.items():
        for (c, d), vd in m.M_d.entries.items():
            entries[(a * N + b, c * N + d)] = vu * vd
    e = SqMatrix(N * N, entries)
    if e @ e != m.k * e:
        raise ConventionValidationFailed("e^2 != k e")
    if e.trace() != m.k:
        raise ConventionValidationFailed("tr(e) != k")
    P = SqMatrix.permutation(N)
    return TLData(e=e, f=P @ e @ P, k=m.k)


def tl_bits(tl: TLData) -> int:
    """Packing width that decides every relation of :func:`tl_relations_check` exactly.

    An embedding 1 (x) e (x) 1 keeps the rows of e, so with rho the largest
    row weight of e or f, E E' E weighs at most rho^3 in each entry and k E
    at most ||k|| rho (:mod:`vertexlink.packed`).
    """
    rho = max(packed.row_weight(tl.e), packed.row_weight(tl.f))
    return packed.width(max(rho ** 3, packed.weight(tl.k) * rho))


def tl_relations_check(m: VertexModel, max_strands: int = 4) -> CheckReport:
    """E_i^2 = k E_i, E_i E_(i+-1) E_i = E_i, far commutation, for e and f,
    on 2 up to the model's strand cap (``invariants.STRAND_CAP``).

    e and f are packed once, at the width :func:`tl_bits` proves.  Each E_i
    is the unit matrix on n strands times e or f on the factors i, i+1,
    applied as a two-site operator
    (:meth:`~vertexlink.packed.PackedMatrix.times_two_site`), and every
    product runs on the packed image.
    """
    cap = STRAND_CAP[m.N]
    if not 2 <= max_strands <= cap:
        raise DomainError(f"max_strands must be between 2 and {cap}, got {max_strands}")
    N, tl = m.N, build_tl(m)
    bits = tl_bits(tl)
    rep = CheckReport()
    step = packed.variable_step([*tl.e.entries.values(), *tl.f.entries.values(), tl.k])
    for name, gen in (("e", tl.e), ("f", tl.f)):
        g = packed.pack_matrix(gen, bits, step)
        for n in range(2, max_strands + 1):
            E = [None] + [g.identity(N ** n).times_two_site(g, N, n, i) for i in range(1, n)]
            for i in range(1, n):
                ok = E[i] @ E[i] == E[i].scaled(tl.k)
                rep.record(f"{name}:square:n{n}:i{i}", ok, "E^2 != k E")
            for i in range(1, n - 1):
                ok = E[i] @ E[i + 1] @ E[i] == E[i]
                rep.record(f"{name}:hook:n{n}:i{i}", ok, "E E' E != E")
                ok = E[i + 1] @ E[i] @ E[i + 1] == E[i + 1]
                rep.record(f"{name}:hook_rev:n{n}:i{i}", ok, "E' E E' != E'")
            for i in range(1, n - 1):
                for j in range(i + 2, n):
                    ok = E[i] @ E[j] == E[j] @ E[i]
                    rep.record(f"{name}:far:n{n}:{i},{j}", ok, "far generators do not commute")
    return rep


def bracket_decompose_n2(m: VertexModel) -> tuple[RingElem, RingElem]:
    """Write R = A 1 + B e (and R^-1 = B 1 + A e); N = 2 only.

    A and B are read off two entries of R: M_u is antidiagonal, so e is zero
    at (0, 0) and A = R[(0, 0)], and the identity is zero at (1, 2), so
    B = R[(1, 2)] / e[(1, 2)], exactly.  Both decompositions are verified,
    and so is the curl normalization: the partial closures equal -A^3 and
    -B^3, which is what makes (-A^-3)^writhe restore invariance.
    """
    if m.N != 2:
        raise NotDecomposable(f"R is not in the span of 1 and e for N = {m.N}")
    tl = build_tl(m)
    try:
        A = m.R.entries[(0, 0)]
        B = ring.exact_divide(m.R.entries[(1, 2)], tl.e.entries[(1, 2)])
    except (KeyError, InexactDivision):
        raise NotDecomposable("R has no ring coefficients at (0, 0) and (1, 2)") from None
    ident = SqMatrix.identity(4)
    if m.R != A * ident + B * tl.e:
        raise NotDecomposable("decomposition failed verification")
    if m.R_inv != B * ident + A * tl.e:
        raise NotDecomposable("inverse decomposition failed verification")
    c_pos, c_neg = curl_factors(m)
    if c_pos != -(A ** 3) or c_neg != -(B ** 3):
        raise NotDecomposable("curl factors disagree with -A^3, -B^3")
    return A, B


def dubrovnik_check_n3(m: VertexModel) -> bool:
    """R - R^-1 = sign (q^-2 - q^2)(1 - e) for the N = 3 model."""
    if m.N != 3:
        return False
    tl = build_tl(m)
    ident = SqMatrix.identity(9)
    z = ring.q_power(-2) - ring.q_power(2)
    lhs = m.R - m.R_inv
    rhs = (z * m.sign) * (ident - tl.e)
    return lhs == rhs


def curl_factors(m: VertexModel) -> tuple[RingElem, RingElem]:
    """Scalars of the partial closures of R and R^-1 (tau k and taubar k)."""
    out = []
    for X in (m.R, m.R_inv):
        closed = partial_close_second(X, m.mu)
        c = closed.scalar_value()
        if c is None:
            raise NotScalar("partial closure is not a scalar matrix")
        out.append(c)
    return out[0], out[1]
