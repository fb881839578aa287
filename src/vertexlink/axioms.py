"""Mechanical verification of the defining equations, plus the M-solver.

Checks are evaluated in literal component form: each equation is written
as its einsum index string over ``tensor.contract``, which sums tensor
entries index by index rather than trusting matrix-level shortcuts, so a
passing report certifies the displayed equations themselves.  The solver
runs the other way: given only an R-matrix it recovers the crossing
matrix M_d (and M_u) as the nullspace of an exact linear system, and can
additionally discover the normalization Z from one exact ratio of two
partial traces (Turaev's enhancement condition) before confirming it
symbolically.  No step uses floats or tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import ring
from .errors import DomainError, InexactDivision, NoSolution
from .ring import RingElem
from .tensor import YANG_BAXTER, IndexConvention, SqMatrix, contract, inverse_blockwise, legs


@dataclass
class CheckReport:
    results: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, str] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(self.results.values())

    def record(self, name: str, ok: bool, witness: str = ""):
        self.results[name] = ok
        if not ok:
            self.witnesses[name] = witness

    def __repr__(self):
        bad = [k for k, v in self.results.items() if not v]
        return f"CheckReport(passed={self.passed}, failed={bad})"


def _dict_diff(lhs: dict, rhs: dict) -> str:
    keys = sorted(set(lhs) | set(rhs))
    z = ring.zero()
    for key in keys:
        a = lhs.get(key, z)
        b = rhs.get(key, z)
        if a != b:
            return f"at {key}: {ring.render(a)} != {ring.render(b)}"
    return ""


def braid_equation_sides(R: SqMatrix, N: int) -> tuple[dict, dict]:
    """Both sides of the constant Yang-Baxter equation, fully indexed.

    Returns sparse maps (a,b,c,d,e,f) -> value for
    sum_ijk R^a_i^b_j R^j_k^c_f R^i_d^k_e  and
    sum_ijk R^b_i^c_j R^a_d^i_k R^k_e^j_f.
    """
    T = legs(R, N)
    lhs_spec, rhs_spec = YANG_BAXTER
    return contract(lhs_spec, T, T, T), contract(rhs_spec, T, T, T)


def twist1_sides(R: SqMatrix, R_inv: SqMatrix, M_u: SqMatrix, M_d: SqMatrix, N: int):
    """R^-1^a_c^b_d  vs  sum_ef M^ae R^b_e^f_c M_fd (first twist form)."""
    lhs = contract("acbd->abcd", legs(R_inv, N))
    return lhs, contract("ae,befc,fd->abcd", M_u.entries, legs(R, N), M_d.entries)


def twist2_sides(R: SqMatrix, R_inv: SqMatrix, M_u: SqMatrix, M_d: SqMatrix, N: int):
    """R^-1^a_c^b_d  vs  sum_ef M_ce R^e_d^a_f M^fb (second twist form)."""
    lhs = contract("acbd->abcd", legs(R_inv, N))
    return lhs, contract("ce,edaf,fb->abcd", M_d.entries, legs(R, N), M_u.entries)


def check_axioms(m) -> CheckReport:
    """Verify (m), (r), (braid), (twist1), (twist2) exactly."""
    rep = CheckReport()
    N = m.N
    ident_n = SqMatrix.identity(N)
    ident = SqMatrix.identity(N * N)

    ok = m.M_d @ m.M_u == ident_n and m.M_u @ m.M_d == ident_n
    rep.record("m", ok, "M_u, M_d not mutually inverse")

    ok = m.R @ m.R_inv == ident and m.R_inv @ m.R == ident
    rep.record("r", ok, "R R^-1 != 1")

    lhs, rhs = braid_equation_sides(m.R, N)
    rep.record("braid", lhs == rhs, _dict_diff(lhs, rhs))

    lhs, rhs = twist1_sides(m.R, m.R_inv, m.M_u, m.M_d, N)
    rep.record("twist1", lhs == rhs, _dict_diff(lhs, rhs))

    lhs, rhs = twist2_sides(m.R, m.R_inv, m.M_u, m.M_d, N)
    rep.record("twist2", lhs == rhs, _dict_diff(lhs, rhs))
    return rep


def check_markov_conditions(m) -> CheckReport:
    """Commutation with mu (x) mu and the partial-trace scaling, both signs."""
    rep = CheckReport()
    N = m.N
    mm = m.mu.kron(m.mu)
    for tag, X in (("", m.R), ("_inv", m.R_inv)):
        prod = X @ mm  # shared by both conditions
        rep.record("c1" + tag, prod == mm @ X, "does not commute with mu (x) mu")
        total = prod.trace()
        closed = contract("abcc->ab", legs(prod, N))
        lhs = SqMatrix(N, {key: v * m.k for key, v in closed.items()})
        rhs = SqMatrix(N, {key: v * total for key, v in m.mu.entries.items()})
        rep.record("c2" + tag, lhs == rhs, "partial closure does not scale like mu")
    return rep


# --------------------------------------------------------------- nullspace


def _normalize_primitive(vec: list[RingElem]) -> list[RingElem]:
    coeffs = []
    exps = []
    for e in vec:
        off, cs = e.rat
        if cs:
            exps.append(off)
            coeffs.extend(abs(c) for c in cs if c)
    if not coeffs:
        return vec
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
    divisor = ring.s_power(min(exps), g)
    out = [ring.exact_divide(e, divisor) for e in vec]
    for e in out:
        if e:
            if e.rat[1][-1] < 0:
                out = [-x for x in out]
            break
    return out


def nullspace(rows: list[list[RingElem]], ncols: int) -> list[list[RingElem]]:
    """Exact nullspace basis via fraction-free echelon reduction.

    Rows are dense lists over the ring.  Elimination uses cross
    multiplication only, keeping every intermediate in the ring; content
    stripping after each update controls coefficient growth.
    """
    zero = ring.zero()
    seen = set()
    work: list[list[RingElem]] = []
    for row in rows:
        key = tuple(row)
        if key in seen or all(not e for e in row):
            continue
        seen.add(key)
        work.append(list(row))

    pivots: list[tuple[int, int]] = []
    next_row = 0
    for col in range(ncols):
        best = None
        for r in range(next_row, len(work)):
            e = work[r][col]
            if not e:
                continue
            score = (0 if e.is_unit() else 1, len(e.rat[1]))
            if best is None or score < best[0]:
                best = (score, r)
        if best is None:
            continue
        r = best[1]
        work[next_row], work[r] = work[r], work[next_row]
        pv = work[next_row][col]
        prow = work[next_row]
        for r2 in range(next_row + 1, len(work)):
            f = work[r2][col]
            if not f:
                continue
            row2 = work[r2]
            for j in range(col, ncols):
                row2[j] = pv * row2[j] - f * prow[j]
            work[r2] = _normalize_primitive(row2)
        pivots.append((next_row, col))
        next_row += 1

    pivot_cols = {c for _, c in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        x: list[RingElem] = [zero] * ncols
        x[fc] = ring.one()
        for (pr, pc) in reversed(pivots):
            s = zero
            row = work[pr]
            for j in range(pc + 1, ncols):
                if row[j] and x[j]:
                    s = s + row[j] * x[j]
            pv = row[pc]
            try:
                x[pc] = -ring.exact_divide(s, pv)
            except InexactDivision:
                # scale the whole solution by the pivot and retry
                x = [e * pv for e in x]
                x[pc] = -s
        basis.append(_normalize_primitive(x))
    return basis


# ------------------------------------------------------------------ solver


@dataclass
class TwistSolution:
    md_basis: list[SqMatrix]
    mu_basis: list[SqMatrix]
    uniqueness: int
    z_candidates: list[RingElem]
    fitted_exponent: int | None = None
    non_generic: bool = False
    twin_consistent: bool | None = None


def _assemble_md_system(R: SqMatrix, R_inv: SqMatrix, N: int) -> list[list[RingElem]]:
    """Twist 1 multiplied by M_d, as dense rows over the unknown M_d.

    Row (a', b, c, d) reads sum_a R^-1[(a,b),(c,d)] M_d[a',a]
    - sum_f R[(b,f),(a',c)] M_d[f,d] = 0, with column a'N + a or fN + d of
    the unknown.  Rows come in order of first appearance, R^-1 entries
    before R entries.  Given the transposes (R^T, R^-1^T) the same rows are
    twist 2 multiplied by M_u, with M_u as the unknown.
    """
    zero = ring.zero()
    rows: dict[tuple, list[RingElem]] = {}
    for (rp, cp), v in R_inv.entries.items():
        a, b = divmod(rp, N)
        c, d = divmod(cp, N)
        for ap in range(N):
            row = rows.setdefault((ap, b, c, d), [zero] * (N * N))
            row[ap * N + a] = row[ap * N + a] + v
    for (rp, cp), v in R.entries.items():
        b, f = divmod(rp, N)
        ap, c = divmod(cp, N)
        for d in range(N):
            row = rows.setdefault((ap, b, c, d), [zero] * (N * N))
            row[f * N + d] = row[f * N + d] - v
    return list(rows.values())


def _vec_to_matrix(vec: list[RingElem], N: int) -> SqMatrix:
    return SqMatrix(N, {(i, j): vec[i * N + j] for i in range(N) for j in range(N)})


def _solve_exact(R: SqMatrix, conv: IndexConvention) -> TwistSolution:
    N = conv.N
    R_inv = inverse_blockwise(R, conv)
    md_rows = _assemble_md_system(R, R_inv, N)
    md_basis = [_vec_to_matrix(v, N) for v in nullspace(md_rows, N * N)]
    if not md_basis:
        raise NoSolution("twist system for M_d has trivial nullspace")
    mu_rows = _assemble_md_system(R.transpose(), R_inv.transpose(), N)
    mu_basis = [_vec_to_matrix(v, N) for v in nullspace(mu_rows, N * N)]
    sol = TwistSolution(
        md_basis=md_basis,
        mu_basis=mu_basis,
        uniqueness=len(md_basis),
        z_candidates=[],
        non_generic=len(md_basis) != 1,
    )
    if len(md_basis) == 1 and len(mu_basis) == 1:
        prod = mu_basis[0] @ md_basis[0]
        sol.twin_consistent = prod.scalar_value() is not None
    return sol


def _discover_z(R_hat: SqMatrix, conv: IndexConvention) -> int:
    """The exponent m of zeta = Z^2 = q^m, from two exact partial traces.

    Closing twist 1 with d = a cancels the crossing matrices through
    M_d M_u = 1 and leaves Turaev's enhancement condition
    sum_a R^-1[(a,b),(c,a)] = sum_e R[(b,e),(e,c)] for every b, c.  With
    R = Z R_hat the R_hat^-1 side is zeta times the R_hat side, so each
    (b, c) gives zeta as one exact ratio; all must agree on +q^m.
    """
    N = conv.N
    inv_side = contract("acba->bc", legs(inverse_blockwise(R_hat, conv), N))
    r_side = contract("beec->bc", legs(R_hat, N))
    if not r_side or set(inv_side) != set(r_side):
        raise NoSolution("partial traces of R^-1 and R have different supports")
    try:
        ratios = {ring.exact_divide(inv_side[key], v) for key, v in r_side.items()}
    except InexactDivision:
        raise NoSolution("a partial trace of R does not divide that of R^-1") from None
    zeta = ratios.pop()
    m = zeta.rat[0] // 2
    if ratios or zeta != ring.q_power(m):
        raise NoSolution("partial-trace ratios are not one common +q^m")
    return m


def solve_twist(R_hat: SqMatrix, z: RingElem | None = None,
                conv: IndexConvention | None = None) -> TwistSolution:
    """Recover crossing matrices from an R-matrix.

    With ``z`` given, solves the exact twist system for R = z * R_hat.
    Without it, runs Z-discovery: read zeta = Z^2 = q^m off the partial
    traces of R_hat and R_hat^-1 (exact; NoSolution unless every ratio is
    the same +q^m), then confirm both square roots +-s^m with one solve of
    the twist system.  One solve suffices: with R = z R_hat and
    R^-1 = z^-1 R_hat^-1, z times each row reads R_hat^-1 against z^2 R_hat,
    so the system sees only Z^2 and both roots share one nullspace.  The
    returned basis matrices are primitive (no common factor) and determined
    up to scale.
    """
    if conv is None:
        N = int(round(math.isqrt(R_hat.dim)))
        if N * N != R_hat.dim:
            raise DomainError("R must act on a two-factor space")
        conv = IndexConvention.for_size(N)
    if z is not None:
        return _solve_exact(R_hat * z, conv)

    m = _discover_z(R_hat, conv)
    try:
        sol = _solve_exact(R_hat * ring.s_power(m), conv)
    except (NoSolution, InexactDivision, DomainError):
        sol = None
    if sol is None or sol.uniqueness != 1:
        raise NoSolution("no symbolically confirmed Z candidate")
    sol.z_candidates = [ring.s_power(m), ring.s_power(m, -1)]
    sol.fitted_exponent = m
    return sol
