"""Mechanical verification of the defining equations, plus the M-solver.

Every tensor identity the package checks is a row of :data:`EQUATIONS`,
each side an einsum index string over ``tensor.contract``, which sums
tensor entries index by index rather than trusting matrix-level shortcuts,
so a passing row certifies the displayed identity itself.

Every row is contracted on the Kronecker-packed image
(:mod:`vertexlink.packed`): each operand is packed once at x = 2^bits, x = s
or q, and the same index strings are summed over ints.  The width is proven:
an output entry sums at most N^k products of one entry per operand, k the
number of summed letters, and the l1 norm of the coefficients bounds each
coefficient and is submultiplicative, so N^k times the product of the
largest entry norms bounds every coefficient of that side
(:func:`equation_bits`).  With both sides' coefficients below 2^(bits-1) in
absolute value their balanced base-2^bits digits are unique, so the sides,
their shifts aligned, are equal as ints exactly when they are equal as
polynomials.  :func:`equation_witnesses` is that pass; a failing row
unpacks the first differing entry of its first failing identity.
:func:`equation_sides` is the exact reference over the ring.

The solver runs the other way: given only an R-matrix it recovers the
crossing matrix M_d (and M_u) as the nullspace of an exact linear system,
and can additionally discover the normalization Z from one exact ratio of
two partial traces (Turaev's enhancement condition) before confirming it
symbolically.  No step uses floats or tolerances.

The twist system is solved as a relation graph, not by elimination.  Row
(a', b, c, d) of twist 1 multiplied by M_d holds R^-1[(a,b),(c,d)] M_d[a',a]
over a and R[(b,f),(a',c)] M_d[f,d] over f.  R conserves charge, and so
does R^-1, so the first term needs a = c + d - b and the second
f = a' + c - b: each row has at most two unknowns.  A row with one forces
that entry to zero, a row with two fixes the ratio of its entries, and
each connected component of these relations is solved by one walk
(:func:`_relation_nullspace`).  The dense fraction-free :func:`nullspace`
is the reference that walk is tested against; no check or solver calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import packed, ring
from .errors import ConventionValidationFailed, DomainError, InexactDivision, NoSolution
from .ring import RingElem
from .tensor import YANG_BAXTER, SqMatrix, contract, factor_size, inverse_blockwise, legs


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


EQUATIONS = {
    "m": ((("ab,bc->ac", ("M_d", "M_u")), ("ac->ac", ("1",))),
          (("ab,bc->ac", ("M_u", "M_d")), ("ac->ac", ("1",)))),
    "r": ((("acbd,cedf->aebf", ("R", "R_inv")), ("ae,bf->aebf", ("1", "1"))),
          (("acbd,cedf->aebf", ("R_inv", "R")), ("ae,bf->aebf", ("1", "1")))),
    "braid": (((YANG_BAXTER[0], ("R", "R", "R")), (YANG_BAXTER[1], ("R", "R", "R"))),),
    "twist1": ((("acbd->abcd", ("R_inv",)), ("ae,befc,fd->abcd", ("M_u", "R", "M_d"))),),
    "twist2": ((("acbd->abcd", ("R_inv",)), ("ce,edaf,fb->abcd", ("M_d", "R", "M_u"))),),
    "flip": ((("ac,bd,cedf->aebf", ("C", "C", "R")), ("bdac,ce,df->aebf", ("R", "C", "C"))),),
    "cs1": ((("cabf,ce->aebf", ("R_inv", "W")), ("ac,cebf->aebf", ("W", "R"))),),
    "cs2": ((("aedb,df->aebf", ("R", "W")), ("bd,aedf->aebf", ("W", "R_inv"))),),
}
"""Every tensor identity the package checks, by name: one or more pairs of
sides (einsum spec, operand names).  Two-factor matrices enter as leg tensors
(R^a_c^b_d, ``tensor.legs``), so X Y is ``acbd,cedf->aebf``.  m and r are
M_d M_u = M_u M_d = 1 and R R^-1 = R^-1 R = 1 ("1" the identity); flip is
(C (x) C) R = P R P (C (x) C), C a label flip and P the factor swap; cs1
and cs2 are the crossing forms of ``uqsl2.crossing_symmetry``."""

AXIOMS = ("m", "r", "braid", "twist1", "twist2")
"""The rows :func:`check_axioms` decides, in its report's order."""


def equation_operands(N: int, **matrices) -> dict:
    """The operands of :data:`EQUATIONS` by name: a matrix of dim N^2 as its
    leg tensor, one of dim N by its entries, and "1", the identity of size N."""
    ops = {"1": {(i, i): ring.one() for i in range(N)}}
    for x, M in matrices.items():
        ops[x] = legs(M, N) if M.dim == N * N else M.entries
    return ops


def equation_sides(name: str, operands: dict) -> tuple[tuple[dict, dict], ...]:
    """Both sides of each identity of ``name`` in :data:`EQUATIONS`, fully
    indexed and summed over the ring, given its operands as
    :func:`equation_operands` gives them."""
    return tuple(tuple(contract(spec, *(operands[x] for x in xs)) for spec, xs in identity)
                 for identity in EQUATIONS[name])


def equation_bits(exact: dict, N: int, names) -> int:
    """Packing width that decides the rows ``names`` of :data:`EQUATIONS`
    exactly, given their operands by name, each index ranging over N values.

    Every entry of either side weighs at most ``packed.contraction_bound``
    of its spec and the largest entry weight of each operand.  Only the
    operands of those rows are weighed, each once.
    """
    sides = [side for name in names for identity in EQUATIONS[name] for side in identity]
    norms = {x: max(map(packed.weight, exact[x].values()), default=0)
             for x in {x for _, xs in sides for x in xs}}
    return packed.width(max(packed.contraction_bound(spec, N, [norms[x] for x in xs])
                            for spec, xs in sides))


def equation_witnesses(exact: dict, bits: int, names) -> dict[str, str]:
    """{name: witness} for the rows ``names`` of :data:`EQUATIONS`, the
    witness empty where every identity of the row holds.

    Each operand is packed once and each distinct side contracted once on
    ints (twist1 and twist2 share their R^-1 side).  A row's witness is the
    first differing entry of its first failing identity, the only one unpacked.
    """
    step = packed.variable_step(v for op in exact.values() for v in op.values())
    ops, shifts = {}, {}
    for x, op in exact.items():
        ops[x], shifts[x] = packed.pack(op, bits, step)
    sides, out = {}, {}
    for name in names:
        out[name] = ""
        for identity in EQUATIONS[name]:
            for spec, xs in identity:
                if (spec, xs) not in sides:
                    sides[spec, xs] = (contract(spec, *(ops[x] for x in xs)),
                                       sum(shifts[x] for x in xs))
            diff = packed.first_difference(*(sides[side] for side in identity), bits, step)
            if diff is not None:
                out[name] = f"at {diff[0]}: {ring.render(diff[1])} != {ring.render(diff[2])}"
                break
    return out


def check_axioms(m) -> CheckReport:
    """Verify the rows :data:`AXIOMS` exactly, in one packed pass at
    :func:`equation_bits`; a failing row names its first differing entry."""
    rep = CheckReport()
    exact = equation_operands(m.N, R=m.R, R_inv=m.R_inv, M_u=m.M_u, M_d=m.M_d)
    bits = equation_bits(exact, m.N, AXIOMS)
    for name, witness in equation_witnesses(exact, bits, AXIOMS).items():
        rep.record(name, not witness, witness)
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

    The reference for :func:`_relation_nullspace`, which the solver runs.
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
    twin_consistent: bool | None = None


def _twist_rows(R: SqMatrix, R_inv: SqMatrix, N: int) -> list[dict[int, RingElem]]:
    """Twist 1 multiplied by M_d, as sparse rows {column: coefficient} over M_d.

    Row (a', b, c, d) reads sum_a R^-1[(a,b),(c,d)] M_d[a',a]
    - sum_f R[(b,f),(a',c)] M_d[f,d] = 0, with column a'N + a or fN + d of
    the unknown.  Terms in one column are merged and zero coefficients
    dropped, so rows whose terms all cancel are left out.  Given the
    transposes (R^T, R^-1^T) the same rows are twist 2 multiplied by M_u,
    with M_u as the unknown.  For a charge-conserving R each row has at most
    two unknowns (:func:`_relation_nullspace`).
    """
    rows: dict[tuple, dict[int, RingElem]] = {}
    for (rp, cp), v in R_inv.entries.items():
        a, b = divmod(rp, N)
        c, d = divmod(cp, N)
        for ap in range(N):
            row = rows.setdefault((ap, b, c, d), {})
            col = ap * N + a
            row[col] = row[col] + v if col in row else v
    for (rp, cp), v in R.entries.items():
        b, f = divmod(rp, N)
        ap, c = divmod(cp, N)
        v = -v
        for d in range(N):
            row = rows.setdefault((ap, b, c, d), {})
            col = f * N + d
            row[col] = row[col] + v if col in row else v
    out = []
    for row in rows.values():
        row = {col: v for col, v in row.items() if v}
        if row:
            out.append(row)
    return out


def _relation_nullspace(rows: list[dict[int, RingElem]], ncols: int) -> list[list[RingElem]]:
    """Exact nullspace basis of sparse rows with at most two unknowns each.

    Rows are {column: nonzero coefficient}.  A row a x_i = 0 forces
    x_i = 0, and a row a x_i + b x_j = 0 fixes the ratio of x_i and x_j, so
    the columns form a graph with those rows as edges, and each connected
    component has a nullspace of dimension 0 or 1.
    Zeros spread from the forced columns along the edges.  Every other
    component is walked from its smallest column, set to 1, with
    x_j = -a x_i / b by exact division; when b does not divide, the whole
    component is scaled by b, as in :func:`nullspace`.  A row that closes a
    cycle is checked exactly, and a component whose cycle fails contributes
    nothing.  A column in no row is a component of its own.  The vectors
    are primitive and come in the order :func:`nullspace` gives them, by the
    largest column of their component (that column is the one elimination
    leaves free).  A row with three or more unknowns raises.
    """
    zero = ring.zero()
    edges: dict[int, list[tuple[int, RingElem, RingElem, int]]] = {}
    visited: set[int] = set()
    for k, row in enumerate(rows):
        if len(row) > 2:
            raise ConventionValidationFailed(
                f"a twist row has {len(row)} unknowns, columns {sorted(row)}: R violates "
                "charge conservation, under which each row has at most two")
        if len(row) == 1:
            visited.update(row)
        elif row:
            (i, a), (j, b) = row.items()
            edges.setdefault(i, []).append((j, a, b, k))
            edges.setdefault(j, []).append((i, b, a, k))

    stack = list(visited)
    while stack:
        for j, _, _, _ in edges.get(stack.pop(), ()):
            if j not in visited:
                visited.add(j)
                stack.append(j)

    found = []
    for start in range(ncols):
        if start in visited:
            continue
        x = {start: ring.one()}
        order = [start]
        used: set[int] = set()
        consistent = True
        for i in order:  # grows while walked
            for j, a, b, k in edges.get(i, ()):
                if k in used:
                    continue
                used.add(k)
                num = a * x[i]
                if j not in x:
                    try:
                        x[j] = -ring.exact_divide(num, b)
                    except InexactDivision:
                        x = {col: v * b for col, v in x.items()}
                        x[j] = -num
                    order.append(j)
                elif num + b * x[j]:
                    consistent = False
        visited.update(order)
        if consistent:
            found.append((max(order), _normalize_primitive([x.get(c, zero) for c in range(ncols)])))
    found.sort(key=lambda item: item[0])
    return [vec for _, vec in found]


def _vec_to_matrix(vec: list[RingElem], N: int) -> SqMatrix:
    return SqMatrix(N, {(i, j): vec[i * N + j] for i in range(N) for j in range(N)})


def _solve_exact(R: SqMatrix, R_inv: SqMatrix, N: int) -> TwistSolution:
    md_rows = _twist_rows(R, R_inv, N)
    md_basis = [_vec_to_matrix(v, N) for v in _relation_nullspace(md_rows, N * N)]
    if not md_basis:
        raise NoSolution("twist system for M_d has trivial nullspace")
    mu_rows = _twist_rows(R.transpose(), R_inv.transpose(), N)
    mu_basis = [_vec_to_matrix(v, N) for v in _relation_nullspace(mu_rows, N * N)]
    sol = TwistSolution(
        md_basis=md_basis,
        mu_basis=mu_basis,
        uniqueness=len(md_basis),
        z_candidates=[],
    )
    if len(md_basis) == 1 and len(mu_basis) == 1:
        prod = mu_basis[0] @ md_basis[0]
        sol.twin_consistent = prod.scalar_value() is not None
    return sol


def _discover_z(R_hat: SqMatrix, R_hat_inv: SqMatrix, N: int) -> int:
    """The exponent m of zeta = Z^2 = q^m, from two exact partial traces.

    Closing twist 1 with d = a cancels the crossing matrices through
    M_d M_u = 1 and leaves Turaev's enhancement condition
    sum_a R^-1[(a,b),(c,a)] = sum_e R[(b,e),(e,c)] for every b, c.  With
    R = Z R_hat the R_hat^-1 side is zeta times the R_hat side, so each
    (b, c) gives zeta as one exact ratio; all must agree on +q^m.
    """
    inv_side = contract("acba->bc", legs(R_hat_inv, N))
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


def solve_twist(R_hat: SqMatrix, z: RingElem | None = None) -> TwistSolution:
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
    N = factor_size(R_hat.dim)
    if z is not None:
        R = R_hat * z
        return _solve_exact(R, inverse_blockwise(R), N)

    # R_hat is inverted once: (s^m R_hat)^-1 = s^-m R_hat^-1
    R_hat_inv = inverse_blockwise(R_hat)
    m = _discover_z(R_hat, R_hat_inv, N)
    try:
        sol = _solve_exact(R_hat * ring.s_power(m), R_hat_inv * ring.s_power(-m), N)
    except (NoSolution, InexactDivision, DomainError):
        sol = None
    if sol is None or sol.uniqueness != 1:
        raise NoSolution("no symbolically confirmed Z candidate")
    sol.z_candidates = [ring.s_power(m), ring.s_power(m, -1)]
    sol.fitted_exponent = m
    return sol
