"""The exact identity checks on the Kronecker-packed image equal their SqMatrix references.

``packed.annihilates``, every row of ``axioms.EQUATIONS`` (the rows of
``axioms.check_axioms``, the flip of model construction, the ``uqsl2``
twist, series and crossing clauses) and ``tlbracket.tl_relations_check``
compare both sides as ints at the width each proves for itself.  Each is
checked here against the same computation over the exact ring: the width
bounds every coefficient of both sides, a width below the coefficients,
substituted for the width function, gives a wrong verdict, and the verdicts
and witnesses agree with the reference.
"""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vertexlink import axioms, models, packed, ring, tlbracket, uqsl2
from vertexlink.axioms import CheckReport, check_axioms, equation_sides
from vertexlink.invariants import STRAND_CAP
from vertexlink.models import build_model, mirror_model
from vertexlink.tensor import SqMatrix, small_inverse

MODELS = [(N, sign, mirrored) for N in (2, 3, 4) for sign in (1, -1) for mirrored in (False, True)]
IDS = [f"N{N}{'+' if s > 0 else '-'}{'m' if mir else ''}" for N, s, mir in MODELS]


def signed_model(N, sign, mirrored):
    m = build_model(N, sign)
    return mirror_model(m) if mirrored else m


def coeff_max(values):
    """The largest absolute coefficient over ring elements."""
    return max((abs(c) for v in values for c in v.rat[1]), default=0)


def vanishing(bits, step, j):
    """2^bits x^j - x^(j+1), x = s^step: a nonzero polynomial whose image at x = 2^bits is 0."""
    return ring.s_power(step * j, 2 ** bits) - ring.s_power(step * (j + 1))


def operands(m):
    """The operands of ``axioms.AXIOMS`` for the model ``m``, by name."""
    return axioms.equation_operands(m.N, R=m.R, R_inv=m.R_inv, M_u=m.M_u, M_d=m.M_d)


def bumped(M, key, delta):
    """M with delta added to the entry at ``key``."""
    entries = dict(M.entries)
    entries[key] = entries.get(key, ring.zero()) + delta
    return SqMatrix(M.dim, entries)


@pytest.mark.parametrize("N,sign,mirrored", MODELS, ids=IDS)
def test_widths_are_the_proven_bounds(N, sign, mirrored):
    """bits = bitlen(2 X) + 1 for the bound X of each check, pinned per N.

    N = 2: the largest R entry weighs 2, so the braid sides weigh at most
    2^3 (summed i, j, k) times 2^3 = 64 and take 9 bits; rho(R) = 3 and
    each eigenvalue is a unit, so prod (rho(R) + 1) = 16 takes 7; rho(e) = 2,
    so rho^3 = 8 takes 6.  N = 3, 4 follow with entry weights 4, 6 and
    rho(R) = 7, 13.
    """
    m = signed_model(N, sign, mirrored)
    widths = (axioms.equation_bits(operands(m), m.N, axioms.AXIOMS),
              packed.annihilator_bits(m.R, m.eigenvalues),
              tlbracket.tl_bits(tlbracket.build_tl(m)))
    assert widths == {2: (9, 7, 6), 3: (13, 12, 7), 4: (16, 18, 9)}[N]


# -------------------------------------------------------- minimal polynomial


def exact_product(R, eigenvalues):
    ident = SqMatrix.identity(R.dim)
    prod = ident
    for lam in eigenvalues:
        prod = prod @ (R - lam * ident)
    return prod


def leave_one_out(eig):
    return [eig[:i] + eig[i + 1:] for i in range(len(eig))]


@pytest.mark.parametrize("N,sign,mirrored", MODELS, ids=IDS)
def test_annihilates_matches_the_exact_products(N, sign, mirrored):
    m = signed_model(N, sign, mirrored)
    eig = m.eigenvalues
    wrong = (eig[0],) * N
    for lams in [eig, wrong, eig + (eig[0],), ()] + leave_one_out(eig):
        assert packed.annihilates(m.R, lams) == exact_product(m.R, lams).is_zero(), lams
    assert packed.annihilates(m.R, eig, minimal=True)
    assert not packed.annihilates(m.R, eig + (eig[-1],), minimal=True)  # annihilates, not minimal
    assert not packed.annihilates(m.R, wrong, minimal=True)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_minimality_checks_every_leave_one_out_product(N):
    """A repeated eigenvalue at any place makes the list annihilate without being minimal."""
    m = build_model(N)
    eig = m.eigenvalues
    for i in range(N + 1):
        for lam in eig:
            padded = eig[:i] + (lam,) + eig[i:]
            assert packed.annihilates(m.R, padded)
            assert not packed.annihilates(m.R, padded, minimal=True), (i, lam)


@pytest.mark.parametrize("N,sign,mirrored", MODELS, ids=IDS)
def test_annihilator_width_bounds_every_product(N, sign, mirrored):
    m = signed_model(N, sign, mirrored)
    eig = m.eigenvalues
    bits = packed.annihilator_bits(m.R, eig)
    for lams in [eig[:i] for i in range(1, N + 1)] + leave_one_out(eig):
        assert coeff_max(exact_product(m.R, lams).entries.values()) < 2 ** (bits - 2), lams


@pytest.mark.parametrize("N", [2, 3, 4])
def test_annihilator_too_narrow_width_reads_wrong(N, monkeypatch):
    m = build_model(N)
    step = packed.variable_step([*m.R.entries.values(), *m.eigenvalues])
    bits = 3
    off = (m.eigenvalues[0] + vanishing(bits, step, 1),) + m.eigenvalues[1:]
    assert not exact_product(m.R, off).is_zero()
    assert not packed.annihilates(m.R, off)
    # at x = 2^3 the wrong eigenvalue has the right image: the narrow width accepts it
    monkeypatch.setattr(packed, "annihilator_bits", lambda R, eigenvalues: bits)
    assert packed.annihilates(m.R, off)


# --------------------------------------------------------- braid and twists


def exact_diff(lhs, rhs):
    """The witness of the exact reference: the first differing entry, rendered."""
    z = ring.zero()
    for key in sorted(set(lhs) | set(rhs)):
        a, b = lhs.get(key, z), rhs.get(key, z)
        if a != b:
            return f"at {key}: {ring.render(a)} != {ring.render(b)}"
    return ""


def exact_witness(identities):
    """The reference witness of a row: the first differing entry of its first
    failing identity, rendered; empty when every identity holds."""
    return next((w for w in (exact_diff(lhs, rhs) for lhs, rhs in identities) if w), "")


def reference_witnesses(exact, names):
    """equation_witnesses over the exact ring, through tensor.contract on RingElem values."""
    return {name: exact_witness(equation_sides(name, exact)) for name in names}


def reference_axioms(m):
    """check_axioms over the exact ring."""
    rep = CheckReport()
    for name, witness in reference_witnesses(operands(m), axioms.AXIOMS).items():
        rep.record(name, not witness, witness)
    return rep


MODEL_ROWS = axioms.AXIOMS + ("flip",)
SPIN_ROWS = ("r", "cs1", "cs2")
SPINS = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]


def model_operands(m, X=None):
    """Every operand the model rows read, the flip's C the gauged label flip; R is X if given."""
    return axioms.equation_operands(m.N, R=m.R if X is None else X, R_inv=m.R_inv, M_u=m.M_u,
                                    M_d=m.M_d, C=models._label_flip(m.N))


def spin_operands(j):
    """R^jj, its inverse and the crossing W of the spin-j rows."""
    rep = uqsl2.build_rep(j)
    return axioms.equation_operands(rep.dim, R=uqsl2.universal_r(rep)[0],
                                    R_inv=uqsl2.universal_r_inverse(rep), W=uqsl2.crossing_w(j))


def row_cases():
    """(id, operands, N, rows): every row of EQUATIONS on every model, mirror and spin.

    The flip is read on R and on R^-1, as model construction checks it.
    """
    for model, tag in zip(MODELS, IDS):
        m = signed_model(*model)
        yield tag, model_operands(m), m.N, MODEL_ROWS
        yield tag + "-inv", model_operands(m, m.R_inv), m.N, ("flip",)
    for j in SPINS:
        yield f"j{j}", spin_operands(j), int(2 * j) + 1, SPIN_ROWS


def test_the_cases_cover_every_row():
    assert {name for _, _, _, rows in row_cases() for name in rows} == set(axioms.EQUATIONS)


@pytest.mark.parametrize("case", list(row_cases()), ids=lambda case: case[0])
def test_equation_width_bounds_both_sides(case):
    _, exact, N, rows = case
    bits = axioms.equation_bits(exact, N, rows)
    for name in rows:
        for identity in equation_sides(name, exact):
            for side in identity:
                assert coeff_max(side.values()) < 2 ** (bits - 2), name


@pytest.mark.parametrize("case", list(row_cases()), ids=lambda case: case[0])
def test_every_row_holds_and_agrees_with_the_exact_reference(case):
    _, exact, N, rows = case
    assert axioms.equation_witnesses(N, rows, exact) == reference_witnesses(exact, rows)
    assert axioms.equation_witnesses(N, rows, exact) == dict.fromkeys(rows, "")


def times_q(op):
    """The operand with its first entry, in sorted key order, times q."""
    key = min(op)
    return {**op, key: op[key] * ring.q_power(1)}


@pytest.mark.parametrize("name,operand", [
    ("m", "M_u"), ("r", "R_inv"), ("braid", "R"), ("twist1", "M_d"), ("twist2", "M_u"),
    ("flip", "R"), ("cs1", "W"), ("cs2", "W"), ("cs1", "R"), ("cs2", "R_inv"),
], ids=lambda x: x)
@pytest.mark.parametrize("N", [2, 3, 4])
def test_a_perturbed_operand_fails_its_row_with_an_entry(name, operand, N):
    """On the model of factor size N, or on the spin j = (N - 1)/2 for the crossing rows."""
    exact = (spin_operands(Fraction(N - 1, 2)) if name in ("cs1", "cs2")
             else model_operands(build_model(N)))
    bad = {**exact, operand: times_q(exact[operand])}
    got = axioms.equation_witnesses(N, (name,), bad)
    assert got == reference_witnesses(bad, (name,))
    # the witness names an entry: one index per output letter of the row
    arity = len(axioms.EQUATIONS[name][0][0][0].partition("->")[2])
    assert re.fullmatch(r"at \(\d+(, \d+){%d}\): .+ != .+" % (arity - 1), got[name]), got


@pytest.mark.parametrize("N", [2, 3, 4])
def test_equations_too_narrow_width_read_wrong(N, monkeypatch):
    m = build_model(N)
    ops = [*m.R.entries.values(), *m.R_inv.entries.values(),
           *m.M_u.entries.values(), *m.M_d.entries.values()]
    step = packed.variable_step(ops)
    bits = 3
    bad = dataclasses.replace(m, R=bumped(m.R, (0, 0), vanishing(bits, step, 1)))
    assert not reference_axioms(bad).results["braid"]
    assert not check_axioms(bad).results["braid"]
    # at x = 2^3 the bumped R has the image of R: every equation reads as holding
    monkeypatch.setattr(axioms, "equation_bits", lambda exact, N, names: bits)
    assert (axioms.equation_witnesses(N, axioms.AXIOMS, operands(bad))
            == dict.fromkeys(axioms.AXIOMS, ""))


@given(model=st.sampled_from(MODELS), row=st.integers(0, 15), col=st.integers(0, 15),
       sign=st.sampled_from([1, -1]), k=st.integers(-12, 12))
@settings(max_examples=40, deadline=None)
def test_perturbed_r_agrees_with_the_exact_reference(model, row, col, sign, k):
    m = signed_model(*model)
    dim = m.N * m.N
    bad = dataclasses.replace(m, R=bumped(m.R, (row % dim, col % dim), ring.s_power(k, sign)))
    got, want = check_axioms(bad), reference_axioms(bad)
    assert got.results == want.results
    assert got.witnesses == want.witnesses


@pytest.mark.parametrize("j,bits", [(Fraction(1, 2), 6), (Fraction(1), 8), (Fraction(3, 2), 9)],
                         ids=str)
def test_uq_twist_clause_packs_at_the_twist_width(j, bits, monkeypatch):
    """The twist sides alone bound the width: at j = 3/2 the R^-1 side weighs
    at most 6 and the M_u R M_d side 4^2 * 1 * 6 * 1 = 96, so 9 bits, where the
    braid sides would need 16."""
    N = int(2 * j) + 1
    m = build_model(N)
    M_d = uqsl2.build_w(j).transpose()
    exact = axioms.equation_operands(N, R=m.R, R_inv=m.R_inv, M_u=small_inverse(M_d), M_d=M_d)
    assert axioms.equation_bits(exact, N, ("twist1", "twist2")) == bits
    assert axioms.equation_bits(exact, N, axioms.AXIOMS) > bits
    seen = []
    equation_bits = axioms.equation_bits

    def recording(exact, N, names):
        seen.append(equation_bits(exact, N, names))
        return seen[-1]

    monkeypatch.setattr(axioms, "equation_bits", recording)
    assert uqsl2.exact_twist_substitution(j)
    assert seen == [bits]


def w_with_one_entry_times_q(j):
    W = uqsl2.build_w(j)
    key = min(W.entries)
    return SqMatrix(W.dim, {**W.entries, key: W.entries[key] * ring.q_power(1)})


@pytest.mark.parametrize("broken", [False, True], ids=["w", "w-entry-times-q"])
@pytest.mark.parametrize("j", [Fraction(1, 2), Fraction(1), Fraction(3, 2)], ids=str)
def test_uq_twist_clause_agrees_with_the_exact_reference(j, broken, monkeypatch):
    """The uq twist clause, M_d = w^t and M_u its inverse, on the packed pass."""
    W = w_with_one_entry_times_q(j) if broken else uqsl2.build_w(j)
    m = build_model(W.dim)
    M_d = W.transpose()
    exact = axioms.equation_operands(m.N, R=m.R, R_inv=m.R_inv, M_u=small_inverse(M_d), M_d=M_d)
    twists = ("twist1", "twist2")
    got = axioms.equation_witnesses(m.N, twists, exact)
    want = reference_witnesses(exact, twists)
    assert got == want
    assert any(want.values()) == broken
    monkeypatch.setattr(uqsl2, "build_w", lambda _: W)
    assert uqsl2.exact_twist_substitution(j) is not broken


# ------------------------------------------------------------ Temperley-Lieb


def embedded(gen, N, n, i):
    """1 (x) ... (x) gen (x) ... (x) 1 on n factors of size N, gen on the factors i, i+1,
    by its definition with kron."""
    return SqMatrix.identity(N ** (i - 1)).kron(gen).kron(SqMatrix.identity(N ** (n - i - 1)))


def reference_relations(tl, N, max_strands, site=lambda n, i: i):
    """tl_relations_check over the exact ring: SqMatrix products of the embedded e and f.

    ``site(n, i)`` names the sites E_i is embedded on, i and i + 1 when right.
    """
    rep = CheckReport()
    for name, gen in (("e", tl.e), ("f", tl.f)):
        for n in range(2, max_strands + 1):
            E = [None] + [embedded(gen, N, n, site(n, i)) for i in range(1, n)]
            for i in range(1, n):
                rep.record(f"{name}:square:n{n}:i{i}", E[i] @ E[i] == tl.k * E[i], "E^2 != k E")
            for i in range(1, n - 1):
                rep.record(f"{name}:hook:n{n}:i{i}", E[i] @ E[i + 1] @ E[i] == E[i],
                           "E E' E != E")
                rep.record(f"{name}:hook_rev:n{n}:i{i}", E[i + 1] @ E[i] @ E[i + 1] == E[i + 1],
                           "E' E E' != E'")
            for i in range(1, n - 1):
                for j in range(i + 2, n):
                    rep.record(f"{name}:far:n{n}:{i},{j}", E[i] @ E[j] == E[j] @ E[i],
                               "far generators do not commute")
    return rep


def relation_products(tl, N, n):
    """Every product both sides of the relations form on n strands, over the exact ring."""
    out = []
    for gen in (tl.e, tl.f):
        E = [None] + [embedded(gen, N, n, i) for i in range(1, n)]
        for i in range(1, n):
            out += [E[i] @ E[i], tl.k * E[i]]
        for i in range(1, n - 1):
            out += [E[i] @ E[i + 1] @ E[i], E[i + 1] @ E[i] @ E[i + 1]]
            out += [E[i] @ E[j] for j in range(i + 2, n)] + [E[j] @ E[i] for j in range(i + 2, n)]
    return out


@pytest.mark.parametrize("N,sign,mirrored", MODELS, ids=IDS)
def test_tl_width_bounds_every_product(N, sign, mirrored):
    m = signed_model(N, sign, mirrored)
    tl = tlbracket.build_tl(m)
    bits = tlbracket.tl_bits(tl)
    for M in relation_products(tl, N, 4):
        assert coeff_max(M.entries.values()) < 2 ** (bits - 2)


def assert_agrees(got, want, broken):
    assert got.results == want.results
    assert got.witnesses == want.witnesses
    failed = {name.split(":")[1] for name, ok in got.results.items() if not ok}
    assert broken in failed, failed


@pytest.mark.parametrize("N", [2, 3, 4])
def test_tl_wrong_loop_value_breaks_square(N, monkeypatch):
    m = build_model(N)
    tl = tlbracket.build_tl(m)
    bad = dataclasses.replace(tl, k=tl.k + ring.one())
    monkeypatch.setattr(tlbracket, "build_tl", lambda _: bad)
    got = tlbracket.tl_relations_check(m, max_strands=4)
    assert_agrees(got, reference_relations(bad, N, 4), "square")
    assert {name.split(":")[1] for name, ok in got.results.items() if not ok} == {"square"}


def test_packed_equality_aligns_differing_shifts():
    """x^-1 (x a) and x^-3 (x^3 a) stand for the same matrix, in either order."""
    bits = 8
    A = packed.PackedMatrix(4, {0: {1: 5, 2: -3}, 3: {3: 1}}, bits, 1)
    B = packed.PackedMatrix(4, {r: {c: v << 2 * bits for c, v in row.items()}
                                for r, row in A.rows.items()}, bits, 3)
    assert A == B and B == A
    B.rows[3][3] += 1
    assert A != B and B != A


def test_packed_equality_sees_a_row_or_entry_on_one_side_only():
    def like(rows):
        return packed.PackedMatrix(3, rows, 8, 0)

    A = like({0: {0: 2}})
    assert A == like({0: {0: 2}})
    assert A != like({0: {0: 2}, 2: {1: 1}})
    assert like({0: {0: 2}, 2: {1: 1}}) != A
    assert A != like({0: {0: 2, 1: 1}})
    assert A != like({})


def test_first_difference_aligns_shifts_and_reads_missing_keys_as_zero():
    bits = 8
    a = {(0,): 3, (1,): 7}
    b = {k: v << bits for k, v in a.items()}
    assert packed.first_difference((a, 0), (b, 1), bits) is None
    assert packed.first_difference((b, 1), (a, 0), bits) is None
    assert packed.first_difference((a, 0), ({**a, (2,): 0}, 0), bits) is None
    key, x, y = packed.first_difference((a, 0), ({(0,): 3 << bits}, 1), bits)
    assert (key, x, y) == ((1,), ring.integer(7), ring.zero())
    key, x, y = packed.first_difference(({**b, (0,): 4 << bits}, 1), (a, 0), bits)
    assert (key, x, y) == ((0,), ring.integer(4), ring.integer(3))


def test_scaling_by_zero_leaves_no_row():
    R = build_model(2).R
    P = packed.pack_matrix(R, 9, packed.variable_step(R.entries.values()))
    assert P.scaled(ring.zero()).rows == {}
    assert P.scaled(ring.zero()) == packed.PackedMatrix(P.dim, {}, P.bits, P.shift, P.step)


@pytest.mark.parametrize("N", [2, 3])
def test_tl_square_with_zero_loop_value_agrees_with_the_reference(N, monkeypatch):
    """A nilpotent e with k = 0 has E^2 = k E = 0, read as holding on the packed image."""
    m = build_model(N)
    e = SqMatrix(N * N, {(0, 1): ring.one()})
    bad = tlbracket.TLData(e=e, f=e, k=ring.zero())
    monkeypatch.setattr(tlbracket, "build_tl", lambda _: bad)
    got = tlbracket.tl_relations_check(m, max_strands=4)
    want = reference_relations(bad, N, 4)
    assert got.results == want.results
    assert got.witnesses == want.witnesses
    assert all(ok for name, ok in got.results.items() if ":square:" in name)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_tl_perturbed_generator_breaks_hook(N, monkeypatch):
    """c e with loop value c k keeps E^2 = k E and far commutation; E E' E = c^2 E breaks."""
    m = build_model(N)
    tl = tlbracket.build_tl(m)
    c = ring.s_power(2, -1)
    bad = tlbracket.TLData(e=tl.e * c, f=tl.f * c, k=tl.k * c)
    monkeypatch.setattr(tlbracket, "build_tl", lambda _: bad)
    got = tlbracket.tl_relations_check(m, max_strands=4)
    assert_agrees(got, reference_relations(bad, N, 4), "hook")
    assert {name.split(":")[1] for name, ok in got.results.items() if not ok} == {
        "hook", "hook_rev"}


@pytest.mark.parametrize("N", [2, 3, 4])
def test_tl_generator_on_the_wrong_sites_breaks_far(N, monkeypatch):
    """The two-site walk placing E_i for i >= 3 one site left: E_1 and E_3 then overlap."""
    m = build_model(N)
    tl = tlbracket.build_tl(m)
    walk = packed.PackedMatrix.times_two_site

    def wrong(n, i):
        return i - 1 if i >= 3 else i

    def one_site_left(self, op, N, n, i):
        return walk(self, op, N, n, wrong(n, i))

    monkeypatch.setattr(packed.PackedMatrix, "times_two_site", one_site_left)
    got = tlbracket.tl_relations_check(m, max_strands=4)
    assert_agrees(got, reference_relations(tl, N, 4, site=wrong), "far")


@pytest.mark.parametrize("N", [2, 3, 4])
def test_tl_too_narrow_width_reads_wrong(N, monkeypatch):
    m = build_model(N)
    tl = tlbracket.build_tl(m)
    step = packed.variable_step([*tl.e.entries.values(), *tl.f.entries.values(), tl.k])
    bits = 3
    e = bumped(tl.e, next(iter(tl.e.entries)), vanishing(bits, step, 1))
    P = SqMatrix.permutation(N)
    bad = tlbracket.TLData(e=e, f=P @ e @ P, k=tl.k)
    want = reference_relations(bad, N, 3)
    assert not want.passed
    monkeypatch.setattr(tlbracket, "build_tl", lambda _: bad)
    assert tlbracket.tl_relations_check(m, max_strands=3).results == want.results
    # at x = 2^3 the bumped e has the image of e: every relation reads as holding
    monkeypatch.setattr(tlbracket, "tl_bits", lambda _: bits)
    assert tlbracket.tl_relations_check(m, max_strands=3).passed


@pytest.mark.parametrize("N", [2, 3, 4])
def test_tl_relations_at_the_strand_cap(N):
    cap = STRAND_CAP[N]
    rep = tlbracket.tl_relations_check(build_model(N), max_strands=cap)
    assert rep.passed
    assert f"e:far:n{cap}:1,3" in rep.results and f"f:hook_rev:n{cap}:i{cap - 2}" in rep.results
