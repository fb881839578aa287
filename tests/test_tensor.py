"""Sparse exact matrices and the two-factor index convention."""

import ast
import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vertexlink
from vertexlink import models, ring
from vertexlink.axioms import solve_twist
from vertexlink.errors import ConventionValidationFailed, DimensionMismatch, DomainError
from vertexlink.tensor import (
    YANG_BAXTER,
    SqMatrix,
    charge_sectors,
    contract,
    inverse_blockwise,
    legs,
    partial_close_second,
    small_inverse,
    trace_product,
)


def random_matrix(rng, dim, density=0.5, sums=False):
    entries = {}
    for r in range(dim):
        for c in range(dim):
            if rng.random() < density:
                e = ring.s_power(rng.randint(-3, 3), rng.choice([1, -1, 2]))
                if sums and rng.random() < 0.3:
                    e = e + ring.s_power(rng.randint(-3, 3), rng.randint(-2, 2))
                entries[(r, c)] = e
    return SqMatrix(dim, entries)


dims = st.integers(min_value=1, max_value=4)


@given(st.integers(0, 2 ** 32 - 1), dims)
def test_matmul_assoc_and_distributes(seed, dim):
    rng = random.Random(seed)
    a, b, c = (random_matrix(rng, dim) for _ in range(3))
    assert (a @ b) @ c == a @ (b @ c)
    assert a @ (b + c) == a @ b + a @ c
    ident = SqMatrix.identity(dim)
    assert a @ ident == a
    assert ident @ a == a


@given(st.integers(0, 2 ** 32 - 1), dims, dims)
def test_kron_product_law(seed, d1, d2):
    rng = random.Random(seed)
    a, b = random_matrix(rng, d1), random_matrix(rng, d1)
    c, d = random_matrix(rng, d2), random_matrix(rng, d2)
    assert (a @ b).kron(c @ d) == a.kron(c) @ b.kron(d)
    assert a.kron(c).trace() == a.trace() * c.trace()


@given(st.integers(0, 2 ** 32 - 1), dims)
def test_trace_product_matches_full_product(seed, dim):
    rng = random.Random(seed)
    a, b = random_matrix(rng, dim, sums=True), random_matrix(rng, dim, sums=True)
    assert trace_product(a, b) == (a @ b).trace()


def test_trace_product_row_powers_are_for_packed_operands_only():
    a = SqMatrix.identity(2)
    with pytest.raises(DomainError, match="packed operands only"):
        trace_product(a, a, (1, 0))


@given(st.integers(0, 2 ** 32 - 1), dims)
def test_transpose(seed, dim):
    rng = random.Random(seed)
    a, b = random_matrix(rng, dim), random_matrix(rng, dim)
    assert a.transpose().transpose() == a
    assert (a @ b).transpose() == b.transpose() @ a.transpose()


def test_permutation_squares_to_identity():
    for N in (2, 3, 4):
        P = SqMatrix.permutation(N)
        assert P @ P == SqMatrix.identity(N * N)
        a, b = 0, N - 1
        assert P.entries[(a * N + b, b * N + a)] == ring.one()


def test_entry_bounds_and_zero_drop():
    with pytest.raises(DimensionMismatch):
        SqMatrix(2, {(0, 2): ring.one()})
    m = SqMatrix(2, {(0, 0): ring.zero(), (1, 1): ring.one()})
    assert (0, 0) not in m.entries
    assert not m.is_zero()
    assert SqMatrix(3).is_zero()


def test_scalar_value():
    assert SqMatrix.identity(3).scalar_value() == ring.one()
    m = ring.s_power(2) * SqMatrix.identity(2)
    assert m.scalar_value() == ring.s_power(2)
    assert SqMatrix(2, {(0, 0): ring.one()}).scalar_value() is None
    assert SqMatrix(2, {(0, 1): ring.one()}).scalar_value() is None
    assert SqMatrix(2).scalar_value() == ring.zero()


def test_matmul_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        SqMatrix(2) @ SqMatrix(3)
    with pytest.raises(DimensionMismatch):
        SqMatrix(2) + SqMatrix(3)


def test_json_round_trip():
    # every entry string of to_json parses back through ring.parse
    rng = random.Random(5)
    m = random_matrix(rng, 3, sums=True)
    obj = json.loads(m.to_json())
    assert obj["dim"] == 3
    assert {(r, c): ring.parse(text) for r, c, text in obj["entries"]} == m.entries


def test_index_convention():
    for N in (2, 3, 4):
        labels = models.labels(N)
        assert {models._positions(N)[a] for a in labels} == set(range(N))
        assert all(models._positions(N)[a] == p for p, a in enumerate(labels))
        seen = set()
        for a, b in itertools.product(range(N), repeat=2):
            flat = a * N + b
            assert divmod(flat, N) == (a, b)
            seen.add(flat)
        assert seen == set(range(N * N))
        # spins are symmetric around zero with step one
        assert [y - x for x, y in zip(labels, labels[1:])] == [1] * (N - 1)
        charges = sorted({labels[i // N] + labels[i % N] for i in seen})
        assert charges[0] == -charges[-1] == Fraction(-(N - 1))


def test_charge_sectors_ascend(each_model):
    # sizes 1, 2, ..., N, ..., 2, 1 over the position sums 0 .. 2N - 2
    m = each_model
    N = m.N
    sectors = charge_sectors(m.R)
    assert [len(s) for s in sectors] == [*range(1, N + 1), *range(N - 1, 0, -1)]
    assert [{sum(divmod(i, N)) for i in s} for s in sectors] == [{w} for w in range(2 * N - 1)]


@pytest.mark.parametrize("dim", [3, 5])
def test_two_factor_routines_refuse_non_square_dims(dim):
    one = ring.one()
    M = SqMatrix(dim, {(i, i): one for i in range(dim)})
    for call in (charge_sectors, inverse_blockwise, solve_twist):
        with pytest.raises(DimensionMismatch, match="not N\\^2"):
            call(M)


def test_small_inverse():
    rng = random.Random(9)
    # units on the antidiagonal invert exactly
    m = SqMatrix(3, {(0, 2): ring.s_power(2), (1, 1): -ring.one(), (2, 0): ring.s_power(-1)})
    inv = small_inverse(m)
    assert m @ inv == SqMatrix.identity(3)
    assert inv @ m == SqMatrix.identity(3)
    with pytest.raises(DomainError):
        small_inverse(SqMatrix(2, {(0, 0): ring.one()}))


def test_inverse_blockwise(each_model):
    m = each_model
    inv = inverse_blockwise(m.R)
    assert inv == m.R_inv
    off_block = SqMatrix(m.N * m.N, {(0, m.N * m.N - 1): ring.one()})
    with pytest.raises(ConventionValidationFailed, match="charge conservation"):
        inverse_blockwise(off_block)


def test_partial_close_is_scalar(each_model):
    m = each_model
    k = partial_close_second(m.R, m.mu)
    val = k.scalar_value()
    assert val is not None
    # closing one strand of a crossing multiplies the open strand by tau * k
    assert val * m.D == m.Z * m.k
    val_inv = partial_close_second(m.R_inv, m.mu).scalar_value()
    assert val_inv * m.D == m.Z * ring.q_power(m.N * m.N - 1) * m.k


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25)
def test_scalar_multiplication(seed):
    rng = random.Random(seed)
    a = random_matrix(rng, 3, sums=True)
    c = ring.s_power(rng.randint(-2, 2)) + ring.integer(rng.randint(-1, 1))
    assert (c * a) == (a * c)
    assert (c * a) + (-c * a) == SqMatrix(3)


# ------------------------------------------------------------- contract

# every index string the package passes to contract, plus a few general ones
PACKAGE_SPECS = [
    *YANG_BAXTER,
    "acbd->abcd",
    "ae,befc,fd->abcd",
    "ce,edaf,fb->abcd",
    "abcc->ab",
    "acba->bc",
    "beec->bc",
    "abce,ec->ab",
    "acbd,cedf->aebf",
    "ab,bc->ac",
    "ac->ac",
    "ae,bf->aebf",
    "ac,bd,cedf->aebf",
    "bdac,ce,df->aebf",
    "cabf,ce->aebf",
    "ac,cebf->aebf",
    "aedb,df->aebf",
    "bd,aedf->aebf",
]
EXTRA_SPECS = ["ab,bc,cd->ad", "aab,bc->ca", "ab,ba->", "ab->ba", "aa->", "a,b->ab"]


def random_sparse(rng, shape, density=0.4):
    """A dense int array and its sparse ``{index: RingElem}`` twin."""
    dense = np.zeros(shape, dtype=np.int64)
    for idx in np.ndindex(*shape):
        if rng.random() < density:
            dense[idx] = rng.randint(-3, 3)
    sparse = {idx: ring.integer(int(v)) for idx, v in np.ndenumerate(dense) if v}
    return dense, sparse


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("spec", PACKAGE_SPECS + EXTRA_SPECS)
def test_contract_matches_numpy_einsum(spec, N):
    rng = random.Random(f"{spec}/{N}")
    terms = spec.split("->")[0].split(",")
    for _ in range(3):
        pairs = [random_sparse(rng, (N,) * len(t)) for t in terms]
        want = np.einsum(spec, *(d for d, _ in pairs))
        got = contract(spec, *(sp for _, sp in pairs))
        assert got == {
            idx: ring.integer(int(v)) for idx, v in np.ndenumerate(want) if v
        }


def test_contract_drops_exact_zeros_and_copies():
    a = {(0, 0): ring.one(), (0, 1): ring.one()}
    b = {(0,): ring.one(), (1,): -ring.one()}
    assert contract("ab,b->a", a, b) == {}
    same = contract("ab->ab", a)
    assert same == a and same is not a


@pytest.mark.parametrize("spec, operands", [
    ("ab,bc", ({}, {})),                        # no explicit ->
    ("ab->b->a", ({},)),                        # two arrows
    ("ab,bc->ac", ({},)),                       # too few operands
    ("ab->ab", ({}, {})),                       # too many operands
    ("ab->a", ({(0, 1, 2): ring.one()},)),      # key arity 3 for a 2-letter term
    ("ab->c", ({},)),                           # output letter no input has
    ("ab->aa", ({},)),                          # output letter repeated
    ("a1->a", ({},)),                           # not a letter
    ("a->a", ({0: 1},)),                        # a key that is not a tuple
], ids=["no-arrow", "two-arrows", "few-operands", "many-operands", "arity",
        "unknown-output", "repeated-output", "non-letter", "non-tuple-key"])
def test_contract_refuses_malformed_spec(spec, operands):
    with pytest.raises(DomainError):
        contract(spec, *operands)
    # the spec is compiled once, and still refused on every later call
    with pytest.raises(DomainError):
        contract(spec, *operands)


def test_cached_plan_still_checks_every_key():
    a = {(0, 1): ring.one()}
    assert contract("ab,b->a", a, {(1,): ring.one()}) == {(0,): ring.one()}
    with pytest.raises(DomainError, match="another arity"):
        contract("ab,b->a", a, {(1, 0): ring.one()})
    with pytest.raises(DomainError, match="key 1 is not a tuple"):
        contract("ab,b->a", a, {1: ring.one()})
    with pytest.raises(DomainError, match="another arity"):
        contract("ab,b->a", {(0,): ring.one()}, {})  # the empty right operand leaves nothing to join


def test_contract_never_joins_an_explicit_zero():
    inf = float("inf")
    got = contract("ab,b->a", {(0, 0): 0.0, (0, 1): 1.0}, {(0,): inf, (1,): 2.0})
    assert got == {(0,): 2.0}


def test_package_specs_are_all_tested():
    """Every string constant of the package shaped like an einsum spec is in PACKAGE_SPECS."""
    shaped = re.compile(r"[A-Za-z,]+->[A-Za-z]*")
    found = set()
    for path in Path(vertexlink.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if shaped.fullmatch(node.value):
                    found.add(node.value)
    assert found and found <= set(PACKAGE_SPECS), found - set(PACKAGE_SPECS)


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=20)
def test_legs_key_order(seed, N):
    # legs(M)[a, c, b, d] = M[(a,b),(c,d)]: transposing legs 1 and 2 back
    # and flattening gives the matrix again
    M = random_matrix(random.Random(seed), N * N, sums=True)
    T = np.zeros((N,) * 4, dtype=object)
    T[...] = ring.zero()
    for key, v in legs(M, N).items():
        T[key] = v
    flat = T.transpose(0, 2, 1, 3).reshape(N * N, N * N)
    assert SqMatrix(N * N, {(r, c): flat[r, c] for r in range(N * N)
                            for c in range(N * N)}) == M


def test_legs_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        legs(SqMatrix(3), 2)
