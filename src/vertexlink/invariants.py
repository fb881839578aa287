"""Link invariants of braid closures and their consistency checks.

The regular (closure-trace) invariant is tr(rep(word) mu^(x)n), computed
on the Kronecker-packed image of the chain (:mod:`vertexlink.packed`);
dividing by k^n gives the Markov trace, and the ambient normalization of
the unit-free trace Z^-writhe <L>, the same on both branches of Z, removes
the writhe dependence so the result is invariant under conjugation, both
stabilizations and free reduction.  All arithmetic is
exact; the single division by the loop sum D is checked exact.

A split closure is the product of its pieces (Turaev, Invent. Math. 92,
1988).  Let the word w on n strands lack the generator b_i.  Its letters
with |x| < i act on the strands 1..i and those with |x| > i on the strands
i+1..n, and letters on disjoint strands commute.  So w = A B, with A the
letters |x| < i in their order, a word on i strands, and B the others in
their order, each shifted down by i, a word on n - i strands.  Then:

* rep(w) = rep(A) (x) rep(B): a letter of A embeds as X (x) 1 and one of
  B as 1 (x) Y, and (X (x) 1)(1 (x) Y) = X (x) Y in either order;
* mu^(x)n = mu^(x)i (x) mu^(x)(n-i);
* tr((X (x) Y)(U (x) V)) = tr(X U) tr(Y V), so
  tr(rep(w) mu^(x)n) = tr(rep(A) mu^(x)i) tr(rep(B) mu^(x)(n-i)).

So <L_w> = <L_A> <L_B> exactly, and since the writhe adds over the
pieces, the unit-free traces Z^-writhe <L> multiply too.  This is linear
algebra alone: it uses no Markov move and no property of
the model, so no invariance check meets its own value through it.
:func:`regular_invariant` applies it at every missing generator at once.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import packed, ring
from .braid import BraidWord, random_word, represent
from .errors import DomainError
from .models import (
    VertexModel,
    check_trace_constants,
    generic_eigenvalues,
    mirror_model,  # unused here: bench/tracing.py wraps ``invariants.mirror_model``
)
from .ring import RingElem
from .tensor import partial_close_second, trace_product


# rows of the right half built and traced at a time: at the strand cap the
# right half then never stands whole beside the left one
TRACE_BLOCK = 256


def _closure_trace(word: BraidWord, m: VertexModel, bits: int) -> RingElem:
    """Z^-writhe <L> on the image of the ring at q^2 = 2^bits, meeting in the middle.

    The two half-words are represented separately
    (:func:`vertexlink.braid.represent`), on the rows of charge w >= 0
    only: each starts from its first letter's embedded matrix, and its
    later letters are grouped into same-site runs, each multiplied into
    one two-site operator that acts on the product once.  The halves are
    traced against each other with mu^(x)n folded onto those
    rows: the trace on the sector -w equals that on w
    (:mod:`vertexlink.packed`), so the row weighs sigma^n (q^(2 w) +
    q^(-2 w)), or sigma^n once for w = 0.  The letters are in the parity
    gauge, a diagonal conjugation that fixes the trace and puts every entry
    in Z[q^+-2].  Exact when ``bits`` is at least
    ``packed.closure_bits(m, word)``.

    The left half L is built whole.  The right half R is built and traced
    against it :data:`TRACE_BLOCK` rows at a time, and the block traces
    are added: the weight W is constant on each charge sector and both
    halves keep the sectors, so tr(L R W) = tr(R L W), the sum over the
    blocks B of tr(R|B L W).  Each block trace sums some of the same
    path products, so the width that reads the whole trace reads it too.
    """
    n = word.strands
    img = packed.image(m, bits)
    half = len(word.letters) // 2
    unit, weights = img.closure_weight(n)
    left = represent(BraidWord(n, word.letters[:half]), img, rows=weights.keys())
    right, rows = BraidWord(n, word.letters[half:]), list(weights)
    value = ring.zero()
    for k in range(0, len(rows), TRACE_BLOCK):  # one block held at a time
        value = value + trace_product(represent(right, img, rows=rows[k:k + TRACE_BLOCK]),
                                      left, weights)
    return unit * value


@functools.lru_cache(maxsize=4096)
def regular_invariant(word: BraidWord, m: VertexModel) -> RingElem:
    """Closure trace <L> = tr(rep(word) mu^(x)n), exact.

    A word that lacks a generator is split (:meth:`BraidWord.pieces`) and
    its value is the product of its pieces' values, each through this
    cache (see the module docstring): each piece packs at its own width,
    and a piece met twice, such as a free strand, is computed once.
    Otherwise each letter is Z times a unit-free matrix, so <L> is
    Z^writhe times the unit-free trace, which runs on plain ints
    (:mod:`vertexlink.packed`) at a width proven wide enough to read every
    coefficient back.
    """
    pieces = word.pieces()
    if len(pieces) > 1:
        value = ring.one()
        for piece in pieces:
            value = value * regular_invariant(piece, m)
        return value
    bits = packed.closure_bits(m, word)
    return m.Z ** word.writhe * _closure_trace(word, m, bits)


def ambient_invariant(word: BraidWord, m: VertexModel) -> RingElem:
    """Writhe-corrected invariant of the closure of ``word``.

    alpha = (tau taubar)^(-(n-1)/2) (taubar/tau)^(e/2) phi, which collapses
    to a unit monomial times the unit-free trace Z^-e <L> over D; the
    division must be exact.  Z^-e <L> is the same on both branches of Z, and
    so is alpha: at odd writhe the sign takes the factor m.sign.
    """
    n = word.strands
    e = word.writhe
    val = regular_invariant(word, m)
    exp = (m.N * m.N - 1) * e + 2 * (m.N - 1)
    sign = (-1 if (m.N - 1) * n % 2 else 1) * (m.sign if e % 2 else 1)
    return ring.exact_divide(ring.s_power(exp, sign) * val, m.D)


@dataclass(frozen=True)
class ModelConstants:
    k: RingElem
    D: RingElem
    tau: tuple[RingElem, RingElem]
    taubar: tuple[RingElem, RingElem]
    curl_ratio: RingElem  # taubar / tau, a unit


def compute_constants(m: VertexModel) -> ModelConstants:
    """Re-derive k, tau, taubar from traces and pin them to closed forms."""
    k = m.mu.trace()
    # tr(X mu (x) mu) is tr(K mu) for the partial closure K of X
    traces = [trace_product(partial_close_second(X, m.mu), m.mu) for X in (m.R, m.R_inv)]
    check_trace_constants(m.N, m.Z, k, m.D, *traces)
    curl_ratio = ring.q_power(m.N * m.N - 1)
    return ModelConstants(
        k=k,
        D=m.D,
        tau=(m.Z, m.D),
        taubar=(m.Z * curl_ratio, m.D),
        curl_ratio=curl_ratio,
    )


def minpoly_check(m: VertexModel) -> bool:
    """Annihilation by prod(R - lam), minimality, and the closed form.

    Minimal: no product leaving one factor out is zero
    (:func:`vertexlink.packed.annihilates`).
    """
    if m.eigenvalues != generic_eigenvalues(m.N, m.Z):
        return False
    return packed.annihilates(m.R, m.eigenvalues, minimal=True)


def skein_coefficients(m: VertexModel) -> list[tuple[int, RingElem]]:
    """Coefficients (power, coeff) with alpha(c b^(N-1)) = sum coeff alpha(c b^power).

    Fixed verbatim per N: alpha is the same on both branches of Z, and so is
    its skein relation.  The property tests re-derive them from the
    eigenvalues through the annihilating polynomial.
    """
    one = ring.one()

    def T(k: int, coeff: int = 1) -> RingElem:  # t^k, t = q^2
        return ring.q_power(2 * k, coeff)

    H = ring.q_power  # q^k, i.e. t^(k/2)
    if m.N == 2:
        return [
            (0, H(1) * (one - T(1))),
            (-1, T(2)),
        ]
    if m.N == 3:
        return [
            (1, T(1) * (one - T(2) + T(3))),
            (0, T(2) * (T(2) - T(3) + T(5))),
            (-1, T(8, -1)),
        ]
    if m.N == 4:
        return [
            (2, H(3) * (one - T(3) + T(5) - T(6))),
            (1, T(6) * (one - T(2) + T(3) + T(5) - T(6) + T(8))),
            (0, H(9, -1) * T(8) * (one - T(1) + T(3) - T(6))),
            (-1, T(20, -1)),
        ]
    raise DomainError(f"no skein table for N = {m.N}")


def derived_skein_coefficients(m: VertexModel) -> list[tuple[int, RingElem]]:
    """The same coefficients from first principles.

    R^(N-1) = sum_(k=1..N-1) (-1)^(k+1) e_k R^(N-1-k) + (-1)^(N+1) e_N R^-1
    with e_k the elementary symmetric functions of the +Z branch's
    eigenvalues; under the ambient normalization each R power picks up
    omega = q^((N^2-1)/2) per letter, so multiply e_k by omega^k.
    """
    N = m.N
    eig = [lam * m.sign for lam in m.eigenvalues]
    elem = [ring.one()]
    for lam in eig:
        nxt = [ring.zero()] * (len(elem) + 1)
        for i, c in enumerate(elem):
            nxt[i] = nxt[i] + c
            nxt[i + 1] = nxt[i + 1] + c * lam
        elem = nxt
    omega = ring.s_power(N * N - 1)
    out = []
    for k in range(1, N):
        sign = 1 if k % 2 == 1 else -1
        out.append((N - 1 - k, ring.integer(sign) * elem[k] * omega ** k))
    sign = 1 if N % 2 == 1 else -1
    out.append((-1, ring.integer(sign) * elem[N] * omega ** N))
    return out


def skein_residual(m: VertexModel, context: BraidWord, i: int) -> RingElem:
    """alpha(c b_i^(N-1)) minus its skein expansion; zero when the relation holds."""
    lhs = ambient_invariant(context.powers_of(i, m.N - 1), m)
    acc = ring.zero()
    for power, coeff in skein_coefficients(m):
        word = context.powers_of(i, power) if power else context
        acc = acc + coeff * ambient_invariant(word, m)
    return lhs - acc


def skein_contexts(rng: random.Random, trials: int):
    """``trials`` random (context, i) pairs: 2-4 strands, 0-6 letters, any generator i.

    A negative count is refused here, before anything is drawn; the pairs
    themselves are drawn lazily.
    """
    if trials < 0:
        raise DomainError(f"trials must be non-negative, got {trials}")

    def draw():
        for _ in range(trials):
            n = rng.randint(2, 4)
            context = random_word(rng, n, rng.randint(0, 6))
            yield context, rng.randint(1, n - 1)

    return draw()


# strands per model: the CLI refuses larger closures, and the invariance
# suite stabilizes no further
STRAND_CAP = {2: 7, 3: 6, 4: 5}
_SUITE_MAX_STABS = {2: 2, 3: 2, 4: 1}


@dataclass(slots=True)
class SuiteReport:
    # slotted, and no list unless a trial fails: callers keep one per call
    word: BraidWord
    trials: int
    moves_applied: int = 0
    stab_checks: int = 0
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _stab_identity_holds(w: BraidWord, w2: BraidWord, sign: int, m: VertexModel) -> bool:
    """D <L(w b_n^s)> == Z (q^(N^2-1) if s<0 else 1) k <L(w)>, division free."""
    lhs = m.D * regular_invariant(w2, m)
    factor = m.Z if sign > 0 else m.Z * ring.q_power(m.N * m.N - 1)
    rhs = factor * m.k * regular_invariant(w, m)
    return lhs == rhs


def invariance_suite(word: BraidWord, m: VertexModel, trials: int = 50,
                     seed: int = 0) -> SuiteReport:
    """Random Markov move sequences preserve the ambient invariant.

    Each trial applies one to three moves drawn from conjugation,
    positive/negative stabilization and free reduction, within per-model
    strand caps; every stabilization step additionally checks the Markov
    trace identity phi(A b_n) = tau phi(A) exactly.  A negative trial
    count is refused rather than reported as a vacuous pass.
    """
    if trials < 0:
        raise DomainError(f"trials must be non-negative, got {trials}")
    rng = random.Random(seed)
    base = ambient_invariant(word, m)
    report = SuiteReport(word=word, trials=trials)
    cap = STRAND_CAP[m.N]
    for trial in range(trials):
        w = word
        stabs = 0
        for _ in range(rng.randint(1, 3)):
            kinds = ["conjugate", "stabilize", "free_reduce"]
            weights = [0.5, 0.35, 0.15]
            if w.strands < 2:
                kinds, weights = ["stabilize"], [1.0]
            elif stabs >= _SUITE_MAX_STABS[m.N] or w.strands >= cap:
                kinds, weights = ["conjugate", "free_reduce"], [0.7, 0.3]
            kind = rng.choices(kinds, weights)[0]
            if kind == "conjugate":
                g = rng.choice([x for x in range(1, w.strands)])
                if rng.random() < 0.5:
                    g = -g
                w = w.conjugate(g)
            elif kind == "stabilize":
                sign = 1 if rng.random() < 0.5 else -1
                w2 = w.stabilize(sign)
                if not _stab_identity_holds(w, w2, sign, m):
                    report.failures += (
                        f"trial {trial}: phi stabilization identity failed on {w.letters}",
                    )
                report.stab_checks += 1
                w = w2
                stabs += 1
            else:
                w = w.free_reduce()
            report.moves_applied += 1
        if ambient_invariant(w, m) != base:
            report.failures += (f"trial {trial}: ambient invariant changed on {w.letters}",)
    return report
