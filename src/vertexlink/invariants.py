"""Link invariants of braid closures and their consistency checks.

The regular (closure-trace) invariant is tr(rep(word) mu^(x)n), computed
on the Kronecker-packed image of the chain (:mod:`vertexlink.packed`);
dividing by k^n gives the Markov trace, and the ambient normalization
removes the writhe dependence so the result is invariant under
conjugation, both stabilizations and free reduction.  All arithmetic is
exact; the single division by the loop sum D is checked exact.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from . import packed, ring
from .axioms import check_axioms, check_markov_conditions
from .braid import BraidWord, random_word, represent
from .errors import DomainError
from .models import (
    VertexModel,
    build_model,
    check_trace_constants,
    generic_eigenvalues,
    mirror_model,
)
from .ring import RingElem
from .tensor import annihilates, partial_close_second, trace_product


def _closure_trace(word: BraidWord, m: VertexModel, bits: int) -> RingElem:
    """Z^-writhe <L> on the image of the ring at q = 2^bits, meeting in the middle.

    The two half-words are represented separately, sharing their letter
    matrices, on the rows of charge w >= 0 only, and traced against each
    other with mu^(x)n folded onto those rows: the trace on the sector -w
    equals that on w (:mod:`vertexlink.packed`), so the row weighs
    sigma^n (q^(kappa w) + q^(-kappa w)), or sigma^n once for w = 0.
    Exact when ``bits`` is at least ``packed.closure_bits(m, word)``.
    """
    n = word.strands
    img = packed.image(m, bits)
    half = len(word.letters) // 2
    unit, weights = img.closure_weight(n)
    rows = weights.keys()
    letters: dict = {}
    left = represent(BraidWord(n, word.letters[:half]), img, cache=letters, rows=rows)
    right = represent(BraidWord(n, word.letters[half:]), img, cache=letters, rows=rows)
    return unit * trace_product(left, right, weights)


@functools.lru_cache(maxsize=4096)
def regular_invariant(word: BraidWord, m: VertexModel) -> RingElem:
    """Closure trace <L> = tr(rep(word) mu^(x)n), exact.

    Each letter is Z times a unit-free matrix, so <L> is Z^writhe times
    the unit-free trace, which runs on plain ints (:mod:`vertexlink.packed`)
    at a width proven wide enough to read every coefficient back.
    """
    bits = packed.closure_bits(m, word)
    return m.Z ** word.writhe * _closure_trace(word, m, bits)


def markov_phi(word: BraidWord, m: VertexModel) -> tuple[RingElem, RingElem]:
    """Markov trace as an exact pair (numerator, denominator k^n)."""
    return regular_invariant(word, m), m.k ** word.strands


def ambient_invariant(word: BraidWord, m: VertexModel) -> RingElem:
    """Writhe-corrected invariant of the closure of ``word``.

    alpha = (tau taubar)^(-(n-1)/2) (taubar/tau)^(e/2) phi, which collapses
    to a unit monomial times <L> / D; the division must be exact.
    """
    n = word.strands
    e = word.writhe
    val = regular_invariant(word, m)
    exp = (m.N * m.N - 1) * e + 2 * (m.N - 1)
    sign = -1 if (m.N - 1) * n % 2 else 1
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
    traces = [trace_product(partial_close_second(X, m.mu, m.conv), m.mu) for X in (m.R, m.R_inv)]
    check_trace_constants(m.N, m.Z, k, m.D, *traces)
    curl_ratio = ring.q_power(m.N * m.N - 1)
    return ModelConstants(
        k=k,
        D=m.D,
        tau=(m.Z, m.D),
        taubar=(m.Z * curl_ratio, m.D),
        curl_ratio=curl_ratio,
    )


def minpoly_check(m: VertexModel, eigenvalues=None) -> bool:
    """Annihilation by prod(R - lam), minimality, and the closed form."""
    eig = tuple(eigenvalues) if eigenvalues is not None else m.eigenvalues
    if eigenvalues is None and eig != generic_eigenvalues(m.N, m.Z):
        return False
    if not annihilates(m.R, eig):
        return False
    return not any(annihilates(m.R, eig[:i] + eig[i + 1:]) for i in range(len(eig)))


def skein_coefficients(m: VertexModel) -> list[tuple[int, RingElem]]:
    """Coefficients (power, coeff) with alpha(c b^(N-1)) = sum coeff alpha(c b^power).

    Fixed verbatim per model; the property tests re-derive them from the
    eigenvalues through the annihilating polynomial.
    """
    sgn = m.sign
    one = ring.one()

    def T(k: int, coeff: int = 1) -> RingElem:  # t^k, t = q^2
        return ring.q_power(2 * k, coeff)

    H = ring.q_power  # q^k, i.e. t^(k/2)
    if m.N == 2:
        return [
            (0, H(1, sgn) * (one - T(1))),
            (-1, T(2)),
        ]
    if m.N == 3:
        return [
            (1, T(1, sgn) * (one - T(2) + T(3))),
            (0, T(2) * (T(2) - T(3) + T(5))),
            (-1, T(8, -sgn)),
        ]
    if m.N == 4:
        return [
            (2, H(3, sgn) * (one - T(3) + T(5) - T(6))),
            (1, T(6) * (one - T(2) + T(3) + T(5) - T(6) + T(8))),
            (0, H(9, -sgn) * T(8) * (one - T(1) + T(3) - T(6))),
            (-1, T(20, -1)),
        ]
    raise DomainError(f"no skein table for N = {m.N}")


def derived_skein_coefficients(m: VertexModel) -> list[tuple[int, RingElem]]:
    """The same coefficients from first principles.

    R^(N-1) = sum_(k=1..N-1) (-1)^(k+1) e_k R^(N-1-k) + (-1)^(N+1) e_N R^-1
    with e_k the elementary symmetric functions of the eigenvalues; under
    the ambient normalization each R power picks up omega = q^((N^2-1)/2)
    per letter, so multiply e_k by omega^k.
    """
    N = m.N
    eig = m.eigenvalues
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


def mirror_model_check(word: BraidWord, m: VertexModel) -> bool:
    """The mirror solution closes every braid to the same value."""
    mm = mirror_model(m)
    if not check_axioms(mm).passed or not check_markov_conditions(mm).passed:
        return False
    return regular_invariant(word, mm) == regular_invariant(word, m)


def global_sign_ratio(word: BraidWord, N: int) -> RingElem:
    """alpha for the -Z branch over alpha for +Z; always +-1 on a fixed word."""
    plus = ambient_invariant(word, build_model(N, 1))
    minus = ambient_invariant(word, build_model(N, -1))
    if plus.is_zero():
        raise DomainError("invariant vanished; ratio undefined")
    return ring.exact_divide(minus, plus)
