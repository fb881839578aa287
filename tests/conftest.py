import functools
from fractions import Fraction

import pytest

from oracle.quadratic_closure import closure_trace, field, flatten_table, inverse, laurent_at
from vertexlink import ring
from vertexlink.models import build_model, mirror_model, paper_table


@pytest.fixture(scope="session")
def m2():
    return build_model(2)


@pytest.fixture(scope="session")
def m3():
    return build_model(3)


@pytest.fixture(scope="session")
def m4():
    return build_model(4)


@pytest.fixture(scope="session", params=[2, 3, 4], ids=["N2", "N3", "N4"])
def each_model(request):
    return build_model(request.param)


@pytest.fixture(scope="session", params=[(2, 1), (2, -1), (3, 1), (3, -1), (4, 1), (4, -1)],
                ids=["N2+", "N2-", "N3+", "N3-", "N4+", "N4-"])
def each_signed_model(request):
    N, sign = request.param
    return build_model(N, sign)


@pytest.fixture(scope="session",
                params=[(N, s, mir) for N in (2, 3, 4) for s in (1, -1) for mir in (False, True)],
                ids=lambda p: f"N{p[0]}{'' if p[1] > 0 else '-'}{'m' if p[2] else ''}")
def each_model_and_mirror(request):
    """Every model: N = 2, 3, 4, both branches of Z, and the mirror of each.

    The ids mark the -Z branch with "-" and a mirror with "m", so the plain
    +Z models keep the ids of ``each_model``.
    """
    N, sign, mirrored = request.param
    m = build_model(N, sign)
    return mirror_model(m) if mirrored else m


@pytest.fixture(scope="session")
def ungauged_closure():
    """(<L>, alpha) of a braid closure at rational s, from the paper's N = 4 table in Q(sqrt([3]_q)).

    The table is taken as the paper writes it, an entry (x, y) standing for
    x + y r with r = sqrt([3]_q), and traced by the oracle, which shares no
    code with the package.  alpha = (-1)^((N-1) n) sign^e s^((N^2-1) e + 2 (N-1))
    <L> / D with D = 1 + q^2 + q^4 + q^6: the factor sign^e, -1 at odd
    writhe on the -Z branch, makes alpha the same on both branches.
    """
    @functools.lru_cache(maxsize=None)
    def letters(m, s: Fraction):
        F = field(s ** -4 + 1 + s ** 4)

        def at(v):
            x, y = v if isinstance(v, tuple) else (v, ring.zero())
            return F(laurent_at(x.terms, s), laurent_at(y.terms, s))

        Z = at(m.Z)
        R = {key: Z * at(v) for key, v in flatten_table(paper_table(4), 4).items()}
        return F, R, inverse(R, 16), [at(m.mu.entries[(i, i)]) for i in range(4)]

    def run(word, m, s):
        s = Fraction(s)
        F, R, R_inv, mu = letters(m, s)
        bracket = closure_trace(R, R_inv, mu, word.strands, word.letters)
        q = s * s
        sign = (-1) ** (3 * word.strands) * m.sign ** (word.writhe % 2)
        unit = sign * s ** (15 * word.writhe + 6) / (1 + q ** 2 + q ** 4 + q ** 6)
        return bracket, bracket * F(unit)

    return run
