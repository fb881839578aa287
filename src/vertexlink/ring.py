"""Exact coefficient ring Z[s, s^-1].

Every element is one Laurent polynomial in s over arbitrary-precision
integers.  All arithmetic is exact; division either succeeds exactly or
raises :class:`~vertexlink.errors.InexactDivision`.  The N = 4 table's
radical sqrt([3]_q) never enters the ring: :mod:`vertexlink.models`
gauges it out while building the model.

The convention q = s^2 (and t = q^2 = s^4) is used by the renderer and
parser; s is the base variable everywhere else.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernel as K
from .errors import DomainError


class RingElem:
    """Element of the coefficient ring; immutable by convention.

    ``rat`` holds the kernel polynomial ``(offset, coeffs)``.
    """

    __slots__ = ("rat",)

    # always zero: bench/tracing.py reads ``out.rad`` beside ``out.rat``
    rad = K.PZERO

    def __init__(self, rat=K.PZERO):
        self.rat = rat

    # -- constructors ------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "RingElem":
        if n == 0:
            return cls()
        return cls((0, (n,)))

    @classmethod
    def from_terms(cls, terms: dict[int, int]) -> "RingElem":
        acc = K.PZERO
        for exp, coeff in terms.items():
            if coeff:
                acc = K.padd(acc, (exp, (coeff,)))
        return cls(acc)

    # -- views -------------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        off, coeffs = self.rat
        return {off + i: c for i, c in enumerate(coeffs) if c}

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rat[1]

    def is_unit(self) -> bool:
        """Units are exactly +-s^k."""
        return len(self.rat[1]) == 1 and self.rat[1][0] in (1, -1)

    def as_unit(self) -> tuple[int, int]:
        """Return (sign, exponent) for a unit, raising otherwise."""
        if not self.is_unit():
            raise DomainError(f"not a unit: {self!r}")
        return self.rat[1][0], self.rat[0]

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RingElem):
            return other
        if isinstance(other, int):
            return RingElem.from_int(other)
        return None

    def __add__(self, other):
        if isinstance(other, RingElem):
            return RingElem(K.padd(self.rat, other.rat))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem(K.padd(self.rat, o.rat))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem(K.psub(self.rat, o.rat))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RingElem(K.pneg(self.rat))

    def __mul__(self, other):
        if isinstance(other, RingElem):
            return RingElem(K.pmul(self.rat, other.rat))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem(K.pmul(self.rat, o.rat))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return invert_unit(self) ** (-n)
        acc = one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __eq__(self, other):
        if isinstance(other, RingElem):
            return self.rat == other.rat
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.rat == o.rat

    def __hash__(self):
        return hash(self.rat)

    def __bool__(self):
        return self.rat[1] != ()

    def __repr__(self):
        return f"RingElem({render(self)})"


def zero() -> RingElem:
    return RingElem()


def one() -> RingElem:
    return RingElem(K.PONE)


def integer(n: int) -> RingElem:
    return RingElem.from_int(n)


def s_power(k: int, coeff: int = 1) -> RingElem:
    if coeff == 0:
        return RingElem()
    return RingElem((k, (coeff,)))


def q_power(k: int, coeff: int = 1) -> RingElem:
    return s_power(2 * k, coeff)


def t_power(k: int, coeff: int = 1) -> RingElem:
    return s_power(4 * k, coeff)


# ---------------------------------------------------------------- division


def exact_divide(a: RingElem, b: RingElem) -> RingElem:
    """Exact quotient a/b in the ring; raises InexactDivision otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("ring division by zero")
    return RingElem(K.pdiv_exact(a.rat, b.rat))


def invert_unit(a: RingElem) -> RingElem:
    sign, exp = a.as_unit()
    return s_power(-exp, sign)


# ---------------------------------------------------------------- evaluation


def eval_exact(a: RingElem, s_value: Fraction) -> Fraction:
    """Evaluate exactly at a rational value of s."""
    if s_value == 0:
        raise DomainError("s = 0 is outside the Laurent domain")
    s = Fraction(s_value)
    off, coeffs = a.rat
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc * s ** off


# ---------------------------------------------------------------- rendering


def _format_poly(poly, var: str, divisor: int) -> str:
    off, coeffs = poly
    if not coeffs:
        return "0"
    pieces = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        e = (off + i) // divisor
        if e == 0:
            body = str(abs(c))
        else:
            vp = var if e == 1 else f"{var}^{e}"
            body = vp if abs(c) == 1 else f"{abs(c)}*{vp}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(pieces)


def _divisible(poly, divisor: int) -> bool:
    off, coeffs = poly
    return all((off + i) % divisor == 0 for i, c in enumerate(coeffs) if c)


def render(a: RingElem, variable: str = "s") -> str:
    """Render in s, q = s^2 or t = s^4.

    Raises DomainError when the requested variable cannot represent the
    exponents.
    """
    if variable not in ("s", "q", "t"):
        raise DomainError(f"unknown variable {variable!r}")
    divisor = {"s": 1, "q": 2, "t": 4}[variable]
    if divisor > 1 and not _divisible(a.rat, divisor):
        raise DomainError(f"exponents not divisible by {divisor}; cannot render in {variable}")
    return _format_poly(a.rat, variable, divisor)


# ---------------------------------------------------------------- parsing


# ASCII only: str.isdigit also accepts digits such as "²" that int() refuses
_DIGITS = frozenset("0123456789")


_MAX_NESTING = 100  # open parentheses; each costs four frames of the descent below


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, object]] = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in _DIGITS:
                j = i
                while j < n and text[j] in _DIGITS:
                    j += 1
                self.toks.append(("int", int(text[i:j])))
                i = j
            elif ch.isalpha():
                j = i
                while j < n and text[j].isalpha():
                    j += 1
                name = text[i:j]
                if name not in ("s", "q", "t"):
                    raise DomainError(f"unknown symbol {name!r}")
                self.toks.append(("name", name))
                i = j
            elif ch in "+-*^()":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise DomainError(f"bad character {ch!r} in polynomial text")
        self.pos = 0
        self.depth = 0  # open parentheses, bounded by _MAX_NESTING

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def next(self):
        if self.pos >= len(self.toks):
            raise DomainError("unexpected end of polynomial text")
        tok = self.toks[self.pos]
        self.pos += 1
        return tok


def parse(text: str) -> RingElem:
    """Parse the renderer's output format back into a ring element."""
    toks = _Tokens(text)
    val = _parse_expr(toks)
    if toks.peek() is not None:
        raise DomainError(f"trailing input at token {toks.pos}")
    return val


def _parse_expr(toks: _Tokens) -> RingElem:
    val = _parse_term(toks)
    while toks.peek() in ("+", "-"):
        op, _ = toks.next()
        rhs = _parse_term(toks)
        val = val + rhs if op == "+" else val - rhs
    return val


def _parse_term(toks: _Tokens) -> RingElem:
    val = _parse_factor(toks)
    while toks.peek() == "*":
        toks.next()
        val = val * _parse_factor(toks)
    return val


def _parse_factor(toks: _Tokens) -> RingElem:
    neg = False
    while toks.peek() == "-":
        toks.next()
        neg = not neg
    base = _parse_atom(toks)
    if toks.peek() == "^":
        toks.next()
        exp_neg = False
        if toks.peek() == "-":
            toks.next()
            exp_neg = True
        kind, value = toks.next()
        if kind != "int":
            raise DomainError("exponent must be an integer")
        exp = -value if exp_neg else value
        base = _apply_power(base, exp)
    return -base if neg else base


def _apply_power(base: RingElem, exp: int) -> RingElem:
    if exp >= 0:
        return base ** exp
    if base.is_unit():
        return invert_unit(base) ** (-exp)
    raise DomainError("negative exponent on a non-unit")


def _parse_atom(toks: _Tokens) -> RingElem:
    kind, value = toks.next() if toks.peek() is not None else (None, None)
    if kind == "int":
        return integer(value)
    if kind == "name":
        return {
            "s": s_power(1),
            "q": q_power(1),
            "t": t_power(1),
        }[value]
    if kind == "(":
        toks.depth += 1
        if toks.depth > _MAX_NESTING:
            raise DomainError(f"parentheses nest deeper than {_MAX_NESTING}")
        val = _parse_expr(toks)
        if toks.peek() != ")":
            raise DomainError("unbalanced parenthesis")
        toks.next()
        toks.depth -= 1
        return val
    raise DomainError(f"unexpected token {kind!r}")
