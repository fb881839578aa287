"""Exact coefficient ring.

Elements live in Z[s, s^-1] extended by one radical r with
r^2 = s^-4 + 1 + s^4, i.e. r^2 = q^-2 + 1 + q^2 under q = s^2.  Every
element is ``rational_part + radical_part * r`` with both parts Laurent
polynomials in s over arbitrary-precision integers.  All arithmetic is
exact; division either succeeds exactly or raises
:class:`~vertexlink.errors.InexactDivision`.

The convention q = s^2 (and t = q^2 = s^4) is used by the renderer and
parser; s is the base variable everywhere else.
"""

from __future__ import annotations

import cmath
import math
import warnings
from fractions import Fraction

from . import _kernel as K
from .errors import DomainError


class LaurentPoly:
    """One Laurent polynomial in s with integer coefficients."""

    __slots__ = ("data",)

    def __init__(self, data=K.PZERO):
        self.data = data

    @classmethod
    def from_terms(cls, terms: dict[int, int]) -> "LaurentPoly":
        acc = K.PZERO
        for exp, coeff in terms.items():
            if coeff:
                acc = K.padd(acc, (exp, (coeff,)))
        return cls(acc)

    @property
    def terms(self) -> dict[int, int]:
        off, coeffs = self.data
        return {off + i: c for i, c in enumerate(coeffs) if c}

    def is_zero(self) -> bool:
        return not self.data[1]

    def min_exp(self) -> int:
        if self.is_zero():
            raise DomainError("zero polynomial has no degree")
        return self.data[0]

    def max_exp(self) -> int:
        if self.is_zero():
            raise DomainError("zero polynomial has no degree")
        return self.data[0] + len(self.data[1]) - 1

    def __add__(self, other):
        return LaurentPoly(K.padd(self.data, other.data))

    def __sub__(self, other):
        return LaurentPoly(K.psub(self.data, other.data))

    def __neg__(self):
        return LaurentPoly(K.pneg(self.data))

    def __mul__(self, other):
        return LaurentPoly(K.pmul(self.data, other.data))

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        return f"LaurentPoly({_format_poly(self.data, 's', 1)})"


class RingElem:
    """Element of the coefficient ring; immutable by convention.

    ``rat`` and ``rad`` hold the kernel representation of the two
    components.  Use :attr:`rational_part` / :attr:`radical_part` for the
    wrapped view.
    """

    __slots__ = ("rat", "rad")

    def __init__(self, rat=K.PZERO, rad=K.PZERO):
        self.rat = rat
        self.rad = rad

    # -- constructors ------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "RingElem":
        if n == 0:
            return cls()
        return cls((0, (n,)))

    @classmethod
    def from_parts(cls, rat_terms: dict[int, int], rad_terms: dict[int, int] | None = None) -> "RingElem":
        return cls(
            LaurentPoly.from_terms(rat_terms).data,
            LaurentPoly.from_terms(rad_terms or {}).data,
        )

    # -- views -------------------------------------------------------

    @property
    def rational_part(self) -> LaurentPoly:
        return LaurentPoly(self.rat)

    @property
    def radical_part(self) -> LaurentPoly:
        return LaurentPoly(self.rad)

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rat[1] and not self.rad[1]

    def is_unit(self) -> bool:
        """Units are exactly +-s^k with zero radical part."""
        return not self.rad[1] and len(self.rat[1]) == 1 and self.rat[1][0] in (1, -1)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem(K.padd(self.rat, o.rat), K.padd(self.rad, o.rad))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RingElem(K.psub(self.rat, o.rat), K.psub(self.rad, o.rad))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RingElem(K.pneg(self.rat), K.pneg(self.rad))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        rat, rad = K.rmul((self.rat, self.rad), (o.rat, o.rad))
        return RingElem(rat, rad)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.rat == o.rat and self.rad == o.rad

    def __hash__(self):
        return hash((self.rat, self.rad))

    def __bool__(self):
        return not self.is_zero()

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


def radical() -> RingElem:
    return RingElem(K.PZERO, K.PONE)


# ---------------------------------------------------------------- division


def exact_divide(a: RingElem, b: RingElem) -> RingElem:
    """Exact quotient a/b in the ring; raises InexactDivision otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("ring division by zero")
    if not b.rad[1]:
        return RingElem(K.pdiv_exact(a.rat, b.rat), K.pdiv_exact(a.rad, b.rat))
    # clear the radical: a/b = a*conj(b) / (b*conj(b)), the norm is rational
    conj = RingElem(b.rat, K.pneg(b.rad))
    num = a * conj
    norm = K.psub(K.pmul(b.rat, b.rat), K.pmul(K.pmul(b.rad, b.rad), K.RHO))
    return RingElem(K.pdiv_exact(num.rat, norm), K.pdiv_exact(num.rad, norm))


def invert_unit(a: RingElem) -> RingElem:
    sign, exp = a.as_unit()
    return s_power(-exp, sign)


# ---------------------------------------------------------------- numerics


def _peval(poly, s):
    off, coeffs = poly
    if not coeffs:
        return 0.0
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * s + c
    return acc * s ** off


def eval_numeric(a: RingElem, q_value):
    """Evaluate at a numeric q under s = sqrt(q), r = sqrt(q^2 + 1 + q^-2).

    Real q < 0 uses the principal square root (s imaginary); the radical is
    always real positive for real q.  Returns a float when the imaginary
    part is negligible, else a complex number.  q = 0 is outside the
    domain.
    """
    if q_value == 0:
        raise DomainError("q = 0 is outside the Laurent domain")
    if isinstance(q_value, complex):
        s = cmath.sqrt(q_value)
        rad = cmath.sqrt(q_value * q_value + 1 + 1 / (q_value * q_value))
    else:
        qf = float(q_value)
        s = math.sqrt(qf) if qf > 0 else 1j * math.sqrt(-qf)
        rad = math.sqrt(qf * qf + 1 + 1 / (qf * qf))
    val = _peval(a.rat, s) + _peval(a.rad, s) * rad
    if isinstance(val, complex) and abs(val.imag) <= 1e-12 * (1.0 + abs(val.real)):
        return val.real
    return val


def eval_exact(a: RingElem, s_value: Fraction) -> Fraction:
    """Evaluate exactly at a rational value of s (radical-free elements)."""
    if a.rad[1]:
        raise DomainError("radical part present; no exact rational value")
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

    If the requested variable cannot represent the exponents the result
    falls back to s and a UserWarning notice is emitted.
    """
    if variable not in ("s", "q", "t"):
        raise DomainError(f"unknown variable {variable!r}")
    divisor = {"s": 1, "q": 2, "t": 4}[variable]
    if divisor > 1 and not (_divisible(a.rat, divisor) and _divisible(a.rad, divisor)):
        warnings.warn(
            f"exponents not divisible by {divisor}; rendering in s instead of {variable}",
            UserWarning,
            stacklevel=2,
        )
        variable, divisor = "s", 1
    rat_s = _format_poly(a.rat, variable, divisor)
    if not a.rad[1]:
        return rat_s
    rad_s = f"({_format_poly(a.rad, variable, divisor)})*rad"
    if not a.rat[1]:
        return rad_s
    return f"{rat_s} + {rad_s}"


# ---------------------------------------------------------------- parsing


class _Tokens:
    def __init__(self, text: str):
        self.toks: list[tuple[str, object]] = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.toks.append(("int", int(text[i:j])))
                i = j
            elif ch.isalpha():
                j = i
                while j < n and text[j].isalpha():
                    j += 1
                name = text[i:j]
                if name not in ("s", "q", "t", "rad"):
                    raise DomainError(f"unknown symbol {name!r}")
                self.toks.append(("name", name))
                i = j
            elif ch in "+-*^()":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise DomainError(f"bad character {ch!r} in polynomial text")
        self.pos = 0

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
            "rad": radical(),
        }[value]
    if kind == "(":
        val = _parse_expr(toks)
        if toks.peek() != ")":
            raise DomainError("unbalanced parenthesis")
        toks.next()
        return val
    raise DomainError(f"unexpected token {kind!r}")
