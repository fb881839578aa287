"""Arithmetic kernel: Laurent polynomials and ring elements as plain tuples.

A Laurent polynomial in the variable s is stored as a pair
``(offset, coeffs)`` where ``coeffs`` is a tuple of ints and the value is
``sum(coeffs[i] * s**(offset + i))``.  Canonical form: the zero polynomial
is ``(0, ())``; otherwise the first and last coefficients are nonzero.
Every result is canonical; :func:`canon` is the one routine that strips
a coefficient buffer to that form.

A ring element is a pair of polynomials ``(rat, rad)`` representing
``rat + rad * r`` where the radical r satisfies ``r*r = s^-4 + 1 + s^4``.

:mod:`vertexlink.tensor` looks :func:`spgemm` up on this module at each
call, so a wrapper installed here sees every sparse product.
"""

from .errors import InexactDivision

PZERO = (0, ())
PONE = (0, (1,))

# r*r, i.e. q^-2 + 1 + q^2 written in s
RHO = (-4, (1, 0, 0, 0, 1, 0, 0, 0, 1))


def kernel_name() -> str:
    """The arithmetic path in use; there is one, the pure-Python kernel."""
    return "py"


def canon(offset, buf):
    """Canonical polynomial ``sum(buf[i] * s**(offset + i))``."""
    lo = 0
    hi = len(buf)
    while hi > lo and buf[hi - 1] == 0:
        hi -= 1
    if hi == lo:
        return PZERO
    while buf[lo] == 0:
        lo += 1
    return (offset + lo, tuple(buf[lo:hi]))


def padd(a, b):
    ac = a[1]
    bc = b[1]
    if not ac:
        return b
    if not bc:
        return a
    ao = a[0]
    bo = b[0]
    lo = ao if ao < bo else bo
    hi = max(ao + len(ac), bo + len(bc))
    buf = [0] * (hi - lo)
    for i, c in enumerate(ac):
        buf[ao - lo + i] = c
    for i, c in enumerate(bc):
        buf[bo - lo + i] += c
    return canon(lo, buf)


def pneg(a):
    if not a[1]:
        return a
    return (a[0], tuple(-c for c in a[1]))


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    ac = a[1]
    bc = b[1]
    if not ac or not bc:
        return PZERO
    la = len(ac)
    lb = len(bc)
    if la == 1:
        f = ac[0]
        return (a[0] + b[0], tuple(f * c for c in bc))
    if lb == 1:
        f = bc[0]
        return (a[0] + b[0], tuple(f * c for c in ac))
    buf = [0] * (la + lb - 1)
    for i, ci in enumerate(ac):
        if ci == 0:
            continue
        for j, cj in enumerate(bc):
            buf[i + j] += ci * cj
    return canon(a[0] + b[0], buf)


def pdiv_exact(a, b):
    """Exact quotient a / b of polynomials; the remainder must vanish."""
    if not b[1]:
        raise ZeroDivisionError("polynomial division by zero")
    if not a[1]:
        return PZERO
    ao, ac = a
    bo, bc = b
    la, lb = len(ac), len(bc)
    if la < lb:
        raise InexactDivision(f"degree span too small: {la} < {lb}")
    rem = list(ac)
    quot = [0] * (la - lb + 1)
    lead = bc[-1]
    for i in range(la - lb, -1, -1):
        c = rem[i + lb - 1]
        if c == 0:
            continue
        if c % lead:
            raise InexactDivision(f"coefficient {c} not divisible by {lead}")
        f = c // lead
        quot[i] = f
        for j in range(lb):
            rem[i + j] -= f * bc[j]
    if any(rem):
        raise InexactDivision("nonzero remainder")
    return canon(ao - bo, quot)


def rmul(x, y):
    xr, xi = x
    yr, yi = y
    if not xi[1] and not yi[1]:
        return (pmul(xr, yr), PZERO)
    rat = padd(pmul(xr, yr), pmul(pmul(xi, yi), RHO))
    rad = padd(pmul(xr, yi), pmul(xi, yr))
    return (rat, rad)


def spgemm(a, b):
    """Sparse matrix product over ring-element values.

    Both operands map ``(row, col)`` to a ring-element pair; the result is
    in the same format with exact zeros removed.
    """
    rows_b = {}
    for rc, v in b.items():
        r = rc[0]
        if r in rows_b:
            rows_b[r].append((rc[1], v))
        else:
            rows_b[r] = [(rc[1], v)]
    out = {}
    for rc, u in a.items():
        row = rows_b.get(rc[1])
        if row is None:
            continue
        r = rc[0]
        ur, ui = u
        ui_nz = bool(ui[1])
        for c2, v in row:
            vr, vi = v
            if ui_nz or vi[1]:
                rat = padd(pmul(ur, vr), pmul(pmul(ui, vi), RHO))
                rad = padd(pmul(ur, vi), pmul(ui, vr))
            else:
                rat = pmul(ur, vr)
                rad = PZERO
            key = (r, c2)
            acc = out.get(key)
            if acc is None:
                out[key] = (rat, rad)
            else:
                out[key] = (padd(acc[0], rat), padd(acc[1], rad))
    return {k: v for k, v in out.items() if v[0][1] or v[1][1]}
