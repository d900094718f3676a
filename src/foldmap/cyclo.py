"""Exact arithmetic in the cyclotomic field Q(zeta_12).

Elements are written c0 + c1*z + c2*z^2 + c3*z^3 where z is a fixed
primitive 12th root of unity with minimal relation z^4 = z^2 - 1.  This is
the smallest field containing both i = z^3 and the primitive cube roots of
unity (zeta_3 = z^4 = z^2 - 1), i.e. every scalar the folding-map theorems
need.

This module makes the canonical coefficient form used everywhere else: a
value on the rational line is a plain int or Fraction, and a CycloElem
always has a nonzero z, z^2 or z^3 part.  Every operation that can land
on the rational line (+, -, *, /, inverse, **) returns its result through
_canonical_elem, so callers never collapse a rational CycloElem themselves;
only a CycloElem built directly from four components can still be rational.
The helpers at the bottom (coef_*) operate uniformly on either form.
"""

from __future__ import annotations

import cmath

from .rationals import as_exact, is_rational, rat, rat_str

_HALF_PI_OVER_6 = cmath.pi / 6.0


class CycloElem:
    """An element of Q(zeta_12), reduced modulo z^4 - z^2 + 1."""

    __slots__ = ("c",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.c = (as_exact(c0), as_exact(c1), as_exact(c2), as_exact(c3))

    # -- constructors -------------------------------------------------

    @classmethod
    def zeta_pow(cls, k: int):
        """z^k for any integer k (reduced mod 12); z^0 = 1 and z^6 = -1 are ints."""
        return _ZETA_POWERS[k % 12]

    # -- predicates / accessors ---------------------------------------

    @property
    def components(self):
        return self.c

    def is_rational(self) -> bool:
        return self.c[1] == 0 and self.c[2] == 0 and self.c[3] == 0

    def __bool__(self) -> bool:
        return self.c != (0, 0, 0, 0)

    # -- field operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, CycloElem):
            a, b = self.c, other.c
            return _canonical_elem(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
        if is_rational(other):
            a = self.c
            return _canonical_elem(a[0] + other, a[1], a[2], a[3])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        a = self.c
        return _canonical_elem(-a[0], -a[1], -a[2], -a[3])

    def __sub__(self, other):
        if isinstance(other, CycloElem):
            a, b = self.c, other.c
            return _canonical_elem(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])
        if is_rational(other):
            a = self.c
            return _canonical_elem(a[0] - other, a[1], a[2], a[3])
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CycloElem):
            a, b = self.c, other.c
            # convolution up to z^6, then z^4 = z^2 - 1, z^5 = z^3 - z, z^6 = -1
            c0 = a[0] * b[0]
            c1 = a[0] * b[1] + a[1] * b[0]
            c2 = a[0] * b[2] + a[1] * b[1] + a[2] * b[0]
            c3 = a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0]
            c4 = a[1] * b[3] + a[2] * b[2] + a[3] * b[1]
            c5 = a[2] * b[3] + a[3] * b[2]
            c6 = a[3] * b[3]
            return _canonical_elem(c0 - c4 - c6, c1 - c5, c2 + c4, c3 + c5)
        if is_rational(other):
            a = self.c
            return _canonical_elem(a[0] * other, a[1] * other, a[2] * other, a[3] * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(zeta_12)")
        if self.is_rational():
            return _inv_rat(self.c[0])
        # product of the other Galois conjugates over the field norm
        cofactor = self.galois(5) * self.galois(7) * self.galois(11)
        return cofactor * _inv_rat(self * cofactor)

    def __truediv__(self, other):
        if isinstance(other, CycloElem):
            return self * other.inverse()
        if is_rational(other):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * _inv_rat(other)
        return NotImplemented

    def __rtruediv__(self, other):
        if is_rational(other):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = 1
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- Galois action --------------------------------------------------

    def galois(self, k: int) -> "CycloElem":
        """The automorphism z -> z^k, for k coprime to 12 (1, 5, 7, 11)."""
        c0, c1, c2, c3 = self.c
        if k % 12 == 1:
            return self
        if k % 12 == 5:  # z^5 = z^3 - z, z^10 = 1 - z^2, z^15 = z^3
            return CycloElem(c0 + c2, -c1, -c2, c1 + c3)
        if k % 12 == 7:  # z^7 = -z
            return CycloElem(c0, -c1, c2, -c3)
        if k % 12 == 11:  # complex conjugation: z^11 = z - z^3
            return CycloElem(c0 + c2, c1, -c2, -c1 - c3)
        raise ValueError(f"z -> z^{k} is not a field automorphism")

    def conj(self) -> "CycloElem":
        """Complex conjugation (z -> z^11)."""
        return self.galois(11)

    # -- conversions -----------------------------------------------------

    def to_complex(self) -> complex:
        z = cmath.exp(1j * _HALF_PI_OVER_6)
        c0, c1, c2, c3 = self.c
        return float(c0) + float(c1) * z + float(c2) * z * z + float(c3) * z**3

    def __eq__(self, other):
        if isinstance(other, CycloElem):
            return self.c == other.c
        if is_rational(other):
            return self.is_rational() and self.c[0] == other
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.c[0])
        return hash(self.c)

    def __repr__(self):
        return f"CycloElem({', '.join(rat_str(x) for x in self.c)})"

    def __str__(self):
        if self.is_rational():
            return rat_str(self.c[0])
        parts = []
        for value, name in zip(self.c, ("", "z", "z^2", "z^3")):
            if value == 0:
                continue
            text = rat_str(value)
            if name:
                text = f"{text}*{name}" if value not in (1, -1) else ("-" + name if value == -1 else name)
            parts.append(text)
        out = " + ".join(parts).replace("+ -", "- ")
        return out or "0"


def _canonical_elem(c0, c1, c2, c3):
    """c0 + c1*z + c2*z^2 + c3*z^3 in canonical form: the plain int or
    Fraction c0 when the z, z^2 and z^3 parts vanish, else a CycloElem."""
    if c1 == 0 and c2 == 0 and c3 == 0:
        return as_exact(c0)
    return CycloElem(c0, c1, c2, c3)


def _inv_rat(value):
    return as_exact(rat(1, 1) / rat(value))


_ZETA_POWERS = (
    1,
    CycloElem(0, 1, 0, 0),
    CycloElem(0, 0, 1, 0),
    CycloElem(0, 0, 0, 1),
    CycloElem(-1, 0, 1, 0),
    CycloElem(0, -1, 0, 1),
    -1,
    CycloElem(0, -1, 0, 0),
    CycloElem(0, 0, -1, 0),
    CycloElem(0, 0, 0, -1),
    CycloElem(1, 0, -1, 0),
    CycloElem(0, 1, 0, -1),
)


def roots_of_unity(order: int):
    """All solutions of v^order = 1 in Q(zeta_12); requires order | 12."""
    if order <= 0 or 12 % order != 0:
        raise ValueError(f"mu_{order} does not lie in Q(zeta_12)")
    step = 12 // order
    return [CycloElem.zeta_pow(step * j) for j in range(order)]


def unity_order(value) -> int | None:
    """Multiplicative order of a root of unity, or None if not one."""
    if value**12 != 1:
        return None
    return next(d for d in (1, 2, 3, 4, 6, 12) if value**d == 1)


# -- helpers over mixed coefficients (int | rational | CycloElem) --------


def coef_conj(c):
    return c.conj() if isinstance(c, CycloElem) else c


def coef_components(c):
    """The four rational coordinates of a coefficient in the zeta basis."""
    if isinstance(c, CycloElem):
        return c.c
    return (c, 0, 0, 0)


def coef_to_complex(c) -> complex:
    if isinstance(c, CycloElem):
        return c.to_complex()
    return complex(float(c))


def coef_div(a, b):
    """Exact division of mixed coefficients."""
    if isinstance(a, CycloElem) or isinstance(b, CycloElem):
        return a / b
    if b == 0:
        raise ZeroDivisionError("division by zero")
    return as_exact(rat(a) / rat(b))


def coef_simplify(c):
    """Canonical form: a rational CycloElem becomes its plain value and an
    integral Fraction becomes an int."""
    if isinstance(c, CycloElem):
        return c.c[0] if c.is_rational() else c
    return as_exact(c)
