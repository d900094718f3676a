"""Arbitrary-precision rationals: plain ints and fractions.Fraction.

Everything downstream goes through `rat` / `is_rational`.  Integer
coefficients are kept as ints (the fast path) and only become Fractions
when a division forces it; `as_exact` turns an integral Fraction back
into an int, which is the canonical storage form.
"""

from __future__ import annotations

from fractions import Fraction


def rat(numerator, denominator=1) -> Fraction:
    """The exact rational numerator/denominator."""
    return Fraction(numerator, denominator)


def is_rational(value) -> bool:
    """True for the plain number types usable as rational scalars."""
    return isinstance(value, (int, Fraction))


def rat_str(value) -> str:
    """Canonical string for a rational: 'p' or 'p/q' in lowest terms, q > 0."""
    if isinstance(value, int):
        return str(value)
    n, d = value.numerator, value.denominator
    if d == 1:
        return str(n)
    return f"{n}/{d}"


def rat_from_str(text: str):
    """Parse 'p' or 'p/q'; returns an int when the value is integral."""
    if "/" in text:
        p, q = text.split("/", 1)
        value = rat(int(p), int(q))
        if value.denominator == 1:
            return int(value.numerator)
        return value
    return int(text)


def as_exact(value):
    """Normalize an int-valued rational back to int (canonical storage form)."""
    if isinstance(value, int):
        return value
    if value.denominator == 1:
        return int(value.numerator)
    return value
