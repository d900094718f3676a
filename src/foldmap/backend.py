"""Term-merge kernels for sparse polynomial arithmetic.

Terms are dicts mapping exponent tuples (ints) to nonzero coefficients
(ints, rationals or CycloElem - anything supporting ring arithmetic).
These inner loops dominate the run time of the commutation and automorphism
suites.  Every function returns a fresh dict with zero coefficients pruned.
Given canonical coefficients (see cyclo.py) it returns canonical ones: an
integral Fraction result is stored as an int.  Only Fraction arithmetic can
make one, so that pass runs only when a C-level scan of the inputs' types
finds a Fraction where one can arise; int-only and CycloElem operands skip it.

`mul_terms` multiplies large operands on packed monomials (Monagan & Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): each exponent tuple becomes one int with a field of w
bits per variable, the first variable most significant, so multiplying two
monomials is one integer add.  w is the bit length of the largest possible
product exponent, so no field can carry into the next, whatever the number
of variables.  The keys are packed on entry and unpacked once at the end;
`Poly.terms` and every caller keep exponent tuples.
"""

from fractions import Fraction
from operator import add as _add
from operator import mul as _mul

# mul_terms packs when the smaller operand has at least this many terms.
# Packing costs one pass over each operand and one over the result, which a
# pure monomial shift never pays back: with one term against 4920, packing
# was 1.4x slower; with 3 terms it took 0.62-0.71x the time and with 6 terms
# 0.54x.  Packing every product slowed the solver's tiny products (perfbench
# `aut` 0.62 -> 0.78 s), and packing only at >= 256 term pairs slowed the
# 1-6-term multipliers of family generation; at 3 both stay flat.
PACK_MIN_TERMS = 3


def backend_name() -> str:
    """Name of the live kernel implementation."""
    return "pure-python"


def _ints_for_integral_fractions(out):
    """Replace every integral Fraction value of out by its int, in place."""
    for e, c in out.items():
        if type(c) is Fraction and c.denominator == 1:
            out[e] = c.numerator


def add_terms(a, b, sign=1):
    """a + sign*b as a fresh pruned term dict."""
    out = dict(a)
    if sign == 1:
        for e, c in b.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = c
    else:
        for e, c in b.items():
            if e in out:
                s = out[e] - c
                if s:
                    out[e] = s
                else:
                    del out[e]
            else:
                out[e] = -c
    # a canonical Fraction is not integral, and neither is its sum with an
    # int, so only a sum of two Fractions can be integral
    if Fraction in set(map(type, b.values())) and Fraction in set(map(type, a.values())):
        _ints_for_integral_fractions(out)
    return out


def scale_terms(a, coef):
    """coef * a as a fresh pruned term dict."""
    out = {}
    for e, c in a.items():
        p = c * coef
        if p:
            out[e] = p
    if type(coef) is Fraction or (
        type(coef) is int and Fraction in set(map(type, a.values()))
    ):
        _ints_for_integral_fractions(out)
    return out


def mul_terms(a, b):
    """Sparse product of two term dicts.

    When the smaller operand has PACK_MIN_TERMS terms or more, the product
    runs on packed monomials (see the module docstring); smaller ones stay on
    exponent tuples, where packing would cost more than it saves.  Both paths
    visit the term pairs in the same order and prune in the same way, so
    they give the same keys, values and insertion order.
    """
    if len(a) > len(b):
        a, b = b, a
    out = {}
    if len(a) < PACK_MIN_TERMS:
        b_items = list(b.items())
        for ea, ca in a.items():
            for eb, cb in b_items:
                e = tuple(map(_add, ea, eb))
                c = ca * cb
                if e in out:
                    s = out[e] + c
                    if s:
                        out[e] = s
                    else:
                        del out[e]
                elif c:
                    out[e] = c
    else:
        # fields of w bits hold every product exponent, so sums never carry
        w = (max(map(max, a)) + max(map(max, b))).bit_length() or 1
        nvars = len(next(iter(a)))
        shifts = range(w * (nvars - 1), -1, -w)
        mults = [1 << shift for shift in shifts]
        b_items = [(sum(map(_mul, eb, mults)), cb) for eb, cb in b.items()]
        get = out.get
        for ea, ca in a.items():
            ka = sum(map(_mul, ea, mults))
            for kb, cb in b_items:
                k = ka + kb
                c = ca * cb
                s = get(k)
                if s is None:
                    if c:
                        out[k] = c
                else:
                    s += c
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        mask = (1 << w) - 1
        out = {tuple([(k >> shift) & mask for shift in shifts]): c for k, c in out.items()}
    # an int times a canonical Fraction can be integral
    if Fraction in set(map(type, a.values())) or Fraction in set(map(type, b.values())):
        _ints_for_integral_fractions(out)
    return out
