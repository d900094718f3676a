"""Term-merge kernels for sparse polynomial arithmetic.

Terms are dicts mapping monomials to nonzero coefficients (ints, rationals
or CycloElem - anything supporting ring arithmetic).  A monomial is either
an exponent tuple or one packed int (see below); the keys of one call are
all of one kind.  These inner loops dominate the run time of the
commutation and automorphism suites.  Every function returns a fresh dict
with zero coefficients pruned.  Given canonical coefficients (see cyclo.py)
it returns canonical ones: an integral Fraction result is stored as an int.
Only Fraction arithmetic can make one, so that pass runs only when a C-level
scan of the inputs' types finds a Fraction where one can arise; int-only and
CycloElem operands skip it.

Packed monomials (Monagan & Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007): `pack` turns each
exponent tuple into one int with a field of w bits per variable, the first
variable most significant, so multiplying two monomials is one integer add;
`unpack` turns them back.  Every kernel works on either key kind as it is
given and never converts one into the other.  w must hold every exponent of
the product, or a field carries into the next; `field_bits` is the one place
that chooses it.  `Poly.substitute` and family generation pack with it once
per call or per family and keep their products packed throughout.  Every
other product, such as the solver's, has operands of a few terms and stays
on tuples, where packing on entry was measured slower.  A future caller with
large operands, such as the G2-from-A2 product z_n * w_n, packs them itself
with `field_bits`, `pack` and `unpack`.

`unpack` keeps no state: it builds a fresh exponent tuple for every term.
Two variables, the shape of every family map and every `compose` result,
split each key with `divmod`, which builds the pair in C: decoding the
933,168 stored terms of fold a2 200, b2 150 and g2 90 took 0.11 s that
way against 0.37 s with the shift-and-mask loop that other counts use
(CPython 3.11 on a 2-core host, best of 9).
"""

from fractions import Fraction
from itertools import repeat
from operator import add as _add
from operator import mul as _mul

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


def field_bits(nvars, top=0):
    """Field width for nvars exponents up to top: top's bit length, or an
    even share of one int digit if that is wider, so two variables pack at
    15 bits into one-digit keys until an exponent reaches 2^15."""
    # 30 bits: CPython's int digit on 64-bit builds
    return max(top.bit_length(), 30 // max(nvars, 1), 1)


def _shifts(w, nvars):
    """Bit offsets of the nvars fields of width w, first variable first."""
    return range(w * (nvars - 1), -1, -w)


def pack(terms, w):
    """terms with each exponent tuple packed into fields of w bits."""
    if not terms:
        return {}
    mults = [1 << shift for shift in _shifts(w, len(next(iter(terms))))]
    return {sum(map(_mul, e, mults)): c for e, c in terms.items()}


def unpack(terms, w, nvars):
    """Packed terms with w-bit fields back on exponent tuples of nvars: a
    fresh tuple per term, with the same values and insertion order."""
    if nvars == 2:
        # divmod builds the pair in C (see the module docstring)
        return dict(zip(map(divmod, terms, repeat(1 << w)), terms.values()))
    shifts = _shifts(w, nvars)
    mask = (1 << w) - 1
    return {tuple([(k >> shift) & mask for shift in shifts]): c for k, c in terms.items()}


def _mul_packed(a, b):
    """Product of two packed term dicts, a's terms in the outer loop."""
    out = {}
    get = out.get
    b_items = list(b.items())
    for ka, ca in a.items():
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
    return out


def mul_terms(a, b):
    """Sparse product of two term dicts.

    Packed operands (int keys) run the packed loop, tuple-keyed ones the
    tuple loop; neither is converted (see the module docstring).  Both loops
    visit the term pairs in the same order and prune in the same way, so
    they give the same keys, values and insertion order.
    """
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    if type(next(iter(a))) is int:
        out = _mul_packed(a, b)
    else:
        out = {}
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
    # an int times a canonical Fraction can be integral
    if Fraction in set(map(type, a.values())) or Fraction in set(map(type, b.values())):
        _ints_for_integral_fractions(out)
    return out
