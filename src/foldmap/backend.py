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

`unpack` shares exponent tuples: one packed monomial at one width always
unpacks to the same tuple object, from a memo that holds one entry per
distinct monomial the process has unpacked and is never pruned.  The family
cache keeps its monomials packed at rest and reads their tuples from the
same memo (`unpack_memo`).  Two variables pack at one width below 2^15, so
the maps `fold` returns and the maps composed from them hold one tuple per
monomial rather than one per term.
"""

from fractions import Fraction
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


# (w, nvars) -> {packed monomial: its exponent tuple}; see unpack
_TUPLES = {}


def unpack_memo(w, nvars, keys=()):
    """unpack's memo for w-bit fields over nvars, {packed monomial: its
    exponent tuple}, once it holds a tuple for each of keys.

    A caller that keeps packed keys at rest, as the family cache does, puts
    them in here when it stores them and reads their shared tuples back
    from the table later, without building a tuple-keyed dict first.
    """
    table = _TUPLES.setdefault((w, nvars), {})
    missing = set(keys).difference(table)
    if missing:
        shifts = _shifts(w, nvars)
        mask = (1 << w) - 1
        for k in missing:
            # setdefault never replaces a tuple another thread stored first
            table.setdefault(k, tuple([(k >> shift) & mask for shift in shifts]))
    return table


def unpack(terms, w, nvars):
    """Packed terms with w-bit fields back on exponent tuples of nvars.

    Returns the same keys, values and insertion order as building a fresh
    tuple per term, but each tuple comes from a memo kept per (w, nvars)
    (see unpack_memo): unpacking one packed monomial at one width always
    returns the same tuple object, so the Polys that `fold` builds from the
    family cache and the Polys that `Poly.substitute` builds share one tuple
    per monomial instead of holding a private one per term.  The memo is never
    pruned; it holds one entry per distinct monomial unpacked or stored by
    the family cache in the process (12,949 in 4 tables after the
    perfbench `aut`, `battery` and `generate` workloads ran in one
    process), far fewer than the stored terms (933,168 packed keys in the
    family cache after fold a2 200, b2 150 and g2 90, over 11,476 exponent
    vectors).
    """
    table = unpack_memo(w, nvars, terms)
    return dict(zip(map(table.__getitem__, terms), terms.values()))


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
