"""Term-merge kernels for sparse polynomial arithmetic.

Terms are dicts mapping exponent tuples (ints) to nonzero coefficients
(ints, rationals or CycloElem - anything supporting ring arithmetic).
These inner loops dominate the run time of the commutation and automorphism
suites.  Every function returns a fresh dict with zero coefficients pruned.
"""

from operator import add as _add


def backend_name() -> str:
    """Name of the live kernel implementation."""
    return "pure-python"


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
    return out


def scale_terms(a, coef):
    """coef * a as a fresh pruned term dict."""
    out = {}
    for e, c in a.items():
        p = c * coef
        if p:
            out[e] = p
    return out


def mul_terms(a, b):
    """Sparse product of two term dicts."""
    if len(a) > len(b):
        a, b = b, a
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
    return out
