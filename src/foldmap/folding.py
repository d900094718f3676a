"""Generation of the folding-map families and the commutation check.

Each stored coordinate of F_n is the n-th power sum P_n of the exponentials
of one Weyl orbit of size K (Hoffman & Withers, Trans. AMS 308, 1988), so it
is fixed by the orbit's elementary symmetric functions e_1, ..., e_K,
polynomials in the plane coordinates with e_K = 1.  Newton's identities
generate every map:

    P_0 = K,    P_n = sum_{k=1}^{min(n, K)} (-1)^(k-1) e_k P_{n-k}  (n >= 1),

with P_0 replaced by n in the k = n term.  For n >= K this is the published
recursion; below K it gives the published base rows.  Results are memoized
per family, so a fresh fold(tag, n) costs one step beyond fold(tag, n-1).
The recursion runs on packed monomials (see backend.py), at one field width
for every family and n, over a window of the last K power sums, kept live
for the family extended last only.  Each new P_n is stored at rest as a
pair: its packed monomials in an array of machine ints and its
coefficients pickled into one bytes object, so the cache holds neither a
monomial nor a coefficient as an int object; fold builds a fresh Poly from
the pair for every map it returns, unpacked to fresh exponent tuples.
A2 is generated in the ZW model (z and z-bar as independent variables),
which keeps the recursion free of conjugation bookkeeping; its second
coordinate is always swap_conjugate of the first.
"""

from __future__ import annotations

import pickle
import threading
from array import array
from dataclasses import dataclass

from .backend import add_terms, field_bits, mul_terms, pack, unpack
from .poly import XY, XY_VARS, ZW, ZW_VARS, Poly, PolyMap2, swap_conjugate, zw_to_xy

FAMILY_TAGS = ("a2", "b2", "g2")


def _p(terms: dict) -> Poly:
    return Poly(XY_VARS, terms)


def normalize_tag(tag: str) -> str:
    t = tag.lower().replace("_", "").replace("-", "")
    if t in FAMILY_TAGS:
        return t
    raise ValueError(f"unknown folding family {tag!r}")


# half-fold kind -> (family, n, label) of (y, x_n), whose square is F_n
HALF_FOLDS = {"b_sqrt2": ("b2", 2, "Bsqrt2"), "g_sqrt3": ("g2", 3, "Gsqrt3")}


def normalize_half_kind(kind: str) -> str:
    t = kind.lower().replace("_", "").replace("-", "")
    if t in ("bsqrt2", "bsqrt"):
        return "b_sqrt2"
    if t in ("gsqrt3", "gsqrt"):
        return "g_sqrt3"
    raise ValueError(f"unknown half-fold kind {kind!r}")


# -- each orbit's elementary symmetric functions -----------------------------

_Z = Poly.variable(ZW_VARS, "z")
_W = Poly.variable(ZW_VARS, "w")
_X = Poly.variable(XY_VARS, "x")
_Y = Poly.variable(XY_VARS, "y")

_G2_XM = _p({(1, 0): 1, (0, 1): 1, (0, 0): 3})                    # x + y + 3
_G2_XQ = _p({(2, 0): 1, (0, 1): -2, (0, 0): -4})                  # x^2 - 2y - 4
_G2_YM = _p({(3, 0): 1, (1, 1): -3, (1, 0): -9, (0, 1): -5, (0, 0): -9})
# The published constant term of this multiplier is 8, which fails the
# mandatory cross-check G_2 o G_3 = G_6; solving the recursion identity
# exactly forces 20 (= C(6,3), the value the factor must take at the
# fixed point x = y = 6 where all six orbit exponentials collapse to 1).
_G2_YQ = _p({(0, 2): 1, (3, 0): -2, (1, 1): 6, (1, 0): 18, (0, 1): 12, (0, 0): 20})
_B2_XM = _p({(0, 1): 1, (0, 0): 2})                               # 2 + y
_B2_YM = _p({(2, 0): 1, (0, 1): -2, (0, 0): -2})                  # x^2 - 2y - 2


@dataclass(frozen=True)
class FoldingFamily:
    model: str
    symmetric: tuple    # per stored coordinate: (e_1, ..., e_K), e_K = 1

    @property
    def vars(self) -> tuple:
        return self.symmetric[0][0].vars


# e_k is e_{K-k}: a mirror pair is one object, so _power_sum takes one product
FAMILIES = {
    "a2": FoldingFamily(ZW, ((_Z, _W, 1),)),
    "b2": FoldingFamily(XY, ((_X, _B2_XM, _X, 1), (_Y, _B2_YM, _Y, 1))),
    "g2": FoldingFamily(XY, ((_X, _G2_XM, _G2_XQ, _G2_XM, _X, 1),
                             (_Y, _G2_YM, _G2_YQ, _G2_YM, _Y, 1))),
}


def _power_sum(es: tuple, window: list, n: int) -> dict:
    """P_n's packed terms, n >= 1, from the packed e_1..e_K and a window
    ending at P_{n-1}, by Newton's identity; a mirror pair shares one
    product, taken once its sum is done."""
    top = min(n, len(es))
    acc = None
    for k in range(1, top + 1):
        e = es[k - 1]
        if any(e is d for d in es[:k - 1]):
            continue                    # summed with its mirror already
        group = [(window[-j] if j < n else {0: n}, (j - k) % 2)
                 for j in range(k, top + 1) if es[j - 1] is e]
        s = group[0][0]
        for p, flip in group[1:]:
            s = add_terms(s, p, -1 if flip else 1)
        term = s if e == 1 else mul_terms(e, s)
        acc = term if acc is None else add_terms(acc, term, 1 if k % 2 else -1)
    return acc


# Field width of every packed power sum: no exponent of P_n, or of the
# products behind it, exceeds n * g with g = max deg e_k (see _Cache)
_BITS = field_bits(2)

# the largest n whose n * g fits _BITS; fold raises above it
_MAX_N = {tag: ((1 << _BITS) - 1) // max(e.degree() for es in fam.symmetric for e in es[:-1])
          for tag, fam in FAMILIES.items()}


def _store(packed: dict) -> tuple:
    """The pair (keys, blob) that keeps a packed power sum at rest: its
    packed monomials, in insertion order, as one array of machine ints, and
    its coefficients pickled into one bytes object."""
    # The blobs are made and read only inside this process, from coefficients
    # the recurrence computed, so none of them is untrusted input to
    # pickle.loads.  Pickle writes an int the same way whatever object holds
    # it, so equal power sums store equal bytes.
    return array("I", packed), pickle.dumps(tuple(packed.values()), protocol=5)


def _packed(pair: tuple) -> dict:
    """The packed terms of a stored pair, in stored order."""
    keys, blob = pair
    return dict(zip(keys, pickle.loads(blob)))


class _Cache:
    """Per family, one list P_0, P_1, ... per stored coordinate, populate-once.

    Newton's recurrence runs on packed monomials (see backend.py): per
    coordinate a window of the last K power sums, with e_1..e_K packed once,
    all at the one width _BITS = field_bits(2).  With g = max deg e_k,
    deg P_m <= m * g by induction (deg e_k P_{n-k} <= g + (n - k) * g), so no
    exponent of P_n or of the products behind it exceeds n * g, and extend
    refuses an n with n * g >= 2^_BITS before it does any work.  Each P_n,
    P_0 included, is stored by _store as one pair (keys, blob) in the
    insertion order the recurrence made: the packed keys in an array of
    4-byte ints (each below 2^30, two 15-bit fields), which holds no int
    object, and the coefficients pickled into one bytes object.  F_n's
    coefficients are mostly ints of several 30-bit digits, which as int
    objects cost about three times their pickled bytes.

    Only one family's windows are live, in `live`: those of the family
    extended last.  Extending another family drops them and rebuilds its
    windows from its last K stored pairs, with the same keys, values and
    insertion order the recurrence left, so the power sums that follow are
    the same bytes.  Every command uses one family, and the suites run their
    families one after another, so a rebuild is rare.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.stored = {tag: [] for tag in FAMILIES}
        self.es = {tag: [] for tag in FAMILIES}   # per coordinate the packed e_1..e_K
        self.live = {}                            # {tag: per coordinate its window}
        for tag, fam in FAMILIES.items():
            for es in fam.symmetric:
                by_id = {id(e): pack(e.terms, _BITS) for e in es[:-1]}   # a mirror pair stays one
                self.es[tag].append(tuple(by_id[id(e)] for e in es[:-1]) + (1,))
                self.stored[tag].append([_store({0: len(es)})])

    def extend(self, tag: str, n: int):
        if n > _MAX_N[tag]:
            raise ValueError(
                f"fold({tag!r}, {n}) exceeds {_MAX_N[tag]}, the largest n whose "
                f"exponents fit the {_BITS}-bit packed fields"
            )
        stored = self.stored[tag]
        with self.lock:
            if len(stored[-1]) > n:
                return
            if tag not in self.live:
                self.live = {tag: [[_packed(pair) for pair in ps[-len(es):]]
                                   for es, ps in zip(self.es[tag], stored)]}
            while len(stored[-1]) <= n:
                m = len(stored[-1])
                for es, window, ps in zip(self.es[tag], self.live[tag], stored):
                    p = _power_sum(es, window, m)
                    window.append(p)
                    if len(window) > len(es):
                        del window[0]
                    ps.append(_store(p))


_CACHE = _Cache()


def _poly(vars: tuple, pair: tuple) -> Poly:
    """A fresh Poly on the stored pair (keys, blob), in stored order."""
    return Poly(vars, unpack(_packed(pair), _BITS, len(vars)), _internal=True)


def fold(tag: str, n: int) -> PolyMap2:
    """The n-th folding map of the family, in the family's native model.

    Every call returns fresh Polys built from the cache's stored pairs, so
    a caller that changes a returned Poly's terms leaves the cache as it was.
    An n above the family's packed bound (a2 32,767, b2 16,383, g2 10,922)
    raises ValueError at once.
    """
    tag = normalize_tag(tag)
    if type(n) is not int:
        raise TypeError(f"fold needs an int n, not {n!r}")
    if n < 0:
        raise ValueError("fold needs n >= 0")
    stored = _CACHE.stored[tag]
    if len(stored[-1]) <= n:
        _CACHE.extend(tag, n)
    fam = FAMILIES[tag]
    first = _poly(fam.vars, stored[0][n])
    second = _poly(fam.vars, stored[1][n]) if len(stored) == 2 else swap_conjugate(first)
    return PolyMap2(first, second, fam.model, f"{tag.upper()}:{n}")


def fold_xy(tag: str, n: int) -> PolyMap2:
    """The n-th folding map in xy-coordinates (converts A2 from ZW)."""
    m = fold(tag, n)
    return zw_to_xy(m) if m.model == ZW else m


def half_fold(kind: str) -> PolyMap2:
    """The square-root folding maps B_sqrt2 = (y, x_2) and G_sqrt3 = (y, x_3),
    whose second coordinates are the x-coordinates of B_2 and G_3."""
    tag, n, label = HALF_FOLDS[normalize_half_kind(kind)]
    return PolyMap2(_Y, fold(tag, n).first, XY, label)


def compose(outer: PolyMap2, inner: PolyMap2) -> PolyMap2:
    """Exact composition outer(inner(.)); both maps must share a model."""
    if outer.model != inner.model:
        raise ValueError(
            f"cannot compose maps in different models ({outer.model}, {inner.model})"
        )
    u, v = outer.first.vars
    images = {u: inner.first, v: inner.second}
    return PolyMap2(
        outer.first.substitute(images),
        outer.second.substitute(images),
        outer.model,
        f"{outer.label}.{inner.label}",
    )


def first_difference(a: PolyMap2, b: PolyMap2):
    """First differing coefficient in canonical order, or None if equal.

    Returns (component, exponents, coefficient_a, coefficient_b).
    """
    for idx, (pa, pb) in enumerate(zip(a.components(), b.components()), start=1):
        diff = pa - pb
        if not diff.is_zero():
            exps, _ = diff.leading_term()
            return (idx, exps, pa.coeff(exps), pb.coeff(exps))
    return None


@dataclass
class CommuteReport:
    family: str
    m: int
    n: int
    left_ok: bool                  # F_m o F_n == F_{mn}
    right_ok: bool                 # F_n o F_m == F_{mn}
    left_witness: tuple | None = None
    right_witness: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.left_ok and self.right_ok


def verify_commute(tag: str, m: int, n: int) -> CommuteReport:
    """Check F_m o F_n = F_{mn} = F_n o F_m exactly."""
    tag = normalize_tag(tag)
    fm, fn, fmn = fold(tag, m), fold(tag, n), fold(tag, m * n)
    lw = first_difference(compose(fm, fn), fmn)
    # for m == n, F_n o F_m is the same composition as F_m o F_n
    rw = lw if m == n else first_difference(compose(fn, fm), fmn)
    return CommuteReport(tag, m, n, lw is None, rw is None, lw, rw)
