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
A2 is generated in the ZW model (z and z-bar as independent variables),
which keeps the recursion free of conjugation bookkeeping; its second
coordinate is always swap_conjugate of the first.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .poly import XY, XY_VARS, ZW, ZW_VARS, Poly, PolyMap2, swap_conjugate, zw_to_xy

FAMILY_TAGS = ("a2", "b2", "g2")


def _p(terms: dict) -> Poly:
    return Poly(XY_VARS, terms)


def normalize_tag(tag: str) -> str:
    t = tag.lower().replace("_", "").replace("-", "")
    if t in FAMILY_TAGS:
        return t
    raise ValueError(f"unknown folding family {tag!r}")


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
    tag: str
    model: str
    symmetric: tuple    # per stored coordinate: (e_1, ..., e_K), e_K = 1


# e_k is e_{K-k}: a mirror pair is one object, so _power_sum takes one product
FAMILIES = {
    "a2": FoldingFamily("a2", ZW, ((_Z, _W, 1),)),
    "b2": FoldingFamily("b2", XY, ((_X, _B2_XM, _X, 1), (_Y, _B2_YM, _Y, 1))),
    "g2": FoldingFamily("g2", XY, ((_X, _G2_XM, _G2_XQ, _G2_XM, _X, 1),
                                   (_Y, _G2_YM, _G2_YQ, _G2_YM, _Y, 1))),
}


def _power_sum(es: tuple, ps: list) -> Poly:
    """P_n, n = len(ps) >= 1, from e_1..e_K and P_0..P_{n-1} by Newton's
    identity; a mirror pair shares one product, taken once its sum is done."""
    n = len(ps)
    top = min(n, len(es))
    acc = None
    for k in range(1, top + 1):
        e = es[k - 1]
        if any(e is d for d in es[:k - 1]):
            continue                    # summed with its mirror already
        group = [(ps[n - j] if j < n else n, (j - k) % 2)
                 for j in range(k, top + 1) if es[j - 1] is e]
        s = group[0][0]
        for p, flip in group[1:]:
            s = s - p if flip else s + p
        term = s if e == 1 else e * s
        if acc is None:
            acc = term
        else:
            acc = acc + term if k % 2 else acc - term
    return acc


class _Cache:
    """Per family, one list P_0, P_1, ... per stored coordinate, populate-once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.stored = {tag: [[Poly.constant(es[0].vars, len(es))] for es in fam.symmetric]
                       for tag, fam in FAMILIES.items()}

    def extend(self, tag: str, n: int):
        stored = self.stored[tag]
        with self.lock:
            while len(stored[-1]) <= n:
                for es, ps in zip(FAMILIES[tag].symmetric, stored):
                    ps.append(_power_sum(es, ps))


_CACHE = _Cache()


def fold(tag: str, n: int) -> PolyMap2:
    """The n-th folding map of the family, in the family's native model."""
    tag = normalize_tag(tag)
    if n < 0:
        raise ValueError("fold needs n >= 0")
    stored = _CACHE.stored[tag]
    if len(stored[-1]) <= n:
        _CACHE.extend(tag, n)
    first = stored[0][n]
    second = stored[1][n] if len(stored) == 2 else swap_conjugate(first)
    return PolyMap2(first, second, FAMILIES[tag].model, f"{tag.upper()}:{n}")


def fold_xy(tag: str, n: int) -> PolyMap2:
    """The n-th folding map in xy-coordinates (converts A2 from ZW)."""
    m = fold(tag, n)
    return zw_to_xy(m) if m.model == ZW else m


def half_fold(kind: str) -> PolyMap2:
    """The square-root folding maps B_sqrt2 = (y, x_2) and G_sqrt3 = (y, x_3),
    whose second coordinates are the x-coordinates of B_2 and G_3."""
    kind = normalize_half_kind(kind)
    if kind == "b_sqrt2":
        return PolyMap2(_Y, fold("b2", 2).first, XY, "Bsqrt2")
    return PolyMap2(_Y, fold("g2", 3).first, XY, "Gsqrt3")


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
    left = compose(fm, fn)
    right = compose(fn, fm)
    lw = first_difference(left, fmn)
    rw = first_difference(right, fmn)
    return CommuteReport(tag, m, n, lw is None, rw is None, lw, rw)
