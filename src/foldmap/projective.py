"""Folding maps on the projective plane: degrees and indeterminacy loci.

An affine planar map (P, Q) homogenizes to [Z^(d-deg P) P-bar : Z^(d-deg Q)
Q-bar : Z^d] with d the larger component degree.  Because the third
component is Z^d, base points can only sit on the line Z = 0, so the
indeterminacy computation reduces to an exact gcd of two binary forms: the
monomial part of the gcd yields the points [0:1:0] / [1:0:0], and any
non-monomial residual factor is reported unresolved rather than root-solved
(the folding families never produce one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import coef_div
from .folding import compose, fold_xy, normalize_tag
from .poly import XY, Poly, PolyMap2

PROJ_VARS = ("X", "Y", "Z")

DESK_BOUND = 128

# Largest map index n the command line accepts (gen, proj, aut, oracle).
# Generation cost grows steeply with n: on a 2-core host, from a cold cache,
# fold(tag, 200) takes 0.6 s for a2, 5.9 s for b2 and 39 s for g2, and
# fold("a2", 700) takes 17 s.  The benchmark's `generate` workload builds
# every a2 map up to n = 200, so the bound may not go below 200.
N_DESK_BOUND = 200


@dataclass(frozen=True)
class HomogMap3:
    """Three homogeneous forms of a common degree on P^2."""

    components: tuple
    degree: int
    label: str = ""

    def evaluate(self, point):
        values = dict(zip(PROJ_VARS, point))
        return tuple(p.evaluate(values) for p in self.components)


@dataclass
class IndeterminacyReport:
    points: list = field(default_factory=list)      # projective triples
    unresolved: Poly | None = None                  # binary form in (X, Y)

    @property
    def empty(self) -> bool:
        return not self.points and self.unresolved is None


def homogenize_map(m: PolyMap2) -> HomogMap3:
    """Homogenize an affine XY map; the common degree is the max of the two."""
    if m.model != XY:
        raise ValueError("homogenize_map needs an XY-model map (convert ZW first)")
    d = m.degree()
    if d < 1:
        raise ValueError("cannot homogenize a constant map")
    comps = []
    for p in m.components():
        terms = {}
        for (i, j), coef in p.terms.items():
            terms[(i, j, d - i - j)] = coef
        comps.append(Poly(PROJ_VARS, terms, _internal=True))
    comps.append(Poly(PROJ_VARS, {(0, 0, d): 1}, _internal=True))
    return HomogMap3(tuple(comps), d, m.label)


def _binary_form_at_infinity(p: Poly):
    """Restrict a (X, Y, Z)-form to Z = 0 as a dict exponent-pair -> coef."""
    return {(i, j): c for (i, j, k), c in p.terms.items() if k == 0}


def _univariate_gcd(u: list, v: list) -> list:
    """Monic gcd of coefficient lists (index = degree) over the field."""

    def normalize(w):
        while w and not w[-1]:
            w.pop()
        return w

    u, v = normalize(list(u)), normalize(list(v))
    while v:
        # u mod v
        while len(u) >= len(v) and u:
            shift = len(u) - len(v)
            factor = coef_div(u[-1], v[-1])
            for k in range(len(v)):
                u[k + shift] = u[k + shift] - factor * v[k]
            u = normalize(u)
        u, v = v, u
    if u:
        lead = u[-1]
        u = [coef_div(c, lead) for c in u]
    return u


def indeterminacy(h: HomogMap3) -> IndeterminacyReport:
    """Common zeros of the three components, all necessarily on Z = 0."""
    third = h.components[2]
    if third.terms != {(0, 0, h.degree): 1}:
        raise ValueError("indeterminacy reduction needs third component Z^d")
    forms = []
    for p in h.components[:2]:
        form = _binary_form_at_infinity(p)
        if form:
            forms.append(form)
    report = IndeterminacyReport()
    if not forms:
        # cannot happen for homogenized affine maps (one component has full
        # degree), kept for safety on hand-built inputs
        raise ValueError("both components vanish identically on Z = 0")
    # gcd of the forms = X^a Y^b * gcd of their content-free parts, where the
    # content exponents are the minima across the forms
    x_content = min(min(i for i, _ in f) for f in forms)
    y_content = min(min(j for _, j in f) for f in forms)
    # dehomogenize the content-free parts in t = Y/X and take their gcd;
    # in a homogeneous form the Y-exponent determines the term, so the
    # coefficient of t^(j-b) is the coefficient of X^(i-a) Y^(j-b)
    dehomogenized = []
    for f in forms:
        b = min(j for _, j in f)
        coeffs = [0] * (max(j - b for _, j in f) + 1)
        for (i, j), c in f.items():
            coeffs[j - b] = c
        dehomogenized.append(coeffs)
    g = dehomogenized[0]
    for other in dehomogenized[1:]:
        g = _univariate_gcd(g, other)
    if x_content >= 1:
        report.points.append((0, 1, 0))
    if y_content >= 1:
        report.points.append((1, 0, 0))
    if len(g) > 1:
        m = len(g) - 1
        form = Poly(("X", "Y"), {(m - k, k): c for k, c in enumerate(g) if c})
        report.unresolved = form
    return report


def is_morphism(h: HomogMap3) -> bool:
    return indeterminacy(h).empty


def iterate_map(m: PolyMap2, times: int) -> PolyMap2:
    out = m
    for _ in range(times - 1):
        out = compose(out, m)
    return out


def degree_growth(tag: str, n: int, m: int) -> int:
    """Homogenized degree of the m-fold composite of the n-th folding map."""
    tag = normalize_tag(tag)
    if m < 1:
        raise ValueError("degree_growth needs m >= 1")
    if n**m > DESK_BOUND:
        raise ValueError(f"n^m = {n ** m} exceeds the desk bound {DESK_BOUND}")
    composite = iterate_map(fold_xy(tag, n), m)
    return homogenize_map(composite).degree
