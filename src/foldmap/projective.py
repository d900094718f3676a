"""Folding maps on the projective plane: degrees and indeterminacy loci.

An affine planar map (P, Q) of degree d extends to P^2 as
[Z^(d-deg P) P-bar : Z^(d-deg Q) Q-bar : Z^d], a map of projective degree
d.  The third form is Z^d, so
base points can only sit on the line Z = 0, where the first two forms
restrict to the degree-d slices of P and Q.  The base points are therefore
the common zeros of these two forms at infinity, read straight off the map's
top slice: the monomial part of their exact gcd yields the points [0:1:0] /
[1:0:0], and any non-monomial residual factor is reported unresolved rather
than root-solved (the folding families never produce one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import coef_div
from .folding import N_DESK_BOUND, compose, fold_xy, normalize_tag
from .poly import XY, Poly, PolyMap2


@dataclass
class IndeterminacyReport:
    points: list = field(default_factory=list)      # projective triples
    unresolved: Poly | None = None                  # binary form in (X, Y)

    @property
    def empty(self) -> bool:
        return not self.points and self.unresolved is None


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


def indeterminacy(m: PolyMap2) -> IndeterminacyReport:
    """Common zeros on Z = 0 of the two forms at infinity of an XY map."""
    if m.model != XY:
        raise ValueError("indeterminacy needs an XY-model map (convert ZW first)")
    d = m.degree()
    if d < 1:
        raise ValueError("a constant map has no forms at infinity, so no indeterminacy locus")
    forms = [f for f in (p.degree_slice(d).terms for p in m.components()) if f]
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
    report = IndeterminacyReport()
    if x_content >= 1:
        report.points.append((0, 1, 0))
    if y_content >= 1:
        report.points.append((1, 0, 0))
    if len(g) > 1:
        k = len(g) - 1
        report.unresolved = Poly(("X", "Y"), {(k - e, e): c for e, c in enumerate(g) if c})
    return report


def is_morphism(m: PolyMap2) -> bool:
    return indeterminacy(m).empty


def iterate_map(m: PolyMap2, times: int) -> PolyMap2:
    """The times-fold composite of m with itself."""
    if times < 1:
        raise ValueError("iterate_map needs times >= 1")
    out = m
    for _ in range(times - 1):
        out = compose(out, m)
    return out


def degree_growth(tag: str, n: int, m: int) -> int:
    """Projective degree of the m-fold composite of the n-th folding map."""
    tag = normalize_tag(tag)
    if m < 1:
        raise ValueError("degree_growth needs m >= 1")
    # the m-fold composite of F_n is F_{n^m}
    if n**m > N_DESK_BOUND:
        raise ValueError(f"n^m = {n ** m} exceeds the desk bound {N_DESK_BOUND}")
    composite = iterate_map(fold_xy(tag, n), m)
    return composite.degree()
