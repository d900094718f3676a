"""Predicted top-degree expansions of the folding maps and their checks.

Each family has a published expansion of its coordinate polynomials into a
few explicit leading terms plus a remainder of bounded total degree; the
B-family y-coordinate remainder is further structured (a part divisible by
x^3 with low cofactor degree plus a lower-degree part).  This module builds
those predictions with exact coefficients and checks the generated maps
against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .folding import fold, normalize_tag
from .poly import XY_VARS, ZW_VARS, Poly
from .rationals import as_exact, rat


class ExpansionRangeError(ValueError):
    """Requested n is below the expansion's validity range."""


@dataclass(frozen=True)
class ComponentCheck:
    """Contract for one coordinate: predicted terms + remainder bound.

    The remainder (coordinate minus the predicted terms) must satisfy for
    every term: total degree <= slack, or, when factor_exps is set, the term
    is divisible by that monomial with cofactor degree <= factor_slack.
    A negative slack means the remainder must vanish identically.
    """

    component: int                      # 1 or 2
    predicted: Poly
    slack: int
    factor_exps: tuple | None = None
    factor_slack: int = -1


@dataclass(frozen=True)
class LeadingSpec:
    family: str
    n: int
    checks: tuple


@dataclass
class LeadingReport:
    family: str
    n: int
    passed: bool
    residual_degrees: list = field(default_factory=list)
    witness: tuple | None = None        # (component, exponents, coefficient)


def _build_terms(vars, terms: list[tuple], slack: int) -> Poly:
    """Assemble displayed (coef, exps) terms, policing negative exponents.

    A displayed term with a negative exponent is dropped when its coefficient
    vanishes (the small-n degenerations of the closed forms) or when
    slack < 0 (the exact-equality regime, where the displayed sum is read
    without the impossible term); otherwise it signals a misread formula.
    """
    out = {}
    for coef, exps in terms:
        if min(exps) < 0:
            if coef == 0 or slack < 0:
                continue
            raise ValueError(
                f"predicted term with negative exponent {exps} and "
                f"nonzero coefficient {coef}"
            )
        if coef:
            out[exps] = coef
    return Poly(vars, out)


def _head(n: int) -> list[tuple]:
    """x^n - n x^{n-2}y + (n^2 - 3n)/2 x^{n-4}y^2, the three terms the a2,
    b2-x and g2-x expansions start with (B2's printed n(n-3)/2 is the same
    number)."""
    return [(1, (n, 0)), (-n, (n - 2, 1)), (as_exact(rat(n * n - 3 * n, 2)), (n - 4, 2))]


def predicted(tag: str, n: int) -> LeadingSpec:
    """The family's published expansion contracts at index n."""
    tag = normalize_tag(tag)
    if tag == "a2":
        if n < 2:
            raise ExpansionRangeError("A-family expansion needs n >= 2")
        slack = n - 3
        p = _build_terms(ZW_VARS, _head(n), slack)
        return LeadingSpec(tag, n, (ComponentCheck(1, p, slack),))

    if tag == "b2":
        if n < 3:
            raise ExpansionRangeError("B-family expansion needs n >= 3")
        slack = n - 3
        px = _build_terms(XY_VARS, _head(n) + [(-n, (n - 2, 0))], slack)
        py = _build_terms(XY_VARS, [(1, (0, n)), (-n, (2, n - 2))], n - 1)
        return LeadingSpec(
            tag,
            n,
            (
                ComponentCheck(1, px, slack),
                ComponentCheck(2, py, n - 1, factor_exps=(3, 0), factor_slack=n - 3),
            ),
        )

    # g2: the x-coordinate expansion needs n >= 5, the y-leading term n >= 1;
    # predicted() serves the range where both apply, the component helpers
    # below serve each proposition's own range.
    checks = []
    if n >= 5:
        checks.append(g2_x_check(n))
    if n >= 1:
        checks.append(g2_y_check(n))
    if not checks:
        raise ExpansionRangeError("G-family expansion needs n >= 1")
    return LeadingSpec(tag, n, tuple(checks))


def g2_x_check(n: int) -> ComponentCheck:
    if n < 5:
        raise ExpansionRangeError("G-family x-expansion needs n >= 5")
    slack = n - 3
    p = _build_terms(XY_VARS, _head(n) + [(-n, (n - 3, 1)), (-3 * n, (n - 2, 0))], slack)
    return ComponentCheck(1, p, slack)


def g2_y_leading_coef(n: int) -> int:
    if n % 2 == 0:
        return 2 * (-1) ** (n // 2)
    return n * (-1) ** ((n - 1) // 2)


def g2_y_check(n: int) -> ComponentCheck:
    if n < 1:
        raise ExpansionRangeError("G-family y-leading term needs n >= 1")
    if n % 2 == 0:
        exps = (3 * n // 2, 0)
        slack = (3 * n - 2) // 2
    else:
        exps = ((3 * n - 3) // 2, 1)
        slack = (3 * n - 3) // 2
    p = _build_terms(XY_VARS, [(g2_y_leading_coef(n), exps)], slack)
    return ComponentCheck(2, p, slack)


def check_component(coord: Poly, check: ComponentCheck):
    """Residual-degree verdict; returns (ok, max_residual_degree, witness)."""
    residual = coord - check.predicted
    worst = -1
    for exps, coef in residual.sorted_terms():
        deg = sum(exps)
        if deg <= check.slack:
            worst = max(worst, deg)
            continue
        if check.factor_exps is not None and all(
            e >= f for e, f in zip(exps, check.factor_exps)
        ):
            cofactor_deg = deg - sum(check.factor_exps)
            if cofactor_deg <= check.factor_slack:
                worst = max(worst, deg)
                continue
        return False, deg, (check.component, exps, coef)
    return True, worst, None


def verify_leading(tag: str, n: int) -> LeadingReport:
    """Check fold(tag, n) against its published expansion."""
    spec = predicted(tag, n)
    m = fold(spec.family, n)
    coords = {1: m.first, 2: m.second}
    report = LeadingReport(spec.family, n, True)
    for check in spec.checks:
        ok, deg, witness = check_component(coords[check.component], check)
        report.residual_degrees.append(deg)
        if not ok:
            report.passed = False
            report.witness = witness
            break
    return report


def g2_x_slice_mismatch(n: int):
    """First disagreement between the G x-expansion's three braces and the
    generated coordinate's degree slices; None when all match.  Needs
    n >= 5, like g2_x_check."""
    predicted = g2_x_check(n).predicted
    xn = fold("g2", n).first
    for k in (n, n - 1, n - 2):
        got, want = xn.degree_slice(k), predicted.degree_slice(k)
        if got != want:
            return (k, got, want)
    return None
