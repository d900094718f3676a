"""Independent numerical oracle for the folding maps.

The folding map of index n is characterized by Phi(n p) = F_n(Phi(p)),
where Phi = (phi_1, phi_2) sums unit exponentials over the two fundamental
weight orbits of the family's Weyl group.  Everything is set up in weight
coordinates: weights are integer vectors, and an orbit is the closure of
its fundamental weight under the two simple reflections, which generate
the Weyl group.  The dual torus lattice is Z^2, so a torus point is just a
pair of real numbers and phi_k is a finite sum of exp(2*pi*i <weight,
point>) terms.

The only free choice left by that construction is which orbit sum plays
which coordinate of the plane.  That is a fixed fact of each family, so it
is a table, FIRST_WEIGHT, and not a run-time search against the exact maps:
the oracle reads nothing from folding but the map it checks, and a wrong
F_2 fails the oracle at n = 2 alone.  For b2 and g2 only one order
satisfies the scaling identity; for a2 both do, because the map is
conjugation-symmetric, and the table keeps z as the w1 orbit sum.  The
orbit sums (rather than full Weyl-group sums) are forced by the constant
maps F_0: the orbit sizes (3,3) / (4,4) / (6,6) match them, |W|-fold sums
would not.

The module also carries the symbolic Chebyshev oracle: the B-family map of
index n satisfies F_n(u+v, uv) = (T_n(u)+T_n(v), T_n(u)T_n(v)) with the
normalized Chebyshev polynomials T_0 = 2, T_1 = t, T_{k+1} = t T_k -
T_{k-1}; that identity is checked as an exact polynomial equality.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass

from .folding import fold, normalize_tag
from .poly import Poly

CARTAN = {
    "a2": ((2, -1), (-1, 2)),
    "b2": ((2, -1), (-2, 2)),
    "g2": ((2, -1), (-3, 2)),
}

# The fundamental weight whose orbit sum is the first plane coordinate; the
# other fundamental weight's orbit sum is the second.
FIRST_WEIGHT = {"a2": (1, 0), "b2": (0, 1), "g2": (0, 1)}

TWO_PI = 2.0 * math.pi


def _orbit(cartan, weight):
    """The Weyl orbit of weight, sorted: its closure under the simple
    reflections s_j(lam) = lam - lam_j alpha_j, where alpha_j, column j of
    the Cartan matrix, is the simple root in the fundamental-weight basis."""
    seen = {weight}
    frontier = [weight]
    while frontier:
        lam = frontier.pop()
        for j in range(2):
            image = (lam[0] - lam[j] * cartan[0][j], lam[1] - lam[j] * cartan[1][j])
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return tuple(sorted(seen))


@functools.cache
def get_system(tag: str) -> tuple:
    """The family's two fundamental-weight orbits, in plane-coordinate order."""
    tag = normalize_tag(tag)
    first = FIRST_WEIGHT[tag]
    return (_orbit(CARTAN[tag], first), _orbit(CARTAN[tag], first[::-1]))


# -- the exponential-invariant map ------------------------------------------


def orbit_sum(orbit, point) -> complex:
    return sum(
        cmath.exp(1j * TWO_PI * (lam[0] * point[0] + lam[1] * point[1]))
        for lam in orbit
    )


def phi(orbits, point):
    """(phi_1, phi_2) at a torus point: the plane coordinates of Phi(p)."""
    return (orbit_sum(orbits[0], point), orbit_sum(orbits[1], point))


def scale_point(point, n: int):
    return (n * point[0], n * point[1])


def _residual(orbits, fmap, n: int, point) -> float:
    """Larger coordinate error of Phi(n p) = F_n(Phi(p)) at the torus point p."""
    scaled = phi(orbits, scale_point(point, n))
    mapped = fmap.evaluate_complex(phi(orbits, point))
    return max(abs(scaled[0] - mapped[0]), abs(scaled[1] - mapped[1]))


@dataclass
class ScalingReport:
    family: str
    n: int
    trials: int
    tol: float
    seed: int
    max_residual: float = 0.0

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


# Largest n per family at which the float oracle can judge F_n: with the
# default 100 trials and tol 1e-7, the worst residual over seeds 0-9 stays at
# least 4x under tol up to here (a2 n=14: 1.6e-8, b2 n=10: 2.1e-8, g2 n=6:
# 1.5e-8), and one step above it reaches 5.9e-8, 2.0e-7 and 3.0e-7 on maps
# the exact checks pass: F_n's coefficients outgrow float64's precision.
ORACLE_MAX_N = {"a2": 14, "b2": 10, "g2": 6}


def check_oracle_n(tag: str, n: int) -> None:
    """Raise ValueError if n is above the family's numerical bound."""
    tag = normalize_tag(tag)
    if n > ORACLE_MAX_N[tag]:
        raise ValueError(
            f"n = {n} exceeds the {tag} oracle's numerical bound {ORACLE_MAX_N[tag]}"
        )


# Most trials one oracle run takes: a trial costs about 48 us on each family's
# ORACLE_MAX_N map, so 10^6 trials take about 48 s.
ORACLE_MAX_TRIALS = 10**6


def check_scaling_args(trials: int, tol: float) -> None:
    """Raise ValueError unless 1 <= trials <= ORACLE_MAX_TRIALS and tol is
    finite and > 0.

    With no points checked, or with an infinite tolerance, the oracle would
    pass vacuously; with tol <= 0 or NaN no residual could pass.
    """
    if trials < 1:
        raise ValueError(f"the scaling oracle needs trials >= 1, got {trials}")
    if trials > ORACLE_MAX_TRIALS:
        raise ValueError(
            f"the scaling oracle needs trials <= {ORACLE_MAX_TRIALS}, got {trials}"
        )
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"the scaling oracle needs a finite tol > 0, got {tol}")


def check_scaling(tag: str, n: int, trials: int = 100, tol: float = 1e-7,
                  seed: int = 0) -> ScalingReport:
    """Max residual of Phi(n p) - F_n(Phi(p)) over seeded random points.

    Raises ValueError for arguments check_scaling_args rejects and for n
    above the family's numerical bound ORACLE_MAX_N.
    """
    check_scaling_args(trials, tol)
    tag = normalize_tag(tag)
    check_oracle_n(tag, n)
    orbits = get_system(tag)
    fmap = fold(tag, n)
    rng = random.Random(seed)
    report = ScalingReport(tag, n, trials, tol, seed)
    for _ in range(trials):
        p = (rng.random(), rng.random())
        report.max_residual = max(report.max_residual, _residual(orbits, fmap, n, p))
    return report


# -- the symbolic Chebyshev oracle for the B family ---------------------------


def chebyshev(n: int) -> Poly:
    """Normalized Chebyshev polynomial: T_n(t + 1/t) = t^n + t^-n."""
    if n < 0:
        raise ValueError("chebyshev needs n >= 0")
    t = Poly.variable(("t",), "t")
    prev, cur = Poly.constant(("t",), 2), t
    if n == 0:
        return prev
    for _ in range(n - 1):
        prev, cur = cur, t * cur - prev
    return cur


@dataclass
class FunctionalReport:
    n: int
    passed: bool
    witness: tuple | None = None


def verify_B_functional(n: int) -> FunctionalReport:
    """Exact check of F_n(u+v, uv) = (T_n(u)+T_n(v), T_n(u) T_n(v))."""
    uv = ("u", "v")
    u = Poly.variable(uv, "u")
    v = Poly.variable(uv, "v")
    fmap = fold("b2", n)
    xvar, yvar = fmap.first.vars
    images = {xvar: u + v, yvar: u * v}
    lhs = (fmap.first.substitute(images), fmap.second.substitute(images))
    tn = chebyshev(n)
    tu = tn.substitute({"t": u})
    tv = tn.substitute({"t": v})
    rhs = (tu + tv, tu * tv)
    for component, (left, right) in enumerate(zip(lhs, rhs), start=1):
        diff = left - right
        if not diff.is_zero():
            exps, coef = diff.leading_term()
            return FunctionalReport(n, False, (component, exps, coef))
    return FunctionalReport(n, True)
