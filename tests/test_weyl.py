"""Root-system data, the exponential-invariant oracle, and the Chebyshev check."""

import json
import random

import pytest

from foldmap import cli, weyl
from foldmap.folding import fold
from foldmap.poly import Poly, PolyMap2
from foldmap.weyl import (
    chebyshev,
    check_scaling,
    get_system,
    phi,
    scale_point,
    verify_B_functional,
)

SIZES = {"a2": (3, 3), "b2": (4, 4), "g2": (6, 6)}

# The orbits get_system returns, in its order: the float oracle adds each
# orbit sum in this order, so its residual bits depend on it.
ORBITS = {
    "a2": (
        ((-1, 1), (0, -1), (1, 0)),
        ((-1, 0), (0, 1), (1, -1)),
    ),
    "b2": (
        ((-1, 1), (0, -1), (0, 1), (1, -1)),
        ((-1, 0), (-1, 2), (1, -2), (1, 0)),
    ),
    "g2": (
        ((-1, 1), (-1, 2), (0, -1), (0, 1), (1, -2), (1, -1)),
        ((-2, 3), (-1, 0), (-1, 3), (1, -3), (1, 0), (2, -3)),
    ),
}


def simple_reflections(tag):
    """s_1 and s_2 as integer matrices on weight coordinates:
    s_j(lam) = lam - lam_j alpha_j, with alpha_j column j of the Cartan matrix."""
    cartan = weyl.CARTAN[tag]
    return [
        tuple(
            tuple((r == c) - (c == j) * cartan[r][j] for c in range(2))
            for r in range(2)
        )
        for j in range(2)
    ]


def apply(matrix, weight):
    return tuple(row[0] * weight[0] + row[1] * weight[1] for row in matrix)


def dual_action(matrix, point):
    """Action of a Weyl element on the torus: the contragredient (M^T)^-1,
    for an integer matrix M with determinant +-1."""
    (p, q), (r, s) = matrix
    det = p * s - q * r
    assert det in (1, -1), "Weyl matrix must have determinant +-1"
    # (M^T)^-1 = det * ((s, -r), (-q, p)) since det = 1 / det
    return (
        det * (s * point[0] - r * point[1]),
        det * (-q * point[0] + p * point[1]),
    )


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_orbits_are_closed_under_simple_reflections(tag):
    """Each orbit holds its fundamental weight, the first being FIRST_WEIGHT,
    and is closed under both simple reflections, which generate W."""
    first = weyl.FIRST_WEIGHT[tag]
    reflections = simple_reflections(tag)
    for orbit, weight, size in zip(get_system(tag), (first, first[::-1]), SIZES[tag]):
        assert weight in orbit
        assert len(set(orbit)) == len(orbit) == size
        for s in reflections:
            assert {apply(s, lam) for lam in orbit} == set(orbit)


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_orbits_are_pinned(tag):
    assert get_system(tag) == ORBITS[tag]


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_orbit_sizes_match_constant_maps(tag):
    orbits = get_system(tag)
    assert tuple(len(orbit) for orbit in orbits) == SIZES[tag]
    value = phi(orbits, (0.0, 0.0))
    assert abs(value[0] - SIZES[tag][0]) < 1e-12
    assert abs(value[1] - SIZES[tag][1]) < 1e-12


def _worst_f2_residual(orbits, f2, points):
    return max(weyl._residual(orbits, f2, 2, p) for p in points)


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_calibration(tag):
    """FIRST_WEIGHT puts the orbit sums in the order the exact maps use:
    Phi(2p) = F_2(Phi(p)) at 24 seeded points."""
    orbits = get_system(tag)
    assert orbits[0] == weyl._orbit(weyl.CARTAN[tag], weyl.FIRST_WEIGHT[tag])
    rng = random.Random(0xC0FFEE)
    sample = [(rng.random(), rng.random()) for _ in range(24)]
    assert _worst_f2_residual(orbits, fold(tag, 2), sample) < 1e-9


def test_a2_phi_pair_is_conjugate():
    v = phi(get_system("a2"), (0.371, 0.642))
    assert abs(v[1] - v[0].conjugate()) < 1e-12


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_w_invariance(tag):
    """Phi is invariant under both simple reflections, so under all of W."""
    orbits = get_system(tag)
    rng = random.Random(11)
    for _ in range(20):
        p = (rng.random(), rng.random())
        rhs = phi(orbits, p)
        for sigma in simple_reflections(tag):
            lhs = phi(orbits, dual_action(sigma, p))
            assert abs(lhs[0] - rhs[0]) < 1e-9
            assert abs(lhs[1] - rhs[1]) < 1e-9


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_scaling(tag):
    for n in range(1, 7):
        report = check_scaling(tag, n, trials=60, tol=1e-7, seed=3)
        assert report.passed, (tag, n, report.max_residual)


def test_scaling_reports_residual_deterministically():
    a = check_scaling("b2", 4, trials=40, tol=1e-7, seed=9)
    b = check_scaling("b2", 4, trials=40, tol=1e-7, seed=9)
    assert a.max_residual == b.max_residual


@pytest.mark.parametrize("trials", [0, -5, weyl.ORACLE_MAX_TRIALS + 1])
def test_scaling_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        check_scaling("a2", 3, trials=trials)


@pytest.mark.parametrize("tol", [0, -1, float("nan"), float("inf")])
def test_scaling_rejects_unusable_tol(tol):
    with pytest.raises(ValueError):
        check_scaling("a2", 3, trials=5, tol=tol)


def test_point_utilities():
    assert scale_point((0.25, 0.5), 3) == (0.75, 1.5)


def test_chebyshev():
    t = Poly.variable(("t",), "t")
    assert chebyshev(0) == Poly.constant(("t",), 2)
    assert chebyshev(1) == t
    assert chebyshev(2) == t**2 - 2
    assert chebyshev(3) == t**3 - 3 * t
    # defining property at a few integer points: T_n(s + 1/s) = s^n + s^-n
    from fractions import Fraction

    for n in range(8):
        s = Fraction(3, 2)
        lhs = chebyshev(n).evaluate({"t": s + 1 / s})
        assert lhs == s**n + s**-n
    with pytest.raises(ValueError):
        chebyshev(-1)


@pytest.mark.parametrize("n", range(0, 16))
def test_b_functional_equation(n):
    assert verify_B_functional(n).passed


def test_b_functional_reports_a_wrong_map(monkeypatch):
    def perturbed(tag, n):
        m = fold(tag, n)
        return PolyMap2(m.first, m.second + 3, m.model, m.label)

    monkeypatch.setattr(weyl, "fold", perturbed)
    report = verify_B_functional(4)
    assert not report.passed
    assert report.witness == (2, (0, 0), 3)


def test_a_wrong_f2_fails_only_the_n2_oracle(monkeypatch, capsys):
    """The oracle reads only the map it checks: a wrong b2 F_2 fails the
    n = 2 case and leaves the n = 3 case passing."""
    def perturbed(tag, n):
        m = fold(tag, n)
        if (tag, n) != ("b2", 2):
            return m
        return PolyMap2(m.first + 1, m.second, m.model, m.label)

    monkeypatch.setattr(weyl, "fold", perturbed)
    assert cli.main(["oracle", "--family", "b2", "--n", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False
    assert cli.main(["oracle", "--family", "b2", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def _orbit_exponentials(orbits, orbit_index, point):
    import cmath
    import math

    return [
        cmath.exp(2j * math.pi * (lam[0] * point[0] + lam[1] * point[1]))
        for lam in orbits[orbit_index]
    ]


def _elementary_symmetric(values, k):
    from itertools import combinations

    total = 0j
    for combo in combinations(values, k):
        prod = 1
        for v in combo:
            prod *= v
        total += prod
    return total


def _check_family_table(tag, values, betas_of):
    """Every e_k in folding.FAMILIES[tag] equals the orbit's e_k at a point."""
    from foldmap.folding import FAMILIES

    for coord, es in enumerate(FAMILIES[tag].symmetric):
        betas = betas_of(coord)
        assert len(es) == len(betas), (tag, coord)
        for k, e in enumerate(es, start=1):
            got = e.evaluate_complex(values) if isinstance(e, Poly) else e
            want = _elementary_symmetric(betas, k)
            assert abs(got - want) < 1e-9, (tag, coord, k, got, want)


def test_recursions_are_orbit_characteristic_polynomials():
    """Coordinates of the folding maps are power sums of orbit exponentials,
    so each recursion multiplier must equal an elementary symmetric function
    of the corresponding orbit.  This pins every multiplier numerically,
    including the constant term of the G-family y-multiplier."""
    from foldmap.poly import Poly, XY_VARS

    multipliers = {
        # family -> per-coordinate [(k, polynomial in (x, y))]
        "b2": {
            0: [(2, Poly(XY_VARS, {(0, 1): 1, (0, 0): 2}))],
            1: [(2, Poly(XY_VARS, {(2, 0): 1, (0, 1): -2, (0, 0): -2}))],
        },
        "g2": {
            0: [
                (2, Poly(XY_VARS, {(1, 0): 1, (0, 1): 1, (0, 0): 3})),
                (3, Poly(XY_VARS, {(2, 0): 1, (0, 1): -2, (0, 0): -4})),
            ],
            1: [
                (2, Poly(XY_VARS, {(3, 0): 1, (1, 1): -3, (1, 0): -9,
                                   (0, 1): -5, (0, 0): -9})),
                (3, Poly(XY_VARS, {(0, 2): 1, (3, 0): -2, (1, 1): 6,
                                   (1, 0): 18, (0, 1): 12, (0, 0): 20})),
            ],
        },
    }
    rng = random.Random(17)
    for tag, per_coord in multipliers.items():
        orbits = get_system(tag)
        for _ in range(6):
            p = (rng.random(), rng.random())
            plane = phi(orbits, p)
            values = {"x": plane[0], "y": plane[1]}
            for coord, checks in per_coord.items():
                betas = _orbit_exponentials(orbits, coord, p)
                for k, poly in checks:
                    want = _elementary_symmetric(betas, k)
                    got = poly.evaluate_complex(values)
                    assert abs(got - want) < 1e-9, (tag, coord, k, got, want)
            _check_family_table(tag, values, lambda c: _orbit_exponentials(orbits, c, p))


def test_a2_recursion_symmetric_functions():
    """For the A family: e_1 = z, e_2 = w (the conjugate orbit sum), e_3 = 1."""
    orbits = get_system("a2")
    rng = random.Random(23)
    for _ in range(6):
        p = (rng.random(), rng.random())
        z_val, w_val = phi(orbits, p)
        betas = _orbit_exponentials(orbits, 0, p)
        assert abs(_elementary_symmetric(betas, 1) - z_val) < 1e-9
        assert abs(_elementary_symmetric(betas, 2) - w_val) < 1e-9
        assert abs(_elementary_symmetric(betas, 3) - 1) < 1e-9
        _check_family_table("a2", {"z": z_val, "w": w_val}, lambda c: betas)


@pytest.mark.parametrize("tag", ["b2", "g2"])
def test_wrong_ordering_fails_loudly(tag):
    """The swapped orbit order misses F_2 by a wide margin, so the
    FIRST_WEIGHT entry is the only order the oracle can pass with."""
    swapped = get_system(tag)[::-1]
    rng = random.Random(5)
    points = [(rng.random(), rng.random()) for _ in range(10)]
    assert _worst_f2_residual(swapped, fold(tag, 2), points) > 1e-3
