"""Root-system data, the exponential-invariant oracle, and the Chebyshev check."""

import random

import pytest

from foldmap import weyl
from foldmap.folding import fold
from foldmap.poly import Poly, PolyMap2
from foldmap.weyl import (
    calibrate,
    chebyshev,
    check_scaling,
    dual_action,
    get_system,
    phi,
    scale_point,
    verify_B_functional,
)

SIZES = {"a2": (3, 3), "b2": (4, 4), "g2": (6, 6)}
ORDERS = {"a2": 6, "b2": 8, "g2": 12}


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_weyl_group_order_and_closure(tag):
    data = get_system(tag)
    assert len(data.weyl) == ORDERS[tag]
    group = set(data.weyl)
    for m in data.weyl:
        for n in data.weyl:
            prod = (
                (
                    m[0][0] * n[0][0] + m[0][1] * n[1][0],
                    m[0][0] * n[0][1] + m[0][1] * n[1][1],
                ),
                (
                    m[1][0] * n[0][0] + m[1][1] * n[1][0],
                    m[1][0] * n[0][1] + m[1][1] * n[1][1],
                ),
            )
            assert prod in group


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_orbit_sizes_match_constant_maps(tag):
    data = get_system(tag)
    assert tuple(len(orbit) for orbit in data.orbits) == SIZES[tag]
    value = phi(data, (0.0, 0.0), (0, 1))
    assert abs(value[0] - SIZES[tag][0]) < 1e-12
    assert abs(value[1] - SIZES[tag][1]) < 1e-12


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_calibration(tag):
    cal = calibrate(tag)
    assert cal.max_residual < 1e-9
    assert sorted(cal.ordering) == [0, 1]


def test_a2_phi_pair_is_conjugate():
    data = get_system("a2")
    cal = calibrate("a2")
    v = phi(data, (0.371, 0.642), cal.ordering)
    assert abs(v[1] - v[0].conjugate()) < 1e-12


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_w_invariance(tag):
    data = get_system(tag)
    cal = calibrate(tag)
    rng = random.Random(11)
    for _ in range(20):
        p = (rng.random(), rng.random())
        sigma = rng.choice(data.weyl)
        lhs = phi(data, dual_action(sigma, p), cal.ordering)
        rhs = phi(data, p, cal.ordering)
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


@pytest.mark.parametrize("trials", [0, -5])
def test_scaling_rejects_nonpositive_trials(trials):
    with pytest.raises(ValueError):
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


def test_calibration_is_cached():
    assert calibrate("g2") is calibrate("g2")


def _orbit_exponentials(data, orbit_index, point):
    import cmath
    import math

    return [
        cmath.exp(2j * math.pi * (lam[0] * point[0] + lam[1] * point[1]))
        for lam in data.orbits[orbit_index]
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
        data = get_system(tag)
        ordering = calibrate(tag).ordering
        for _ in range(6):
            p = (rng.random(), rng.random())
            plane = phi(data, p, ordering)
            values = {"x": plane[0], "y": plane[1]}
            for coord, checks in per_coord.items():
                betas = _orbit_exponentials(data, ordering[coord], p)
                for k, poly in checks:
                    want = _elementary_symmetric(betas, k)
                    got = poly.evaluate_complex(values)
                    assert abs(got - want) < 1e-9, (tag, coord, k, got, want)
            _check_family_table(
                tag, values, lambda c: _orbit_exponentials(data, ordering[c], p)
            )


def test_a2_recursion_symmetric_functions():
    """For the A family: e_1 = z, e_2 = w (the conjugate orbit sum), e_3 = 1."""
    data = get_system("a2")
    ordering = calibrate("a2").ordering
    rng = random.Random(23)
    for _ in range(6):
        p = (rng.random(), rng.random())
        z_val, w_val = phi(data, p, ordering)
        betas = _orbit_exponentials(data, ordering[0], p)
        assert abs(_elementary_symmetric(betas, 1) - z_val) < 1e-9
        assert abs(_elementary_symmetric(betas, 2) - w_val) < 1e-9
        assert abs(_elementary_symmetric(betas, 3) - 1) < 1e-9
        _check_family_table("a2", {"z": z_val, "w": w_val}, lambda c: betas)


@pytest.mark.parametrize("tag", ["b2", "g2"])
def test_wrong_ordering_fails_loudly(tag):
    """The rejected orbit ordering misses F_2 by a wide margin, so the
    calibration choice is genuinely discriminating."""
    from foldmap.folding import fold

    data = get_system(tag)
    good = calibrate(tag).ordering
    bad = (good[1], good[0])
    f2 = fold(tag, 2)
    worst = 0.0
    rng = random.Random(5)
    for _ in range(10):
        p = (rng.random(), rng.random())
        image = phi(data, p, bad)
        doubled = phi(data, scale_point(p, 2), bad)
        mapped = f2.evaluate_complex(image)
        worst = max(worst, abs(doubled[0] - mapped[0]), abs(doubled[1] - mapped[1]))
    assert worst > 1e-3
