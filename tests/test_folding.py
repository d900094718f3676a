"""Folding-map generation, composition, and the commutation law."""

import pytest

from foldmap.cyclo import CycloElem
from foldmap.folding import (
    compose,
    first_difference,
    fold,
    fold_xy,
    half_fold,
    normalize_tag,
    verify_commute,
)
from foldmap.poly import Poly, XY_VARS, ZW_VARS, swap_conjugate

X = Poly.variable(XY_VARS, "x")
Y = Poly.variable(XY_VARS, "y")
Z = Poly.variable(ZW_VARS, "z")
W = Poly.variable(ZW_VARS, "w")


def test_family_registry():
    from foldmap.folding import FAMILIES

    for tag, fam in FAMILIES.items():
        orbit_size = len(fam.symmetric[0])
        assert all(fold(tag, n).model == fam.model for n in range(orbit_size))


def test_tag_normalization():
    assert normalize_tag("A2") == "a2"
    assert normalize_tag("g-2") == "g2"
    with pytest.raises(ValueError):
        normalize_tag("f4")
    with pytest.raises(ValueError):
        fold("a2", -1)


def test_a2_base_and_recursion():
    assert fold("a2", 0).first == Poly.constant(ZW_VARS, 3)
    assert fold("a2", 1).first == Z
    assert fold("a2", 2).first == Z**2 - 2 * W
    assert fold("a2", 3).first == Z**3 - 3 * Z * W + 3
    assert fold("a2", 4).first == Z**4 - 4 * Z**2 * W + 4 * Z + 2 * W**2
    assert fold("a2", 5).first == Z**5 - 5 * Z**3 * W + 5 * Z**2 + 5 * Z * W**2 - 5 * W


def test_a2_second_is_conjugate_swap():
    for n in range(0, 15):
        m = fold("a2", n)
        assert m.second == swap_conjugate(m.first)


def test_a2_xy_recursion_cross_check():
    # the xy-form recursion: X_n = x(X_{n-1}-X_{n-2}) - y(Y_{n-1}+Y_{n-2}) + X_{n-3}
    #                        Y_n = x(Y_{n-1}-Y_{n-2}) + y(X_{n-1}+X_{n-2}) + Y_{n-3}
    ms = [fold_xy("a2", n) for n in range(12)]
    for n in range(3, 12):
        xn = (
            X * (ms[n - 1].first - ms[n - 2].first)
            - Y * (ms[n - 1].second + ms[n - 2].second)
            + ms[n - 3].first
        )
        yn = (
            X * (ms[n - 1].second - ms[n - 2].second)
            + Y * (ms[n - 1].first + ms[n - 2].first)
            + ms[n - 3].second
        )
        assert (xn, yn) == (ms[n].first, ms[n].second), n


def test_b2_base_cases():
    assert fold("b2", 0).components() == (
        Poly.constant(XY_VARS, 4),
        Poly.constant(XY_VARS, 4),
    )
    assert fold("b2", 1).components() == (X, Y)
    b2 = fold("b2", 2)
    assert b2.first == X**2 - 2 * Y - 4
    assert b2.second == Y**2 - 2 * X**2 + 4 * Y + 4
    b3 = fold("b2", 3)
    assert b3.first == X**3 - 3 * X * Y - 3 * X
    assert b3.second == Y**3 - 3 * X**2 * Y + 6 * Y**2 + 9 * Y


def test_g2_low_rows():
    assert fold("g2", 0).components() == (
        Poly.constant(XY_VARS, 6),
        Poly.constant(XY_VARS, 6),
    )
    assert fold("g2", 1).components() == (X, Y)
    g2 = fold("g2", 2)
    assert g2.first == X**2 - 2 * X - 2 * Y - 6
    assert g2.second == -2 * X**3 + 6 * X * Y + Y**2 + 18 * X + 10 * Y + 18
    g3 = fold("g2", 3)
    assert g3.first == X**3 - 3 * X * Y - 9 * X - 6 * Y - 12
    # the remaining published rows, verbatim
    assert g3.second == Poly(XY_VARS, {
        (3, 1): -3, (3, 0): -6, (1, 2): 9, (0, 3): 1, (1, 1): 45,
        (0, 2): 18, (1, 0): 54, (0, 1): 63, (0, 0): 60})
    g4 = fold("g2", 4)
    assert g4.first == Poly(XY_VARS, {
        (4, 0): 1, (2, 1): -4, (2, 0): -10, (1, 1): -4, (0, 2): 2,
        (1, 0): -8, (0, 1): 8, (0, 0): 6})
    assert g4.second == Poly(XY_VARS, {
        (6, 0): 2, (4, 1): -12, (3, 2): -4, (4, 0): -36, (3, 1): -28,
        (2, 2): 18, (1, 3): 12, (0, 4): 1, (3, 0): -40, (2, 1): 108,
        (1, 2): 120, (0, 3): 24, (2, 0): 162, (1, 1): 372, (0, 2): 134,
        (1, 0): 360, (0, 1): 280, (0, 0): 198})
    g5 = fold("g2", 5)
    assert g5.first == Poly(XY_VARS, {
        (5, 0): 1, (3, 1): -5, (3, 0): -15, (2, 1): -5, (1, 2): 5,
        (2, 0): -10, (1, 1): 35, (0, 2): 10, (1, 0): 55, (0, 1): 50,
        (0, 0): 60})
    assert g5.second == Poly(XY_VARS, {
        (6, 1): 5, (6, 0): 10, (4, 2): -30, (3, 3): -5, (4, 1): -150,
        (3, 2): -65, (2, 3): 45, (1, 4): 15, (0, 5): 1, (4, 0): -180,
        (3, 1): -205, (2, 2): 360, (1, 3): 240, (0, 4): 30, (3, 0): -190,
        (2, 1): 945, (1, 2): 1200, (0, 3): 255, (2, 0): 810, (1, 1): 2415,
        (0, 2): 920, (1, 0): 1710, (0, 1): 1495, (0, 0): 900})


def test_g2_recursion_against_composition():
    # exercises all six base rows, including the long n = 4, 5 entries
    assert compose(fold("g2", 2), fold("g2", 2)) == fold("g2", 4)
    assert compose(fold("g2", 2), fold("g2", 3)) == fold("g2", 6)
    assert compose(fold("g2", 2), fold("g2", 5)) == fold("g2", 10)
    assert compose(fold("g2", 3), fold("g2", 3)) == fold("g2", 9)


def test_half_folds():
    bs = half_fold("b_sqrt2")
    assert bs.components() == (Y, X**2 - 2 * Y - 4)
    gs = half_fold("g_sqrt3")
    assert gs.components() == (Y, X**3 - 3 * X * Y - 9 * X - 6 * Y - 12)
    assert compose(bs, bs) == fold("b2", 2)
    assert compose(gs, gs) == fold("g2", 3)
    with pytest.raises(ValueError):
        half_fold("c_sqrt5")


def test_compose_identity_and_model_check():
    assert compose(fold("b2", 2), fold("b2", 1)) == fold("b2", 2)
    assert compose(fold("b2", 2), fold("b2", 3)) == fold("b2", 6)
    assert compose(fold("a2", 2), fold("a2", 2)) == fold("a2", 4)
    with pytest.raises(ValueError):
        compose(fold("a2", 2), fold("b2", 2))


def test_constant_absorption():
    for n in (0, 1, 2, 5):
        r = verify_commute("a2", 0, n)
        assert r.passed


def test_fold_one_is_identity():
    assert fold("a2", 1).first == Z
    assert fold("b2", 1).components() == (X, Y)
    assert fold("g2", 1).components() == (X, Y)


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_commutation_small(tag):
    for m in range(2, 5):
        for n in range(m, 5):
            report = verify_commute(tag, m, n)
            assert report.passed, (tag, m, n, report)


def test_commute_witness_on_failure():
    lhs = fold("b2", 2)
    tweaked = Poly(XY_VARS, dict(lhs.first.terms))
    tweaked = tweaked + X  # corrupt one coefficient
    from foldmap.poly import PolyMap2

    w = first_difference(PolyMap2(tweaked, lhs.second, "XY", "bad"), lhs)
    assert w == (1, (1, 0), 1, 0)


def test_degree_law():
    for n in range(2, 21):
        assert fold("a2", n).degree() == n
        assert fold("b2", n).degree() == n
        assert fold("g2", n).degree() == (3 * n) // 2


def test_b2_parity_identity():
    for n in range(0, 21):
        m = fold("b2", n)
        flip = {"x": -X, "y": Y}
        xn = m.first.substitute(flip)
        yn = m.second.substitute(flip)
        assert xn == (m.first if n % 2 == 0 else -m.first)
        assert yn == m.second


def test_a2_sparsity_mod3():
    for n in range(0, 31):
        for (i, j) in fold("a2", n).first.terms:
            assert (i - j) % 3 == n % 3, (n, i, j)


def test_a2_equivariance():
    zeta3 = CycloElem.zeta_pow(4)
    for n in range(0, 26):
        p = fold("a2", n).first
        twisted = p.substitute({"z": zeta3 * Z, "w": zeta3 * zeta3 * W})
        assert twisted == zeta3**n * p, n


def test_memoization_returns_same_polynomials():
    a = fold("g2", 7)
    b = fold("g2", 7)
    assert a.first is b.first and a.second is b.second


def test_concurrent_generation():
    import threading

    results = {}

    def worker(tag, n):
        results[(tag, n)] = fold(tag, n)

    threads = [
        threading.Thread(target=worker, args=(tag, n))
        for tag in ("a2", "b2", "g2")
        for n in (22, 23, 24)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for (tag, n), m in results.items():
        assert m == fold(tag, n)
