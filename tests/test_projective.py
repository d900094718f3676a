"""Projective degrees, indeterminacy loci, and degree growth on P^2."""

import pytest

from foldmap.folding import compose, fold, fold_xy, half_fold
from foldmap.poly import XY, XY_VARS, Poly, PolyMap2
from foldmap.projective import (
    N_DESK_BOUND,
    degree_growth,
    indeterminacy,
    is_morphism,
    iterate_map,
)


def test_homogenize_rejects_constant_and_zw():
    with pytest.raises(ValueError, match="constant map"):
        indeterminacy(fold("b2", 0))
    with pytest.raises(ValueError, match="XY-model"):
        indeterminacy(fold("a2", 3))


def test_degrees():
    assert fold("g2", 4).degree() == 6
    assert fold("g2", 5).degree() == 7
    for n in (2, 5, 9):
        assert fold_xy("a2", n).degree() == n


@pytest.mark.parametrize("n", range(2, 13))
def test_a_and_b_are_morphisms(n):
    assert is_morphism(fold_xy("a2", n))
    assert is_morphism(fold("b2", n))


@pytest.mark.parametrize("n", range(2, 13))
def test_g_indeterminacy_parity(n):
    m = fold("g2", n)
    rep = indeterminacy(m)
    assert rep.unresolved is None
    expected = [(0, 1, 0)] if n % 2 == 0 else [(0, 1, 0), (1, 0, 0)]
    assert rep.points == expected
    assert not is_morphism(m)
    tops = [p.degree_slice(m.degree()) for p in m.components()]
    for x, y, z in rep.points:
        assert z == 0
        assert all(top.evaluate({"x": x, "y": y}) == 0 for top in tops)


def test_half_fold_loci():
    rep = indeterminacy(half_fold("b_sqrt2"))
    assert rep.points == [(0, 1, 0)] and rep.unresolved is None
    rep = indeterminacy(half_fold("g_sqrt3"))
    assert rep.points == [(0, 1, 0)] and rep.unresolved is None
    # non-morphism whose second iterate is a morphism
    square = compose(half_fold("b_sqrt2"), half_fold("b_sqrt2"))
    assert square == fold("b2", 2)
    assert is_morphism(square)


def test_unresolved_factor_reported():
    # the top forms (x^2+y^2)(x+y) and (x^2+y^2)(x-y) share x^2 + y^2 and no
    # monomial; the lower terms are not read
    x, y = Poly.variable(XY_VARS, "x"), Poly.variable(XY_VARS, "y")
    shared = x**2 + y**2
    m = PolyMap2(shared * (x + y) + x * y - 1, shared * (x - y) + 3 * y, XY)
    rep = indeterminacy(m)
    assert rep.points == []
    assert rep.unresolved == Poly(("X", "Y"), {(2, 0): 1, (0, 2): 1})
    assert not is_morphism(m)


def test_degree_growth():
    assert degree_growth("g2", 2, 2) == 6
    assert degree_growth("g2", 2, 3) == 12
    assert degree_growth("g2", 3, 2) == 13
    assert degree_growth("b2", 2, 3) == 8
    assert degree_growth("a2", 2, 3) == 8
    with pytest.raises(ValueError):
        degree_growth("g2", 2, 12)
    # the m-fold composite of F_n is F_{n^m}: the bound is the desk bound on n
    with pytest.raises(ValueError, match=f"n\\^m = 201 exceeds the desk bound {N_DESK_BOUND}"):
        degree_growth("g2", 201, 1)


def test_degree_growth_drop_vs_naive():
    # naive degree of the square of a degree-3 map is 9; the true value is 6
    composite = iterate_map(fold("g2", 2), 2)
    assert composite == fold("g2", 4)
    assert composite.degree() == 6


def test_iterate_map_needs_one_iterate():
    m = fold("b2", 2)
    assert iterate_map(m, 1) == m
    for times in (0, -1):
        with pytest.raises(ValueError, match="times >= 1"):
            iterate_map(m, times)
