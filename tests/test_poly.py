"""Sparse polynomial arithmetic, substitution, and the coordinate models."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foldmap.cyclo import CycloElem, I_UNIT
from foldmap.folding import fold
from foldmap.poly import (
    Poly,
    PolyMap2,
    RealFormError,
    XY_VARS,
    ZW_VARS,
    swap_conjugate,
    xy_to_zw,
    zw_to_xy,
)

X = Poly.variable(XY_VARS, "x")
Y = Poly.variable(XY_VARS, "y")
Z = Poly.variable(ZW_VARS, "z")
W = Poly.variable(ZW_VARS, "w")


def poly_from(triples, vars=XY_VARS):
    return Poly(vars, {(i, j): c for i, j, c in triples})


def test_arith_examples():
    p = poly_from([(2, 1, 3), (0, 0, -1)])
    one = Poly.constant(XY_VARS, 1)
    assert one * p == p
    assert (X + Y) * (X + Y) == X**2 + 2 * X * Y + Y**2
    assert (p - p).is_zero()
    assert (p - p).terms == {}


def test_context_mismatch():
    with pytest.raises(ValueError):
        X + Z
    # a full image map across contexts is fine
    assert X.substitute({"x": Z, "y": W + 1}) == Z
    with pytest.raises(ValueError):
        X.substitute({"x": Z})  # missing image for y
    with pytest.raises(ValueError):
        Poly(XY_VARS, {(1,): 1})  # exponent arity mismatch


def test_coeff():
    g4 = fold("g2", 4)
    assert g4.second.coeff((6, 0)) == 2
    g3 = fold("g2", 3)
    assert g3.first.coeff((1, 1)) == -3
    assert g3.first.coeff((5, 5)) == 0
    with pytest.raises(ValueError):
        g3.first.coeff((1, 1, 1))


def test_degree_slice():
    p = X**2 - 2 * Y - 4
    assert p.degree_slice(2) == X**2
    assert p.degree_slice(7).is_zero()
    a5 = fold("a2", 5)
    assert a5.first.degree_slice(5) == Z**5
    with pytest.raises(ValueError):
        p.degree_slice(-1)


def test_substitute_identity_and_swap():
    p = X**2 - 2 * Y - 4
    assert p.substitute({"x": X, "y": Y}) == p
    q = Z**2 - 2 * W
    assert q.substitute({"z": W, "w": Z}) == W**2 - 2 * Z
    lin = X.substitute(
        {"x": poly_from([(1, 0, 3), (0, 1, 5), (0, 0, 7)]), "y": Y}
    )
    assert lin == poly_from([(1, 0, 3), (0, 1, 5), (0, 0, 7)])
    with pytest.raises(ValueError):
        p.substitute({"x": X})


def test_substitute_constants_only():
    p = X**2 + Y
    out = p.substitute({"x": 2, "y": 3})
    assert out.is_constant() and out.constant_value() == 7


def test_swap_conjugate():
    assert swap_conjugate(Z**2 - 2 * W) == W**2 - 2 * Z
    p = (Z**3 - 3 * Z * W + 3) * I_UNIT + Z
    assert swap_conjugate(swap_conjugate(p)) == p
    assert swap_conjugate(I_UNIT * Z) == -I_UNIT * W
    with pytest.raises(ValueError):
        swap_conjugate(Poly.variable(("x", "y", "z"), "x"))


def test_zw_to_xy_examples():
    a2 = fold("a2", 2)
    m = zw_to_xy(a2)
    assert m.first == X**2 - Y**2 - 2 * X
    assert m.second == 2 * X * Y + 2 * Y
    a1 = zw_to_xy(fold("a2", 1))
    assert (a1.first, a1.second) == (X, Y)
    a0 = zw_to_xy(fold("a2", 0))
    assert a0.first == Poly.constant(XY_VARS, 3) and a0.second.is_zero()


def test_zw_to_xy_rejects_malformed():
    bad = PolyMap2(Z**2 - 2 * W, Z**2 - 2 * W, "ZW", "bad")
    with pytest.raises(RealFormError):
        zw_to_xy(bad)
    with pytest.raises(ValueError):
        zw_to_xy(PolyMap2(X, Y, "XY", "wrong-model"))


@pytest.mark.parametrize("n", range(0, 11))
def test_zw_xy_round_trip(n):
    m = fold("a2", n)
    assert xy_to_zw(zw_to_xy(m)) == m


def test_canonical_order_and_render():
    p = poly_from([(0, 0, -6), (2, 0, 1), (0, 1, -2), (1, 0, -2)])
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == [(2, 0), (1, 0), (0, 1), (0, 0)]
    assert str(p) == "x^2 - 2*x - 2*y - 6"
    assert p.to_latex() == "x^2 - 2 x - 2 y - 6"
    assert str(Poly.zero(XY_VARS)) == "0"


def test_json_round_trip():
    m = fold("g2", 4)
    blob = json.dumps(m.to_json_obj())
    again = PolyMap2.from_json_obj(json.loads(blob))
    assert again == m
    p = (
        I_UNIT * X
        + Poly.constant(XY_VARS, CycloElem(0, 1, 0, 0)) * Y
        + Fraction(-3, 4) * X * Y
    )
    blob = json.dumps(p.to_json_obj())
    assert '"-3/4"' in blob
    q = Poly.from_json_obj(json.loads(blob))
    assert q == p
    assert q.coeff((1, 1)) == Fraction(-3, 4)


def test_json_is_canonical():
    obj = fold("b2", 3).first.to_json_obj()
    degrees = [sum(t["e"]) for t in obj["terms"]]
    assert degrees == sorted(degrees, reverse=True)
    assert obj["vars"] == ["x", "y"]


GOLDEN_B3_X = (
    '{"vars": ["x", "y"], "terms": ['
    '{"e": [3, 0], "c": ["1", "0", "0", "0"]}, '
    '{"e": [1, 1], "c": ["-3", "0", "0", "0"]}, '
    '{"e": [1, 0], "c": ["-3", "0", "0", "0"]}]}'
)


def test_golden_serialization():
    # freezes the wire format: schema keys, term order, rational rendering
    assert json.dumps(fold("b2", 3).first.to_json_obj()) == GOLDEN_B3_X


coeffs = st.integers(min_value=-9, max_value=9)
exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exps, coeffs, max_size=6).map(
    lambda d: Poly(XY_VARS, d)
)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(polys, polys)
def test_substitution_is_ring_homomorphism(p, q):
    images = {"x": Y**2 - 1, "y": X + Y}
    assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)
    assert (p + q).substitute(images) == p.substitute(images) + q.substitute(images)


@settings(max_examples=40, deadline=None)
@given(polys)
def test_pow_matches_repeated_mul(p):
    assert p**3 == p * p * p
    assert p**0 == Poly.constant(XY_VARS, 1)


def test_evaluate():
    p = X**2 - 2 * Y - 4
    assert p.evaluate({"x": 3, "y": 1}) == 3
    assert abs(p.evaluate_complex({"x": 1j, "y": 0}) - (-5 + 0j)) < 1e-12


def test_evaluate_high_power():
    # the power tables are filled iteratively, not one recursion per step
    p = Poly(("x", "y"), {(1500, 0): 1})
    assert p.evaluate({"x": 1, "y": 1}) == 1
    assert p.evaluate({"x": 2, "y": 5}) == 2**1500


@pytest.mark.parametrize("bad", [0.5, 1.0, 1j, "1", None])
def test_inexact_coefficients_rejected(bad):
    with pytest.raises(TypeError):
        Poly(XY_VARS, {(1, 0): bad})
    with pytest.raises(TypeError):
        Poly.constant(XY_VARS, bad)
    with pytest.raises(TypeError):
        X + bad
    with pytest.raises(TypeError):
        X * bad


def small_polys(vars, max_exp, max_size):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return st.dictionaries(exps, coeffs, max_size=max_size).map(lambda d: Poly(vars, d))


@pytest.mark.parametrize("nvars", [1, 3, 6])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_substitution_commutes_with_evaluation(nvars, data):
    src = tuple(f"u{k}" for k in range(nvars))
    dst = tuple(f"v{k}" for k in range(nvars))
    p = data.draw(small_polys(src, 3, 6))
    images = {u: data.draw(small_polys(dst, 2, 3)) for u in src}
    point = {v: data.draw(st.integers(-3, 3)) for v in dst}
    at_images = {u: images[u].evaluate(point) for u in src}
    assert p.substitute(images).evaluate(point) == p.evaluate(at_images)


def test_rational_cyclo_products_print_plainly():
    # zeta^6 = -1: the product's coefficient is stored as the int -1
    p = (CycloElem.zeta_pow(1) * X) ** 6
    assert p.terms == {(6, 0): -1} and type(p.terms[(6, 0)]) is int
    assert str(p) == "-x^6"
    assert p.to_latex() == "-x^6"
    assert str(I_UNIT * X * (I_UNIT * Y) + X) == "-x*y + x"


cyclo_coeffs = st.one_of(
    coeffs,
    st.builds(lambda k, c: CycloElem.zeta_pow(k) * c, st.integers(0, 11), coeffs),
    st.builds(lambda k, c: CycloElem.zeta_pow(k) * Fraction(c, 2), st.integers(0, 11), coeffs),
)


def cyclo_polys(vars, max_exp, max_size):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return st.dictionaries(exps, cyclo_coeffs, max_size=max_size).map(lambda d: Poly(vars, d))


def has_rational_cyclo(p):
    return any(isinstance(c, CycloElem) and c.is_rational() for c in p.terms.values())


@settings(max_examples=60, deadline=None)
@given(cyclo_polys(XY_VARS, 3, 5), cyclo_polys(XY_VARS, 3, 5), cyclo_coeffs)
def test_ring_operations_keep_canonical_coefficients(p, q, s):
    results = [
        p + q, p - q, p * q, p * s, s * p, p + s, s - p, -p, p**3,
        p.substitute({"x": q, "y": p + s}),
        p.substitute_var("x", q),
        p.substitute_var("y", s),
    ]
    assert not any(has_rational_cyclo(r) for r in results)


@pytest.mark.parametrize("nvars", [1, 3, 6])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_substitute_var_matches_full_substitution(nvars, data):
    vars = tuple(f"u{k}" for k in range(nvars))
    p = data.draw(cyclo_polys(vars, 3, 6))
    k = data.draw(st.integers(0, nvars - 1))
    name = vars[k]
    if data.draw(st.booleans()):
        p = Poly(vars, {e: c for e, c in p.terms.items() if e[k] == 0})
    image = data.draw(
        st.one_of(
            cyclo_polys(vars, 2, 3),
            cyclo_coeffs,
            cyclo_coeffs.map(lambda c: Poly.constant(vars, c)),
        )
    )
    images = {v: Poly.variable(vars, v) for v in vars}
    images[name] = image
    got = p.substitute_var(name, image)
    assert got == p.substitute(images)
    if all(e[k] == 0 for e in p.terms):
        assert got is p


def test_substitute_var_edge_cases():
    p = X**3 * Y + 2 * X + Y**2 - 5
    assert p.substitute_var("x", 0) == Y**2 - 5
    assert p.substitute_var("x", Poly.zero(XY_VARS)) == Y**2 - 5
    assert p.substitute_var("x", 2) == 8 * Y + Y**2 - 1
    assert p.substitute_var("y", X) == X**4 + X**2 + 2 * X - 5
    q = Y**2 + 1
    assert q.substitute_var("x", X + Y) is q
    zero = Poly.zero(XY_VARS)
    assert zero.substitute_var("y", X) is zero
    with pytest.raises(ValueError):
        p.substitute_var("x", Z)  # image from another context
    with pytest.raises(ValueError):
        p.substitute_var("z", X)  # not a context variable
