"""Sparse polynomial arithmetic, substitution, and the coordinate models."""

import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from foldmap import poly as poly_module
from foldmap.backend import add_terms, mul_terms, scale_terms
from foldmap.cyclo import CycloElem, coef_components, coef_conj
from foldmap.folding import fold
from foldmap.poly import (
    Poly,
    PolyMap2,
    RealFormError,
    XY_VARS,
    ZW_VARS,
    grlex_key,
    swap_conjugate,
    zw_to_xy,
)
from foldmap.rationals import rat_str

I_UNIT = CycloElem.zeta_pow(3)
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


@pytest.mark.parametrize("exps", [(1.5, 0), (True, 0), (0, 2.0)])
def test_exponents_must_be_ints(exps):
    with pytest.raises(TypeError):
        Poly(XY_VARS, {exps: 1})


def test_json_exponents_must_be_ints():
    obj = X.to_json_obj()
    obj["terms"][0]["e"] = [0.5, 1]
    with pytest.raises(TypeError):
        Poly.from_json_obj(obj)


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


def test_substitute_without_variables_returns_the_constant():
    assert Poly((), {(): 5}).substitute({}) == Poly.constant((), 5)
    assert Poly.zero(()).substitute({}).is_zero()
    assert Poly((), {(): Fraction(1, 3)}).substitute({}).terms == {(): Fraction(1, 3)}


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


def xy_to_zw(m):
    """Inverse of zw_to_xy: x = (z + w)/2, y = (z - w)/(2i)."""
    x_var, y_var = m.first.vars
    images = {x_var: (Z + W) * Fraction(1, 2), y_var: (Z - W) * (I_UNIT * Fraction(-1, 2))}
    first = m.first.substitute(images) + I_UNIT * m.second.substitute(images)
    return PolyMap2(first, swap_conjugate(first), "ZW", m.label)


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


# up to 40 terms of total degree <= 12 in three variables: most degrees tie
@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 4)] * 3), st.integers(-9, 9).filter(bool),
                       max_size=40))
@example({(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 3, (1, 0, 1): 4, (0, 0, 2): 5, (0, 1, 1): 6})
def test_sorted_terms_is_descending_grlex(terms):
    p = Poly(("x", "y", "t"), terms)
    want = sorted(p.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)
    assert p.sorted_terms() == want


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


def generic_json_text(p):
    """to_json_obj's text with every coefficient rendered from its components."""
    return json.dumps({
        "vars": list(p.vars),
        "terms": [
            {"e": list(e), "c": [rat_str(x) for x in coef_components(c)]}
            for e, c in p.sorted_terms()
        ],
    })


json_coeffs = st.one_of(
    st.integers(-10**30, 10**30),
    st.builds(Fraction, st.integers(-99, 99), st.integers(2, 50)),
    st.builds(lambda k, c: CycloElem.zeta_pow(k) * c, st.integers(0, 11), st.integers(-99, 99)),
)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 12)), json_coeffs, max_size=8))
@example({})  # the zero polynomial
def test_json_integer_fast_path_matches_components(terms):
    p = Poly(XY_VARS, terms)
    assert json.dumps(p.to_json_obj()) == generic_json_text(p)


def zw_to_xy_reference(m):
    """zw_to_xy through the complex images z = x + iy, w = x - iy."""
    q = m.first.substitute({"z": X + I_UNIT * Y, "w": X - I_UNIT * Y})
    q_bar = Poly(XY_VARS, {e: coef_conj(c) for e, c in q.terms.items()})
    minus_half_i = I_UNIT * Fraction(-1, 2)
    return PolyMap2((q + q_bar) * Fraction(1, 2), (q - q_bar) * minus_half_i, "XY", m.label)


zw_coeffs = st.one_of(
    json_coeffs,
    st.builds(CycloElem, *[st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))] * 4),
)


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)), zw_coeffs, max_size=8))
@example({})  # the zero map
def test_zw_to_xy_matches_complex_images(terms):
    first = Poly(ZW_VARS, terms)
    m = PolyMap2(first, swap_conjugate(first), "ZW", "random")
    got, want = zw_to_xy(m), zw_to_xy_reference(m)
    assert got == want
    assert json.dumps(got.to_json_obj()) == json.dumps(want.to_json_obj())


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


@pytest.mark.parametrize("n", range(14))
def test_pow_squares_only_while_bits_remain(n, monkeypatch):
    p = X + 2 * Y - 1
    product = Poly.constant(XY_VARS, 1)
    for _ in range(n):
        product = product * p
    calls = []
    real = poly_module.mul_terms
    monkeypatch.setattr(poly_module, "mul_terms", lambda a, b: calls.append(1) or real(a, b))
    assert p**n == product
    # one product per set bit, one squaring per bit after the first
    assert len(calls) == bin(n).count("1") + max(n.bit_length() - 1, 0)


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


fraction_coeffs = st.one_of(coeffs, st.builds(Fraction, coeffs, st.integers(2, 4)))


def has_integral_fraction(p):
    return any(type(c) is Fraction and c.denominator == 1 for c in p.terms.values())


def test_ring_operations_store_integral_fractions_as_ints():
    p = X * Fraction(1, 2) + Y * Fraction(1, 3)
    q = p * 2 + p
    assert q.terms == {(1, 0): Fraction(3, 2), (0, 1): 1}
    assert type(q.terms[(0, 1)]) is int


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(exps, fraction_coeffs, max_size=5).map(lambda d: Poly(XY_VARS, d)),
    st.dictionaries(exps, fraction_coeffs, max_size=5).map(lambda d: Poly(XY_VARS, d)),
    fraction_coeffs,
)
def test_ring_operations_keep_integral_fractions_as_ints(p, q, s):
    results = [
        p + q, p - q, p * q, p * s, s * p, p + s, s - p, -p, p**3,
        p.substitute({"x": q, "y": p + s}),
        p.substitute_var("x", q),
        p.substitute_var("y", s),
    ]
    assert not any(has_integral_fraction(r) for r in results)


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


def tuple_subst(terms, img_terms, powers):
    """Horner over the last variable, on exponent tuples throughout."""
    if len(img_terms) == 1:
        acc = {}
        for (i,), coef in terms.items():
            acc = add_terms(acc, scale_terms(powers[i], coef))
        return acc
    slices = {}
    for exps, coef in terms.items():
        slices.setdefault(exps[-1], {})[exps[:-1]] = coef
    rest = img_terms[:-1]
    last = img_terms[-1]
    degrees = sorted(slices, reverse=True)
    acc = tuple_subst(slices[degrees[0]], rest, powers)
    prev = degrees[0]
    for j in degrees[1:]:
        for _ in range(prev - j):
            acc = mul_terms(acc, last)
        acc = add_terms(acc, tuple_subst(slices[j], rest, powers))
        prev = j
    for _ in range(prev):
        acc = mul_terms(acc, last)
    return acc


def tuple_substitute(p, images):
    """Poly.substitute's terms as computed on exponent tuples: the same
    products in the same order, so the same keys, values and key order."""
    target = next((i.vars for i in images.values() if isinstance(i, Poly)), p.vars)
    imgs = [
        images[v].terms if isinstance(images[v], Poly) else Poly.constant(target, images[v]).terms
        for v in p.vars
    ]
    if not p.terms:
        return {}
    powers = [{(0,) * len(target): 1}]
    for _ in range(max(e[0] for e in p.terms)):
        powers.append(mul_terms(powers[-1], imgs[0]))
    return tuple_subst(p.terms, imgs, powers)


def typed_items(terms):
    return [(e, c, type(c)) for e, c in terms.items()]


mixed_coeffs = st.one_of(cyclo_coeffs, fraction_coeffs)


def mixed_polys(vars, max_exp, max_size):
    exps = st.tuples(*[st.integers(0, max_exp)] * len(vars))
    return st.dictionaries(exps, mixed_coeffs, max_size=max_size).map(lambda d: Poly(vars, d))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_packed_substitute_matches_tuple_reference(data):
    nvars = data.draw(st.integers(1, 6))
    src = tuple(f"u{k}" for k in range(nvars))
    dst = tuple(f"v{k}" for k in range(data.draw(st.integers(1, 6))))
    p = data.draw(mixed_polys(src, 3 if nvars <= 3 else 2, 6))
    images = {
        u: data.draw(st.one_of(mixed_polys(dst, 2, 3), mixed_coeffs)) for u in src
    }
    got = p.substitute(images)
    assert typed_items(got.terms) == typed_items(tuple_substitute(p, images))


@pytest.mark.parametrize("k", [1, 20, 40])
def test_packed_substitute_with_wide_exponents(k):
    # exponents up to 3 * 2^k need fields wider than one 30-bit int digit
    top = 2**k
    p = X**3 + 2 * X * Y**2 - Y + 1
    images = {"x": X**top + Y, "y": X * Y**top - 3}
    assert typed_items(p.substitute(images).terms) == typed_items(tuple_substitute(p, images))


def test_substitute_into_an_empty_context():
    # images with no variables pack to the one key 0 at any width
    three = Poly((), {(): 3})
    assert (X**3 * Y + X + 2).substitute({"x": three, "y": three}).terms == {(): 86}


@pytest.mark.parametrize("d, top", [(3, 5), (7, 9), (3, (2**42 - 1) // 3)])
def test_packed_substitute_fills_its_fields(d, top):
    # y^d -> y^(d * top) = y^(2^k - 1) reaches deg(p) * max image degree,
    # the width bound, with every bit of y's field set
    p = Y**d + X * Y + X
    images = {"x": X, "y": Y**top}
    got = p.substitute(images)
    assert got.terms == {(0, d * top): 1, (1, top): 1, (1, 0): 1}
    assert typed_items(got.terms) == typed_items(tuple_substitute(p, images))


@pytest.mark.parametrize("p, packed", [(X, 1), (Y, 1), (3 * X**2 - X, 1), (X * Y - 2, 2)])
def test_substitute_packs_only_the_images_that_occur(p, packed, monkeypatch):
    f = fold("b2", 7)
    images = {"x": f.first, "y": f.second}
    want = tuple_substitute(p, images)
    spy = mock.Mock(wraps=poly_module.pack)
    monkeypatch.setattr(poly_module, "pack", spy)
    got = p.substitute(images)
    assert spy.call_count == packed
    assert typed_items(got.terms) == typed_items(want)


@pytest.mark.parametrize("p, products", [(X, 0), (3 * X - 2, 0), (X**2 + X, 1), (X**3 - X, 2)])
def test_substitute_multiplies_only_for_powers_past_the_first(p, products, monkeypatch):
    # p has no y, so every product is one of the first image's power table:
    # x^2 and up cost one each, x^1 is the image itself
    f = fold("b2", 7)
    images = {"x": f.first, "y": f.second}
    want = tuple_substitute(p, images)
    spy = mock.Mock(wraps=poly_module.mul_terms)
    monkeypatch.setattr(poly_module, "mul_terms", spy)
    got = p.substitute(images)
    assert spy.call_count == products
    assert typed_items(got.terms) == typed_items(want)
