"""Field arithmetic in Q(zeta_12)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foldmap.cyclo import (
    CycloElem,
    coef_components,
    coef_conj,
    coef_div,
    coef_to_complex,
    roots_of_unity,
    unity_order,
)
from foldmap.rationals import as_exact

ZETA = CycloElem.zeta_pow(1)
I_UNIT = CycloElem.zeta_pow(3)
ZETA3 = CycloElem.zeta_pow(4)
SQRT3 = CycloElem(0, 2, 0, -1)  # z + z^11


def brute_zeta_power(k):
    """Independent oracle: reduce zeta^k by repeated shift mod z^4 - z^2 + 1."""
    v = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    for _ in range(k):
        carry = v[3]
        v = [Fraction(0), v[0], v[1], v[2]]
        v[0] -= carry
        v[2] += carry
    return v


def brute_conj(components):
    """Conjugation oracle: substitute zeta -> zeta^11 and reduce."""
    out = [Fraction(0)] * 4
    for i, c in enumerate(components):
        for j, base in enumerate(brute_zeta_power(11 * i)):
            out[j] += Fraction(c) * base
    return out


def test_zeta_minimal_relation():
    assert ZETA**4 == ZETA**2 - 1
    assert (ZETA**4) - (ZETA**2 - 1) == 0


def test_embeddings():
    assert I_UNIT == CycloElem.zeta_pow(3)
    assert I_UNIT * I_UNIT == -1
    assert ZETA3 == ZETA**2 - 1
    assert ZETA3**3 == 1
    assert ZETA3 != 1 and ZETA3**2 != 1


def test_arith_examples():
    assert I_UNIT * I_UNIT == -1
    z3 = CycloElem.zeta_pow(4) * CycloElem.zeta_pow(4)
    assert z3 * CycloElem.zeta_pow(4) == 1
    # derived via the brute-force reducer: conj(zeta^4) = zeta^44 = zeta^8
    expected = brute_zeta_power(44)
    assert list(CycloElem.zeta_pow(4).conj().components) == expected
    assert ZETA3 + ZETA3.conj() == -1


def test_zeta_power_table_matches_bruteforce():
    for k in range(30):
        assert list(coef_components(CycloElem.zeta_pow(k))) == brute_zeta_power(k)


def test_division():
    e = CycloElem(3, -2, 1, 5)
    assert e * e.inverse() == 1
    assert CycloElem(1) / e * e == 1
    with pytest.raises(ZeroDivisionError):
        CycloElem(1) / CycloElem(0)


small_rats = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)
elems = st.builds(CycloElem, small_rats, small_rats, small_rats, small_rats)


@settings(max_examples=60, deadline=None)
@given(elems, elems, elems)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(elems, elems)
def test_conj_is_order_two_automorphism(a, b):
    assert a.conj().conj() == a
    assert coef_conj(a + b) == a.conj() + b.conj()
    assert coef_conj(a * b) == a.conj() * b.conj()
    assert list((a.conj()).components) == brute_conj(a.components)


@settings(max_examples=40, deadline=None)
@given(elems)
def test_inverse(a):
    if a:
        assert a * a.inverse() == 1


def test_roots_of_unity():
    for g in (1, 2, 3, 4, 6, 12):
        roots = roots_of_unity(g)
        assert len(roots) == len(set(tuple(coef_components(r)) for r in roots)) == g
        assert all(r**g == 1 for r in roots)
    assert sorted(unity_order(r) for r in roots_of_unity(6)) == [1, 2, 3, 3, 6, 6]
    with pytest.raises(ValueError):
        roots_of_unity(5)
    assert unity_order(CycloElem(2)) is None


def test_mixed_coefficient_helpers():
    assert coef_conj(7) == 7
    assert coef_components(CycloElem(1, 2, 3, 4)) == (1, 2, 3, 4)
    assert coef_components(5) == (5, 0, 0, 0)
    assert coef_div(1, 2) * 2 == 1
    assert coef_div(ZETA, ZETA) == 1


def is_canonical(value):
    """A CycloElem with a nonzero z, z^2 or z^3 part, an int, or a Fraction
    that is not an integer."""
    if isinstance(value, CycloElem):
        return not value.is_rational()
    return type(value) is int or (type(value) is Fraction and value.denominator != 1)


def test_rational_results_are_plain_numbers():
    assert CycloElem.zeta_pow(0) == 1 and type(CycloElem.zeta_pow(0)) is int
    assert CycloElem.zeta_pow(6) == -1 and type(CycloElem.zeta_pow(6)) is int
    for value, expected in [
        (ZETA**6, -1),
        (ZETA**12, 1),
        (I_UNIT * I_UNIT, -1),
        (SQRT3 * SQRT3, 3),
        ((SQRT3 / 2) ** 2, Fraction(3, 4)),
        (ZETA3 + ZETA3.conj(), -1),
        (SQRT3 - SQRT3, 0),
        (SQRT3 / SQRT3, 1),
        (ZETA**-6, -1),
        # a CycloElem built directly from components may be rational
        (CycloElem(2).inverse(), Fraction(1, 2)),
        (CycloElem(Fraction(1, 2)).inverse(), 2),
    ]:
        assert value == expected and type(value) is type(expected), value


@pytest.mark.parametrize("n", range(14))
def test_pow_squares_only_while_bits_remain(n, monkeypatch):
    product = 1
    for _ in range(n):
        product = product * ZETA
    squarings, products = [], []
    real = CycloElem.__mul__

    def counting_mul(a, b):
        if isinstance(b, CycloElem):
            (squarings if a is b else products).append(1)
        return real(a, b)

    monkeypatch.setattr(CycloElem, "__mul__", counting_mul)
    assert ZETA**n == product
    assert len(squarings) == max(n.bit_length() - 1, 0)
    # the first set bit multiplies into the int 1, not into a CycloElem
    assert len(products) == max(bin(n).count("1") - 1, 0)


def _scaled(base, r):
    """base * r, built from components so the operation under test is not used."""
    return CycloElem(*(c * r for c in coef_components(base)))


canonical_rats = st.fractions(min_value=-4, max_value=4, max_denominator=4).map(as_exact)
nonzero_rats = canonical_rats.filter(bool)
irrationals = st.one_of(
    elems.filter(lambda e: not e.is_rational()),
    # unit multiples, so that products and powers often land on the rational line
    st.builds(
        lambda k, r: _scaled(CycloElem.zeta_pow(k), r),
        st.integers(0, 11).filter(lambda k: k % 6),
        nonzero_rats,
    ),
    st.builds(lambda r: _scaled(SQRT3, r), nonzero_rats),
)


def _partner(a, r):
    """r - a, built from components: a + partner lands on the rational r."""
    c0, c1, c2, c3 = a.c
    return CycloElem(r - c0, -c1, -c2, -c3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_operations_return_canonical_values(data):
    a = data.draw(irrationals)
    b = data.draw(
        st.one_of(canonical_rats, irrationals, st.builds(_partner, st.just(a), canonical_rats))
    )
    if isinstance(b, CycloElem) and b.is_rational():
        b = b.c[0]
    m = data.draw(st.integers(-4, 6))
    za, zb = coef_to_complex(a), coef_to_complex(b)
    results = [
        (a + b, za + zb), (b + a, za + zb),
        (a - b, za - zb), (b - a, zb - za),
        (a * b, za * zb), (b * a, za * zb),
        (-a, -za), (a / 1, za),
        (a.inverse(), 1 / za), (b / a, zb / za),
        (a**m, za**m),
    ]
    if b:
        results.append((a / b, za / zb))
    for k in (1, 5, 7, 11):
        results.append((a.galois(k), None))
    for value, expected in results:
        assert is_canonical(value), (a, b, m, value)
        if expected is not None:
            assert abs(coef_to_complex(value) - expected) <= 1e-9 * max(1, abs(expected))


def test_complex_embedding():
    z = ZETA.to_complex()
    assert abs(z**12 - 1) < 1e-12
    assert abs(I_UNIT.to_complex() - 1j) < 1e-12
    assert abs(ZETA3.to_complex() - complex(-0.5, 3**0.5 / 2)) < 1e-12
