"""Field arithmetic in Q(zeta_12)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foldmap.cyclo import (
    CycloElem,
    I_UNIT,
    ZETA,
    ZETA3,
    coef_components,
    coef_conj,
    coef_div,
    roots_of_unity,
    unity_order,
)


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
        assert list(CycloElem.zeta_pow(k).components) == brute_zeta_power(k)


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
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert list((a.conj()).components) == brute_conj(a.components)


@settings(max_examples=40, deadline=None)
@given(elems)
def test_inverse(a):
    if a:
        assert a * a.inverse() == 1


def test_roots_of_unity():
    for g in (1, 2, 3, 4, 6, 12):
        roots = roots_of_unity(g)
        assert len(roots) == len(set(tuple(r.components) for r in roots)) == g
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
    assert CycloElem.from_coef(3) == 3
    with pytest.raises(TypeError):
        CycloElem.from_coef(1.5)


def test_complex_embedding():
    z = ZETA.to_complex()
    assert abs(z**12 - 1) < 1e-12
    assert abs(I_UNIT.to_complex() - 1j) < 1e-12
    assert abs(ZETA3.to_complex() - complex(-0.5, 3**0.5 / 2)) < 1e-12
