"""The term-merge kernels against naive reference implementations."""

import random
from fractions import Fraction

import pytest

from foldmap import backend_name
from foldmap.backend import add_terms, mul_terms, scale_terms
from foldmap.cyclo import CycloElem


def random_terms(rng, count, nvars=2, deg=12):
    out = {}
    for _ in range(count):
        exps = tuple(rng.randrange(deg) for _ in range(nvars))
        out[exps] = rng.randrange(-50, 50) or 3
    return out


def pruned(d):
    return {e: c for e, c in d.items() if c}


def naive_add(a, b, sign=1):
    out = {}
    for e in set(a) | set(b):
        out[e] = a.get(e, 0) + sign * b.get(e, 0)
    return pruned(out)


def naive_scale(a, coef):
    return pruned({e: c * coef for e, c in a.items()})


def naive_mul(a, b):
    """Every pair of terms, summed per exponent; zeros dropped at the end."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return pruned(out)


@pytest.mark.parametrize("nvars", [2, 3])
def test_kernels_match_naive_reference(nvars):
    rng = random.Random(123 + nvars)
    for _ in range(40):
        a = random_terms(rng, rng.randrange(1, 40), nvars=nvars)
        b = random_terms(rng, rng.randrange(1, 40), nvars=nvars)
        assert mul_terms(a, b) == naive_mul(a, b)
        assert add_terms(a, b) == naive_add(a, b)
        assert add_terms(a, b, -1) == naive_add(a, b, -1)
        assert scale_terms(a, 7) == naive_scale(a, 7)
        assert scale_terms(a, 0) == {}


def test_kernels_on_exact_coefficients():
    rng = random.Random(5)
    a = {e: Fraction(c, 3) for e, c in random_terms(rng, 15).items()}
    b = {e: CycloElem(c, 1, 0, -c) for e, c in random_terms(rng, 15).items()}
    assert mul_terms(a, b) == naive_mul(a, b)
    assert add_terms(a, b) == naive_add(a, b)
    assert scale_terms(b, Fraction(-2, 5)) == naive_scale(b, Fraction(-2, 5))


def test_cancellation_pruned():
    a = {(1, 0): 5}
    b = {(1, 0): -5}
    assert add_terms(a, b) == {}
    assert add_terms(a, a, -1) == {}
    # (x + y)(x - y) = x^2 - y^2: the two xy cross terms cancel
    assert mul_terms({(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}) == {
        (2, 0): 1,
        (0, 2): -1,
    }
    # the same product times z, in three variables
    a3 = {(1, 0, 1): 1, (0, 1, 1): 1}
    b3 = {(1, 0, 0): 1, (0, 1, 0): -1}
    assert mul_terms(a3, b3) == {(2, 0, 1): 1, (0, 2, 1): -1}


def test_backend_names():
    assert backend_name() == "pure-python"
