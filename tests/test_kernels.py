"""The term-merge kernels against naive reference implementations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foldmap import backend, backend_name
from foldmap.backend import add_terms, field_bits, mul_terms, pack, scale_terms, unpack
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


def ordered_mul(a, b):
    """The tuple-key product: the same pair order and pruning as mul_terms,
    so the same insertion order, with integral Fractions stored as ints."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = ca * cb
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = s
                else:
                    del out[e]
            elif c:
                out[e] = c
    return {
        e: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for e, c in out.items()
    }


def typed_items(terms):
    return [(e, c, type(c)) for e, c in terms.items()]


small_ints = st.integers(-4, 4).filter(bool)
fraction_coefs = st.builds(Fraction, st.integers(-5, 5), st.integers(2, 4)).filter(
    lambda f: f.denominator != 1
)
cyclos = st.builds(lambda k, c: CycloElem.zeta_pow(k) * c, st.integers(0, 11), small_ints)


@st.composite
def operand_pairs(draw):
    """Two term dicts in one context of 1 to 8 variables.  Small exponent
    bounds make many colliding and cancelling products; 2**40 makes fields
    wider than one 30-bit int digit; bound 0 gives the all-zero monomial."""
    nvars = draw(st.integers(1, 8))
    top = draw(st.sampled_from([0, 1, 2, 3, 2**40]))
    kinds = [small_ints, fraction_coefs, cyclos]
    coefs = draw(st.sampled_from(kinds + [st.one_of(*kinds)]))
    keys = st.tuples(*[st.integers(0, top)] * nvars)
    a = draw(st.dictionaries(keys, coefs, min_size=1, max_size=6))
    b = draw(st.dictionaries(keys, coefs, min_size=1, max_size=12))
    return a, b


@pytest.mark.parametrize("factors", [1, 3])
@settings(max_examples=150, deadline=None)
@given(operand_pairs())
def test_packed_product_matches_tuple_reference(factors, operands):
    # a chain a*b*...*b of `factors` products, each fed the last product,
    # as powers and compositions feed the kernel its own output
    a, b = operands
    got = want = a
    for _ in range(factors):
        assert typed_items(mul_terms(b, got)) == typed_items(ordered_mul(b, want))
        got, want = mul_terms(got, b), ordered_mul(want, b)
        assert typed_items(got) == typed_items(want)


@settings(max_examples=150, deadline=None)
@given(operand_pairs())
def test_product_on_packed_keys_matches_tuple_path(operands):
    # the caller packs once at a width that holds every product exponent
    a, b = operands
    nvars = len(next(iter(a)))
    w = (max(map(max, a)) + max(map(max, b))).bit_length() or 1
    pa, pb = pack(a, w), pack(b, w)
    assert unpack(pa, w, nvars) == a
    for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa)):
        got = unpack(mul_terms(px, py), w, nvars)
        assert typed_items(got) == typed_items(mul_terms(x, y))
        assert typed_items(got) == typed_items(ordered_mul(x, y))


def unpack_reference(packed, w, nvars):
    """A fresh exponent tuple per term, read from the last field up."""
    out = {}
    for k, c in packed.items():
        exps = []
        for _ in range(nvars):
            k, e = divmod(k, 2**w)
            exps.append(e)
        out[tuple(reversed(exps))] = c
    return out


@st.composite
def tuple_terms(draw):
    """Term dicts of 0 to 6 variables and a field width w that holds them,
    with field-filling exponents 2**w - 1 among the keys."""
    nvars = draw(st.integers(0, 6))
    w = draw(st.sampled_from([1, 2, 3, 8, 30, 31, 40]))
    exps = st.one_of(st.just(2**w - 1), st.integers(0, 2**w - 1))
    coefs = st.one_of(small_ints, fraction_coefs, cyclos)
    terms = draw(st.dictionaries(st.tuples(*[exps] * nvars), coefs, max_size=8))
    return terms, w, nvars


@settings(max_examples=200, deadline=None)
@given(tuple_terms())
def test_unpack_matches_tuple_reference(case):
    # two variables split on divmod, every other count on shifts and masks
    terms, w, nvars = case
    packed = pack(terms, w)
    got = unpack(packed, w, nvars)
    assert typed_items(got) == typed_items(unpack_reference(packed, w, nvars))
    assert typed_items(got) == typed_items(terms)


def container_sizes(namespace, prefix=""):
    """The length of every container in namespace, and of every container
    the dicts among them hold, by dotted name; dunder names are skipped."""
    sizes = {}
    for name, obj in namespace.items():
        if isinstance(obj, (dict, list, set, frozenset, tuple)) and not str(name).startswith("__"):
            sizes[f"{prefix}{name!s}"] = len(obj)
            if isinstance(obj, dict):
                sizes.update(container_sizes(obj, f"{prefix}{name!s}."))
    return sizes


@pytest.mark.parametrize("nvars", [1, 2, 3, 8])
def test_unpack_keeps_nothing_in_module_state(nvars):
    # 10,000 keys no earlier call has unpacked, at a width no caller uses
    w = 41
    keys = range(2 ** (w * nvars - 1) + 12345, 2 ** (w * nvars - 1) + 22345)
    before = container_sizes(vars(backend))
    got = unpack(dict.fromkeys(keys, 1), w, nvars)
    assert len(got) == 10_000
    assert container_sizes(vars(backend)) == before


def test_packed_product_cancels_in_order():
    # (1 + x + x^2)(1 - x + x^3 - x^4) = 1 - x^6: every middle term cancels
    a = {(0,): 1, (1,): 1, (2,): 1}
    b = {(0,): 1, (1,): -1, (3,): 1, (4,): -1}
    assert list(mul_terms(a, b).items()) == [((0,), 1), ((6,), -1)]
    assert list(mul_terms(a, b).items()) == list(ordered_mul(a, b).items())


@pytest.mark.parametrize("k", [1, 7, 20, 30, 40])
def test_packed_fields_do_not_carry(k):
    # all-ones exponents 2^k - 1 in adjacent fields: their sums need k + 1
    # bits, so k-bit fields would carry into the next variable; the caller
    # packs at the width of the largest product exponent, which holds them
    top = 2**k - 1
    a = {(top, top, top): 1, (top, 0, top): 2, (0, top, 0): 3}
    b = {(top, top, top): 5, (0, top, top): -1, (top, 0, 0): 7}
    w = (2 * top).bit_length()
    got = unpack(mul_terms(pack(a, w), pack(b, w)), w, 3)
    assert list(got.items()) == list(ordered_mul(a, b).items())
    assert got[(2 * top, 2 * top, 2 * top)] == 5


def test_field_bits_is_the_bit_length_of_the_top_exponent():
    assert [field_bits(top) for top in (0, 1, 2, 5, 100, 2**15 - 1, 2**15)] == [
        1, 1, 2, 3, 7, 15, 16,
    ]
    top = 2**15 - 1
    (key,) = pack({(top, top): 1}, field_bits(top))
    assert key == 2**30 - 1
    assert unpack({key: 1}, 15, 2) == {(top, top): 1}


def test_integral_fraction_results_are_ints():
    half, third = Fraction(1, 2), Fraction(1, 3)
    p = {(1, 0): half, (0, 1): third}
    doubled = scale_terms(p, 2)
    assert typed_items(doubled) == [((1, 0), 1, int), ((0, 1), Fraction(2, 3), Fraction)]
    assert typed_items(add_terms(doubled, p)) == [
        ((1, 0), Fraction(3, 2), Fraction), ((0, 1), 1, int)
    ]
    assert typed_items(add_terms(p, {(1, 0): Fraction(-1, 2)}, -1)) == [
        ((1, 0), 1, int), ((0, 1), third, Fraction)
    ]
    assert typed_items(scale_terms(p, Fraction(6))) == [((1, 0), 3, int), ((0, 1), 2, int)]
    assert typed_items(mul_terms({(0, 0): 2}, p)) == typed_items(doubled)
    three = {(0, 0): 6, (1, 1): 6, (2, 2): 6}
    assert all(type(c) is int for c in mul_terms(three, p).values())


def test_backend_names():
    assert backend_name() == "pure-python"
