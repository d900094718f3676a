"""Folding-map generation, composition, and the commutation law."""

import gc
import pickle
from array import array
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from foldmap import folding
from foldmap.backend import pack
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
from foldmap.poly import XY, Poly, PolyMap2, XY_VARS, ZW_VARS, swap_conjugate

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


def fake_fold(tag, n):
    """F_n = (x^n + 1, y): F_m o F_n = F_mn fails for every m, n >= 1."""
    return PolyMap2(X**n + 1, Y, XY, f"fake:{n}")


def test_commute_square_composes_once(monkeypatch):
    monkeypatch.setattr(folding, "fold", fake_fold)
    with mock.patch.object(folding, "compose", wraps=folding.compose) as spy:
        report = verify_commute("b2", 3, 3)
    assert spy.call_count == 1
    assert not report.left_ok and report.left_witness is not None
    assert (report.right_ok, report.right_witness) == (report.left_ok, report.left_witness)
    with mock.patch.object(folding, "compose", wraps=folding.compose) as spy:
        report = verify_commute("b2", 2, 3)
    assert spy.call_count == 2
    assert report.right_witness != report.left_witness


@pytest.mark.parametrize("bad", [True, 2.0, "2", None])
def test_fold_rejects_non_int_n(bad):
    with pytest.raises(TypeError):
        fold("a2", bad)


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_fresh_cache_stores_the_module_caches_pairs(tag):
    fresh = folding._Cache()
    fresh.extend(tag, 40)
    fold(tag, 40)
    for ps_fresh, ps in zip(fresh.stored[tag], folding._CACHE.stored[tag], strict=True):
        assert len(ps_fresh) == 41
        # each stored pair is (packed keys, pickled coefficients) in insertion order
        for n, pair in enumerate(ps_fresh):
            assert pair == ps[n], (tag, n)


@pytest.mark.parametrize("tag, top", [("a2", 32767), ("b2", 16383), ("g2", 10922)])
def test_fold_refuses_n_past_the_packed_fields_at_once(tag, top, monkeypatch):
    # n * max deg e_k < 2^15 is the last n whose exponents fit 15-bit fields
    assert folding._MAX_N[tag] == top
    stored = [list(ps) for ps in folding._CACHE.stored[tag]]
    monkeypatch.setattr(folding, "_power_sum", mock.Mock(side_effect=AssertionError))
    with pytest.raises(ValueError, match=str(top)):
        fold(tag, top + 1)
    assert folding._CACHE.stored[tag] == stored


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_compose_shares_the_caches_exponent_tuples(tag):
    # F_8 o F_8 = F_64, each decoded from packed terms by backend.unpack
    assert compose(fold(tag, 8), fold(tag, 8)) == fold(tag, 64)


# pickle writes an int in 1, 2 or 4 bytes up to 2^31, then as LONG1 (up to
# 255 bytes) or LONG4: +-2^(8k-1) and its neighbours are each width's edges
_EDGE_INTS = [s * (2 ** (8 * k - 1) + d) for k in range(1, 260) for d in (-1, 0) for s in (1, -1)]
_STORED_INTS = st.one_of(
    st.sampled_from([1, -1, 0] + _EDGE_INTS),
    st.integers(),
    st.builds(lambda m, s: s * m, st.integers(2**500, 2**4000), st.sampled_from((1, -1))),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_STORED_INTS, max_size=12))
@example([])
@example([2**2047, -(2**2047) - 1, 2**31, -(2**31) - 1, 255, 256])
def test_terms_round_trips_stored_coefficients(coefs):
    monomials = tuple((i, len(coefs) - i) for i in range(len(coefs)))
    packed = pack(dict(zip(monomials, coefs)), folding._BITS)
    pair = folding._store(packed)
    assert type(pair[0]) is array and list(pair[0]) == list(packed)
    assert type(pair[1]) is bytes
    terms = folding._poly(XY_VARS, pair).terms
    # the exponent tuples and coefficients in stored order
    assert list(terms) == list(monomials)
    assert list(terms.values()) == coefs
    assert all(type(c) is int for c in terms.values())


def test_stored_keys_fit_the_array():
    # two 15-bit fields make a key below 2^30
    keys, _ = folding._CACHE.stored["a2"][0][0]
    assert keys.itemsize * 8 >= 2 * folding._BITS


def test_cache_holds_no_coefficient_ints():
    cache = folding._Cache()
    cache.extend("b2", 60)
    stored = cache.stored["b2"]
    assert all(type(keys) is array and type(blob) is bytes for ps in stored for keys, blob in ps)
    reachable, stack = {}, [stored]
    while stack:
        obj = stack.pop()
        # an array's referent is its type, a heap type, which reaches the
        # whole interpreter; no type object is part of the cache
        if id(obj) not in reachable and not isinstance(obj, type):
            reachable[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    assert {type(o) for o in reachable.values()} == {list, tuple, array, bytes}
    # monomials and coefficients alike are kept as raw bytes
    assert not [o for o in reachable.values() if type(o) is int]
    # F_60's coefficients alone have more distinct values than CPython's
    # shared small ints
    assert len(set(fold("b2", 60).second.terms.values())) > 121


def test_switching_families_rebuilds_the_windows_exactly():
    steps = [("a2", 30), ("b2", 10), ("a2", 60), ("g2", 5), ("b2", 40)]
    cache = folding._Cache()
    with mock.patch.object(folding, "_power_sum", wraps=folding._power_sum) as spy:
        for tag, n in steps:
            cache.extend(tag, n)
    # one call per new power sum and stored coordinate: a2 has one, b2 and g2 two
    assert spy.call_count == 60 + 2 * 40 + 2 * 5
    assert list(cache.live) == ["b2"]
    # an n already stored leaves the live windows alone
    cache.extend("a2", 60)
    assert list(cache.live) == ["b2"]
    for tag, n in steps:
        straight = folding._Cache()
        straight.extend(tag, n)
        for ps_switched, ps in zip(cache.stored[tag], straight.stored[tag], strict=True):
            assert ps_switched[:n + 1] == ps


def test_the_cache_keeps_the_last_familys_windows_only():
    cache = folding._Cache()
    for tag, n in (("g2", 90), ("b2", 150), ("a2", 200)):
        cache.extend(tag, n)
    assert list(cache.live) == ["a2"]
    (window,) = cache.live["a2"]
    assert len(window) == 3
    # the recurrence's last three power sums, on packed keys
    for p, (keys, blob) in zip(window, cache.stored["a2"][0][-3:], strict=True):
        assert list(p.items()) == list(zip(keys, pickle.loads(blob)))


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


def test_memoization_runs_no_second_recurrence():
    a = fold("g2", 7)
    with mock.patch.object(folding, "_power_sum", wraps=folding._power_sum) as spy:
        b = fold("g2", 7)
    assert spy.call_count == 0
    assert a == b
    for p, q in zip(a.components(), b.components()):
        assert list(p.terms.items()) == list(q.terms.items())


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_mutating_a_folded_map_leaves_the_cache_unchanged(tag):
    want = fold(tag, 9)
    want_items = [list(p.terms.items()) for p in want.components()]
    got = fold(tag, 9)
    got.first.terms.clear()
    got.second.terms[(0, 0)] = 12345
    again = fold(tag, 9)
    assert [list(p.terms.items()) for p in again.components()] == want_items


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
