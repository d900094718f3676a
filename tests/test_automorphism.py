"""Automorphism membership, claimed groups, and the elimination solver."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foldmap import automorphism
from foldmap.automorphism import (
    UNKNOWNS,
    AffineMap2,
    ConstraintState,
    _Engine,
    _as_power_equation,
    _linear_image,
    _normalize,
    claimed_group,
    collect_constraints,
    is_member,
    solve_aut,
)
from foldmap.cyclo import CycloElem
from foldmap.folding import fold
from foldmap.poly import XY, XY_VARS, ZW, ZW_VARS, Poly, PolyMap2, zw_to_xy
from foldmap.rationals import rat

ZETA3 = CycloElem.zeta_pow(4)
SQRT3 = CycloElem(0, 2, 0, -1)  # z + z^11


def test_is_member_examples():
    neg = AffineMap2((-1, 0, 0, 0, 1, 0), XY)
    assert is_member(neg, fold("b2", 3)) is True
    assert is_member(neg, fold("b2", 4)) is False
    diag = AffineMap2((ZETA3, 0, 0, 0, ZETA3**2, 0), ZW)
    assert is_member(diag, fold("a2", 4)) is True
    assert is_member(diag, fold("a2", 5)) is False
    swap = AffineMap2((0, 1, 0, 1, 0, 0), ZW)
    for n in range(2, 9):
        assert is_member(swap, fold("a2", n)) is True


def test_is_member_rejects_singular():
    singular = AffineMap2((1, 0, 0, 1, 0, 0), XY)
    with pytest.raises(ValueError):
        is_member(singular, fold("b2", 2))
    with pytest.raises(ValueError):
        is_member(AffineMap2.identity(XY), fold("a2", 2))


def test_claimed_groups():
    assert (claimed_group("a2", 7).order, claimed_group("a2", 7).label) == (6, "S3")
    assert (claimed_group("a2", 5).order, claimed_group("a2", 5).label) == (2, "mu2")
    assert (claimed_group("b2", 5).order, claimed_group("b2", 5).label) == (2, "mu2")
    assert (claimed_group("b2", 6).order, claimed_group("b2", 6).label) == (1, "trivial")
    assert (claimed_group("g2", 3).order, claimed_group("g2", 3).label) == (1, "trivial")
    assert "typo" in claimed_group("b2", 4).note
    with pytest.raises(ValueError):
        claimed_group("b2", 1)


def test_claimed_group_closure_and_membership():
    for tag in ("a2", "b2", "g2"):
        for n in (2, 3, 4, 7):
            group = claimed_group(tag, n)
            fmap = fold(tag, n)
            assert any(m == AffineMap2.identity(m.model) for m in group.elements)
            for m in group.elements:
                assert is_member(m, fmap)
            # table closure was computed without error, check inverses exist
            for row in group.table:
                assert sorted(row) == list(range(group.order))


def test_group_structure_labels_other_orders_and_rejects_non_groups():
    signs = [AffineMap2((a, 0, 0, 0, e, 0), XY) for a in (1, -1) for e in (1, -1)]
    table, label = automorphism._group_structure(signs)
    assert label == "order4"  # the Klein four-group, abelian and not cyclic
    assert all(table[i][i] == 0 for i in range(4))
    # diag(i, 1) squares to diag(-1, 1), which is not in the set
    i = CycloElem.zeta_pow(3)
    not_closed = [AffineMap2.identity(XY), AffineMap2((i, 0, 0, 0, 1, 0), XY)]
    with pytest.raises(ValueError, match="not closed under composition"):
        automorphism._group_structure(not_closed)


def element_order(m):
    power = m
    for k in range(1, 13):
        if power == AffineMap2.identity(m.model):
            return k
        power = power.compose(m)
    raise AssertionError("element order exceeds 12")


def test_s3_structure_by_element_orders():
    group = claimed_group("a2", 4)
    orders = sorted(element_order(m) for m in group.elements)
    assert orders == [1, 2, 2, 2, 3, 3]
    group = claimed_group("b2", 9)
    assert sorted(element_order(m) for m in group.elements) == [1, 2]


def apply_point(m, point):
    """The affine map m at a point of the plane."""
    a, b, c, d, e, f = m.coeffs
    px, py = point
    return (a * px + b * py + c, d * px + e * py + f)


def test_affine_compose_and_apply():
    p = AffineMap2((0, 1, 0, 1, 0, 0), ZW)
    q = AffineMap2((ZETA3, 0, 0, 0, ZETA3**2, 0), ZW)
    pq = p.compose(q)
    assert pq.coeffs == (0, ZETA3**2, 0, ZETA3, 0, 0)
    assert apply_point(p, (1, 2)) == (2, 1)
    assert not AffineMap2((1, 1, 0, 1, 1, 0), XY).is_invertible()


def affine_zw_to_xy(m):
    """The ZW affine map m in real (x, y) coordinates, through poly.zw_to_xy;
    ValueError unless (d, e, f) = (conj b, conj a, conj c)."""
    real = zw_to_xy(m.as_polymap(ZW_VARS))
    return AffineMap2(
        tuple(
            comp.coeff(exps)
            for comp in real.components()
            for exps in ((1, 0), (0, 1), (0, 0))
        ),
        XY,
    )


def test_zw_to_xy_conversion_is_real():
    conjugation = affine_zw_to_xy(AffineMap2((0, 1, 0, 1, 0, 0), ZW))
    assert conjugation.coeffs == (1, 0, 0, 0, -1, 0)
    rotation = affine_zw_to_xy(AffineMap2((ZETA3, 0, 0, 0, ZETA3**2, 0), ZW))
    half = CycloElem(rat(1, 2))
    assert rotation.coeffs[0] == -half
    with pytest.raises(ValueError):
        affine_zw_to_xy(AffineMap2((ZETA3, 0, 0, 0, 1, 0), ZW))


def test_affine_entries_are_canonical():
    m = AffineMap2((CycloElem(1), 0, 0, 0, CycloElem(1), 0), XY)
    identity = AffineMap2.identity(XY)
    assert m == identity and hash(m) == hash(identity)
    assert m.coeffs == (1, 0, 0, 0, 1, 0)
    assert type(m.coeffs[0]) is int and type(m.coeffs[4]) is int


def test_s3_permutes_triangle_vertices():
    """The converted S3 elements permute the cube-root triangle exactly."""
    half = CycloElem(rat(1, 2))
    s32 = SQRT3 * half
    vertices = [
        (CycloElem(1), CycloElem(0)),
        (-half, s32),
        (-half, -s32),
    ]
    group = claimed_group("a2", 7)
    assert group.label == "S3"
    permutations = set()
    for m in group.elements:
        real = affine_zw_to_xy(m)
        images = []
        for v in vertices:
            img = apply_point(real, v)
            idx = next(
                (k for k, u in enumerate(vertices)
                 if img[0] == u[0] and img[1] == u[1]),
                None,
            )
            assert idx is not None, (m, img)
            images.append(idx)
        permutations.add(tuple(images))
    assert len(permutations) == 6  # all of S3, faithfully


@pytest.mark.parametrize(
    "tag,n,order,label",
    [
        ("a2", 2, 2, "mu2"),
        ("a2", 4, 6, "S3"),
        ("a2", 6, 2, "mu2"),
        ("a2", 7, 6, "S3"),
        ("b2", 2, 1, "trivial"),
        ("b2", 3, 2, "mu2"),
        ("b2", 6, 1, "trivial"),
        ("b2", 7, 2, "mu2"),
        ("g2", 2, 1, "trivial"),
        ("g2", 5, 1, "trivial"),
        ("g2", 6, 1, "trivial"),
    ],
)
def test_solver_matches_claims(tag, n, order, label):
    out = solve_aut(tag, n)
    assert not out.unresolved
    assert (out.solutions.order, out.solutions.label) == (order, label)
    claimed = claimed_group(tag, n)
    assert all(s in claimed.elements for s in out.solutions.elements)


def test_solver_soundness():
    for tag, n in (("a2", 4), ("b2", 5), ("g2", 4)):
        out = solve_aut(tag, n)
        fmap = fold(tag, n)
        for m in out.solutions.elements:
            assert is_member(m, fmap)


def test_solver_rejects_low_n():
    with pytest.raises(ValueError):
        solve_aut("b2", 1)


def test_unresolved_outside_cyclotomic_range():
    """A map whose automorphisms need 5th roots of unity stalls honestly:
    the engine reports unresolved rather than guessing."""
    from foldmap.automorphism import _Engine
    from foldmap.poly import Poly, PolyMap2, XY_VARS

    x6 = Poly(XY_VARS, {(6, 0): 1})
    y6 = Poly(XY_VARS, {(0, 6): 1})
    engine = _Engine(PolyMap2(x6, y6, XY, "diag6"), depth_cap=32)
    engine.run()
    assert engine.unresolved
    assert any("order record" in u["reason"] for u in engine.unresolved)
    # the rational solutions it can certify are still sound
    for sol in engine.solutions:
        assert sol.is_invertible()


def test_depth_cap_reports_unresolved():
    out = solve_aut("b2", 5, depth_cap=0)
    assert out.unresolved
    assert out.solutions.label == "incomplete"
    assert any("depth cap" in u["reason"] for u in out.unresolved)


def test_power_equation_with_nontrivial_root_records():
    """a^2 = zeta_3 must record order(a) | 6 even with no prior record."""
    from foldmap.automorphism import ConstraintState, UNKNOWNS, _Engine
    from foldmap.poly import Poly

    engine = _Engine.__new__(_Engine)
    constraint = Poly(
        UNKNOWNS, {(2, 0, 0, 0, 0, 0): 1, (0,) * 6: -ZETA3}
    )
    state = engine._step(ConstraintState([constraint], {}, {}))
    assert isinstance(state, ConstraintState)
    assert state.records == {"a": 6} and state.subs == {}
    assert state.constraints == [constraint]


def test_solver_is_deterministic():
    a = solve_aut("a2", 4).solutions.to_json_obj()
    b = solve_aut("a2", 4).solutions.to_json_obj()
    assert a == b


def _full_substitution(p, var, image):
    """Reference for Poly.substitute_var: one simultaneous substitution of
    every unknown, each but var by itself."""
    images = {v: image if v == var else Poly.variable(UNKNOWNS, v) for v in UNKNOWNS}
    return p.substitute(images)


@pytest.mark.parametrize(
    "tag,n", [("a2", 4), ("a2", 7), ("b2", 5), ("b2", 6), ("g2", 5), ("g2", 6)]
)
def test_solver_matches_full_substitution(monkeypatch, tag, n):
    fast = solve_aut(tag, n)
    monkeypatch.setattr(Poly, "substitute_var", _full_substitution)
    reference = solve_aut(tag, n)
    assert json.dumps(fast.solutions.to_json_obj()) == json.dumps(
        reference.solutions.to_json_obj()
    )
    assert fast.unresolved == reference.unresolved


def _assert_no_bound_unknown(state):
    bound = [UNKNOWNS.index(v) for v in state.subs]
    for p in state.constraints + list(state.subs.values()):
        assert not any(exps[k] for exps in p.terms for k in bound), (p, sorted(state.subs))


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_no_constraint_or_image_holds_a_bound_unknown(monkeypatch, tag):
    """The engine substitutes each binding once, when it is made, so every
    state it processes or steps is already free of bound unknowns."""
    visited = []
    for name in ("_process", "_step"):
        method = getattr(_Engine, name)

        def checked(self, state, method=method):
            _assert_no_bound_unknown(state)
            visited.append(bool(state.subs))
            return method(self, state)

        monkeypatch.setattr(_Engine, name, checked)
    for n in range(2, 9):
        solve_aut(tag, n)
    assert any(visited)  # some checked state had bindings


def _is_canonical(c):
    """A rational value is a plain int or a non-integral Fraction."""
    if isinstance(c, CycloElem):
        return not c.is_rational()
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_every_solver_coefficient_is_canonical(monkeypatch, tag):
    """_step sees the normalized constraints: none of them, and no image in
    subs, holds an integral Fraction or a rational CycloElem."""
    step = _Engine._step

    def checked(self, state):
        for p in state.constraints + list(state.subs.values()):
            assert all(_is_canonical(c) for c in p.terms.values()), (p, p.terms)
        return step(self, state)

    monkeypatch.setattr(_Engine, "_step", checked)
    for n in range(2, 9):
        solve_aut(tag, n)


def test_normalize_merges_to_canonical_values():
    # a^3 = 1 merges 1/2 a^3 and 1/2 into the int 1
    a, b = (Poly.variable(UNKNOWNS, v) for v in "ab")
    q = _normalize(a**3 * rat(1, 2) + rat(1, 2) + b, {"a": 3})
    assert q == b + 1
    assert all(type(c) is int for c in q.terms.values())


def _reversed_order(item):
    """automorphism._constraint_order with every comparison flipped."""
    (component, exps), p = item
    return (-len(p.terms), -p.degree(), -component, sum(exps), tuple(exps))


def _assert_sound(out, tag, n):
    """Every returned map is a member and claimed; a complete run is the group."""
    fmap = fold(tag, n)
    claimed = claimed_group(tag, n)
    for m in out.solutions.elements:
        assert is_member(m, fmap)
        assert m in claimed.elements
    if out.complete:
        assert out.solutions.elements == claimed.elements
        assert out.solutions.label == claimed.label


@pytest.mark.parametrize("tag,n", [("a2", 4), ("a2", 7), ("b2", 5), ("g2", 3)])
def test_solver_is_sound_under_reversed_order(monkeypatch, tag, n):
    monkeypatch.setattr(automorphism, "_constraint_order", _reversed_order)
    out = solve_aut(tag, n)
    assert out.complete
    _assert_sound(out, tag, n)


def test_solver_is_sound_under_shuffled_order(monkeypatch):
    rng = random.Random(26)
    monkeypatch.setattr(automorphism, "_constraint_order", lambda item: rng.random())
    out = solve_aut("b2", 6)
    # all 4 unresolved branches of this shuffle stall on the record a^5 = 1,
    # which Q(zeta_12) cannot realize, so a partial outcome is checked too
    assert out.unresolved and out.solutions.label == "incomplete"
    _assert_sound(out, "b2", 6)


def test_constraint_collection_shape():
    buckets = collect_constraints(fold("b2", 3))
    # the xy^{n-1} bucket carries the a*b^{n-1} obstruction
    key = (1, (1, 2))
    assert key in buckets
    p = buckets[key]
    assert len(p.terms) == 1
    ((exps, coef),) = p.terms.items()
    assert exps == (1, 2, 0, 0, 0, 0) and coef == -3


def _full_constraints(fmap):
    """Reference: expand phi o F - F o phi in the eight-variable ring and
    bucket every plane monomial's coefficient, at every plane degree."""
    plane = fmap.first.vars
    ring = plane + UNKNOWNS
    a, b, c, d, e, f = (Poly.variable(ring, v) for v in UNKNOWNS)
    xv, yv = (Poly.variable(ring, v) for v in plane)
    pad = (0,) * len(UNKNOWNS)
    first, second = (
        Poly(ring, {ex + pad: co for ex, co in p.terms.items()}) for p in fmap.components()
    )
    images = {plane[0]: a * xv + b * yv + c, plane[1]: d * xv + e * yv + f}
    buckets = {}
    for component, diff in (
        (1, a * first + b * second + c - fmap.first.substitute(images)),
        (2, d * first + e * second + f - fmap.second.substitute(images)),
    ):
        for exps, coef in diff.terms.items():
            buckets.setdefault((component, exps[:2]), {})[exps[2:]] = coef
    return {key: Poly(UNKNOWNS, terms) for key, terms in buckets.items()}


def _assert_leading_constraints(fmap):
    low = fmap.degree() - 2
    want = {key: p for key, p in _full_constraints(fmap).items() if sum(key[1]) >= low}
    assert collect_constraints(fmap) == want


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("tag", ["a2", "b2", "g2"])
def test_leading_constraints_match_full_expansion(tag, n):
    # at n = 2, a2 and b2 have D - 2 = 0: the translation (c, f) enters there
    _assert_leading_constraints(fold(tag, n))


map_coeffs = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
    st.builds(
        lambda k, q: CycloElem.zeta_pow(k) * q,
        st.integers(0, 11),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    ),
)
map_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), map_coeffs, max_size=4
).map(lambda d: Poly(XY_VARS, d))


@settings(max_examples=40, deadline=None)
@given(map_polys, map_polys)
def test_leading_constraints_match_full_expansion_on_random_maps(first, second):
    _assert_leading_constraints(PolyMap2(first, second, XY, "random"))


unknown_exps = st.tuples(*[st.integers(0, 2)] * len(UNKNOWNS))
nonzero_coeffs = map_coeffs.filter(bool)
order_records = st.dictionaries(
    st.sampled_from(UNKNOWNS), st.sampled_from((2, 3, 4, 6, 12)), max_size=4
)


@st.composite
def linear_constraints(draw):
    """(p, k, records): a random constraint, and half the time one with a
    planted term unit * UNKNOWNS[k]^j, j = 1 or 2, as its only linear
    occurrence of UNKNOWNS[k]; squares of UNKNOWNS[k] may remain."""
    records = draw(order_records)
    k = draw(st.integers(0, len(UNKNOWNS) - 1))
    terms = draw(st.dictionaries(unknown_exps, nonzero_coeffs, max_size=4))
    if draw(st.booleans()):
        terms = {e[:k] + (0 if e[k] == 1 else e[k],) + e[k + 1:]: c for e, c in terms.items()}
        unit = [
            draw(st.integers(1, 2)) if i == k
            else draw(st.integers(0, 13)) if v in records else 0
            for i, v in enumerate(UNKNOWNS)
        ]
        terms[tuple(unit)] = draw(nonzero_coeffs)
    return Poly(UNKNOWNS, terms), k, records


def _reduced(p, records):
    """Reference: p with each recorded unknown's exponents taken mod its
    order, merged by Poly addition."""
    orders = [records.get(v) for v in UNKNOWNS]
    out = Poly.zero(UNKNOWNS)
    for exps, coef in p.terms.items():
        key = tuple(e % g if g else e for e, g in zip(exps, orders))
        out = out + Poly(UNKNOWNS, {key: coef})
    return out


@settings(max_examples=200, deadline=None)
@given(linear_constraints())
def test_linear_image_solves_the_constraint(case):
    p, k, records = case
    image = _linear_image(p, k, records)
    if image is None:
        return
    assert all(exps[k] == 0 for exps in image.terms)
    assert _reduced(p.substitute_var(UNKNOWNS[k], image), records).is_zero()


origin = (0,) * len(UNKNOWNS)
power_exps = st.one_of(
    st.tuples(st.integers(0, len(UNKNOWNS) - 1), st.integers(1, 12)).map(
        lambda t: origin[: t[0]] + (t[1],) + origin[t[0] + 1:]
    ),
    unknown_exps,
)
# random constraints, and ones shaped c * m + rho with m a power of one unknown
# or a random monomial and c often 1
power_constraints = st.one_of(
    st.dictionaries(st.one_of(st.just(origin), power_exps), nonzero_coeffs, max_size=3),
    st.builds(
        lambda top, c, rho: {top: c, origin: rho},
        power_exps,
        st.one_of(st.just(1), nonzero_coeffs),
        nonzero_coeffs,
    ),
).map(lambda d: Poly(UNKNOWNS, d))


@settings(max_examples=200, deadline=None)
@given(power_constraints)
def test_power_equation_match_is_exact(p):
    shaped = _as_power_equation(p)
    if shaped is None:
        return
    var, k, rhs = shaped
    assert p == Poly.variable(UNKNOWNS, var) ** k - rhs


def test_finish_certifies_against_the_constraint_system(monkeypatch):
    """A grounded branch whose values break the engine's system is rejected
    by the evaluation loop alone, even when is_member would accept it."""
    monkeypatch.setattr(automorphism, "is_member", lambda phi, fmap: True)
    engine = _Engine(fold("b2", 3), depth_cap=32)

    def grounded(values):
        subs = {v: Poly.constant(UNKNOWNS, x) for v, x in zip(UNKNOWNS, values)}
        return ConstraintState([], subs, {})

    assert engine._finish(grounded((2, 0, 0, 0, 1, 0))) == []
    assert engine.solutions == [] and engine.unresolved == []
    assert engine._finish(grounded((1, 0, 0, 0, 1, 0))) == []
    assert engine.solutions == [AffineMap2.identity(XY)]
    assert engine.unresolved == []


def test_finish_reports_live_constraints():
    engine = _Engine(fold("b2", 3), depth_cap=32)
    live = Poly.variable(UNKNOWNS, "a") - 1
    unit = Poly.constant(UNKNOWNS, 1)
    state = ConstraintState([live], {v: unit for v in UNKNOWNS}, {})
    assert engine._finish(state) == []
    assert engine.solutions == []
    (outcome,) = engine.unresolved
    assert outcome["reason"] == "no rewrite rule applies"
    assert outcome["state"]["constraints"] == [str(live)]


def test_finish_reports_an_unconstrained_unknown():
    engine = _Engine(fold("b2", 3), depth_cap=32)
    # f is never bound
    subs = {v: Poly.constant(UNKNOWNS, x) for v, x in zip("abcde", (1, 0, 0, 0, 1))}
    assert engine._finish(ConstraintState([], subs, {})) == []
    assert engine.solutions == []
    (outcome,) = engine.unresolved
    assert outcome["reason"] == "unknown f is unconstrained"


def test_finish_drops_a_singular_candidate(monkeypatch):
    # the zero map satisfies every leading constraint of b2 n=3 (they start
    # at plane degree 1), so only the invertibility check turns it away
    monkeypatch.setattr(automorphism, "is_member", lambda phi, fmap: True)
    engine = _Engine(fold("b2", 3), depth_cap=32)
    zero = Poly.zero(UNKNOWNS)
    assert engine._finish(ConstraintState([], {v: zero for v in UNKNOWNS}, {})) == []
    assert engine.solutions == [] and engine.unresolved == []


def test_is_member_cuts_leading_candidates_to_the_group(monkeypatch):
    """F = (x^4 + y, y^4): its leading slices (x^4, y^4) admit 18 maps, the
    diagonal and anti-diagonal ones with cube-root entries; only the three
    (x, y) -> (zeta x, zeta y) with zeta^3 = 1 commute with F itself."""
    x4y = Poly(XY_VARS, {(4, 0): 1, (0, 1): 1})
    y4 = Poly(XY_VARS, {(0, 4): 1})
    fmap = PolyMap2(x4y, y4, XY, "x4+y")
    cube_roots = [CycloElem(1), ZETA3, ZETA3**2]
    engine = _Engine(fmap, depth_cap=32)
    engine.run()
    assert not engine.unresolved
    assert sorted(engine.solutions, key=AffineMap2.sort_key) == sorted(
        (AffineMap2((z, 0, 0, 0, z, 0), XY) for z in cube_roots), key=AffineMap2.sort_key
    )
    monkeypatch.setattr(automorphism, "is_member", lambda phi, fmap: True)
    candidates = _Engine(fmap, depth_cap=32)
    candidates.run()
    assert len(candidates.solutions) == 18


@pytest.mark.parametrize(
    "tag,n",
    [(tag, n) for tag in ("a2", "b2", "g2") for n in range(2, 15)]
    + [("a2", 40), ("b2", 20), ("g2", 30)],
)
def test_solver_equals_claimed_group(tag, n):
    out = solve_aut(tag, n)
    claimed = claimed_group(tag, n)
    assert out.complete
    assert out.solutions.elements == claimed.elements
    assert out.solutions.label == claimed.label


# sha256 over json.dumps([solutions.to_json_obj(), unresolved], sort_keys=True)
# for a2, then b2, then g2, each at n = 2..14
SOLVER_DIGEST = "a4ae4aa83ec1c7a8994a5b73a468ad52384574e69a17283d7f4cfe9c29a4fe46"


def test_solver_output_is_pinned():
    digest = hashlib.sha256()
    for tag in ("a2", "b2", "g2"):
        for n in range(2, 15):
            out = solve_aut(tag, n)
            digest.update(
                json.dumps([out.solutions.to_json_obj(), out.unresolved], sort_keys=True).encode()
            )
    assert digest.hexdigest() == SOLVER_DIGEST
