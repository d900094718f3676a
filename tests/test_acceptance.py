"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every expected value below is transcribed directly from the published
tables/propositions or computed by an independent oracle; tolerances and
time budgets are fixed here, not calibrated.
"""

import json
import time
from contextlib import contextmanager

from foldmap.automorphism import claimed_group, is_member, solve_aut
from foldmap.cyclo import CycloElem
from foldmap.folding import compose, fold, fold_xy, half_fold, verify_commute
from foldmap.leading import g2_x_slice_mismatch, verify_leading
from foldmap.poly import Poly, PolyMap2, XY_VARS, ZW_VARS
from foldmap.projective import degree_growth, indeterminacy, is_morphism
from foldmap.weyl import check_scaling, verify_B_functional


@contextmanager
def criterion(num, desc, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num:2d} FAIL: {desc}", flush=True)
        raise
    elapsed = time.perf_counter() - t0
    ok = budget is None or elapsed < budget
    print(
        f"criterion {num:2d} {'PASS' if ok else 'FAIL'} ({elapsed:7.2f}s): {desc}",
        flush=True,
    )
    assert ok, f"criterion {num} blew its {budget}s budget ({elapsed:.1f}s)"


def zw(terms):
    return Poly(ZW_VARS, terms)


def xy(terms):
    return Poly(XY_VARS, terms)


# published base-case polynomials, transcribed afresh for this gate
A_BASE = {
    0: zw({(0, 0): 3}),
    1: zw({(1, 0): 1}),
    2: zw({(2, 0): 1, (0, 1): -2}),
    3: zw({(3, 0): 1, (1, 1): -3, (0, 0): 3}),
    4: zw({(4, 0): 1, (2, 1): -4, (1, 0): 4, (0, 2): 2}),
    5: zw({(5, 0): 1, (3, 1): -5, (2, 0): 5, (1, 2): 5, (0, 1): -5}),
}

B_BASE = {
    0: (xy({(0, 0): 4}), xy({(0, 0): 4})),
    1: (xy({(1, 0): 1}), xy({(0, 1): 1})),
    2: (
        xy({(2, 0): 1, (0, 1): -2, (0, 0): -4}),
        xy({(0, 2): 1, (2, 0): -2, (0, 1): 4, (0, 0): 4}),
    ),
    3: (
        xy({(3, 0): 1, (1, 1): -3, (1, 0): -3}),
        xy({(0, 3): 1, (2, 1): -3, (0, 2): 6, (0, 1): 9}),
    ),
}

G_BASE = {
    0: (xy({(0, 0): 6}), xy({(0, 0): 6})),
    1: (xy({(1, 0): 1}), xy({(0, 1): 1})),
    2: (
        xy({(2, 0): 1, (1, 0): -2, (0, 1): -2, (0, 0): -6}),
        xy({(3, 0): -2, (1, 1): 6, (0, 2): 1, (1, 0): 18, (0, 1): 10, (0, 0): 18}),
    ),
    3: (
        xy({(3, 0): 1, (1, 1): -3, (1, 0): -9, (0, 1): -6, (0, 0): -12}),
        xy({(3, 1): -3, (3, 0): -6, (1, 2): 9, (0, 3): 1, (1, 1): 45,
            (0, 2): 18, (1, 0): 54, (0, 1): 63, (0, 0): 60}),
    ),
    4: (
        xy({(4, 0): 1, (2, 1): -4, (2, 0): -10, (1, 1): -4, (0, 2): 2,
            (1, 0): -8, (0, 1): 8, (0, 0): 6}),
        xy({(6, 0): 2, (4, 1): -12, (3, 2): -4, (4, 0): -36, (3, 1): -28,
            (2, 2): 18, (1, 3): 12, (0, 4): 1, (3, 0): -40, (2, 1): 108,
            (1, 2): 120, (0, 3): 24, (2, 0): 162, (1, 1): 372, (0, 2): 134,
            (1, 0): 360, (0, 1): 280, (0, 0): 198}),
    ),
    5: (
        xy({(5, 0): 1, (3, 1): -5, (3, 0): -15, (2, 1): -5, (1, 2): 5,
            (2, 0): -10, (1, 1): 35, (0, 2): 10, (1, 0): 55, (0, 1): 50,
            (0, 0): 60}),
        xy({(6, 1): 5, (6, 0): 10, (4, 2): -30, (3, 3): -5, (4, 1): -150,
            (3, 2): -65, (2, 3): 45, (1, 4): 15, (0, 5): 1, (4, 0): -180,
            (3, 1): -205, (2, 2): 360, (1, 3): 240, (0, 4): 30, (3, 0): -190,
            (2, 1): 945, (1, 2): 1200, (0, 3): 255, (2, 0): 810, (1, 1): 2415,
            (0, 2): 920, (1, 0): 1710, (0, 1): 1495, (0, 0): 900}),
    ),
}


def test_criterion_01_base_case_fidelity():
    with criterion(1, "base cases match the published tables verbatim", budget=1.0):
        for n, first in A_BASE.items():
            m = fold("a2", n)
            assert m.first == first, f"A {n}"
            from foldmap.poly import swap_conjugate

            assert m.second == swap_conjugate(first)
        for n, pair in B_BASE.items():
            assert fold("b2", n).components() == pair, f"B {n}"
        for n, pair in G_BASE.items():
            assert fold("g2", n).components() == pair, f"G {n}"


def test_criterion_02_commutation():
    with criterion(2, "F_m o F_n = F_mn = F_n o F_m, families x 2<=m,n<=6", budget=60.0):
        for tag in ("a2", "b2", "g2"):
            for m in range(2, 7):
                for n in range(2, 7):
                    assert verify_commute(tag, m, n).passed, (tag, m, n)
            for m, n in ((0, 4), (1, 5), (0, 0), (1, 1), (0, 1)):
                assert verify_commute(tag, m, n).passed, (tag, m, n)


def test_criterion_03_leading_terms():
    with criterion(3, "leading-term expansions over the stated ranges", budget=60.0):
        for n in range(2, 41):
            assert verify_leading("a2", n).passed, ("a2", n)
        for n in range(3, 41):
            assert verify_leading("b2", n).passed, ("b2", n)
        for n in range(1, 31):
            assert verify_leading("g2", n).passed, ("g2", n)
        for n in range(5, 31):
            assert g2_x_slice_mismatch(n) is None, n


def test_criterion_04_equivariance_and_sparsity():
    with criterion(4, "cube-root equivariance and mod-3 sparsity, n <= 30"):
        zeta3 = CycloElem.zeta_pow(4)
        z = Poly.variable(ZW_VARS, "z")
        w = Poly.variable(ZW_VARS, "w")
        for n in range(0, 31):
            p = fold("a2", n).first
            for (i, j) in p.terms:
                assert (i - j) % 3 == n % 3, (n, i, j)
            assert p.substitute({"z": zeta3 * z, "w": zeta3**2 * w}) == zeta3**n * p, n


def test_criterion_05_b2_parity():
    with criterion(5, "B-family parity identity, n <= 20"):
        x = Poly.variable(XY_VARS, "x")
        y = Poly.variable(XY_VARS, "y")
        for n in range(0, 21):
            m = fold("b2", n)
            flip = {"x": -x, "y": y}
            assert m.first.substitute(flip) == ((-1) ** n) * m.first, n
            assert m.second.substitute(flip) == m.second, n


def test_criterion_06_membership_and_group_pattern():
    with criterion(6, "claimed groups verify membership and pattern, n <= 25"):
        for tag in ("a2", "b2", "g2"):
            for n in range(2, 26):
                group = claimed_group(tag, n)
                fmap = fold(tag, n)
                for phi in group.elements:
                    assert is_member(phi, fmap), (tag, n, phi)
                if tag == "a2":
                    want = "S3" if n % 3 == 1 else "mu2"
                elif tag == "b2":
                    want = "mu2" if n % 2 == 1 else "trivial"
                else:
                    want = "trivial"
                assert group.label == want, (tag, n, group.label)


def test_criterion_07_solver_completeness():
    with criterion(7, "solve_aut equals claimed_group, 2 <= n <= 10", budget=600.0):
        for tag in ("a2", "b2", "g2"):
            for n in range(2, 11):
                out = solve_aut(tag, n)
                assert not out.unresolved, (tag, n, out.unresolved)
                claimed = claimed_group(tag, n)
                assert out.solutions.order == claimed.order, (tag, n)
                assert all(s in claimed.elements for s in out.solutions.elements)
                assert out.solutions.label == claimed.label


def test_criterion_08_projective():
    with criterion(8, "degrees, morphism status and loci, 2 <= n <= 12"):
        for n in range(2, 13):
            ma = fold_xy("a2", n)
            mb = fold("b2", n)
            assert ma.degree() == n and is_morphism(ma), n
            assert mb.degree() == n and is_morphism(mb), n
            mg = fold("g2", n)
            assert mg.degree() == (3 * n) // 2, n
            rep = indeterminacy(mg)
            assert rep.unresolved is None and not is_morphism(mg)
            want = [(0, 1, 0)] if n % 2 == 0 else [(0, 1, 0), (1, 0, 0)]
            assert rep.points == want, (n, rep.points)


def test_criterion_09_half_fold_remarks():
    with criterion(9, "square-root maps: squares, loci, morphism of the square"):
        bs, gs = half_fold("b_sqrt2"), half_fold("g_sqrt3")
        assert compose(bs, bs) == fold("b2", 2)
        assert compose(gs, gs) == fold("g2", 3)
        assert indeterminacy(bs).points == [(0, 1, 0)]
        assert indeterminacy(gs).points == [(0, 1, 0)]
        assert is_morphism(compose(bs, bs))


def test_criterion_10_degree_growth():
    with criterion(10, "iterate degree growth matches floor(3 n^m / 2) resp. n^m"):
        assert degree_growth("g2", 2, 2) == 6
        assert degree_growth("g2", 2, 3) == 12
        assert degree_growth("g2", 3, 2) == 13
        assert degree_growth("a2", 2, 3) == 8
        assert degree_growth("b2", 2, 3) == 8


def test_criterion_11_oracles():
    with criterion(11, "scaling oracle < 1e-7 and exact Chebyshev identity", budget=30.0):
        for tag in ("a2", "b2", "g2"):
            for n in range(1, 7):
                report = check_scaling(tag, n, trials=100, tol=1e-7, seed=0)
                assert report.passed, (tag, n, report.max_residual)
        for n in range(0, 16):
            assert verify_B_functional(n).passed, n


def test_criterion_12_json_round_trip():
    with criterion(12, "canonical JSON of the degree-15 map round-trips"):
        m = fold("g2", 10)
        blob = json.dumps(m.to_json_obj())
        again = PolyMap2.from_json_obj(json.loads(blob))
        assert again == m
        assert again.first.terms == m.first.terms
