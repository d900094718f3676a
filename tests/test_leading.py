"""Top-degree expansion predictions and their verification."""

import pytest

from foldmap import leading
from foldmap.folding import fold
from foldmap.leading import (
    ExpansionRangeError,
    _build_terms,
    g2_x_slice_mismatch,
    g2_y_check,
    g2_y_leading_coef,
    predicted,
    verify_leading,
)
from foldmap.poly import Poly, PolyMap2, XY_VARS, ZW_VARS


def test_a_family_predictions():
    spec = predicted("a2", 7)
    assert spec.checks[0].predicted == Poly(
        ZW_VARS, {(7, 0): 1, (5, 1): -7, (3, 2): 14}
    )
    assert spec.checks[0].slack == 4
    # n = 3: the z^{-1} w^2 term has coefficient 0 and is suppressed
    spec = predicted("a2", 3)
    assert spec.checks[0].predicted == Poly(ZW_VARS, {(3, 0): 1, (1, 1): -3})
    assert spec.checks[0].slack == 0
    # n = 2: exact-equality regime, the impossible displayed term is omitted
    spec = predicted("a2", 2)
    assert spec.checks[0].predicted == Poly(ZW_VARS, {(2, 0): 1, (0, 1): -2})
    assert spec.checks[0].slack == -1


def test_negative_exponent_guard():
    with pytest.raises(ValueError):
        _build_terms(XY_VARS, [(5, (-1, 2))], slack=3)
    # zero coefficient or exact-equality slack are the two legal escapes
    assert _build_terms(XY_VARS, [(0, (-1, 2))], slack=3).is_zero()
    assert _build_terms(XY_VARS, [(5, (-1, 2))], slack=-1).is_zero()


def test_range_guards():
    for tag, low in (("a2", 2), ("b2", 3), ("g2", 1)):
        with pytest.raises(ExpansionRangeError):
            predicted(tag, low - 1)


def test_b_family_structure():
    cases = [
        (6, {(6, 0): 1, (4, 1): -6, (4, 0): -6, (2, 2): 9}, {(0, 6): 1, (2, 4): -6}),
        # n = 3: the x^{-1} y^2 term of the shared head has coefficient 0 and is dropped
        (3, {(3, 0): 1, (1, 1): -3, (1, 0): -3}, {(0, 3): 1, (2, 1): -3}),
    ]
    for n, x_terms, y_terms in cases:
        px, py = predicted("b2", n).checks
        assert px.predicted == Poly(XY_VARS, x_terms)
        assert px.slack == n - 3
        assert py.predicted == Poly(XY_VARS, y_terms)
        assert py.slack == n - 1 and py.factor_exps == (3, 0) and py.factor_slack == n - 3


def test_g_family_y_leading():
    assert g2_y_check(4).predicted == Poly(XY_VARS, {(6, 0): 2})
    assert g2_y_check(5).predicted == Poly(XY_VARS, {(6, 1): 5})
    assert g2_y_leading_coef(6) == -2
    assert g2_y_leading_coef(7) == -7
    assert verify_leading("g2", 1).passed  # Y_1 = y matches its own bound


def test_g7_x_expansion_values():
    cases = [
        (7, {(7, 0): 1, (5, 1): -7, (3, 2): 14, (4, 1): -7, (5, 0): -21}),
        # n = 5, the lowest n of the expansion: the head's x y^2 term is present
        (5, {(5, 0): 1, (3, 1): -5, (1, 2): 5, (2, 1): -5, (3, 0): -15}),
    ]
    for n, terms in cases:
        check = predicted("g2", n).checks[0]
        assert check.predicted == Poly(XY_VARS, terms)
        assert check.slack == n - 3


@pytest.mark.parametrize("n", range(2, 26))
def test_verify_a(n):
    assert verify_leading("a2", n).passed


@pytest.mark.parametrize("n", range(3, 26))
def test_verify_b(n):
    assert verify_leading("b2", n).passed


@pytest.mark.parametrize("n", range(1, 21))
def test_verify_g(n):
    assert verify_leading("g2", n).passed


def test_g_slices():
    for n in range(5, 16):
        assert g2_x_slice_mismatch(n) is None
    with pytest.raises(ExpansionRangeError):
        g2_x_slice_mismatch(4)


def test_failure_reports_witness():
    # a deliberately wrong prediction must surface the offending term
    from foldmap.leading import ComponentCheck, check_component
    from foldmap.folding import fold

    bad = ComponentCheck(1, Poly(XY_VARS, {(6, 0): 1}), 0)
    ok, deg, witness = check_component(fold("b2", 6).first, bad)
    assert not ok and witness is not None and deg > 0


def _perturb_first(monkeypatch, extra: Poly):
    """Make leading.fold return F_n with extra added to its first coordinate."""

    def perturbed(tag, n):
        m = fold(tag, n)
        return PolyMap2(m.first + extra, m.second, m.model, m.label)

    monkeypatch.setattr(leading, "fold", perturbed)


def test_verify_leading_reports_a_wrong_map(monkeypatch):
    # a term above F_6's top degree is outside every slack
    _perturb_first(monkeypatch, Poly(XY_VARS, {(7, 0): 5}))
    report = verify_leading("b2", 6)
    assert not report.passed
    assert report.witness == (1, (7, 0), 5)
    assert report.residual_degrees == [7]  # the first failing check stops the run


def test_g2_x_slice_mismatch_reports_a_wrong_map(monkeypatch):
    n = 7
    extra = Poly(XY_VARS, {(0, n - 1): 3})
    _perturb_first(monkeypatch, extra)
    k, got, want = g2_x_slice_mismatch(n)
    assert k == n - 1 and got - want == extra
