"""Verification suites and their reports: cases, verdicts, exit codes."""

from collections import Counter

from fractions import Fraction

from foldmap import automorphism, projective, suites
from foldmap.poly import XY, XY_VARS, Poly, PolyMap2
from foldmap.reports import FAIL, PASS, UNRESOLVED, CaseRecord, VerificationReport
from foldmap.suites import run_suite


def test_aut_suite_passes_every_case():
    report = run_suite("aut")
    kinds = Counter(case.case.split("[")[0] for case in report.cases)
    assert kinds == {"aut-solve": 27, "aut-member": 72}
    assert all(case.verdict == PASS for case in report.cases)
    assert report.exit_code == 0


def test_aut_solve_case_fails_on_a_wrong_claim(monkeypatch):
    # b2 at odd n has the parity flip; claim the trivial group of b2 n=4
    wrong = automorphism.claimed_group("b2", 4)
    assert wrong.order == 1
    monkeypatch.setattr(automorphism, "claimed_group", lambda tag, n: wrong)
    record = suites._case_aut_solve("b2", 3)
    assert record.verdict == FAIL
    assert record.witness == automorphism.solve_aut("b2", 3).solutions.to_json_obj()
    assert record.witness["order"] == 2


def test_aut_solve_case_is_unresolved_when_the_solver_stalls(monkeypatch):
    solve = automorphism.solve_aut
    monkeypatch.setattr(
        automorphism, "solve_aut", lambda tag, n: solve(tag, n, depth_cap=0)
    )
    record = suites._case_aut_solve("b2", 5)
    assert record.verdict == UNRESOLVED
    assert record.witness == solve("b2", 5, depth_cap=0).unresolved[:2]
    assert "depth cap" in record.to_json_obj()["witness"][0]["reason"]
    assert VerificationReport("aut", {}, [record]).exit_code == 2


def test_proj_case_fails_when_a_base_point_is_not_a_zero(monkeypatch):
    # (y^3, x^3) has the degree and a base-point count of g2 n=2, but [0:1:0]
    # is not a zero of its top forms, so only the certificate can reject it
    cubes = PolyMap2(Poly(XY_VARS, {(0, 3): 1}), Poly(XY_VARS, {(3, 0): 1}), XY)
    report = projective.IndeterminacyReport(points=[(0, 1, 0)])
    monkeypatch.setattr(suites, "fold_xy", lambda tag, n: cubes)
    monkeypatch.setattr(projective, "indeterminacy", lambda m: report)
    record = suites._case_proj("g2", 2)
    assert record.witness["got"] == record.witness["want"] == suites._proj_expected("g2", 2)
    assert record.verdict == FAIL


def test_report_exit_codes_and_case_fields():
    ok = CaseRecord("s", "ok", {}, PASS)
    stalled = CaseRecord("s", "stalled", {}, UNRESOLVED, [{"reason": "r"}], note="why")
    wrong = CaseRecord("s", "wrong", {}, FAIL, (1, (7, 0), Fraction(5, 2)))
    assert VerificationReport("s", {}, [ok]).exit_code == 0
    assert VerificationReport("s", {}, [ok, stalled]).exit_code == 2
    assert VerificationReport("s", {}, [stalled, wrong, ok]).exit_code == 1
    assert ok.to_json_obj() == {"suite": "s", "case": "ok", "inputs": {}, "verdict": PASS}
    assert stalled.to_json_obj()["witness"] == [{"reason": "r"}]
    assert stalled.to_json_obj()["note"] == "why"
    assert wrong.to_json_obj()["witness"] == [1, [7, 0], "5/2"]
    assert "note" not in wrong.to_json_obj()
    bare = CaseRecord("s", "bare", {}, FAIL)
    assert "witness" not in bare.to_json_obj()


def test_report_text_shows_witnesses_of_cases_that_did_not_pass():
    ok = CaseRecord("s", "ok", {}, PASS, "hidden")
    wrong = CaseRecord("s", "wrong", {}, FAIL, (1, (7, 0), Fraction(5, 2)))
    stalled = CaseRecord("s", "stalled", {}, UNRESOLVED, [{"reason": "r"}], note="why")
    bare = CaseRecord("s", "bare", {}, FAIL)
    assert VerificationReport("s", {}, [ok, wrong, stalled, bare]).to_text() == (
        "ok    ok\n"
        "FAIL  wrong  witness=(1, (7, 0), Fraction(5, 2))\n"
        "???   stalled  witness=[{'reason': 'r'}]  [why]\n"
        "FAIL  bare\n"
        "s: 1 pass, 2 fail, 1 unresolved"
    )
