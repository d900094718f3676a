"""Verification suites: the aut suite's cases and verdicts."""

from collections import Counter

from foldmap import automorphism, suites
from foldmap.reports import FAIL, PASS
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
