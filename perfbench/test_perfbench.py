"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import one_pass  # noqa: E402
import workloads  # noqa: E402
from run import summarize, tail_rank  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402


# -- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize("n, want", [(99, (89, 89)), (301, (96, 289)), (441, (97, 428)), (11, (9, 1))])
def test_tail_rank_known_sizes(n, want):
    assert tail_rank(n) == want


def test_tail_rank_is_highest_percentile_with_ten_beyond():
    for n in range(11, 1200):
        p, rank = tail_rank(n)
        assert n - rank >= 10
        if p < 99:
            assert n - -(-(p + 1) * n // 100) < 10


def test_tail_rank_needs_eleven_ops():
    with pytest.raises(ValueError):
        tail_rank(10)


def test_op_latency_is_its_median_over_passes():
    # 11 ops; op 10 is slow in one pass only, op 9 in two of three
    base = [0.001 * (i + 1) for i in range(11)]
    passes = []
    for k in range(3):
        ops = list(base)
        if k == 0:
            ops[10] = 1.0
        if k < 2:
            ops[9] = 2.0
        passes.append({"setup_s": 0.1 + k, "wall_s": 1.0 + k, "op_s": ops, "peak_rss_mb": 30.0})
    got = summarize(passes)
    assert got["op_p50_ms"] == pytest.approx(6.0)
    assert got["op_tail_ms"] == pytest.approx(1.0)  # p9 of 11 ops: the fastest
    assert (got["setup_s"], got["wall_s"], got["peak_rss_mb"]) == (1.1, 2.0, 30.0)


# -- tracer -------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def work(self, seconds):
        self.t += seconds


def test_self_time_with_nested_children():
    clock = FakeClock()
    tr = Tracer(clock)

    def m():
        clock.work(4)

    def leaf_l():
        clock.work(3)
        m_w()

    def b():
        clock.work(2)
        l_w()

    def a():
        clock.work(1)
        b_w()
        clock.work(5)

    m_w = tr.leaf(m, "M")
    l_w = tr.leaf(leaf_l, "L")
    b_w = tr.span(b, "B")
    a_w = tr.span(a, "A")
    a_w()
    # spans subtract child spans only; leaves subtract every nested call;
    # leaves are keyed under their nearest enclosing span
    assert tr.stats == {
        (ROOT, "A"): [1, 15.0, 6.0],
        ("A", "B"): [1, 9.0, 9.0],
        ("B", "L"): [1, 7.0, 3.0],
        ("B", "M"): [1, 4.0, 4.0],
    }
    assert tr.totals("M") == (1, 4.0, 4.0)


def test_wrappers_are_transparent():
    tr = Tracer()

    def f(x, *, k=1):
        return [x, k]

    def boom():
        raise KeyError("boom")

    for wrap in (tr.leaf, tr.span):
        wrapped = wrap(f, "f")
        assert wrapped(3, k=2) == f(3, k=2)
        assert wrapped.__name__ == "f"
        with pytest.raises(KeyError, match="boom"):
            wrap(boom, "boom")()
    # an exception leaves the stacks as they were
    assert len(tr._nested) == 1 and len(tr._spans) == 1
    assert tr.totals("boom")[0] == 2


def test_patch_and_restore_operators():
    tr = Tracer()

    class Num:
        def __init__(self, v):
            self.v = v

        def __add__(self, other):
            return Num(self.v + other.v)

    original = vars(Num)["__add__"]
    tr.patch(Num, "__add__", tr.leaf(original, "add"))
    assert (Num(2) + Num(3)).v == 5
    tr.restore()
    assert vars(Num)["__add__"] is original
    assert tr.totals("add")[0] == 1


def test_rational_ops_absent_for_c_types():
    assert layers.rational_ops_wrappable(Fraction)
    assert not layers.rational_ops_wrappable(int)  # a C type, like gmpy2's mpq
    tr = Tracer()
    assert "rationals.ops" not in layers.metrics(tr, rationals_wrapped=False)
    assert layers.metrics(tr, rationals_wrapped=True)["rationals.ops"] == 0


def test_traced_foldmap_output_is_unchanged_and_restored():
    foldmap = one_pass.import_foldmap()
    argv = ("report", "--suite", "proj")
    plain = one_pass.issue(foldmap.cli, argv)
    modules = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("foldmap")}
    classes = {c: dict(vars(c)) for c in (foldmap.Poly, foldmap.CycloElem, Fraction)}
    tr = Tracer()
    problems = []
    assert layers.install(tr, problems)
    assert problems == []
    traced = one_pass.issue(foldmap.cli, argv)
    tr.restore()
    assert traced == plain
    assert tr.totals("folding.fold")[0] > 0
    for owner, before in [(sys.modules[n], d) for n, d in modules.items()] + list(classes.items()):
        after = vars(owner)
        assert all(after[k] is v for k, v in before.items()), owner


def test_missing_boundary_is_reported(monkeypatch):
    one_pass.import_foldmap()
    monkeypatch.setattr(
        layers, "BOUNDARIES",
        (layers.Boundary("weyl.gone", "foldmap.weyl", ("no_such_function",), layers.SPAN),),
    )
    tr = Tracer()
    problems = []
    layers.install(tr, problems)
    tr.restore()
    assert problems == ["boundary weyl.gone: foldmap.weyl.no_such_function not found (renamed?)"]


def test_unknown_case_kind_is_reported():
    tr = Tracer()
    tr.stats[(ROOT, "suites.case.new_kind")] = [1, 0.1, 0.1]
    assert "case kind new_kind has no per-layer metric (renamed?)" in layers.unhit(tr, "aut", False)


# -- output checks and fail_frac ---------------------------------------------


def _report(*verdicts):
    cases = [{"case": f"c{i}", "verdict": v} for i, v in enumerate(verdicts)]
    return json.dumps({"suite": "s", "cases": cases})


REPORT = workloads.Command(("report", "--suite", "s"), "report --suite s")
GEN = workloads.Command(("gen", "--family", "g2", "--n", "3"), "gen g2 3", "G2:3")


def _expected(stdout):
    cases = json.loads(stdout)["cases"]
    return {
        REPORT.key: {
            "ops": len(cases),
            "sha256": workloads.sha256(stdout),
            "cases": {c["case"]: workloads.case_digest(c) for c in cases},
        }
    }


def test_matching_report_has_no_failures():
    out = _report("pass", "pass", "pass")
    assert workloads.check(REPORT, 0, out, _expected(out)) == (3, 0, [])


def test_unresolved_verdict_fails_its_case():
    good = _report("pass", "pass", "pass")
    out = _report("pass", "unresolved", "pass")
    ops, failed, problems = workloads.check(REPORT, 2, out, _expected(good))
    assert (ops, failed) == (3, 1)
    assert problems == ["report --suite s: c1: verdict unresolved"]


def test_digest_mismatch_fails_and_names_the_case():
    good = _report("pass", "pass", "pass")
    out = json.dumps({"suite": "s", "cases": [
        {"case": "c0", "verdict": "pass"},
        {"case": "c1", "verdict": "pass", "note": "changed"},
        {"case": "c2", "verdict": "pass"},
    ]})
    ops, failed, problems = workloads.check(REPORT, 0, out, _expected(good))
    assert (ops, failed) == (3, 1)
    assert problems == ["report --suite s: c1: digest mismatch"]


def test_digest_mismatch_outside_cases_fails_every_case():
    good = _report("pass", "pass")
    out = good.replace('"suite": "s"', '"suite": "t"')
    assert workloads.check(REPORT, 0, out, _expected(good))[:2] == (2, 2)


def test_nonzero_exit_fails():
    good = _report("pass", "pass")
    # a report whose exit code no case explains fails every case
    assert workloads.check(REPORT, 1, good, _expected(good))[:2] == (2, 2)
    gen_out = json.dumps({"label": "G2:3"})
    assert workloads.check(GEN, 0, gen_out, {})[:2] == (1, 0)
    assert workloads.check(GEN, 64, "", {})[:2] == (1, 1)


def test_unparseable_output_fails_every_case():
    good = _report("pass", "pass")
    assert workloads.check(REPORT, 0, "Traceback", _expected(good))[:2] == (2, 2)
    assert workloads.check(GEN, 0, "{", {})[:2] == (1, 1)
