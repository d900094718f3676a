"""CLI surfaces: subcommands, formats, exit codes, reproducibility."""

import gc
import json

import pytest

from foldmap import suites
from foldmap.cli import build_parser, main
from foldmap.folding import fold, fold_xy, half_fold
from foldmap.poly import PolyMap2
from foldmap.projective import N_DESK_BOUND
from foldmap.reports import VerificationReport
from foldmap.weyl import ORACLE_MAX_N, ORACLE_MAX_TRIALS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_json_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "--family", "g2", "--n", "10")
    assert code == 0
    assert PolyMap2.from_json_obj(json.loads(out)) == fold("g2", 10)


@pytest.mark.parametrize(
    "argv, want",
    [
        (("--family", "a2", "--n", "7"), lambda: fold("a2", 7)),
        (("--family", "b2", "--n", "7"), lambda: fold("b2", 7)),
        (("--family", "g2", "--n", "7"), lambda: fold("g2", 7)),
        (("--family", "a2", "--n", "5", "--model", "xy"), lambda: fold_xy("a2", 5)),
        (("--family", "bsqrt2"), lambda: half_fold("b_sqrt2")),
        (("--family", "gsqrt3"), lambda: half_fold("g_sqrt3")),
    ],
)
def test_gen_json_is_the_plain_dump(capsys, argv, want):
    # gen skips json.dumps' cycle check; the bytes must not change
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0 and out == json.dumps(want().to_json_obj()) + "\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_gen_json_pauses_the_collector_and_restores_its_state(capsys, monkeypatch, enabled):
    want = json.dumps(fold("b2", 5).to_json_obj()) + "\n"
    seen = []
    to_json_obj = PolyMap2.to_json_obj

    def spy(m):
        seen.append(gc.isenabled())
        return to_json_obj(m)

    monkeypatch.setattr(PolyMap2, "to_json_obj", spy)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert run(capsys, "gen", "--family", "b2", "--n", "5") == (0, want, "")
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    # the map's json tree is built with the collector paused
    assert seen == [False]


def test_gen_latex_row(capsys):
    code, out, _ = run(capsys, "gen", "--family", "g2", "--n", "2", "--format", "latex")
    assert code == 0
    assert out.strip() == (
        "2 & x^2 - 2 x - 2 y - 6 & -2 x^3 + 6 x y + y^2 + 18 x + 10 y + 18 \\\\"
    )


def test_gen_half_fold(capsys):
    code, out, _ = run(capsys, "gen", "--family", "bsqrt2")
    assert code == 0
    assert PolyMap2.from_json_obj(json.loads(out)) == half_fold("b_sqrt2")


@pytest.mark.parametrize(
    "argv", [("gen", "--family", "gsqrt3", "--n", "3"), ("proj", "--family", "bsqrt2", "--n", "7")]
)
def test_half_fold_rejects_n(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert "--n does not apply" in err and "single fixed maps" in err


def test_proj_half_fold(capsys):
    code, out, _ = run(capsys, "proj", "--family", "bsqrt2")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "bsqrt2" and obj["n"] is None and obj["degree"] == 2


def test_gen_and_proj_take_the_families_then_the_half_folds():
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    for name in ("gen", "proj"):
        (family,) = [a for a in commands.choices[name]._actions if a.dest == "family"]
        assert family.choices == ("a2", "b2", "g2", "bsqrt2", "gsqrt3")


def test_gen_xy_model(capsys):
    code, out, _ = run(capsys, "gen", "--family", "a2", "--n", "2", "--model", "xy")
    assert code == 0
    obj = json.loads(out)
    assert obj["model"] == "XY"


def test_gen_requires_n(capsys):
    code, _, err = run(capsys, "gen", "--family", "a2")
    assert code == 64 and "--n" in err


def test_usage_error_codes(capsys):
    assert run(capsys, "gen", "--family", "f4", "--n", "1")[0] == 64
    assert run(capsys, "nonsense")[0] == 64
    assert run(capsys, "bench")[0] == 64  # benchmarks live in perfbench/
    assert run(capsys, "report", "--suite", "proj", "--format", "latex")[0] == 64


def test_one_parser_serves_every_main_call_without_leaking_defaults(capsys):
    assert build_parser() is build_parser()
    json_b3 = json.dumps(fold("b2", 3).to_json_obj()) + "\n"
    code, out, _ = run(capsys, "gen", "--family", "b2", "--n", "3", "--format", "text")
    assert code == 0 and out != json_b3
    assert run(capsys, "gen", "--family", "b2", "--n", "3") == (0, json_b3, "")
    assert run(capsys, "gen", "--family", "a2", "--n", "2", "--model", "xy")[0] == 0
    code, out, _ = run(capsys, "gen", "--family", "a2", "--n", "2")
    assert code == 0 and json.loads(out)["model"] == "ZW"
    assert run(capsys, "gen", "--family", "f4", "--n", "1")[0] == 64
    assert run(capsys, "gen", "--family", "b2", "--n", "3") == (0, json_b3, "")


def test_verify_rejects_unknown_family_before_running(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the suite ran for an unknown --family")

    monkeypatch.setattr(suites, "run_suite", refuse)
    code, out, err = run(capsys, "verify", "commute", "--family", "zz", "--max-n", "10")
    assert code == 64 and out == "" and "zz" in err


def test_aut_solve_and_claimed(capsys):
    code, out, _ = run(capsys, "aut", "--family", "b2", "--n", "5", "--solve")
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 2 and obj["label"] == "mu2" and not obj["unresolved"]
    code, out, _ = run(capsys, "aut", "--family", "a2", "--n", "7", "--claimed")
    obj = json.loads(out)
    assert code == 0 and obj["order"] == 6 and obj["label"] == "S3"


def test_proj_json(capsys):
    code, out, _ = run(capsys, "proj", "--family", "g2", "--n", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "family": "g2",
        "n": 4,
        "degree": 6,
        "morphism": False,
        "indeterminacy": [[0, 1, 0]],
        "unresolved_factor_degree": 0,
    }


def test_proj_requires_n(capsys):
    code, out, err = run(capsys, "proj", "--family", "g2")
    assert code == 64 and "--n" in err and out == ""


def test_proj_rejects_constant_map(capsys):
    code, out, err = run(capsys, "proj", "--family", "a2", "--n", "0")
    assert code == 64 and out == ""
    assert "a constant map has no forms at infinity" in err


@pytest.mark.parametrize("trials", ["0", "-5", str(ORACLE_MAX_TRIALS + 1)])
def test_oracle_rejects_nonpositive_trials(capsys, trials):
    code, out, err = run(capsys, "oracle", "--family", "a2", "--n", "3", "--trials", trials)
    assert code == 64 and "trials" in err and out == ""


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_oracle_rejects_unusable_tol(capsys, tol):
    code, out, err = run(capsys, "oracle", "--family", "a2", "--n", "3", "--tol", tol)
    assert code == 64 and "tol" in err and out == ""


def test_oracle_json(capsys):
    code, out, _ = run(
        capsys, "oracle", "--family", "a2", "--n", "3",
        "--trials", "40", "--tol", "1e-7", "--seed", "5",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and obj["max_residual"] < 1e-7


def test_verify_commute_exit_zero(capsys):
    code, out, _ = run(
        capsys, "verify", "commute", "--max-n", "3", "--format", "text"
    )
    assert code == 0
    assert "0 fail" in out


def test_verify_leading_family_filter(capsys):
    code, out, _ = run(
        capsys, "verify", "leading", "--family", "b2", "--max-n", "8"
    )
    assert code == 0
    obj = json.loads(out)
    assert all(c["inputs"]["family"] == "b2" for c in obj["cases"])


@pytest.mark.parametrize(
    "what,max_n,smallest",
    [("commute", "0", 2), ("commute", "1", 2), ("leading", "0", 1), ("leading", "-2", 1)],
)
def test_verify_rejects_max_n_below_suite_start(capsys, what, max_n, smallest):
    code, out, err = run(capsys, "verify", what, "--max-n", max_n)
    assert code == 64 and out == ""
    assert f"--max-n >= {smallest}" in err


@pytest.mark.parametrize("what,max_n", [("commute", "15"), ("leading", "201")])
def test_verify_rejects_max_n_above_desk_bound(capsys, what, max_n):
    code, out, err = run(capsys, "verify", what, "--max-n", max_n)
    assert code == 64 and out == ""
    assert f"desk bound {N_DESK_BOUND}" in err


def test_verify_max_n_bounds_follow_desk_bound():
    from foldmap.suites import LARGEST_MAX_N

    top = LARGEST_MAX_N["commute"]
    assert top**2 <= N_DESK_BOUND < (top + 1) ** 2
    assert LARGEST_MAX_N["leading"] == N_DESK_BOUND
    assert top >= 8  # the benchmark runs verify commute --max-n 8


def test_verify_takes_no_seed(capsys):
    # the seed reaches only the oracle suite, which verify never runs
    code, out, err = run(capsys, "verify", "commute", "--seed", "1")
    assert code == 64 and out == ""
    assert "unrecognized arguments: --seed 1" in err


def test_verify_rejects_empty_family_selection(capsys):
    code, out, err = run(capsys, "verify", "leading", "--family", "a2", "--max-n", "1")
    assert code == 64 and out == "" and "no a2 case" in err


def test_verify_family_runs_only_that_family(capsys, monkeypatch):
    ran = []  # the inputs.family of every case run
    real = suites.run_case

    def counting(descriptor):
        record = real(descriptor)
        ran.append(record.inputs.get("family"))
        return record

    monkeypatch.setattr(suites, "run_case", counting)
    code, out, _ = run(capsys, "verify", "commute", "--family", "a2", "--max-n", "4")
    assert code == 0 and ran and set(ran) == {"a2"}
    assert len(json.loads(out)["cases"]) == len(ran)
    ran.clear()
    code, out, err = run(capsys, "verify", "leading", "--family", "b2", "--max-n", "2")
    assert code == 64 and out == "" and "no b2 case" in err
    assert ran == []


@pytest.mark.parametrize(
    "what,max_n,config",
    [
        ("commute", "4", {"commute_max": 4}),
        ("leading", "7", {"leading_max_a": 7, "leading_max_b": 7, "leading_max_g": 7}),
    ],
)
def test_verify_family_equals_the_filtered_report(capsys, what, max_n, config):
    """--family prints the full report with only that family's cases."""
    full = suites.run_suite(what, {"seed": 0, "jobs": 1, **config})
    for tag in ("a2", "b2", "g2"):
        cases = [c for c in full.cases if c.inputs.get("family") == tag]
        want = VerificationReport(full.suite, full.config, cases).to_json_obj()
        code, out, _ = run(capsys, "verify", what, "--family", tag, "--max-n", max_n)
        assert code == 0 and out == json.dumps(want) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--family", "a2", "--n", "201"),
        ("gen", "--family", "bsqrt2", "--n", "201"),
        ("proj", "--family", "g2", "--n", "1000"),
        ("aut", "--family", "g2", "--n", "201", "--solve"),
        ("aut", "--family", "b2", "--n", "700", "--claimed"),
        ("oracle", "--family", "a2", "--n", "500"),
    ],
)
def test_n_above_desk_bound_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert f"desk bound {N_DESK_BOUND}" in err


@pytest.mark.parametrize("family,n", [("a2", "15"), ("b2", "11"), ("g2", "7")])
def test_oracle_above_numerical_bound_is_usage_error(capsys, family, n):
    code, out, err = run(capsys, "oracle", "--family", family, "--n", n)
    assert code == 64 and out == ""
    assert f"numerical bound {ORACLE_MAX_N[family]}" in err


@pytest.mark.parametrize("family,n", [("a2", "14"), ("b2", "10"), ("g2", "6")])
def test_oracle_passes_at_numerical_bound(capsys, family, n):
    assert int(n) == ORACLE_MAX_N[family]
    code, out, _ = run(capsys, "oracle", "--family", family, "--n", n)
    assert code == 0 and json.loads(out)["pass"] is True


def test_run_suite_rejects_oracle_max_above_numerical_bound():
    from foldmap.suites import run_suite

    with pytest.raises(ValueError, match="numerical bound 6"):
        run_suite("oracle", {"oracle_max": 7})


def test_desk_bound_admits_benchmark_sizes(capsys):
    assert N_DESK_BOUND >= 200
    code, out, _ = run(capsys, "aut", "--family", "a2", "--n", str(N_DESK_BOUND), "--claimed")
    assert code == 0 and json.loads(out)["order"] == 2


def test_report_reproducible(capsys):
    args = ("report", "--suite", "oracle", "--seed", "3")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_text_summary(capsys):
    code, out, _ = run(capsys, "report", "--suite", "proj", "--format", "text")
    assert code == 0
    assert "fail" in out.splitlines()[-1]


def test_invalid_config_is_usage_error(capsys):
    code, _, err = run(capsys, "report", "--suite", "oracle", "--jobs", "0")
    assert code == 64 and "error" in err


def test_run_suite_rejects_unknown_name():
    import pytest

    from foldmap.suites import run_suite

    with pytest.raises(ValueError):
        run_suite("bogus")


def test_run_suite_rejects_nonpositive_trials():
    from foldmap.suites import run_suite

    with pytest.raises(ValueError):
        run_suite("oracle", {"trials": 0})
    with pytest.raises(ValueError, match=f"trials <= {ORACLE_MAX_TRIALS}"):
        run_suite("oracle", {"trials": ORACLE_MAX_TRIALS + 1})


@pytest.mark.parametrize("tol", [0, -1, float("nan"), float("inf")])
def test_run_suite_rejects_unusable_tol(tol):
    from foldmap.suites import run_suite

    with pytest.raises(ValueError):
        run_suite("proj", {"tol": tol})


@pytest.mark.parametrize("cpus", [4, 64, 1, None])
def test_run_suite_caps_pool_workers(monkeypatch, cpus):
    """--jobs is capped by the cores and the cases; one worker runs serially."""
    from foldmap import suites

    created = []

    class RecordingPool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    import concurrent.futures

    # run_suite imports the pool from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(suites.os, "cpu_count", lambda: cpus)
    cases = len(suites._descriptors("proj", suites.DEFAULTS))
    report = suites.run_suite("proj", {"jobs": 100000})
    assert created == {4: [4], 64: [cases], 1: [], None: []}[cpus]
    assert report.config["jobs"] == 100000
    assert report.exit_code == 0 and len(report.cases) == cases


def test_cli_import_leaves_multiprocessing_unloaded():
    """Only --jobs > 1 needs the process pool, so importing the CLI does
    not load multiprocessing."""
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, foldmap.cli; print('multiprocessing' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_module_entry_point():
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "foldmap", "gen", "--family", "b2", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert PolyMap2.from_json_obj(json.loads(out.stdout)) == fold("b2", 2)


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--family", "a2", "--n", "60"),
        ("report", "--suite", "proj"),
        ("aut", "--family", "a2", "--n", "7", "--claimed"),
    ],
)
def test_closed_stdout_exits_141_without_traceback(argv):
    import os
    import subprocess
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "foldmap", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert out.returncode == 141
    assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr


def test_report_parallel_matches_serial(capsys):
    serial = run(capsys, "report", "--suite", "leading")
    parallel = run(capsys, "report", "--suite", "leading", "--jobs", "2")
    assert serial[0] == parallel[0] == 0
    a, b = json.loads(serial[1]), json.loads(parallel[1])
    assert (a["config"].pop("jobs"), b["config"].pop("jobs")) == (1, 2)
    assert a == b
