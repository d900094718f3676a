"""CLI surfaces: subcommands, formats, exit codes, reproducibility."""

import json

import pytest

from foldmap.cli import main
from foldmap.folding import fold, half_fold
from foldmap.poly import PolyMap2
from foldmap.projective import N_DESK_BOUND
from foldmap.weyl import ORACLE_MAX_N


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_json_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "--family", "g2", "--n", "10")
    assert code == 0
    assert PolyMap2.from_json_obj(json.loads(out)) == fold("g2", 10)


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


@pytest.mark.parametrize("trials", ["0", "-5"])
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


def test_verify_rejects_empty_family_selection(capsys):
    code, out, err = run(capsys, "verify", "leading", "--family", "a2", "--max-n", "1")
    assert code == 64 and out == "" and "no a2 case" in err


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

    monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(suites.os, "cpu_count", lambda: cpus)
    cases = len(suites._descriptors("proj", suites.DEFAULTS))
    report = suites.run_suite("proj", {"jobs": 100000})
    assert created == {4: [4], 64: [cases], 1: [], None: []}[cpus]
    assert report.config["jobs"] == 100000
    assert report.exit_code == 0 and len(report.cases) == cases


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


def test_report_parallel_matches_serial(capsys):
    serial = run(capsys, "report", "--suite", "leading")
    parallel = run(capsys, "report", "--suite", "leading", "--jobs", "2")
    assert serial[0] == parallel[0] == 0
    a, b = json.loads(serial[1]), json.loads(parallel[1])
    assert (a["config"].pop("jobs"), b["config"].pop("jobs")) == (1, 2)
    assert a == b
