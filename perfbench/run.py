"""foldmap's benchmark: real foldmap commands, end to end and layer by layer.

    python3 perfbench/run.py --workload {aut,generate,battery,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Each pass of a workload runs in a fresh interpreter (one_pass.py), so the
family cache starts cold, as it does for every user command.  Passes run
one after another, on one thread, until the next one would end after
`--seconds` (an untraced run makes at least two); every metric is the
median over the passes.

Untraced (`--trace 0`), it prints these end-to-end metrics:

  setup_s      spawning the interpreter until the first command is issued
  wall_s       all of the workload's commands, from a cold cache
  op_p50_ms    median op latency (op: one suite case, or one gen command;
               its latency is its median over the passes)
  op_tail_ms   op latency at the highest percentile with >= 10 ops beyond
  peak_rss_mb  peak resident memory of the workload process
  fail_frac    failed ops over attempted ops

The JSON result carries setup_s, wall_s and peak_rss_mb.  op_p50_ms and
op_tail_ms swing with the host's speed more than the bound a regression
check can allow, and fail_frac is 0 on a correct tree, so those three are
printed only.  Traced (`--trace 1`), it alternates untraced and traced
passes and reports the per-layer metrics of layers.py plus
trace.overhead, traced wall_s over untraced wall_s.

Every output is checked (workloads.py).  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# one run must end within this, including every pass it starts
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# the end-to-end metrics of the JSON result, as listed in BENCHMARK.json
RESULT_METRICS = ("setup_s", "wall_s", "peak_rss_mb")


def tail_rank(n: int, beyond: int = 10):
    """(p, rank): the highest whole percentile p whose nearest-rank sample,
    the rank-th smallest of n, has at least `beyond` samples above it."""
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= beyond:
            return p, rank
    raise ValueError(f"a tail percentile needs more than {beyond} ops, got {n}")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".fill", ".overhead")):
        return "ratio"
    return "count"


def environment(first_pass: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "kernel_backend": first_pass["kernel_backend"],
        "rational_backend": first_pass["rational_backend"],
    }


def one_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "one_pass.py"), workload, str(seed), "1" if traced else "0"]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass of {workload} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["t_first"] - spawned
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Untraced passes, or (untraced, traced) pairs, until `seconds` is used.

    An untraced run makes at least two passes, so that no metric rests on
    one pass of a workload that takes more than half of `seconds`.
    """
    started = time.monotonic()
    deadline = started + DEADLINE_S
    plain, traced = [], []
    while True:
        step_start = time.monotonic()
        plain.append(one_pass(workload, seed, False, deadline))
        if trace:
            traced.append(one_pass(workload, seed, True, deadline))
        now = time.monotonic()
        enough = len(plain) >= (1 if trace else 2)
        if enough and now + (now - step_start) > started + seconds:
            return plain, traced


def summarize(plain: list) -> dict:
    """End-to-end metrics of a run: medians over its untraced passes.

    Every pass issues the same ops in the same order, so an op's latency is
    its median over the passes; op_p50_ms and op_tail_ms are taken over
    those per-op medians, which damps host noise that hits one pass.
    """
    per_op = sorted(statistics.median(lat) for lat in zip(*(p["op_s"] for p in plain)))
    return {
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": per_op[tail_rank(len(per_op))[1] - 1] * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def layer_metrics(plain: list, traced: list) -> dict:
    out = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    out["trace.overhead"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain)
    )
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    plain, traced = run_passes(workload, seed, seconds, trace)
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    e2e = summarize(plain)
    n_ops = len(plain[0]["op_s"])
    tail_p = tail_rank(n_ops)[0]

    print(f"workload {workload}, seed {seed}: {len(plain)} passes"
          + (f" + {len(traced)} traced" if trace else "")
          + f", {n_ops} ops per pass")
    print("env: " + json.dumps(environment(plain[0])))
    if trace:
        metrics = {name: (value, layer_unit(name)) for name, value in layer_metrics(plain, traced).items()}
        printed = metrics
    else:
        printed = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
        metrics = {name: printed[name] for name in RESULT_METRICS}
        print(f"  (op_tail_ms is p{tail_p} of {n_ops} ops per pass,"
              f" {n_ops - tail_rank(n_ops)[1]} ops beyond it)")
    for name, (value, unit) in printed.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':40s} {failed / attempted:14.6g} ({failed} of {attempted} ops)")
    for msg in problems[:40]:
        print(f"  FAILED {msg}")
    if len(problems) > 40:
        print(f"  ... {len(problems) - 40} more failures")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "foldmap" / "cli.py").is_file():
        print(f"no foldmap sources under {ROOT / 'src'}; run from a foldmap checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"benchmark error on {name}: {exc}", file=sys.stderr)
            return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
