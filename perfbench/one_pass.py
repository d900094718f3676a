"""One pass of one workload, in the fresh interpreter that runs this file.

    python3 perfbench/one_pass.py WORKLOAD SEED TRACE

Imports foldmap from the checkout's src/, issues the workload's commands
in-process through foldmap.cli.main, checks every output, and prints one
JSON line with the timings, the op latencies, the failures and, when TRACE
is 1, the per-layer metrics.  run.py spawns one of these per pass, so
every pass starts with foldmap's family cache cold, as every user command
does.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import layers
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_foldmap():
    sys.path.insert(0, str(SRC))
    import foldmap
    import foldmap.cli

    origin = Path(foldmap.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"foldmap was imported from {origin}, not from {SRC}")
    return foldmap


class OpTimer:
    """Times every suites.run_case call: the op of a suite command."""

    def __init__(self, suites):
        self.latencies = []
        self._suites = suites
        self._original = suites.run_case

    def __enter__(self):
        original, latencies, clock = self._original, self.latencies, time.perf_counter

        def run_case(descriptor):
            start = clock()
            try:
                return original(descriptor)
            finally:
                latencies.append(clock() - start)

        self._suites.run_case = run_case
        return self

    def __exit__(self, *exc):
        self._suites.run_case = self._original


def issue(cli, argv):
    """Run one command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


def run_commands(cli, suites, cmds, expected):
    """Issue every command; returns (op latencies in s, attempted, failed, problems)."""
    latencies, attempted, failed, problems = [], 0, 0, []
    with OpTimer(suites) as timer:
        for cmd in cmds:
            del timer.latencies[:]
            start = time.perf_counter()
            try:
                rc, out = issue(cli, cmd.argv)
            except Exception as exc:  # an op that raises fails; the pass goes on
                ops = workloads.expected_ops(cmd, expected)
                attempted += ops
                failed += ops
                problems.append(f"{' '.join(cmd.argv)}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            latencies.extend([elapsed] if cmd.is_gen else timer.latencies)
            ops, bad, msgs = workloads.check(cmd, rc, out, expected)
            attempted += ops
            failed += bad
            problems.extend(msgs)
    return latencies, attempted, failed, problems


def main(argv):
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    foldmap = import_foldmap()
    cli, suites = foldmap.cli, sys.modules["foldmap.suites"]
    expected = json.loads((HERE / "expected.json").read_text())
    cmds = workloads.commands(workload, seed)
    problems = []
    tracer = None
    if trace:
        tracer = Tracer()
        rationals_wrapped = layers.install(tracer, problems)
        tracer.start_gc_clock()

    t_first = time.monotonic()
    try:
        latencies, attempted, failed, msgs = run_commands(cli, suites, cmds, expected)
    finally:
        if tracer is not None:
            tracer.restore()
    wall = time.monotonic() - t_first
    problems.extend(msgs)

    rat_type = layers.rational_type()
    result = {
        # CLOCK_MONOTONIC is shared by all processes, so run.py can
        # subtract its own spawn time from this
        "t_first": t_first,
        "wall_s": wall,
        "op_s": latencies,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel_backend": foldmap.backend_name(),
        "rational_backend": f"{rat_type.__module__}.{rat_type.__qualname__}",
    }
    if tracer is not None:
        result["layers"] = layers.metrics(tracer, rationals_wrapped)
        result["problems"].extend(layers.unhit(tracer, workload, rationals_wrapped))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
