"""The benchmark's workloads and the checks on their outputs.

A workload is a fixed list of foldmap commands.  An op is one suite case
of a `report`/`verify` command and one `gen` command.  The seed reaches
the program only as the oracle suite's `--seed`; it never changes the
amount of exact work.

Canonical outputs are checked against sha256 digests recorded in
expected.json (see record_expected.py).  A report's digest covers its exact
stdout; per-case digests name the cases behind a mismatch.  The oracle
report depends on the seed, so only its verdicts are checked.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

WORKLOADS = ("aut", "generate", "battery")

# generate: every n up to these bounds, in this order
GEN_TOPS = (("g2", 90), ("b2", 150), ("a2", 200))


@dataclass(frozen=True)
class Command:
    argv: tuple
    key: str          # names the command's entry in expected.json
    label: str = ""   # expected map label, for gen commands

    @property
    def is_gen(self) -> bool:
        return self.argv[0] == "gen"


def commands(workload: str, seed: int) -> list:
    if workload == "aut":
        return [Command(("report", "--suite", "aut"), "report --suite aut")]
    if workload == "battery":
        return [
            Command(("verify", "commute", "--max-n", "8"), "verify commute --max-n 8"),
            Command(("report", "--suite", "leading"), "report --suite leading"),
            Command(("report", "--suite", "proj"), "report --suite proj"),
            Command(("report", "--suite", "oracle", "--seed", str(seed)), "report --suite oracle"),
        ]
    if workload == "generate":
        out = []
        for family, top in GEN_TOPS:
            for n in range(1, top + 1):
                argv = ("gen", "--family", family, "--n", str(n), "--format", "json")
                out.append(Command(argv, " ".join(argv), f"{family.upper()}:{n}"))
        argv = ("gen", "--family", "a2", "--n", "100", "--model", "xy")
        out.append(Command(argv, " ".join(argv), "A2:100"))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def digested(cmd: Command) -> bool:
    """Whether cmd's output is pinned by a digest in expected.json."""
    if cmd.is_gen:
        return "xy" in cmd.argv or any(cmd.label == f"{f.upper()}:{top}" for f, top in GEN_TOPS)
    return cmd.key != "report --suite oracle"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def case_digest(case: dict) -> str:
    return sha256(json.dumps(case, sort_keys=True))


def expected_ops(cmd: Command, expected: dict) -> int:
    return 1 if cmd.is_gen else expected[cmd.key]["ops"]


def check(cmd: Command, rc: int, stdout: str, expected: dict):
    """Judge one command's output: (ops, failed ops, problem messages).

    A gen op fails on a nonzero exit, output that does not parse, a wrong
    label or a digest mismatch.  A suite case fails when its verdict is not
    `pass` or its digest differs; when a failure cannot be pinned on cases
    (unparseable output, wrong case count, an exit code no case explains,
    a report digest mismatch with every case matching) every case fails.
    """
    spec = expected.get(cmd.key, {})
    where = " ".join(cmd.argv)
    if cmd.is_gen:
        problems = []
        if rc != 0:
            problems.append(f"{where}: exit {rc}")
        try:
            obj = json.loads(stdout)
        except ValueError:
            problems.append(f"{where}: output does not parse")
        else:
            if not isinstance(obj, dict) or obj.get("label") != cmd.label:
                problems.append(f"{where}: output is not the map {cmd.label}")
        if "sha256" in spec and sha256(stdout) != spec["sha256"]:
            problems.append(f"{where}: digest mismatch")
        return 1, int(bool(problems)), problems

    ops = spec["ops"]
    try:
        cases = json.loads(stdout)["cases"]
        names = [c["case"] for c in cases]
        verdicts = [c["verdict"] for c in cases]
    except (ValueError, KeyError, TypeError):
        return ops, ops, [f"{where}: output does not parse"]
    if len(cases) != ops:
        return ops, ops, [f"{where}: {len(cases)} cases, expected {ops}"]
    bad = {}
    for name, verdict in zip(names, verdicts):
        if verdict != "pass":
            bad[name] = f"verdict {verdict}"
    if "sha256" in spec and sha256(stdout) != spec["sha256"]:
        mismatched = [
            c["case"] for c in cases if case_digest(c) != spec["cases"].get(c["case"])
        ]
        if not mismatched:
            return ops, ops, [f"{where}: digest mismatch outside the cases"]
        for name in mismatched:
            bad.setdefault(name, "digest mismatch")
    if rc != 0 and not bad:
        return ops, ops, [f"{where}: exit {rc} with every case passing"]
    return ops, len(bad), [f"{where}: {name}: {why}" for name, why in sorted(bad.items())]
