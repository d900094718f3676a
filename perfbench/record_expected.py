"""Record the digests of the canonical outputs into expected.json.

    python3 perfbench/record_expected.py

Run it only on a commit whose outputs are known to be right: every later
benchmark run checks its outputs against what this writes.
"""

from __future__ import annotations

import json
import sys

import one_pass
import workloads


def main() -> int:
    foldmap = one_pass.import_foldmap()
    expected = {}
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, seed=0):
            if cmd.is_gen and not workloads.digested(cmd):
                continue
            rc, out = one_pass.issue(foldmap.cli, cmd.argv)
            if rc != 0:
                raise SystemExit(f"{cmd.key}: exit {rc}; refusing to record")
            entry = {}
            if not cmd.is_gen:
                cases = json.loads(out)["cases"]
                entry["ops"] = len(cases)
            if workloads.digested(cmd):
                entry["sha256"] = workloads.sha256(out)
                if not cmd.is_gen:
                    entry["cases"] = {c["case"]: workloads.case_digest(c) for c in cases}
            expected[cmd.key] = entry
    path = one_pass.HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(expected)} entries to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
