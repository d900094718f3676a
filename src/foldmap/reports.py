"""Report records shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
UNRESOLVED = "unresolved"


@dataclass
class CaseRecord:
    suite: str
    case: str
    inputs: dict
    verdict: str
    witness: object = None
    note: str = ""

    def to_json_obj(self) -> dict:
        obj = {
            "suite": self.suite,
            "case": self.case,
            "inputs": self.inputs,
            "verdict": self.verdict,
        }
        if self.witness is not None:
            obj["witness"] = _jsonable(self.witness)
        if self.note:
            obj["note"] = self.note
        return obj


@dataclass
class VerificationReport:
    suite: str
    config: dict
    cases: list = field(default_factory=list)

    def sort(self):
        self.cases.sort(key=lambda r: (r.suite, r.case))

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, UNRESOLVED: 0}
        for r in self.cases:
            out[r.verdict] += 1
        return out

    @property
    def exit_code(self) -> int:
        counts = self.counts
        if counts[FAIL]:
            return 1
        if counts[UNRESOLVED]:
            return 2
        return 0

    def to_json_obj(self) -> dict:
        counts = self.counts
        return {
            "suite": self.suite,
            "config": _jsonable(self.config),
            "summary": {
                "total": len(self.cases),
                "pass": counts[PASS],
                "fail": counts[FAIL],
                "unresolved": counts[UNRESOLVED],
            },
            "cases": [r.to_json_obj() for r in self.cases],
        }

    def to_text(self) -> str:
        lines = []
        counts = self.counts
        for r in self.cases:
            mark = {PASS: "ok  ", FAIL: "FAIL", UNRESOLVED: "??? "}[r.verdict]
            extra = ""
            if r.verdict != PASS and r.witness is not None:
                extra = f"  witness={r.witness}"
            if r.note:
                extra += f"  [{r.note}]"
            lines.append(f"{mark}  {r.case}{extra}")
        lines.append(
            f"{self.suite}: {counts[PASS]} pass, {counts[FAIL]} fail, "
            f"{counts[UNRESOLVED]} unresolved"
        )
        return "\n".join(lines)


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)
