"""Command-line frontend.

Subcommands: gen, verify {commute|leading}, aut, proj, oracle, report.
All JSON uses the canonical polynomial schema; exit codes are 0 all pass,
1 any fail, 2 unresolved outcomes present (no fails), 64 usage error,
141 stdout closed before the output was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import automorphism, projective, suites, weyl
from .folding import FAMILY_TAGS, fold, fold_xy, half_fold, normalize_tag
from .poly import PolyMap2

USAGE_ERROR = 64
BROKEN_PIPE = 141  # 128 + SIGPIPE, the shell's code for a closed output pipe

GEN_FAMILIES = ("a2", "b2", "g2", "bsqrt2", "gsqrt3")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _emit(obj) -> None:
    json.dump(obj, sys.stdout)
    sys.stdout.write("\n")


def _check_n(n: int | None) -> None:
    if n is not None and n > projective.N_DESK_BOUND:
        raise ValueError(f"--n {n} exceeds the desk bound {projective.N_DESK_BOUND}")


def _get_map(family: str, n: int | None, model: str) -> PolyMap2:
    _check_n(n)
    family = family.lower()
    if family in ("bsqrt2", "gsqrt3"):
        if n is not None:
            raise ValueError(
                f"--n does not apply to {family}: the half folds are single fixed maps"
            )
        return half_fold(family)
    if n is None:
        raise ValueError("--n is required for the a2/b2/g2 families")
    if model == "xy":
        return fold_xy(family, n)
    return fold(family, n)


def _render_map(m: PolyMap2, fmt: str, n) -> str:
    if fmt == "json":
        # to_json_obj builds a fresh tree with no cycle, so the check is waste
        return json.dumps(m.to_json_obj(), check_circular=False)
    if fmt == "latex":
        index = n if n is not None else m.label
        return f"{index} & {m.first.to_latex()} & {m.second.to_latex()} \\\\"
    return f"{m.label}:\n  {m.first}\n  {m.second}"


def cmd_gen(args) -> int:
    m = _get_map(args.family, args.n, args.model)
    print(_render_map(m, args.format, args.n))
    return 0


def cmd_verify(args) -> int:
    tag = None if args.family == "all" else normalize_tag(args.family)
    config = {"jobs": args.jobs}
    if args.max_n is not None:
        smallest = suites.SMALLEST_MAX_N[args.what]
        if args.max_n < smallest:
            raise ValueError(f"verify {args.what} needs --max-n >= {smallest}, got {args.max_n}")
        largest = suites.LARGEST_MAX_N[args.what]
        if args.max_n > largest:
            raise ValueError(
                f"verify {args.what} needs --max-n <= {largest} to stay within "
                f"the desk bound {projective.N_DESK_BOUND}, got {args.max_n}"
            )
        if args.what == "commute":
            config["commute_max"] = args.max_n
        else:
            config.update(
                leading_max_a=args.max_n,
                leading_max_b=args.max_n,
                leading_max_g=args.max_n,
            )
    return _finish_report(suites.run_suite(args.what, config, family=tag), args.format)


def cmd_aut(args) -> int:
    _check_n(args.n)
    tag = normalize_tag(args.family)
    if args.solve:
        out = automorphism.solve_aut(tag, args.n)
        payload = out.solutions.to_json_obj()
        payload["mode"] = "solve"
        payload["unresolved"] = out.unresolved
        _emit(payload)
        return 2 if out.unresolved else 0
    group = automorphism.claimed_group(tag, args.n)
    payload = group.to_json_obj()
    payload["mode"] = "claimed"
    _emit(payload)
    return 0


def cmd_proj(args) -> int:
    family = args.family.lower()
    m = _get_map(family, args.n, "xy")
    rep = projective.indeterminacy(m)
    _emit(
        {
            "family": family,
            "n": args.n,
            "degree": m.degree(),
            "morphism": rep.empty,
            "indeterminacy": [list(p) for p in rep.points],
            "unresolved_factor_degree": (
                rep.unresolved.degree() if rep.unresolved is not None else 0
            ),
        }
    )
    return 0


def cmd_oracle(args) -> int:
    _check_n(args.n)
    tag = normalize_tag(args.family)
    r = weyl.check_scaling(tag, args.n, trials=args.trials, tol=args.tol, seed=args.seed)
    _emit(
        {
            "family": tag,
            "n": args.n,
            "trials": args.trials,
            "tol": args.tol,
            "seed": args.seed,
            "max_residual": r.max_residual,
            "pass": r.passed,
        }
    )
    return 0 if r.passed else 1


def cmd_report(args) -> int:
    config = {"seed": args.seed, "jobs": args.jobs}
    started = time.perf_counter()
    report = suites.run_suite(args.suite, config)
    elapsed = time.perf_counter() - started
    print(f"[{report.suite}] {len(report.cases)} cases in {elapsed:.1f}s", file=sys.stderr)
    return _finish_report(report, args.format)


def _finish_report(report, fmt: str) -> int:
    if fmt == "json":
        _emit(report.to_json_obj())
    else:
        print(report.to_text())
    return report.exit_code


# parse_args fills a fresh Namespace each call and leaves the parser as it
# was, so one parser serves every main call of the process
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="foldmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--jobs", type=int, default=1)

    g = sub.add_parser("gen", help="emit one folding map")
    g.add_argument("--family", required=True, choices=GEN_FAMILIES)
    g.add_argument("--n", type=int)
    g.add_argument("--model", choices=("native", "xy"), default="native")
    g.add_argument("--format", choices=("json", "latex", "text"), default="json")
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="run one verification suite")
    v.add_argument("what", choices=("commute", "leading"))
    v.add_argument("--family", default="all")
    v.add_argument("--max-n", type=int, default=None)
    add_common(v)
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("aut", help="automorphism group of one map")
    a.add_argument("--family", required=True, choices=FAMILY_TAGS)
    a.add_argument("--n", type=int, required=True)
    mode = a.add_mutually_exclusive_group()
    mode.add_argument("--solve", action="store_true")
    mode.add_argument("--claimed", action="store_true")
    a.set_defaults(func=cmd_aut)

    p = sub.add_parser("proj", help="projective degree and indeterminacy")
    p.add_argument("--family", required=True, choices=GEN_FAMILIES)
    p.add_argument("--n", type=int)
    p.set_defaults(func=cmd_proj)

    o = sub.add_parser("oracle", help="numerical scaling oracle")
    o.add_argument("--family", required=True, choices=FAMILY_TAGS)
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--trials", type=int, default=suites.DEFAULTS["trials"])
    o.add_argument("--tol", type=float, default=suites.DEFAULTS["tol"])
    o.add_argument("--seed", type=int, default=suites.DEFAULTS["seed"])
    o.set_defaults(func=cmd_oracle)

    r = sub.add_parser("report", help="run verification suites")
    r.add_argument("--suite", choices=suites.SUITE_NAMES + ("all",), default="all")
    r.add_argument("--seed", type=int, default=suites.DEFAULTS["seed"])
    add_common(r)
    r.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, KeyError) as exc:
        print(f"foldmap: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
