"""Batch verification suites driving every theorem check in the package.

Each suite expands into a sorted list of case descriptors; a descriptor is
a plain tuple so the case pool can be fanned out across worker processes.
Reports are deterministic given the same config and seed: cases are sorted
by key and no wall-clock data enters the payload.
"""

from __future__ import annotations

import os
from math import isqrt

from . import automorphism, leading, projective, weyl
from .folding import (
    FAMILY_TAGS,
    HALF_FOLDS,
    N_DESK_BOUND,
    compose,
    first_difference,
    fold,
    fold_xy,
    half_fold,
    verify_commute,
)
from .reports import FAIL, PASS, UNRESOLVED, CaseRecord, VerificationReport

SUITE_NAMES = ("commute", "leading", "aut", "proj", "oracle")

# Smallest --max-n each verify suite accepts: the n its case ladder starts
# from (commute pairs F_m, F_n with 2 <= m <= n; leading from g2 n = 1).
SMALLEST_MAX_N = {"commute": 2, "leading": 1}

# Largest --max-n each verify suite accepts: commute composes up to
# F_{max_n^2} and leading builds F_{max_n}, and both stay within the desk
# bound on n.
LARGEST_MAX_N = {
    "commute": isqrt(N_DESK_BOUND),
    "leading": N_DESK_BOUND,
}

DEFAULTS = {
    "commute_max": 6,
    "leading_max_a": 40,
    "leading_max_b": 40,
    "leading_max_g": 30,
    "aut_solve_max": 10,
    "aut_member_max": 25,
    "proj_max": 12,
    "oracle_max": 6,
    "trials": 100,
    "tol": 1e-7,
    "seed": 0,
    "jobs": 1,
}


def _case_commute(tag, m, n):
    r = verify_commute(tag, m, n)
    witness = r.left_witness or r.right_witness
    return CaseRecord(
        "commute",
        f"commute[{tag}] F{m}.F{n}",
        {"family": tag, "m": m, "n": n},
        PASS if r.passed else FAIL,
        witness,
    )


def _case_half_commute(kind, n):
    # empirical observation, not a stated theorem: the square-root maps
    # commute with their own family
    half = half_fold(kind)
    tag = HALF_FOLDS[kind][0]
    fn = fold(tag, n)
    witness = first_difference(compose(half, fn), compose(fn, half))
    return CaseRecord(
        "commute",
        f"commute[{kind}] with {tag.upper()}:{n}",
        {"family": tag, "kind": kind, "n": n},
        PASS if witness is None else FAIL,
        witness,
        note="empirical observation, not asserted by the source theorems",
    )


def _case_leading(tag, n):
    r = leading.verify_leading(tag, n)
    return CaseRecord(
        "leading",
        f"leading[{tag}] n={n}",
        {"family": tag, "n": n, "residual_degrees": r.residual_degrees},
        PASS if r.passed else FAIL,
        r.witness,
    )


def _case_braces(n):
    mismatch = leading.g2_x_slice_mismatch(n)
    return CaseRecord(
        "leading",
        f"leading[g2] slices n={n}",
        {"family": "g2", "n": n},
        PASS if mismatch is None else FAIL,
        None if mismatch is None else {
            "degree": mismatch[0],
            "got": str(mismatch[1]),
            "want": str(mismatch[2]),
        },
    )


def _case_aut_solve(tag, n):
    out = automorphism.solve_aut(tag, n)
    claimed = automorphism.claimed_group(tag, n)
    if out.unresolved:
        return CaseRecord(
            "aut",
            f"aut-solve[{tag}] n={n}",
            {"family": tag, "n": n},
            UNRESOLVED,
            out.unresolved[:2],
        )
    same = (
        out.solutions.order == claimed.order
        and all(s in claimed.elements for s in out.solutions.elements)
        and out.solutions.label == claimed.label
    )
    return CaseRecord(
        "aut",
        f"aut-solve[{tag}] n={n}",
        {"family": tag, "n": n, "order": out.solutions.order},
        PASS if same else FAIL,
        None if same else out.solutions.to_json_obj(),
        note=claimed.note,
    )


def _case_aut_member(tag, n):
    claimed = automorphism.claimed_group(tag, n)
    fmap = fold(tag, n)
    bad = [
        phi.to_json_obj()
        for phi in claimed.elements
        if not automorphism.is_member(phi, fmap)
    ]
    return CaseRecord(
        "aut",
        f"aut-member[{tag}] n={n}",
        {"family": tag, "n": n, "order": claimed.order, "label": claimed.label},
        PASS if not bad else FAIL,
        bad or None,
        note=claimed.note,
    )


def _proj_expected(tag, n):
    if tag == "g2":
        points = [[0, 1, 0]] if n % 2 == 0 else [[0, 1, 0], [1, 0, 0]]
        return ((3 * n) // 2, False, points)
    return (n, True, [])


def _case_proj(tag, n):
    m = fold_xy(tag, n)
    d = m.degree()
    rep = projective.indeterminacy(m)
    points = [list(p) for p in rep.points]
    got = (d, rep.empty, points)
    want = _proj_expected(tag, n)
    # each base point [X:Y:0] is a zero of both forms at infinity
    tops = [p.degree_slice(d) for p in m.components()]
    checked = all(
        top.evaluate({"x": x, "y": y}) == 0 for x, y, _ in rep.points for top in tops
    )
    ok = got == want and rep.unresolved is None and checked
    return CaseRecord(
        "proj",
        f"proj[{tag}] n={n}",
        {"family": tag, "n": n},
        PASS if ok else FAIL,
        None if ok else {"got": got, "want": want},
    )


def _case_proj_half(kind):
    half = half_fold(kind)
    rep = projective.indeterminacy(half)
    square = compose(half, half)
    target = fold(*HALF_FOLDS[kind][:2])
    ok = rep.points == [(0, 1, 0)] and rep.unresolved is None and square == target
    if kind == "b_sqrt2":
        # a non-morphism whose second iterate is a morphism
        ok = ok and projective.is_morphism(square)
    return CaseRecord(
        "proj",
        f"proj[{kind}]",
        {"kind": kind},
        PASS if ok else FAIL,
        None if ok else {"points": [list(p) for p in rep.points]},
    )


def _case_degree_growth(tag, n, m):
    got = projective.degree_growth(tag, n, m)
    want = (3 * n**m) // 2 if tag == "g2" else n**m
    return CaseRecord(
        "proj",
        f"degree-growth[{tag}] n={n} m={m}",
        {"family": tag, "n": n, "m": m, "degree": got},
        PASS if got == want else FAIL,
        None if got == want else {"got": got, "want": want},
    )


def _case_oracle(tag, n, trials, tol, seed):
    r = weyl.check_scaling(tag, n, trials=trials, tol=tol, seed=seed)
    return CaseRecord(
        "oracle",
        f"oracle[{tag}] n={n}",
        {"family": tag, "n": n, "trials": trials, "tol": tol, "seed": seed,
         "max_residual": r.max_residual},
        PASS if r.passed else FAIL,
        None if r.passed else {"max_residual": r.max_residual, "tol": tol},
    )


def _case_functional(n):
    r = weyl.verify_B_functional(n)
    return CaseRecord(
        "oracle",
        f"chebyshev[b2] n={n}",
        {"family": "b2", "n": n},
        PASS if r.passed else FAIL,
        r.witness,
    )


_DISPATCH = {
    "commute": _case_commute,
    "half_commute": _case_half_commute,
    "leading": _case_leading,
    "braces": _case_braces,
    "aut_solve": _case_aut_solve,
    "aut_member": _case_aut_member,
    "proj": _case_proj,
    "proj_half": _case_proj_half,
    "degree_growth": _case_degree_growth,
    "oracle": _case_oracle,
    "functional": _case_functional,
}


def run_case(descriptor):
    kind, args = descriptor
    return _DISPATCH[kind](*args)


# The inputs.family of the case kinds whose descriptor does not start with
# the family tag; proj_half cases carry no family.
_FIXED_FAMILY = {"braces": "g2", "functional": "b2", "proj_half": None}


def _family(descriptor):
    """The family that the descriptor's case writes to inputs.family."""
    kind, args = descriptor
    if kind == "half_commute":
        return HALF_FOLDS[args[0]][0]
    return _FIXED_FAMILY.get(kind, args[0])


def _descriptors(name: str, config: dict):
    out = []
    if name == "commute":
        top = config["commute_max"]
        for tag in FAMILY_TAGS:
            for m in range(2, top + 1):
                for n in range(m, top + 1):
                    out.append(("commute", (tag, m, n)))
            for k in (0, 1):
                out.append(("commute", (tag, k, top)))
        for kind in HALF_FOLDS:
            for n in (2, 3):
                out.append(("half_commute", (kind, n)))
    elif name == "leading":
        for n in range(2, config["leading_max_a"] + 1):
            out.append(("leading", ("a2", n)))
        for n in range(3, config["leading_max_b"] + 1):
            out.append(("leading", ("b2", n)))
        for n in range(1, config["leading_max_g"] + 1):
            out.append(("leading", ("g2", n)))
        for n in range(5, config["leading_max_g"] + 1):
            out.append(("braces", (n,)))
    elif name == "aut":
        for tag in FAMILY_TAGS:
            for n in range(2, config["aut_solve_max"] + 1):
                out.append(("aut_solve", (tag, n)))
            for n in range(2, config["aut_member_max"] + 1):
                out.append(("aut_member", (tag, n)))
    elif name == "proj":
        for tag in FAMILY_TAGS:
            for n in range(2, config["proj_max"] + 1):
                out.append(("proj", (tag, n)))
        for kind in HALF_FOLDS:
            out.append(("proj_half", (kind,)))
        for tag, n, m in (
            ("g2", 2, 2), ("g2", 2, 3), ("g2", 3, 2),
            ("a2", 2, 3), ("b2", 2, 3),
        ):
            out.append(("degree_growth", (tag, n, m)))
    elif name == "oracle":
        for tag in FAMILY_TAGS:
            weyl.check_oracle_n(tag, config["oracle_max"])
            for n in range(1, config["oracle_max"] + 1):
                out.append(
                    ("oracle", (tag, n, config["trials"], config["tol"], config["seed"]))
                )
        for n in range(0, 16):
            out.append(("functional", (n,)))
    else:
        raise ValueError(f"unknown suite {name!r}")
    return out


def run_suite(name: str, config: dict | None = None,
              family: str | None = None) -> VerificationReport:
    """Run one suite (or 'all'), or only its cases of one family; invalid
    config, or a family with no case, raises ValueError before any case runs."""
    cfg = dict(DEFAULTS)
    cfg.update(config or {})
    if cfg["jobs"] < 1:
        raise ValueError(f"the suite needs jobs >= 1, got {cfg['jobs']}")
    weyl.check_scaling_args(cfg["trials"], cfg["tol"])
    names = SUITE_NAMES if name == "all" else (name,)
    descriptors = []
    for suite in names:
        descriptors.extend(_descriptors(suite, cfg))
    if family is not None:
        descriptors = [d for d in descriptors if _family(d) == family]
        if not descriptors:
            raise ValueError(f"the {name} suite has no {family} case in this configuration")
    report = VerificationReport(name, cfg)
    # a fork pool starts every worker at the first submit: never ask for
    # more workers than there are cores or cases
    workers = min(cfg["jobs"], os.cpu_count() or 1, len(descriptors))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which every
        # command would otherwise pay for in start-up time and memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            report.cases = list(pool.map(run_case, descriptors, chunksize=4))
    else:
        report.cases = [run_case(d) for d in descriptors]
    report.sort()
    return report
