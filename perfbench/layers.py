"""Which foldmap functions the traced run wraps, and the per-layer metrics.

Every boundary is named by the module and attribute that define it.  A
module-level function is wrapped under every name a foldmap module binds
it to (`from .poly import zw_to_xy` binds a second name), because callers
look the function up by those names.  A method is wrapped on its class.

`hit_on` names the workloads on which a boundary must be called at least
once; a boundary that cannot be found, or is not hit there, makes the
traced run fail instead of reading as zero.
"""

from __future__ import annotations

import importlib
import sys
import types
from dataclasses import dataclass

from workloads import WORKLOADS

SPAN = "span"
LEAF = "leaf"

ALL = WORKLOADS


@dataclass(frozen=True)
class Boundary:
    name: str
    module: str
    attrs: tuple       # "func" or "Class.method", one or more
    kind: str
    hit_on: tuple = ()
    name_of: object = None
    tally: object = None


def _case_name(args):
    return "suites.case." + args[0][0]


def _substitute_name(args):
    return "poly.substitute." + ("bivariate" if len(args[0].vars) == 2 else "generic")


def _mul_tally(extra, args, result):
    a, b = args
    extra["kernel.mul_terms.pairs"] = extra.get("kernel.mul_terms.pairs", 0) + len(a) * len(b)
    extra["kernel.mul_terms.out_terms"] = extra.get("kernel.mul_terms.out_terms", 0) + len(result)


_POLY_ARITH = tuple(
    "Poly." + op
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__pow__")
)
RATIONAL_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)

BOUNDARIES = (
    Boundary("cli.main", "foldmap.cli", ("main",), SPAN, ALL),
    Boundary("suites.case", "foldmap.suites", ("run_case",), SPAN, ("aut", "battery"), _case_name),
    Boundary("reports.to_json_obj", "foldmap.reports", ("VerificationReport.to_json_obj",), SPAN,
             ("aut", "battery")),
    Boundary("automorphism.solve_aut", "foldmap.automorphism", ("solve_aut",), SPAN, ("aut",)),
    Boundary("automorphism.collect_constraints", "foldmap.automorphism", ("collect_constraints",),
             SPAN, ("aut",)),
    Boundary("automorphism.is_member", "foldmap.automorphism", ("is_member",), SPAN, ("aut",)),
    Boundary("folding.fold", "foldmap.folding", ("fold",), SPAN, ALL),
    Boundary("folding.compose", "foldmap.folding", ("compose",), SPAN, ("battery",)),
    Boundary("folding.first_difference", "foldmap.folding", ("first_difference",), SPAN, ("battery",)),
    Boundary("poly.substitute", "foldmap.poly", ("Poly.substitute",), SPAN, ("aut", "battery"),
             _substitute_name),
    Boundary("poly.zw_to_xy", "foldmap.poly", ("zw_to_xy",), SPAN, ("generate", "battery")),
    Boundary("leading.verify_leading", "foldmap.leading", ("verify_leading",), SPAN, ("battery",)),
    Boundary("leading.g2_x_slice_mismatch", "foldmap.leading", ("g2_x_slice_mismatch",), SPAN,
             ("battery",)),
    Boundary("projective.indeterminacy", "foldmap.projective", ("indeterminacy",), SPAN, ("battery",)),
    Boundary("projective.degree_growth", "foldmap.projective", ("degree_growth",), SPAN, ("battery",)),
    Boundary("weyl.check_scaling", "foldmap.weyl", ("check_scaling",), SPAN, ("battery",)),
    Boundary("weyl.verify_B_functional", "foldmap.weyl", ("verify_B_functional",), SPAN, ("battery",)),
    # the live kernel is whichever module foldmap.backend bound these names to
    Boundary("kernel.mul_terms", "foldmap.backend", ("mul_terms",), LEAF, ALL, tally=_mul_tally),
    Boundary("kernel.add_terms", "foldmap.backend", ("add_terms",), LEAF, ALL),
    Boundary("kernel.scale_terms", "foldmap.backend", ("scale_terms",), LEAF, ALL),
    Boundary("poly.arith", "foldmap.poly", _POLY_ARITH, LEAF, ALL),
    Boundary("poly.to_json_obj", "foldmap.poly", ("Poly.to_json_obj",), LEAF, ("generate",)),
    Boundary("poly.evaluate", "foldmap.poly", ("Poly.evaluate",), LEAF, ("aut",)),
    Boundary("cyclo.mul", "foldmap.cyclo", ("CycloElem.__mul__", "CycloElem.__rmul__"), LEAF, ("aut",)),
    Boundary("cyclo.coef_div", "foldmap.cyclo", ("coef_div",), LEAF, ("aut",)),
    Boundary("rationals.rat_str", "foldmap.rationals", ("rat_str",), LEAF, ("generate",)),
)

# suites.run_case dispatches on these descriptor kinds; one span name each
CASE_KINDS = (
    "commute", "half_commute", "leading", "braces", "aut_solve", "aut_member",
    "proj", "proj_half", "degree_growth", "oracle", "functional",
)


def rational_type():
    """The live rational backend's type, e.g. fractions.Fraction."""
    from foldmap.rationals import rat

    return type(rat(1, 2))


def rational_ops_wrappable(cls) -> bool:
    """Operators of a Python class can be replaced; those of a C type cannot."""
    return all(isinstance(vars(cls).get(op), types.FunctionType) for op in RATIONAL_OPS)


def _callers(fn):
    """Every (foldmap module, attribute) pair bound to fn."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "foldmap" or name.startswith("foldmap.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                yield mod, attr


def install(tracer, problems: list) -> bool:
    """Wrap every boundary; append a message per missing one to problems.

    Returns whether the rational operators were wrapped.
    """
    for b in BOUNDARIES:
        try:
            module = importlib.import_module(b.module)
        except ImportError:
            problems.append(f"boundary {b.name}: module {b.module} not found")
            continue
        for attr in b.attrs:
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = vars(owner).get(member) if owner is not None else None
            if fn is None:
                problems.append(f"boundary {b.name}: {b.module}.{attr} not found (renamed?)")
                continue
            if b.kind == SPAN:
                wrapper = tracer.span(fn, b.name, b.name_of)
            else:
                wrapper = tracer.leaf(fn, b.name, b.tally)
            if owner_name:
                tracer.patch(owner, member, wrapper)
            else:
                for mod, name in _callers(fn):
                    tracer.patch(mod, name, wrapper)
    cls = rational_type()
    if not rational_ops_wrappable(cls):
        return False
    for op in RATIONAL_OPS:
        tracer.patch(cls, op, tracer.leaf(vars(cls)[op], "rationals.op"))
    return True


def metrics(tracer, rationals_wrapped: bool) -> dict:
    """Per-layer metric values from one traced pass (name -> value)."""
    def calls(name):
        return tracer.totals(name)[0]

    def total(name, parent=None):
        return tracer.totals(name, parent)[1]

    def own(name):
        return tracer.totals(name)[2]

    out = {}
    if rationals_wrapped:
        out["rationals.ops"] = calls("rationals.op")
        out["rationals.self_s"] = own("rationals.op")
    out["rationals.rat_str.calls"] = calls("rationals.rat_str")
    for name in ("cyclo.coef_div", "cyclo.mul", "kernel.mul_terms", "kernel.add_terms",
                 "kernel.scale_terms", "poly.substitute.generic", "poly.substitute.bivariate",
                 "poly.arith"):
        out[name + ".calls"] = calls(name)
        out[name + ".self_s"] = own(name)
    pairs = tracer.extra.get("kernel.mul_terms.pairs", 0)
    out["kernel.mul_terms.pairs"] = pairs
    out["kernel.mul_terms.fill"] = (
        tracer.extra.get("kernel.mul_terms.out_terms", 0) / pairs if pairs else 0.0
    )
    for name in ("poly.to_json_obj", "poly.zw_to_xy", "poly.evaluate", "folding.fold",
                 "cli.main"):
        out[name + ".self_s"] = own(name)
    out["folding.compose.calls"] = calls("folding.compose")
    for name in ("folding.compose", "folding.first_difference", "automorphism.is_member",
                 "leading.verify_leading", "leading.g2_x_slice_mismatch",
                 "projective.indeterminacy", "projective.degree_growth",
                 "weyl.check_scaling", "weyl.verify_B_functional", "reports.to_json_obj"):
        out[name + ".total_s"] = total(name)
    solve = "automorphism.solve_aut"
    collect = total("automorphism.collect_constraints", solve)
    certify = total("poly.evaluate", solve)
    generate = total("folding.fold", solve)
    out["automorphism.collect_s"] = collect
    out["automorphism.certify_s"] = certify
    # solver phases: everything in solve_aut that is not collect, certify
    # or family generation is the rewrite loop
    out["automorphism.rewrite_s"] = total(solve) - collect - certify - generate
    out["automorphism.solve_aut.calls"] = calls(solve)
    for kind in CASE_KINDS:
        out[f"suites.case.{kind}.total_s"] = total("suites.case." + kind)
    out["suites.run_case.calls"] = sum(
        c for (_, nm), (c, _, _) in tracer.stats.items() if nm.startswith("suites.case.")
    )
    out["cli.main.calls"] = calls("cli.main")
    out["runtime.gc_s"] = tracer.gc_s
    out["runtime.gc_collections"] = tracer.gc_collections
    return out


def unhit(tracer, workload: str, rationals_wrapped: bool) -> list:
    """Boundaries that must be called on this workload but were not, and
    suite case kinds that CASE_KINDS does not know."""
    missing = []
    if rationals_wrapped and workload == "aut" and not tracer.totals("rationals.op")[0]:
        missing.append("boundary rationals.op was not called on aut")
    for b in BOUNDARIES:
        if workload not in b.hit_on:
            continue
        if b.name_of is None:
            hit = tracer.totals(b.name)[0] > 0
        else:  # per-call names extend the boundary's name
            hit = any(nm.startswith(b.name + ".") for _, nm in tracer.stats)
        if not hit:
            missing.append(f"boundary {b.name} was not called on {workload}")
    for _, nm in tracer.stats:
        if nm.startswith("suites.case.") and nm[len("suites.case."):] not in CASE_KINDS:
            missing.append(f"case kind {nm[len('suites.case.'):]} has no per-layer metric (renamed?)")
    return missing
