"""Affine automorphisms of the folding maps.

is_member checks phi o F = F o phi exactly; claimed_group builds the
published solution sets; solve_aut recovers them from scratch with a
constraint-elimination engine.

The engine works on the leading constraints of the commutator
phi o F - F o phi: the coefficient of each plane monomial of degree >= D - 2,
where D is the degree of F, as a polynomial in the six unknown affine
coefficients.  For affine phi these depend only on F's three leading slices
(see collect_constraints), so they are a subset of the exact system.
Constraints are consumed in one family-agnostic order (fewest terms, then
lowest degree first; see _constraint_order) under three rewrite rules:

  R1  a constraint m * q with monomial content m branches on each unrecorded
      variable of m vanishing and, unless q is constant (the constraint is
      a single monomial), on q vanishing;
  R2  a constraint linear in one unknown whose leading coefficient is a unit
      (a nonzero constant, possibly times a monomial in unknowns already
      known to be roots of unity) substitutes that unknown;
  R3  a constraint v^k = rho with rho a root of unity records
      order(v) | k*order(rho); records intersect by gcd.

Order records justify two sound normalizations used throughout: exponents
of recorded unknowns are reduced mod the recorded order, and recorded-unit
monomial factors are cancelled.  _times_units is the one place where
records change exponents: normalization, R2's image and R1's cofactor all
multiply by a monomial through it.  When no rule applies, a recorded unknown
with order dividing 12 is enumerated over the exact roots of unity in
Q(zeta_12); a stall with any other order is reported as unresolved rather
than guessed at.  Each rule builds its successor itself: R2 and R3 return
the one rewritten state, R1 and the enumeration the list of child states,
and a branch that stalls records one digest of its state and ends.  A
binding is substituted once, when it is made (_Engine._with_sub), into
every constraint and every earlier image.  So the engine keeps one
invariant: no constraint and no image contains a bound unknown, and each
pass over a state only normalizes, deduplicates and steps.  Every
concrete branch solution is a candidate: it is certified against the
engine's leading system and then by is_member against the full F before it
is returned, so a complete run gives the exact group.
The constraint order decides how fast the search finishes, and whether it
does within the depth cap, but not the solution set of a complete run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, gcd

from .cyclo import (
    coef_components,
    coef_div,
    coef_simplify,
    roots_of_unity,
    unity_order,
)
from .folding import compose, fold, normalize_tag
from .poly import XY, ZW, Poly, PolyMap2
from .rationals import rat_str

UNKNOWNS = ("a", "b", "c", "d", "e", "f")


class AffineMap2:
    """(x, y) -> (ax + by + c, dx + ey + f), entries in Q(zeta_12).

    In the ZW model the same six slots read (z, w) -> (az + bw + c,
    dz + ew + f) with all six entries independent.
    """

    __slots__ = ("coeffs", "model")

    def __init__(self, coeffs, model: str):
        if len(coeffs) != 6:
            raise ValueError("an affine plane map needs six coefficients")
        self.coeffs = tuple(coef_simplify(c) for c in coeffs)
        self.model = model

    @classmethod
    def identity(cls, model: str) -> "AffineMap2":
        return cls((1, 0, 0, 0, 1, 0), model)

    def det(self):
        a, b, _, d, e, _ = self.coeffs
        return a * e - b * d

    def is_invertible(self) -> bool:
        return bool(self.det())

    def as_polymap(self, vars) -> PolyMap2:
        a, b, c, d, e, f = self.coeffs
        first = Poly(vars, {(1, 0): a, (0, 1): b, (0, 0): c})
        second = Poly(vars, {(1, 0): d, (0, 1): e, (0, 0): f})
        return PolyMap2(first, second, self.model, "affine")

    def compose(self, inner: "AffineMap2") -> "AffineMap2":
        if self.model != inner.model:
            raise ValueError("cannot compose affine maps in different models")
        a1, b1, c1, d1, e1, f1 = self.coeffs
        a2, b2, c2, d2, e2, f2 = inner.coeffs
        return AffineMap2(
            (
                a1 * a2 + b1 * d2,
                a1 * b2 + b1 * e2,
                a1 * c2 + b1 * f2 + c1,
                d1 * a2 + e1 * d2,
                d1 * b2 + e1 * e2,
                d1 * c2 + e1 * f2 + f1,
            ),
            self.model,
        )

    def sort_key(self):
        return tuple(coef_components(c) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, AffineMap2):
            return NotImplemented
        return self.model == other.model and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.model, self.coeffs))

    def to_json_obj(self) -> dict:
        return {
            "model": self.model,
            "coeffs": [[rat_str(x) for x in coef_components(c)] for c in self.coeffs],
        }

    def __repr__(self):
        return f"AffineMap2[{self.model}]{self.coeffs!r}"


def is_member(phi: AffineMap2, fmap: PolyMap2) -> bool:
    """True iff phi o F = F o phi exactly; phi must be invertible."""
    if not phi.is_invertible():
        raise ValueError("is_member needs an invertible affine map")
    if phi.model != fmap.model:
        raise ValueError("model mismatch between map and candidate")
    pm = phi.as_polymap(fmap.first.vars)
    return compose(pm, fmap) == compose(fmap, pm)


@dataclass
class SolutionSet:
    elements: list
    label: str
    table: list
    note: str = ""

    @property
    def order(self) -> int:
        return len(self.elements)

    def to_json_obj(self) -> dict:
        return {
            "order": self.order,
            "label": self.label,
            "elements": [m.to_json_obj() for m in self.elements],
            "table": self.table,
            "note": self.note,
        }


def _group_structure(elements: list) -> tuple[list, str]:
    """Multiplication table (as index rows) and abstract label."""
    n = len(elements)
    table = []
    for p in elements:
        row = []
        for q in elements:
            prod = p.compose(q)
            idx = next((k for k, r in enumerate(elements) if r == prod), None)
            if idx is None:
                raise ValueError("solution set is not closed under composition")
            row.append(idx)
        table.append(row)
    abelian = all(
        table[i][j] == table[j][i] for i in range(n) for j in range(n)
    )
    if n == 1:
        label = "trivial"
    elif n == 2:
        label = "mu2"
    elif n == 6 and not abelian:
        label = "S3"
    else:
        label = f"order{n}"
    return table, label


_B2_TYPO_NOTE = (
    "group pattern follows the odd/even automorphism theorem for the B "
    "family; the survey table's B2 line prints degenerate congruences "
    "(mod 1 / mod 0) and is treated as a typo"
)


def claimed_group(tag: str, n: int) -> SolutionSet:
    """The published automorphism group, as exact affine maps."""
    tag = normalize_tag(tag)
    if n < 2:
        raise ValueError("automorphism groups are stated for n >= 2")
    if tag == "a2":
        zetas = roots_of_unity(3) if n % 3 == 1 else [1]
        elements = []
        for z in zetas:
            z2 = z * z
            elements.append(AffineMap2((z, 0, 0, 0, z2, 0), ZW))
            elements.append(AffineMap2((0, z, 0, z2, 0, 0), ZW))
        note = ""
    elif tag == "b2":
        elements = [AffineMap2.identity(XY)]
        if n % 2 == 1:
            elements.append(AffineMap2((-1, 0, 0, 0, 1, 0), XY))
        note = _B2_TYPO_NOTE
    else:
        elements = [AffineMap2.identity(XY)]
        note = ""
    elements.sort(key=lambda m: m.sort_key())
    table, label = _group_structure(elements)
    return SolutionSet(elements, label, table, note)


# -- the elimination engine --------------------------------------------------


@dataclass
class ConstraintState:
    """One branch of the elimination search."""

    constraints: list          # Polys over UNKNOWNS
    subs: dict                 # unknown -> Poly (current image)
    records: dict              # unknown -> g with unknown^g = 1 known
    depth: int = 0


@dataclass
class SolveOutcome:
    family: str
    n: int
    solutions: SolutionSet
    unresolved: list = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.unresolved


# The constraints come from F's three leading slices.  Two are not enough:
# with slices of degree >= D - 1 only, g2 at every even n ends unresolved.
LEADING_SLICES = 3


def _scaled_derivative(p: Poly, s: int, t: int) -> Poly:
    """(d/dx)^s (d/dy)^t p / (s! t!) for a polynomial p in the two plane
    variables: the x^s y^t Taylor coefficient of p around a point."""
    terms = {
        (i - s, j - t): comb(i, s) * comb(j, t) * coef
        for (i, j), coef in p.terms.items()
        if i >= s and j >= t
    }
    return Poly(p.vars, terms, _internal=True)


def collect_constraints(fmap: PolyMap2) -> dict:
    """The leading constraints of phi o F = F o phi for affine phi.

    Returns a dict (component, plane_exps) -> Poly in the six unknowns: the
    coefficients of the commutator phi o F - F o phi at every plane
    monomial of degree >= D - 2, where D is the larger degree of F's two
    coordinates.  They depend only on F's slices F_j of degree j >= D - 2,
    and no lower plane degree is formed: with L = (ax + by, dx + ey), the
    degree-k part of F_j(L + (c, f)) is the Taylor sum over s + t = j - k
    of c^s f^t / (s! t!) * (d/dx^s d/dy^t F_j)(L).  The dict is a subset of
    the exact system, so a solution of it is a candidate, not yet a member.
    """
    plane = fmap.first.vars
    ring = plane + UNKNOWNS
    a, b, c, d, e, f = (Poly.variable(ring, v) for v in UNKNOWNS)
    xv, yv = (Poly.variable(ring, v) for v in plane)
    top = fmap.degree()
    low = max(top - LEADING_SLICES + 1, 0)
    linear = {plane[0]: a * xv + b * yv, plane[1]: d * xv + e * yv}
    pad = (0,) * len(UNKNOWNS)

    def leading(p: Poly) -> Poly:
        """p's slices of degree >= low, lifted into the ring."""
        return Poly(
            ring, {ex + pad: co for ex, co in p.terms.items() if sum(ex) >= low}, _internal=True
        )

    first, second = (leading(p) for p in fmap.components())
    buckets = {}
    for component, (outer1, outer2, shift), coord in (
        (1, (a, b, c), fmap.first),
        (2, (d, e, f), fmap.second),
    ):
        diff = outer1 * first + outer2 * second
        if low == 0:
            diff = diff + shift
        for j in range(low, top + 1):
            slice_j = coord.degree_slice(j)
            if slice_j.is_zero():
                continue
            for order in range(j - low + 1):
                for s in range(order + 1):
                    taylor = _scaled_derivative(slice_j, s, order - s)
                    if not taylor.is_zero():
                        diff = diff - c**s * f ** (order - s) * taylor.substitute(linear)
        for exps, coef in diff.terms.items():
            buckets.setdefault((component, exps[:2]), {})[exps[2:]] = coef
    return {key: Poly(UNKNOWNS, terms, _internal=True) for key, terms in buckets.items()}


def _constraint_order(item):
    """Sort key for (plane key, constraint): fewest terms, then lowest degree
    first; ties go to the higher plane monomial."""
    (component, exps), p = item
    return (len(p.terms), p.degree(), component, -sum(exps), tuple(-e for e in exps))


def _times_units(p: Poly, shift, records: dict) -> Poly:
    """p * prod(v^shift_v), with the exponent of every recorded unknown
    reduced mod its order (v^g = 1): the one place records change exponents.

    A negative shift is the unit's inverse on a recorded unknown; on any
    other unknown it divides monomial content out of every term.
    """
    orders = [records.get(v, 0) for v in UNKNOWNS]
    terms = {}
    for exps, coef in p.terms.items():
        key = tuple([(e + s) % g if g else e + s for e, s, g in zip(exps, shift, orders)])
        acc = terms.get(key)
        terms[key] = coef if acc is None else coef_simplify(acc + coef)
    return Poly(UNKNOWNS, {e: c for e, c in terms.items() if c}, _internal=True)


def _content(p: Poly) -> list:
    """Exponents of the monomial content: the least exponent of each unknown."""
    return [min(col) for col in zip(*p.terms)]


_ORIGIN = (0,) * len(UNKNOWNS)


def _normalize(p: Poly, records: dict) -> Poly:
    """Exponent reduction, unit-content cancellation, monic scaling."""
    if records:
        rec = [(UNKNOWNS.index(v), g) for v, g in records.items()]
        if any(e[k] >= g for e in p.terms for k, g in rec):
            p = _times_units(p, _ORIGIN, records)
    if p.is_zero():
        return p
    if records:
        shift = [-m if v in records else 0 for v, m in zip(UNKNOWNS, _content(p))]
        if any(shift):
            p = _times_units(p, shift, records)
    _, lead = p.leading_term()
    if lead != 1:
        p = p * coef_div(1, lead)
    return p


def _linear_image(p: Poly, var_index: int, records: dict):
    """R2's image of v = UNKNOWNS[var_index], or None.

    p must be linear in v with a unit coefficient: p = coef * m * v + r with
    v absent from r, and m a monomial in unknowns that carry records, so that
    m^-1 is a monomial too.  The image is -r * coef^-1 * m^-1.
    """
    lead = [(exps, coef) for exps, coef in p.terms.items() if exps[var_index]]
    if len(lead) != 1 or lead[0][0][var_index] != 1:
        return None
    ((exps, coef),) = lead
    mono = [0 if k == var_index else e for k, e in enumerate(exps)]
    if any(e and v not in records for v, e in zip(UNKNOWNS, mono)):
        return None
    rest = {ex: co for ex, co in p.terms.items() if not ex[var_index]}
    image = Poly(UNKNOWNS, rest, _internal=True) * coef_div(-1, coef)
    return _times_units(image, [-e for e in mono], records)


def _as_power_equation(p: Poly):
    """Match a monic p == v^k - rhs with rhs constant; returns (v, k, rhs)."""
    constant = p.terms.get(_ORIGIN)
    if len(p.terms) != 2 or constant is None:
        return None
    ((exps, coef),) = (t for t in p.terms.items() if t[0] != _ORIGIN)
    support = [k for k, e in enumerate(exps) if e]
    if coef != 1 or len(support) != 1:
        return None
    return (UNKNOWNS[support[0]], exps[support[0]], -constant)


class _Engine:
    def __init__(self, fmap: PolyMap2, depth_cap: int):
        self.fmap = fmap
        self.original = collect_constraints(fmap)
        self.depth_cap = depth_cap
        self.solutions = []
        self.unresolved = []

    def initial_state(self) -> ConstraintState:
        ordered = sorted(self.original.items(), key=_constraint_order)
        return ConstraintState(constraints=[p for _, p in ordered], subs={}, records={})

    def run(self):
        stack = [self.initial_state()]
        while stack:
            stack.extend(self._process(stack.pop()))

    # -- state transforms ---------------------------------------------------

    def _with_sub(self, state: ConstraintState, var: str, image: Poly) -> ConstraintState:
        """state with var bound to image, which holds no bound unknown; the
        binding is substituted here, once, into every constraint and image."""
        subs = {u: p.substitute_var(var, image) for u, p in state.subs.items()}
        subs[var] = image
        records = dict(state.records)
        constraints = [p.substitute_var(var, image) for p in state.constraints]
        if var in records:
            g = records.pop(var)
            # the record var^g = 1 must survive the substitution
            constraints.append(image**g - 1)
        return ConstraintState(constraints, subs, records, state.depth)

    def _det_poly(self, subs: dict) -> Poly:
        def img(v):
            return subs.get(v) or Poly.variable(UNKNOWNS, v)

        return img("a") * img("e") - img("b") * img("d")

    # -- main rewrite loop ----------------------------------------------------

    def _process(self, state: ConstraintState) -> list:
        """Rewrite one branch until it splits or ends: its children, or []."""
        while True:
            live = []
            seen = set()
            for p in state.constraints:
                q = _normalize(p, state.records)
                if q.is_zero():
                    continue
                if q.is_constant():
                    return []  # nonzero constant: inconsistent branch
                key = frozenset(q.terms.items())
                if key in seen:
                    continue
                seen.add(key)
                live.append(q)
            state.constraints = live
            if self._det_poly(state.subs).is_zero():
                return []  # determinant forced to vanish identically
            step = self._step(state)
            if isinstance(step, list):
                return step
            state = step

    def _step(self, state: ConstraintState):
        """Apply the first rule that fires: R2 and R3 return the rewritten
        state, R1 and the enumeration the list of child states."""
        records = state.records
        for p in state.constraints:
            # R3: v^k = root of unity
            shaped = _as_power_equation(p)
            if shaped is not None:
                var, k, rhs = shaped
                rho_order = unity_order(rhs)
                if rho_order is not None:
                    old = records.get(var, 0)
                    g = gcd(old, k * rho_order)
                    # v^k = 1 is captured by the record completely; v^k = rho
                    # only implies v^(k*ord(rho)) = 1, so that constraint stays
                    # for the enumeration and fires only to sharpen the record
                    if rho_order == 1 or g != old:
                        if rho_order == 1:
                            state.constraints = [q for q in state.constraints if q is not p]
                        if g == 1:
                            return self._with_sub(state, var, Poly.constant(UNKNOWNS, 1))
                        records[var] = g
                        return state
            # R2: substitute the latest linearly-occurring unknown
            for vi in range(len(UNKNOWNS) - 1, -1, -1):
                image = _linear_image(p, vi, records)
                if image is not None:
                    return self._with_sub(state, UNKNOWNS[vi], image)
            # R1: strip monomial content; a monomial has a constant cofactor
            mins = _content(p)
            if any(mins):
                children = [
                    self._with_sub(state, v, Poly.zero(UNKNOWNS))
                    for v, m in zip(UNKNOWNS, mins)
                    if m > 0 and v not in records
                ]
                if len(p.terms) > 1:
                    cofactor = _times_units(p, [-m for m in mins], records)
                    swapped = [cofactor if q is p else q for q in state.constraints]
                    children.append(ConstraintState(swapped, dict(state.subs), dict(records)))
                return self._split(state, children)
        # quiescent: enumerate a recorded unknown
        for v in UNKNOWNS:
            g = records.get(v)
            if g is None:
                continue
            if 12 % g != 0:
                return self._stall(
                    state, f"order record {v}^{g} = 1 not realizable in Q(zeta_12)"
                )
            roots = [Poly.constant(UNKNOWNS, root) for root in roots_of_unity(g)]
            return self._split(state, [self._with_sub(state, v, root) for root in roots])
        return self._finish(state)

    def _split(self, state: ConstraintState, children: list) -> list:
        """The children of a branching rule, one level deeper; a branch at
        the depth cap stalls instead."""
        if state.depth >= self.depth_cap:
            return self._stall(state, "branch depth cap exceeded")
        for child in children:
            child.depth = state.depth + 1
        return children

    def _stall(self, state: ConstraintState, reason: str) -> list:
        """Record a branch the rules cannot resolve, with a digest of its state."""
        self.unresolved.append(
            {
                "reason": reason,
                "state": {
                    "depth": state.depth,
                    "records": dict(state.records),
                    "substituted": sorted(state.subs),
                    "constraints": [str(p) for p in state.constraints[:8]],
                },
            }
        )
        return []

    def _finish(self, state: ConstraintState) -> list:
        """End a quiescent branch: keep its grounded candidate once certified,
        or record why it did not ground out."""
        if state.constraints:
            return self._stall(state, "no rewrite rule applies")
        values = {}
        for v in UNKNOWNS:
            img = state.subs.get(v)
            if img is None or not img.is_constant():
                return self._stall(state, f"unknown {v} is unconstrained")
            values[v] = img.constant_value()
        candidate = AffineMap2(tuple(values[v] for v in UNKNOWNS), self.fmap.model)
        # certify against the untouched leading system, then against F itself:
        # the leading system only narrows the search to finitely many candidates
        if (
            candidate.is_invertible()
            and not any(p.evaluate(values) for p in self.original.values())
            and is_member(candidate, self.fmap)
            and candidate not in self.solutions
        ):
            self.solutions.append(candidate)
        return []


def solve_aut(tag: str, n: int, depth_cap: int = 32) -> SolveOutcome:
    """Solve phi o F_n = F_n o phi for affine phi, from scratch.

    Returns the complete solution set over the algebraic closure when every
    branch grounds out (it does for the folding families at desk scale);
    otherwise the outcome carries the unresolved branch digests.
    """
    tag = normalize_tag(tag)
    if n < 2:
        raise ValueError("solve_aut is defined for n >= 2")
    fmap = fold(tag, n)
    engine = _Engine(fmap, depth_cap)
    engine.run()
    unique = sorted(engine.solutions, key=lambda m: m.sort_key())
    if unique and not engine.unresolved:
        table, label = _group_structure(unique)
    else:
        table, label = [], "incomplete"
    return SolveOutcome(tag, n, SolutionSet(unique, label, table), engine.unresolved)
