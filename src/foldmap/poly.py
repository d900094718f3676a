"""Sparse multivariate polynomials over Q(zeta_12) and planar polynomial maps.

A Poly is an ordered variable context plus a dict mapping exponent tuples to
nonzero coefficients.  Coefficients are plain ints / Fractions whenever they
lie on the rational line and CycloElem otherwise; the two kinds mix freely
(see cyclo.py), and anything inexact, such as a float, is rejected with
TypeError.  `terms` is a plain dict: no method changes it after
construction, but a caller can, and `substitute_var` may return its operand
itself, so code that keeps Polys for other callers hands out fresh ones, as
`folding.fold` does.  Arithmetic runs on the term-merge kernels in
backend.py.  Substitution comes in two shapes: `substitute` maps every
context variable to an image, possibly in a new context (one recursive
Horner scheme for every number of variables), and `substitute_var` replaces
one variable within the same context and leaves a polynomial that does not
contain it untouched.  `substitute` packs the images once, at fields of the
bit length of its degree bound, runs the power table and every Horner step
on packed monomials, and unpacks the result once; `Poly.terms` always keeps
exponent tuples.

Coefficients are kept in the canonical form that cyclo.py makes: a value
on the rational line is a plain int or Fraction, never a CycloElem.  Ring
operations and substitutions need no pass of their own for this, because
every CycloElem operation already returns that form; values from outside
(the constructor, Poly.constant, scalar operands) are checked and brought
into it by _exact_coef.

Canonical term order everywhere (printing, JSON, witnesses): graded
lexicographic with the first context variable major, highest terms first.
"""

from __future__ import annotations

from .backend import add_terms, field_bits, mul_terms, pack, scale_terms, unpack
from .cyclo import (
    CycloElem,
    coef_components,
    coef_conj,
    coef_simplify,
    coef_to_complex,
)
from .rationals import is_rational, rat, rat_from_str, rat_str

XY = "XY"
ZW = "ZW"
XY_VARS = ("x", "y")
ZW_VARS = ("z", "w")


def grlex_key(exps):
    """Sort key for graded-lex order, first variable major."""
    return (sum(exps), exps)


def _exact_coef(c):
    """c in canonical coefficient form; TypeError unless c is exact."""
    if not (is_rational(c) or isinstance(c, CycloElem)):
        raise TypeError(
            f"coefficient {c!r} is not exact: use an int, a Fraction or a CycloElem"
        )
    return coef_simplify(c)


class Poly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None, _internal=False):
        self.vars = tuple(vars)
        if _internal:
            self.terms = terms or {}
            return
        clean = {}
        nvars = len(self.vars)
        for exps, coef in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(
                    f"exponent vector {exps} does not match context {self.vars}"
                )
            if any(type(e) is not int for e in exps):
                raise TypeError(f"exponent vector {exps} has an exponent that is not an int")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coef = _exact_coef(coef)
            if coef:
                clean[exps] = coef
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, vars) -> "Poly":
        return cls(vars, {}, _internal=True)

    @classmethod
    def constant(cls, vars, value) -> "Poly":
        value = _exact_coef(value)
        vars = tuple(vars)
        if not value:
            return cls.zero(vars)
        return cls(vars, {(0,) * len(vars): value}, _internal=True)

    @classmethod
    def variable(cls, vars, name) -> "Poly":
        vars = tuple(vars)
        exps = [0] * len(vars)
        exps[vars.index(name)] = 1
        return cls(vars, {tuple(exps): 1}, _internal=True)

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()), 0)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def coeff(self, exps):
        """Coefficient of the given monomial (0 when absent)."""
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            raise ValueError(f"monomial {exps} not in context {self.vars}")
        return self.terms.get(exps, 0)

    def sorted_terms(self):
        """Terms in canonical order (graded-lex descending)."""
        # both sorts are stable, so lex descending within each degree survives
        # the sort by degree: the grlex_key order, with keys built in C
        terms = self.terms
        order = sorted(sorted(terms, reverse=True), key=sum, reverse=True)
        return [(e, terms[e]) for e in order]

    def leading_term(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def degree_slice(self, k: int) -> "Poly":
        """Sum of the terms of total degree exactly k."""
        if k < 0:
            raise ValueError("degree_slice needs k >= 0")
        picked = {e: c for e, c in self.terms.items() if sum(e) == k}
        return Poly(self.vars, picked, _internal=True)

    # -- ring operations ---------------------------------------------------

    def _check_context(self, other: "Poly"):
        if self.vars != other.vars:
            raise ValueError(f"variable contexts differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if isinstance(other, Poly):
            self._check_context(other)
            return Poly(self.vars, add_terms(self.terms, other.terms), _internal=True)
        return self + Poly.constant(self.vars, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Poly):
            self._check_context(other)
            return Poly(self.vars, add_terms(self.terms, other.terms, -1), _internal=True)
        return self - Poly.constant(self.vars, other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Poly(self.vars, scale_terms(self.terms, -1), _internal=True)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_context(other)
            return Poly(self.vars, mul_terms(self.terms, other.terms), _internal=True)
        other = _exact_coef(other)
        if not other:
            return Poly.zero(self.vars)
        return Poly(self.vars, scale_terms(self.terms, other), _internal=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        if is_rational(other) or isinstance(other, CycloElem):
            return self == Poly.constant(self.vars, other)
        return NotImplemented

    __hash__ = None

    # -- substitution -------------------------------------------------------

    def substitute(self, images: dict) -> "Poly":
        """Exact composition: replace every context variable by its image.

        Every variable needs an image (a Poly or a scalar); all Poly images
        must share one context, which becomes the context of the result.
        """
        missing = [v for v in self.vars if v not in images]
        if missing:
            raise ValueError(f"no image for variable(s) {missing}")
        target = None
        for v in self.vars:
            img = images[v]
            if isinstance(img, Poly):
                if target is None:
                    target = img.vars
                elif img.vars != target:
                    raise ValueError("images live in different contexts")
        if target is None:
            target = self.vars
        imgs = []
        for v in self.vars:
            img = images[v]
            imgs.append(img if isinstance(img, Poly) else Poly.constant(target, img))

        if not self.terms:
            return Poly.zero(target)
        if not imgs:
            return Poly(target, dict(self.terms), _internal=True)
        # a term of total degree d maps to a product of d images, so no
        # exponent in the Horner scheme exceeds deg(self) * max image degree
        w = field_bits(self.degree() * max(0, *(p.degree() for p in imgs)))
        # the largest exponent of each variable; _subst never reads the
        # image of a variable that does not occur, so that one stays unpacked
        tops = list(map(max, zip(*self.terms)))
        img_terms = [pack(p.terms, w) if top else {} for p, top in zip(imgs, tops)]
        # x^1's image is the image itself, so the table multiplies from x^2 on
        powers = [{0: 1}, img_terms[0]]
        for _ in range(1, tops[0]):
            powers.append(mul_terms(powers[-1], img_terms[0]))
        terms = unpack(_subst(self.terms, img_terms, powers), w, len(target))
        return Poly(target, terms, _internal=True)

    def substitute_var(self, name, image) -> "Poly":
        """Replace the single variable `name` by image, in the same context.

        image is a Poly over this context or a scalar.  Returns self when
        the variable does not occur; otherwise sums slice_j * image^j over
        the exponents j of the variable.
        """
        k = self.vars.index(name)
        if isinstance(image, Poly):
            self._check_context(image)
        else:
            image = Poly.constant(self.vars, image)
        if not any(exps[k] for exps in self.terms):
            return self
        slices = {}
        for exps, coef in self.terms.items():
            slices.setdefault(exps[k], {})[exps[:k] + (0,) + exps[k + 1 :]] = coef
        acc = slices.pop(0, {})
        if not image.terms:
            return Poly(self.vars, acc, _internal=True)
        power = image.terms
        done = 1
        for j in sorted(slices):
            for _ in range(j - done):
                power = mul_terms(power, image.terms)
            done = j
            acc = add_terms(acc, mul_terms(slices[j], power))
        return Poly(self.vars, acc, _internal=True)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, values: dict):
        """Exact evaluation; values may be any ring elements (e.g. CycloElem)."""
        order = [values[v] for v in self.vars]
        # powers[k][e] = order[k] ** e, filled on demand
        powers = [[1] for _ in order]
        total = 0
        for exps, coef in self.terms.items():
            prod = coef
            for k, e in enumerate(exps):
                if e:
                    table = powers[k]
                    while len(table) <= e:
                        table.append(table[-1] * order[k])
                    prod = prod * table[e]
            total = total + prod
        return total

    def evaluate_complex(self, values: dict) -> complex:
        """Floating evaluation with coefficients mapped into C."""
        order = [complex(values[v]) for v in self.vars]
        total = 0j
        for exps, coef in self.terms.items():
            prod = coef_to_complex(coef)
            for k, e in enumerate(exps):
                if e:
                    prod *= order[k] ** e
            total += prod
        return total

    # -- serialization -----------------------------------------------------------

    def to_json_obj(self) -> dict:
        # an int coefficient's components are (c, 0, 0, 0)
        return {
            "vars": list(self.vars),
            "terms": [
                {"e": list(e), "c": [rat_str(c), "0", "0", "0"] if type(c) is int
                 else [rat_str(x) for x in coef_components(c)]}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Poly":
        vars = tuple(obj["vars"])
        terms = {}
        for entry in obj["terms"]:
            terms[tuple(entry["e"])] = CycloElem(*(rat_from_str(s) for s in entry["c"]))
        return cls(vars, terms)

    def _render(self, mul_sep: str, pow_fmt) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coef in self.sorted_terms():
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(pow_fmt(name, e))
            if isinstance(coef, CycloElem):
                text = f"({coef})"
                body = mul_sep.join([text] + factors) if factors else text
                sign = "+"
            else:
                sign = "-" if coef < 0 else "+"
                mag = -coef if coef < 0 else coef
                if factors and mag == 1:
                    body = mul_sep.join(factors)
                else:
                    body = mul_sep.join([rat_str(mag)] + factors)
            if not chunks:
                chunks.append(body if sign == "+" else "-" + body)
            else:
                chunks.append(("+ " if sign == "+" else "- ") + body)
        return " ".join(chunks)

    def __str__(self):
        return self._render("*", lambda v, e: f"{v}^{e}")

    def to_latex(self) -> str:
        return self._render(" ", lambda v, e: f"{v}^{{{e}}}" if e > 9 else f"{v}^{e}")

    def __repr__(self):
        return f"Poly({self.vars}, {str(self)})"


def _subst(terms, img_terms, powers):
    """Recursive Horner over the last variable.

    terms has exponent tuples; img_terms holds one packed image term dict
    per remaining variable; powers[i] is the first image to the i-th power,
    one table shared by every level.  The result is packed too.
    """
    if len(img_terms) == 1:
        acc = {}
        for (i,), coef in terms.items():
            acc = add_terms(acc, scale_terms(powers[i], coef))
        return acc
    slices = {}
    for exps, coef in terms.items():
        slices.setdefault(exps[-1], {})[exps[:-1]] = coef
    rest = img_terms[:-1]
    last = img_terms[-1]
    degrees = sorted(slices, reverse=True)
    acc = _subst(slices[degrees[0]], rest, powers)
    prev = degrees[0]
    for j in degrees[1:]:
        for _ in range(prev - j):
            acc = mul_terms(acc, last)
        acc = add_terms(acc, _subst(slices[j], rest, powers))
        prev = j
    for _ in range(prev):
        acc = mul_terms(acc, last)
    return acc


def swap_conjugate(p: Poly) -> Poly:
    """Swap the two variables and conjugate every coefficient.

    In the ZW model this realizes complex conjugation of a polynomial in
    z and z-bar treated as independent variables.
    """
    if len(p.vars) != 2:
        raise ValueError("swap_conjugate needs a two-variable context")
    out = {}
    for (i, j), coef in p.terms.items():
        out[(j, i)] = coef_conj(coef)
    return Poly(p.vars, out, _internal=True)


class PolyMap2:
    """A polynomial self-map of the plane: a coordinate pair plus metadata."""

    __slots__ = ("first", "second", "model", "label")

    def __init__(self, first: Poly, second: Poly, model: str, label: str = ""):
        if first.vars != second.vars:
            raise ValueError("map components live in different contexts")
        if model not in (XY, ZW):
            raise ValueError(f"unknown model {model!r}")
        self.first = first
        self.second = second
        self.model = model
        self.label = label

    def components(self):
        return (self.first, self.second)

    def degree(self) -> int:
        return max(self.first.degree(), self.second.degree())

    def __eq__(self, other):
        if not isinstance(other, PolyMap2):
            return NotImplemented
        return (
            self.model == other.model
            and self.first == other.first
            and self.second == other.second
        )

    __hash__ = None

    def evaluate_complex(self, point):
        u, v = self.first.vars
        values = {u: point[0], v: point[1]}
        return (
            self.first.evaluate_complex(values),
            self.second.evaluate_complex(values),
        )

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "model": self.model,
            "first": self.first.to_json_obj(),
            "second": self.second.to_json_obj(),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PolyMap2":
        return cls(
            Poly.from_json_obj(obj["first"]),
            Poly.from_json_obj(obj["second"]),
            obj["model"],
            obj.get("label", ""),
        )

    def __repr__(self):
        return f"PolyMap2[{self.model}:{self.label}]({self.first}, {self.second})"


_MINUS_HALF_I = CycloElem(0, 0, 0, rat(-1, 2))  # 1/(2i)


class RealFormError(ValueError):
    """Raised when a ZW map has no real (x, y) form."""


def zw_to_xy(m: PolyMap2) -> PolyMap2:
    """Rewrite a conjugate-symmetric ZW map in xy-coordinates.

    Requires second = swap_conjugate(first).  The first component P becomes
    q(x, y) = P(x + iy, x - iy), split into real and imaginary parts with
    its coefficient conjugate q_bar: (q + q_bar)/2 and (q - q_bar)/(2i) are
    the x- and y-coordinates of the real form.  q is built from the integer
    images, as q_s(x, s) = P(x + s, x - s), since q(x, y) = q_s(x, iy): each
    term x^a y^b of q_s is multiplied by i^b.
    """
    if m.model != ZW:
        raise ValueError("zw_to_xy needs a ZW-model map")
    residue = m.second - swap_conjugate(m.first)
    if not residue.is_zero():
        raise RealFormError(
            f"map has no real form; conjugate residue {residue}"
        )
    x = Poly.variable(XY_VARS, "x")
    y = Poly.variable(XY_VARS, "y")
    zvar, wvar = m.first.vars
    q_s = m.first.substitute({zvar: x + y, wvar: x - y})
    q = Poly(
        XY_VARS,
        {e: c * CycloElem.zeta_pow(3 * e[1]) for e, c in q_s.terms.items()},
        _internal=True,
    )
    q_bar = Poly(XY_VARS, {e: coef_conj(c) for e, c in q.terms.items()}, _internal=True)
    return PolyMap2((q + q_bar) * rat(1, 2), (q - q_bar) * _MINUS_HALF_I, XY, m.label)
