"""Chart-level monoidal transformations with exceptional-divisor bookkeeping.

Only coordinate centers are supported and only one affine chart is
materialized per step; variable names are reused across charts, so a tower is
a sequence of substitutions and exact divisions in one ambient ring.  Divisor
labels are globally unique within a tower and are kept in the registry even
when their strict transform misses the chosen chart.

A presentation's section polynomials are transformed coefficient by
coefficient, and each carries its monic split to its transform.  A tower
keeps what is computed on its current state (the monomial algebra and the
strong check) until a blowup or a lift changes that state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable

from .errors import BudgetError, InputError, InvariantError, PermissibilityError
from .poly import (INF, ClosedPoint, FieldSpec, GenericPoint, MPoly, _term_key,
                   monic_coefficients, monic_from_coefficients)
from .projection import SimplifiedPresentation, hord_data, is_normal_at, slope_poly
from .rees import ReesAlg, ord_at, sing_member


@dataclass(unsafe_hash=True)
class Center:
    """A coordinate center V(vars); containment in Sing is checked at
    transform time."""

    vars: frozenset

    def __post_init__(self):
        if not self.vars:
            raise InputError("a center needs at least one variable")


@dataclass(unsafe_hash=True)
class Chart:
    """Variable names plus the exceptional-divisor registry.

    divisors maps each label to the chart variable cutting it out, or None
    when the divisor's strict transform does not meet this chart.
    """

    names: tuple
    divisors: tuple     # tuple[(label, Optional[int])], creation order

    @classmethod
    def initial(cls, names: Iterable[str]) -> "Chart":
        return cls(tuple(names), ())

    def present_divisors(self) -> dict:
        return {lab: v for lab, v in self.divisors if v is not None}

    def after_blowup(self, center: Center, chart_var: int) -> "Chart":
        if chart_var not in center.vars:
            raise InputError("chart variable must belong to the center")
        for v in center.vars:
            if not 0 <= v < len(self.names):
                raise InputError("center variable out of range")
        label = "H%d" % (len(self.divisors) + 1)
        updated = tuple((lab, None if v == chart_var else v) for lab, v in self.divisors)
        return Chart(self.names, updated + ((label, chart_var),))


def blow_up_poly(f: MPoly, n: int, center: Center, chart_var: int) -> MPoly:
    """Weighted transform of f in the chart_var chart: substitute v <- v*w for
    the other center variables, then divide by w^n exactly.

    On a term this is the monomial map e[w] <- e[w] + sum of e[v] over the
    other center variables, minus n.  The map is injective, so every term
    goes to exactly one term, no products are formed and every coefficient
    stays as it was: the terms only need sorting.
    """
    if chart_var not in center.vars:
        raise InputError("chart variable must belong to the center")
    others = [v for v in center.vars if v != chart_var]
    terms = []
    for e, c in f.terms:
        k = e[chart_var] - n
        for v in others:
            k += e[v]
        if k < 0:
            raise PermissibilityError("center not permissible for weight %d" % n)
        terms.append((e[:chart_var] + (k,) + e[chart_var + 1:], c))
    terms.sort(key=_term_key, reverse=True)
    return MPoly(f.field, f.nvars, tuple(terms))


def transform_rees(alg: ReesAlg, center: Center, chart_var: int) -> ReesAlg:
    """Generator-wise weighted transform; a generator dropping to a nonzero
    constant turns the result into the unit algebra (resolved locus)."""
    if alg.is_unit:
        raise PermissibilityError("the unit algebra has empty singular locus")
    if not sing_member(alg, GenericPoint(center.vars)):
        raise PermissibilityError("center not contained in the singular locus")
    return _transform_gens(alg, center, chart_var)


def _transform_gens(alg: ReesAlg, center: Center, chart_var: int) -> ReesAlg:
    """transform_rees past its permissibility checks, for callers that made them."""
    return ReesAlg.make(alg.field, alg.nvars,
                        [(blow_up_poly(f, n, center, chart_var), n) for f, n in alg.gens])


def transform_presentation(sp: SimplifiedPresentation, center: Center,
                           chart_var: int) -> SimplifiedPresentation:
    """Transform a presentation along a center containing every section
    variable; coefficients transform downstairs as a_j / w^j and the
    elimination part transforms as a Rees algebra, so the result is a valid
    presentation of the transformed algebra of the same kind.

    Each section polynomial f = z^n + sum a_j z^(n-j) becomes
    z^n + sum a'_j z^(n-j) with a'_j = blow_up_poly(a_j, j), and that split
    is carried to the new polynomial instead of being rebuilt from it.  A
    negative exponent there is exactly ord(f) < n at the center's generic
    point, the permissibility test for a section polynomial.
    """
    sections = set(sp.sections)
    if not sections <= center.vars:
        raise PermissibilityError("center not beta-vertical")
    if chart_var in sections:
        raise PermissibilityError("chart variable must be a downstairs variable")
    polys = []
    for z, f in zip(sp.sections, sp.polys):
        try:
            split = {j: blow_up_poly(a, j, center, chart_var)
                     for j, a in monic_coefficients(f, z).items()}
        except PermissibilityError:
            raise PermissibilityError(
                "center not permissible for a section polynomial") from None
        polys.append(monic_from_coefficients(sp.field, sp.nvars, z, split))
    if not sing_member(sp.elim, GenericPoint(center.vars)):
        raise PermissibilityError("center not permissible for the elimination part")
    elim = _transform_gens(sp.elim, center, chart_var)
    return type(sp)(sp.field, sp.nvars, sp.sections, tuple(polys), elim)


def transform_object(obj, center: Center, chart_var: int):
    if isinstance(obj, ReesAlg):
        return transform_rees(obj, center, chart_var)
    if isinstance(obj, SimplifiedPresentation):
        return transform_presentation(obj, center, chart_var)
    raise TypeError("cannot transform objects of type %s" % type(obj).__name__)


def _origin(field: FieldSpec, nvars: int) -> ClosedPoint:
    return ClosedPoint((field.zero,) * nvars)


def invariant_snapshot(obj) -> dict:
    """Order data at the chart origin, which a scene's blowup records."""
    origin = _origin(obj.field, obj.nvars)
    if isinstance(obj, ReesAlg):
        return {"is_unit": obj.is_unit, "ord_origin": ord_at(obj, origin)}
    data = hord_data(obj, origin)
    return {"elim_ord_origin": data.elim_ord, "hord_origin": data.value}


@dataclass(unsafe_hash=True)
class TowerStep:
    center: tuple
    chart_var: int
    chart: Chart
    obj: object


@dataclass
class Tower:
    """A sequence of chart-level blowups of one tracked object.

    `memo` holds what is computed on the tower's current state (the
    monomial algebra, the strong check and the sandwich rows, see
    monomial.py), so repeated checks of one state do the work once.  Every
    assignment to a field of the tower, as blow_up and the lift's swap to a
    cleaned presentation make, empties it.
    """

    chart: Chart
    obj: object
    steps: list = dc_field(default_factory=list)
    initial_obj: object = None
    memo: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name != "memo":
            super().__setattr__("memo", {})

    @classmethod
    def start(cls, names: Iterable[str], obj) -> "Tower":
        return cls(Chart.initial(names), obj, initial_obj=obj)

    def states(self) -> list:
        """Objects before each step plus the final one."""
        return [self.initial_obj] + [st.obj for st in self.steps]

    def blow_up(self, center: Center, chart_var: int) -> TowerStep:
        # the chart checks the center's variables before the transform reads them
        new_chart = self.chart.after_blowup(center, chart_var)
        new_obj = transform_object(self.obj, center, chart_var)
        step = TowerStep(tuple(sorted(center.vars)), chart_var, new_chart, new_obj)
        self.chart = new_chart
        self.obj = new_obj
        self.steps.append(step)
        return step


# -- the two-stage slope experiment --------------------------------------------


# The most trace rows (N in Stage A plus those of Stage B) one experiment may
# write into a trace; `StageRows` holds them in closed form, so this bounds the
# trace text, not what the experiment itself builds.
EXPERIMENT_MAX_STEPS = 10 ** 6


@dataclass(eq=False)
class StageRows:
    """The rows of one stage A/B experiment, held in closed form.

    Stage-A row i (1..N) is {"stage": "A", "index": i, "center": point,
    "chart": chart, "order": n, "permissible": True}; stage-B row j is
    {"stage": "B", "index": j, "center": line, "chart": chart, "order":
    orders[j - 1], "permissible": orders[j - 1] >= n}.  Iteration builds
    those dicts in that order, and `scene.canonical_json` writes the rows'
    text from the fields without building any of them.
    """

    point: list
    line: list
    chart: str
    n: int
    N: int
    orders: tuple

    def __iter__(self):
        for i in range(1, self.N + 1):
            yield {"stage": "A", "index": i, "center": self.point,
                   "chart": self.chart, "order": self.n, "permissible": True}
        for j, nu in enumerate(self.orders, 1):
            yield {"stage": "B", "index": j, "center": self.line,
                   "chart": self.chart, "order": nu, "permissible": nu >= self.n}


def stage_ab_experiment(f: MPoly, z_index: int, N: int, names=None):
    """Measure how long the codimension-two center stays permissible after N
    point blowups along an auxiliary line.

    Adjoin a variable t, named by the first of t, t1, t2, ... that `names`
    does not hold; Stage A performs N point blowups at the marked chart
    origin (t-chart each time), Stage B blows up V(z, t) in the t-chart while
    that center is permissible.  Returns (l, trace) where l is the largest
    number of Stage-B transformations after which the center is still
    permissible, i.e. one less than the number performed.  The slope q is
    read off f at the origin; it must be finite and at least 1, with f in
    normal form there.

    Each step is an injective monomial map changing only e[t], so no polynomial
    is built: a term of total degree S has e[t] = i*(S - n) after i Stage-A
    blowups and N*(S - n) + j*(e_z - n) after j Stage-B blowups.  No row is
    built either: trace["steps"] is a `StageRows`.
    """
    if N < 1:
        raise InputError("N must be positive")
    n = f.degree_in_var(z_index)
    origin = _origin(f.field, f.nvars)
    q = slope_poly(f, z_index, origin)
    if q == INF or q < 1:
        raise InputError("the experiment needs a finite slope q >= 1")
    pres = SimplifiedPresentation(f.field, f.nvars, (z_index,), (f,),
                                  ReesAlg.make(f.field, f.nvars, []))
    if not is_normal_at(pres, origin):
        raise InputError("polynomial is not in normal form at the base point")

    least = {}      # e_z -> least S; no other term attains an order
    for e, _ in f.terms:
        S = sum(e)
        if S < least.get(e[z_index], S + 1):
            least[e[z_index]] = S
    lines = [(ez + N * (S - n), ez - n) for ez, S in least.items()]   # order a + j*b
    stop = _stage_b_stop(lines, n)
    if N + stop + 1 > EXPERIMENT_MAX_STEPS:
        raise BudgetError("the experiment would write %d trace rows (N=%d), above its "
                          "budget of %d" % (N + stop + 1, N, EXPERIMENT_MAX_STEPS))

    names = list(names) if names is not None else ["v%d" % i for i in range(f.nvars)]
    t = next(c for c in itertools.chain(["t"], ("t%d" % i for i in itertools.count(1)))
             if c not in names)
    names.append(t)
    point = sorted(names)
    # the Stage-B order after j blowups is the least a + j*b: the row minima of
    # one column per line, j = 0..stop (z^n is the column of n's, b = 0, and
    # the finite slope gives a line with b < 0, so there are two at least)
    columns = [range(a, a + (stop + 1) * b, b) if b else itertools.repeat(a, stop + 1)
               for a, b in lines]
    orders = tuple(map(min, *columns))
    if orders[-1] >= n or min(orders[:-1], default=n) < n:
        raise InvariantError("Stage B must stop at its first impermissible center")
    # q >= 1 gives every term a_j z^(n-j) total degree S >= n, and z^n has
    # S = n, so every Stage-A order is n
    steps = StageRows(point, sorted([names[z_index], t]), t, n, N, orders)
    target = N * (q - 1) - 1
    trace = {"n": n, "q": q, "N": N, "steps": steps, "performed": stop,
             "l": stop - 1, "expected": target.numerator // target.denominator}
    return stop - 1, trace


def _stage_b_stop(lines, n: int) -> int:
    """The first j at which some order a + j*b falls below n.

    Only a line with b < 0 falls: at once when a < n, and otherwise at
    j = floor((a - n) / -b) + 1.  A term with e_z < n gives such a line, and
    the finite slope comes from one."""
    return min(max(0, (a - n) // -b + 1) for a, b in lines if b < 0)
