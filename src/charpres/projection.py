"""Transversal-projection data: presentations of an algebra over a coordinate
projection, slopes, weighted normal forms, p-presentations with their middle
coefficients in the elimination algebra, and the H-order functions computed
through normalization.

A presentation couples monic section polynomials with a downstairs Rees
algebra (the elimination part).  Projections are coordinate deletions: the
scene contract supplies generators already monic in the declared sections, so
no generic coordinate changes are ever attempted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (DegenerateSlopeError, DominationError, InputError,
                     InvariantError, NotNormalFormError)
from .poly import (INF, ClosedPoint, FieldSpec, GenericPoint, MPoly,
                   PointSpec, least_ratio, monic_coefficients, order_at)
from .rees import ReesAlg, ord_at, sing_member

# normalize_poly makes at most NORMALIZE_CAP_FACTOR * n cleaning substitutions.
NORMALIZE_CAP_FACTOR = 64


def _check_downstairs_point(y: PointSpec, sections, nvars: int):
    if isinstance(y, GenericPoint):
        for z in sections:
            if z in y.vars:
                raise InputError("downstairs points cannot involve section variables")
    else:
        if len(y.values) != nvars:
            raise InputError("point arity mismatch")


@dataclass(unsafe_hash=True)
class SimplifiedPresentation:
    """e monic section polynomials over a shared downstairs elimination part.

    polys[i] is monic of degree n_i in sections[i] and its coefficients are
    free of every section variable; elim generators are section-free.  Points
    fed to the slope and H-order functions are downstairs: full-arity closed
    points whose section coordinates are ignored, or generic points of
    section-free variable subsets.  The one-section case e = 1 is the
    hypersurface case, where slopes and normal forms are defined.
    """

    field: FieldSpec
    nvars: int
    sections: tuple
    polys: tuple
    elim: ReesAlg

    def __post_init__(self):
        secs = self.sections
        if not secs or len(set(secs)) != len(secs):
            raise InputError("sections must be distinct")
        for z in secs:
            if not 0 <= z < self.nvars:
                raise InputError("section index out of range")
        if len(self.polys) != len(secs):
            raise InputError("one monic polynomial per section")
        for z, f in zip(secs, self.polys):
            if f.field != self.field or f.nvars != self.nvars:
                raise InputError("presentation polynomial in the wrong ring")
            check_section_poly(f, z, secs)
        if self.elim.field != self.field or self.elim.nvars != self.nvars:
            raise InputError("elimination algebra in the wrong ring")
        for g, _ in self.elim.gens:
            check_elim_gen(g, secs)

    # point -> NormalizeResult; see normalize
    _normal_forms = None

    @property
    def degrees(self) -> tuple:
        return tuple(f.degree_in_var(z) for z, f in zip(self.sections, self.polys))


def check_section_poly(f: MPoly, z_index: int, sections) -> None:
    """A section polynomial must be monic in its section variable, with
    coefficients free of every section variable."""
    for a in monic_coefficients(f, z_index).values():  # raises NotMonicError
        for w in sections:
            if a.uses_var(w):
                raise InputError("coefficients must be free of all section variables")


def check_elim_gen(g: MPoly, sections) -> None:
    """An elimination generator must be free of every section variable."""
    for w in sections:
        if g.uses_var(w):
            raise InputError("elimination generators must be section-free")


@dataclass(unsafe_hash=True)
class PPresentation(SimplifiedPresentation):
    """A simplified presentation whose degrees are p-powers p^l_1 <= ... <= p^l_e.

    The reduced H-order formula (minimum over the constant coefficients
    alone) is only valid when the middle coefficients of every polynomial
    already sit in the elimination part, as relative differential saturation
    puts them there; construction enforces that so the two formulas must
    agree.  Use make_p_presentation to augment a bare elimination part.
    """

    def __post_init__(self):
        super().__post_init__()
        p = self.field.characteristic
        if p == 0:
            raise InputError("p-presentations need positive characteristic")
        degrees = self.degrees
        if any(_root_degree(n, p) != n for n in degrees):
            raise InputError("p-presentation degrees must be powers of p")
        if list(degrees) != sorted(degrees):
            raise InputError("p-presentation degrees must be non-decreasing")
        if self.elim.is_unit:
            return  # the unit algebra holds every middle coefficient
        have = set(self.elim.gens)
        for i, j, a in _middle_coefficients(self.sections, self.polys):
            if (a, j) not in have:
                raise InputError(
                    "middle coefficient a_%d of polynomial %d is missing from "
                    "the elimination part; use make_p_presentation" % (j, i + 1))


def _middle_coefficients(sections, polys):
    """(i, j, a_j) for every nonzero a_j with 1 <= j < n_i of
    polys[i] = z^(n_i) + sum a_j z^(n_i - j), z = sections[i]; by i, then j.
    monic_coefficients holds a_j below n only when it is nonzero."""
    for i, (z, f) in enumerate(zip(sections, polys)):
        coeffs = monic_coefficients(f, z)
        n = max(coeffs)
        for j in sorted(coeffs):
            if j < n:
                yield i, j, coeffs[j]


def make_p_presentation(field: FieldSpec, nvars: int, sections, polys,
                        elim: ReesAlg) -> PPresentation:
    """Build a p-presentation, placing middle coefficients in the elimination
    part (they belong there: relative saturation sends a_j downstairs with
    weight j)."""
    extra = [(a, j) for _, j, a in _middle_coefficients(sections, polys)]
    return PPresentation(field, nvars, tuple(sections), tuple(polys),
                         elim.with_extra(extra))


# -- slopes ---------------------------------------------------------------------


def slope_poly(f: MPoly, z_index: int, y: PointSpec):
    """min over j of nu_y(a_j)/j for f = z^n + sum a_j z^(n-j); inf when every
    a_j vanishes (f a pure power, excluded by the codimension-one assumption
    upstream but returned honestly here)."""
    _check_downstairs_point(y, (z_index,), f.nvars)
    return least_ratio((order_at(a, y), j)
                       for j, a in monic_coefficients(f, z_index).items() if not a.is_zero())


# -- weighted normal forms -------------------------------------------------------


def _root_degree(n: int, p: int) -> int:
    """p^e for n = m*p^e with p not dividing m; 1 in characteristic 0."""
    pe = 1
    while p and n % (pe * p) == 0:
        pe *= p
    return pe


def _weighted_root(f: MPoly, z_index: int, y: PointSpec, q) -> Optional[MPoly]:
    """The root A with (Z+A)^n the weight-q initial form of f at y, q the
    slope of f at y; None when that form is not an n-th power.

    The form's coefficient of Z^(n-j) is the degree-(q*j) piece of a_j at y:
    total degree after translating a closed point to the origin, S-degree at
    the generic point of V(S), and zero when q*j is not an integer.  Writing
    n = m*p^e with p not dividing m (e = 0 in characteristic 0), any root is
    the p^e-th root of the piece at j = p^e over binom(n, p^e), a unit by
    Lucas.  Every a_j has order >= q*j at y, so that piece is nonzero
    exactly when ord_y(a_(p^e)) = q*p^e; the candidate is confirmed by exact
    expansion.
    """
    field = f.field
    coeffs = monic_coefficients(f, z_index)
    n = max(coeffs)
    pe = _root_degree(n, field.characteristic)
    a = coeffs.get(pe)
    if a is None or order_at(a, y) * q.denominator != q.numerator * pe:
        return None
    closed = isinstance(y, ClosedPoint)
    graded = range(f.nvars) if closed else y.vars

    def piece(j):
        aj, w = coeffs.get(j), q * j
        if aj is None or w.denominator != 1:
            return MPoly.zero_poly(field, f.nvars)
        return (aj.translate(y.values) if closed else aj).graded_part_wrt(graded, int(w))

    A = piece(pe).scale(field.inv(field.coerce(math.comb(n, pe)))).pth_power_root(pe)
    if A is None:
        return None
    for j in range(1, n + 1):
        if piece(j) != (A ** j).scale(field.coerce(math.comb(n, j))):
            return None
    return A


@dataclass(unsafe_hash=True)
class PolyNormalization:
    """Record of the slope-raising loop on one monic polynomial at one point."""

    poly: MPoly
    iterations: int
    slopes: tuple          # slope before each substitution, then the final slope
    substitutions: tuple   # the alpha subtracted from the section variable, ambient coords

    @property
    def slope(self):
        return self.slopes[-1]


def normalize_poly(f: MPoly, z_index: int, y: PointSpec, elim_ord=INF) -> PolyNormalization:
    """Raise the slope at y by substitutions z <- z - alpha while the weighted
    initial form is an n-th power (Z+A)^n with A nonzero and the slope is
    positive and still below the elimination order.

    alpha is the homogeneous representative of A itself (translated back to
    ambient coordinates for off-origin closed points); only its initial form
    matters.  At slope 0 the root A is a unit, not zero at y: substituting it
    would move the point instead of raising the slope at it, so cleaning
    stops there.  Each iteration strictly increases the slope; needing more
    than NORMALIZE_CAP_FACTOR * n of them means the codimension-one
    assumption fails for this input.
    """
    field, nvars = f.field, f.nvars
    n = f.degree_in_var(z_index)
    cap = NORMALIZE_CAP_FACTOR * n
    q = slope_poly(f, z_index, y)
    slopes = [q]
    subs = []
    while 0 < q < elim_ord:
        A = _weighted_root(f, z_index, y, q)
        if A is None or A.is_zero():
            break
        if len(subs) >= cap:
            raise DegenerateSlopeError("degenerate: slope unbounded")
        if isinstance(y, ClosedPoint):
            alpha = A.translate(tuple(field.neg(v) for v in y.values))
        else:
            alpha = A
        f = f.substitute({z_index: MPoly.var(field, nvars, z_index) - alpha})
        subs.append(alpha)
        new = slope_poly(f, z_index, y)
        if not new > q:
            raise InvariantError("normalization must strictly increase the slope")
        slopes.append(new)
        q = new
    return PolyNormalization(f, len(subs), tuple(slopes), tuple(subs))


@dataclass(unsafe_hash=True)
class NormalizeResult:
    """A presentation cleaned at one downstairs point.

    cleaned is None when no section polynomial moved, and otherwise a plain
    presentation of the cleaned polynomials over the same elimination part:
    cleaning need not keep a PPresentation's middle coefficients in the
    elimination part.  The record never refers to the presentation it was
    made from, which keeps it in its memo.  value is the H-order, the
    minimum of elim_ord and the cleaned slopes.
    """

    cleaned: Optional[SimplifiedPresentation]
    elim_ord: object
    normalizations: tuple         # one PolyNormalization per section polynomial
    value: object                 # Fraction or INF


def normalize(sp: SimplifiedPresentation, y: PointSpec) -> NormalizeResult:
    """Clean every section polynomial at y independently: afterwards each
    one's slope meets the elimination order or its weighted initial form is
    not an n-th power.

    The result is stored on the presentation per point and served from
    there on repeat calls; a call that raises stores nothing.
    """
    memo = sp._normal_forms
    if memo is None:
        memo = sp._normal_forms = {}
    data = memo.get(y)
    if data is None:
        data = memo[y] = _normalize(sp, y)
    return data


def _normalize(sp: SimplifiedPresentation, y: PointSpec) -> NormalizeResult:
    _check_downstairs_point(y, sp.sections, sp.nvars)
    eord = ord_at(sp.elim, y)
    recs = tuple([normalize_poly(f, z, y, elim_ord=eord)
                  for z, f in zip(sp.sections, sp.polys)])
    cleaned = None
    for r in recs:
        if r.iterations:
            cleaned = SimplifiedPresentation(sp.field, sp.nvars, sp.sections,
                                             tuple([r.poly for r in recs]), sp.elim)
            break
    return NormalizeResult(cleaned, eord, recs, min([eord] + [r.slope for r in recs]))


def is_normal_at(pres: SimplifiedPresentation, y: PointSpec) -> bool:
    """Normal form test: cleaning at y moves no section polynomial."""
    return normalize(pres, y).cleaned is None


# -- membership ------------------------------------------------------------------


def upstairs_algebra(pres: SimplifiedPresentation) -> ReesAlg:
    """The ambient Rees algebra the presentation describes: section
    polynomials with their degrees as weights, joined with the elimination
    generators."""
    gens = list(zip(pres.polys, pres.degrees)) + list(pres.elim.gens)
    return ReesAlg.make(pres.field, pres.nvars, gens, pres.elim.is_unit)


def fiber_point(pres: SimplifiedPresentation, y: PointSpec) -> PointSpec:
    """The unique point over y with all section coordinates zero."""
    if isinstance(y, ClosedPoint):
        vals = tuple(pres.field.zero if i in pres.sections else v
                     for i, v in enumerate(y.values))
        return ClosedPoint(vals)
    return GenericPoint(y.vars | frozenset(pres.sections))


def membership_criterion(pres: SimplifiedPresentation, y: PointSpec) -> bool:
    """Does y lie in the projection of the singular locus?  True exactly when
    Sl(P)(y), the minimum of the slopes and the elimination order, is >= 1.
    Requires the presentation to be in normal form at y and cross-checks
    against the ambient singular-locus test at the fiber point."""
    data = normalize(pres, y)
    if data.cleaned is not None:
        raise NotNormalFormError("presentation is not in normal form at the point")
    result = data.value >= 1
    upstairs = sing_member(upstairs_algebra(pres), fiber_point(pres, y))
    if upstairs != result:
        raise InvariantError("projection membership disagrees with the fiber test")
    return result


# -- H-order ----------------------------------------------------------------------


def hord_data(sp: SimplifiedPresentation, y: PointSpec) -> NormalizeResult:
    """H-order of the presentation at a downstairs point: normalize(sp, y),
    whose value is the minimum of all cleaned coefficient slopes and the
    elimination order.

    For p-presentations the reduced formula (constant coefficients only) is
    recomputed on each call and must agree; construction guarantees the
    middle coefficients are dominated by the elimination part.
    """
    data = normalize(sp, y)
    if isinstance(sp, PPresentation):
        _check_reduced(sp, data, y)
    return data


def _check_reduced(sp: PPresentation, data: NormalizeResult, y: PointSpec):
    """The reduced formula, the least slope of the cleaned constant
    coefficients against the elimination order, must give the H-order.

    It needs the elimination order at y to dominate every cleaned middle
    coefficient: ord_y(a'_j)/j >= eord for 1 <= j < n.  Cleaning can break
    that (z -> z - alpha moves the middle coefficients off the elimination
    part).  When the formulas disagree, raise DominationError naming the
    a'_j of least slope if it falls below, and InvariantError otherwise."""
    polys = tuple(r.poly for r in data.normalizations)
    consts = [(monic_coefficients(f, z)[n], n)
              for z, f, n in zip(sp.sections, polys, sp.degrees)]
    least = least_ratio((order_at(a, y), n) for a, n in consts if not a.is_zero())
    eord = data.elim_ord
    if min(eord, least) == data.value:
        return
    s, i, j = min(((Fraction(order_at(a, y), j), i, j)
                   for i, j, a in _middle_coefficients(sp.sections, polys)),
                  default=(INF, 0, 0))
    if s < eord:
        raise DominationError(
            "cleaned middle coefficient a_%d of polynomial %d has slope %s "
            "below the elimination order %s; the reduced H-order formula "
            "does not apply" % (j, i + 1, s, eord))
    raise InvariantError("p-presentation H-order formulas disagree")


def hord(sp: SimplifiedPresentation, y: PointSpec):
    return hord_data(sp, y).value

