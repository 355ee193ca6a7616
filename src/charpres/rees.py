"""Rees algebras: singular loci, orders, differential saturation,
and the tangent-cone codimension invariant tau.

A Rees algebra is handled through a finite generator list [(f, n)] with
weights n >= 1.  All membership and order computations are generator-level,
which is exact for the algebra those generators span.  A generator that is a
nonzero constant in positive weight marks the unit algebra (empty singular
locus); an empty generator list is the trivial algebra (order infinity,
singular everywhere), which is what an absent elimination part degenerates to.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import BudgetError, InputError, InvariantError
from .poly import (ClosedPoint, FieldSpec, GenericPoint, MPoly, PointSpec,
                   _numerators, _primitive_terms, least_ratio, order_at)


@dataclass(unsafe_hash=True)
class ReesAlg:
    """A finitely generated Rees algebra given by weighted generators."""

    field: FieldSpec
    nvars: int
    gens: tuple  # tuple[tuple[MPoly, int], ...], canonical order
    is_unit: bool = False

    @classmethod
    def make(cls, field: FieldSpec, nvars: int,
             gens: Iterable[tuple], is_unit: bool = False) -> "ReesAlg":
        kept = []
        unit = is_unit
        for f, n in gens:
            if n < 1:
                raise InputError("generator weights must be positive")
            if f.field != field or f.nvars != nvars:
                raise InputError("generator lives in the wrong ring")
            if f.is_zero():
                continue
            if f.is_constant():
                unit = True
                continue
            kept.append((f, n))
        # sorted, an exact repeat sits next to its first copy; dropping it
        # there compares coefficients and hashes none
        kept.sort(key=lambda t: (t[1], t[0].terms))
        return cls(field, nvars, tuple(g for g, _ in itertools.groupby(kept)), unit)

    def with_extra(self, more: Iterable[tuple]) -> "ReesAlg":
        return ReesAlg.make(self.field, self.nvars,
                            list(self.gens) + list(more), self.is_unit)

    # True on an algebra that diff_saturate returned: it is its own
    # saturation, marked without a reference to itself
    _saturated = False
    # the saturation, computed on first use; see diff_saturate
    _saturation = None
    # the singular coordinate strata, scanned on first use; see
    # singular_coordinate_strata
    _strata = None


def nonempty_subsets(items):
    """Every nonempty subset of `items` as a tuple: by size, then in
    `itertools.combinations` order."""
    items = tuple(items)
    return itertools.chain.from_iterable(
        itertools.combinations(items, k) for k in range(1, len(items) + 1))


def sing_member(alg: ReesAlg, pt: PointSpec) -> bool:
    """Is the point in the singular locus (order >= weight for every generator)?"""
    if alg.is_unit:
        return False
    for f, n in alg.gens:
        if order_at(f, pt) < n:
            return False
    return True


def ord_at(alg: ReesAlg, pt: PointSpec):
    """The order of the algebra at a point: min over generators of nu/weight.

    The unit algebra has order 0 (callers can see alg.is_unit for the warning
    flag), the trivial algebra has order infinity.
    """
    if alg.is_unit:
        return Fraction(0)
    return least_ratio((order_at(f, pt), n) for f, n in alg.gens)


# -- differential saturation ---------------------------------------------------


def _derivatives(f: MPoly, max_total: int, most: int) -> list:
    """The nonzero Hasse derivatives H^alpha f with 1 <= |alpha| <= max_total,
    as (alpha, terms of H^alpha f) with |alpha| ascending, then alpha
    descending lex; None, as soon as a coordinate is done, once there are
    more than `most` of them.

    One walk extends prefixes of alpha one coordinate at a time, each with
    its surviving terms.  Hasse derivatives in disjoint variables compose
    with coefficient 1, so alpha_k = a multiplies each term c*x^e of the
    prefix by binom(e_k, a); the terms whose binomial vanishes in the field
    drop (over F_p, by Lucas' theorem, unless every base-p digit of a is at
    most the matching digit of e_k), and distinct terms stay distinct, so a
    prefix is dropped once none is left.  A prefix is never dropped after a
    nonzero entry (a 0 always extends it), and each ends in its own alpha,
    so every prefix but the one of zeros counts toward the total.  Over Q
    the terms are integer numerators over one denominator
    (`poly._numerators`), made into one Fraction each at the end, and over
    F_p they are reduced there; the exponents are e - alpha, which keeps
    the order of f's terms.
    """
    p = f.field.characteristic
    den, terms = (1, f.terms) if p else _numerators(f.terms)
    values = {m for e, _ in terms for m in e}
    # binom[a][m] = binom(m, a) in the field, 0 for m < a
    binom = [{m: math.comb(m, a) % p if p else math.comb(m, a) for m in values}
             for a in range(min(max_total, max(values, default=0)) + 1)]
    level = [((), max_total, terms)]
    for k in range(f.nvars):
        # extend each prefix by alpha_k = hi, ..., 0 under the terms it carries
        nxt = []
        for prefix, room, under in level:
            hi = min(room, max([e[k] for e, _ in under], default=0)) if room else 0
            for a in range(hi, 0, -1):
                col = binom[a]
                kept = [(e, c * w) for e, c in under if (w := col[e[k]])]
                if kept:
                    nxt.append((prefix + (a,), room - a, kept))
            nxt.append((prefix + (0,), room, under))
        level = nxt
        if len(level) - 1 > most:
            return None
    # level is in descending lex order, which the stable sort keeps per |alpha|
    level.sort(key=operator.itemgetter(1), reverse=True)
    sub = operator.sub
    return [(alpha, tuple([(tuple(map(sub, e, alpha)), c % p if p else Fraction(c, den))
                           for e, c in under]))
            for alpha, room, under in level if room < max_total]


def _monic_key(f: MPoly, n: int) -> tuple:
    """(weight, normalized terms): equal exactly for generators of one weight
    that differ by a nonzero scalar.  Over F_p the terms are scaled to
    leading coefficient 1; over Q they are `poly._primitive_terms`, which
    hash without Fractions."""
    p = f.field.characteristic
    if p:
        inv = pow(f.terms[0][1], -1, p)
        return n, tuple([(e, c * inv % p) for e, c in f.terms])
    return n, _primitive_terms(f.terms)


# _saturate raises BudgetError when the derivatives it forms times the terms
# of their generators would sum past this; the walk of a generator's
# derivatives gives up there, before it forms any of them.  It forms
# 1.0-2.4 * 10^7 such units a second (Python 3.11, 2 shared vCPUs; Q to
# F_101), so the bound is about a second of work.
SATURATION_MAX_WORK = 10 ** 7


def _saturate(alg: ReesAlg) -> ReesAlg:
    kept = {}
    for f, n in alg.gens:
        kept.setdefault(_monic_key(f, n), (f, n))
    if alg.is_unit:     # already saturated; only its scalar repeats go
        return ReesAlg.make(alg.field, alg.nvars, kept.values(), True)
    field, nvars = alg.field, alg.nvars
    unit = False
    work = 0
    for f, n in alg.gens:
        T = len(f.terms)
        most = (SATURATION_MAX_WORK - work) // T
        leaves = _derivatives(f, n - 1, most)
        if leaves is None:
            raise BudgetError("the saturation would take at least %d units of work "
                              "(derivatives times terms) at the generator of weight %d "
                              "with %d terms, above its budget of %d"
                              % (work + (most + 1) * T, n, T, SATURATION_MAX_WORK))
        work += len(leaves) * T
        for alpha, terms in leaves:
            g = MPoly(field, nvars, terms)     # nonzero
            if g.is_constant():
                unit = True
                continue
            g._derived = (f, alpha)
            m = n - sum(alpha)
            kept.setdefault(_monic_key(g, m), (g, m))
    return ReesAlg.make(field, nvars, kept.values(), unit)


def diff_saturate(alg: ReesAlg) -> ReesAlg:
    """Close the algebra under Hasse derivatives of order below each weight.

    One pass suffices: each generator (f, n) given is differentiated once per
    multi-index alpha with 1 <= |alpha| <= n - 1, giving (H^alpha f, n - |alpha|).
    By the composition rule H^beta H^alpha = binom(alpha + beta, alpha)
    H^(alpha + beta), a derivative of such a result is a scalar multiple of a
    result already formed (or zero), so the pass closes the generator set.
    Only the alpha with H^alpha f nonzero are formed, in the order of the
    full enumeration, |alpha| ascending, then alpha descending lex: one walk
    (`_derivatives`) extends alpha one coordinate at a time, and each
    H^alpha f is one single-variable step from its prefix's terms, the
    terms whose binomial vanishes dropped (by Lucas' theorem over F_p).
    Generators of one weight that differ by a scalar span the same algebra
    and are kept once, the first one formed (the given generators come
    first), so saturating a saturated algebra returns an equal algebra.
    Each derivative records its parent, as `MPoly.hasse_deriv_multi` does,
    so its translates are read off the parent's.
    Degree-0 derivative results are never formed (orders stay below the
    weight); a positive-weight constant marks the unit algebra.

    The saturation is computed once per `ReesAlg` instance and kept on it;
    a saturation is its own saturation, marked by a flag, so neither refers
    to itself.
    """
    if alg._saturated:
        return alg
    sat = alg._saturation
    if sat is None:
        sat = alg._saturation = _saturate(alg)
        sat._saturated = True
    return sat


# -- exact linear algebra over the base field ----------------------------------


def _subtract_multiple(row: dict, a, other: dict, p: int) -> None:
    """row -= a * other in place, dropping the cells that become zero."""
    get = row.get
    for j, y in other.items():
        x = (get(j, 0) - a * y) % p if p else get(j, 0) - a * y
        if x:
            row[j] = x
        else:
            del row[j]


def rref(rows, field: FieldSpec):
    """Reduced row echelon form of sparse rows; returns (reduced nonzero
    rows, pivot columns ascending).

    A row is a dict {column: nonzero entry}; entries are field elements,
    plain ints in range(p) over F_p and Fractions over Q.  Incremental
    Gauss-Jordan: each row in turn is cleared on the pivot columns found so
    far, and what is left, scaled to a leading 1, clears its leading column
    from the earlier pivot rows.  The pivot rows are zero on every other
    pivot column, so clearing touches only the cells a row holds, and a
    pivot row that is its leading 1 alone holds no column to clear: the
    cost follows the nonzeros rather than rows times columns.
    """
    p = field.characteristic
    basis = {}      # pivot column -> reduced row
    wide = []       # the pivot rows with more than one entry
    for given in rows:
        row = dict(given)
        for c in [c for c in row if c in basis]:
            _subtract_multiple(row, row[c], basis[c], p)
        if not row:
            continue
        lead = min(row)
        a = row[lead]
        if a != 1:
            inv = pow(a, -1, p) if p else Fraction(1) / a
            row = {j: x * inv % p if p else x * inv for j, x in row.items()}
        for other in wide:
            if lead in other:
                _subtract_multiple(other, other[lead], row, p)
        basis[lead] = row
        if len(row) > 1:
            wide.append(row)
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


# -- tau: codimension of the vertex space of the tangent cone ------------------


@dataclass(unsafe_hash=True)
class TangentData:
    """tau at a singular closed point and the initial forms it was read from."""

    tau: int
    initial_forms: tuple      # the degree-matching initial forms of the saturation


# _additive_forms_in_degree raises BudgetError, before it builds any row, when
# the multi-term forms would give more Macaulay rows than this in one graded
# piece.  It builds and reduces 5-14 * 10^4 such rows a second where most of
# their cells lie in the monomial ideal (Python 3.11, 2 shared vCPUs: 18,837
# in 0.26 s, 65,892 in 1.3 s, 255,189 in 1.8 s), and 0.6-2 * 10^4 where few
# do (82,177 in 14 s, 167,870 in 8.6 s), so the bound is a few seconds of
# work, and at worst about 15 s.
TAU_MAX_ROWS = 10 ** 5


def _additive_forms_in_degree(forms, degree: int, field: FieldSpec, nvars: int):
    """Additive forms sum(c_i x_i^degree) inside the degree-`degree` graded
    piece of the ideal generated by the given homogeneous forms, as their
    reduced row echelon basis: sparse vectors {i: c_i} in pivot order, each
    with its keys ascending.

    The single-term forms of degree at most `degree` span a monomial ideal
    M, kept as its minimal exponents; each pure power x_i^degree in M gives
    the unit vector {i: 1}.  Each multi-term form gives one sparse Macaulay
    row per monomial multiple, without the cells in M.  A monomial of
    degree at most `degree` is packed into the int sum(e_i * (degree + 1)^i),
    so a product of monomials is a sum of ints.  A monomial gets its column
    the first time it appears, and x_i^degree gets column first + i, after
    every other monomial of the degree.  After one rref, the rows whose
    pivot lies in that last block are the other additive forms; they are
    zero on the pure powers in M.  Raises BudgetError when the multi-term
    forms would give more than TAU_MAX_ROWS rows.
    """
    singles, multi = [], []
    for f in forms:
        d = f.total_degree()
        if d > degree:
            continue
        if len(f.terms) > 1:
            multi.append((f, d))
        elif f.terms:
            singles.append(f.terms[0][0])
    ideal = []      # the minimal exponents of M; a divisor comes first by degree
    for e in sorted(singles, key=sum):
        if not _in_monomial_ideal(e, ideal):
            ideal.append(e)
    pure = [i for i in range(nvars) if _in_monomial_ideal(
        tuple(degree if j == i else 0 for j in range(nvars)), ideal)]
    out = [{i: field.one} for i in pure]
    if not multi:
        return out
    count = sum(math.comb(degree - d + nvars - 1, nvars - 1) for _, d in multi)
    if count > TAU_MAX_ROWS:
        raise BudgetError("the degree-%d piece of the tangent cone's ideal would take "
                          "%d Macaulay rows, above its budget of %d"
                          % (degree, count, TAU_MAX_ROWS))
    base = degree + 1
    weights = [base ** i for i in range(nvars)]
    first = math.comb(degree + nvars - 1, nvars - 1) - nvars
    # packed monomial -> its column, or None when it lies in M
    column = {degree * w: None if i in pure else first + i
              for i, w in enumerate(weights)}
    fresh = itertools.count()
    rows = []
    for f, d in multi:
        terms = [(sum(map(operator.mul, e, weights)), c) for e, c in f.terms]
        for m in map(sum, itertools.combinations_with_replacement(weights, degree - d)):
            row = {}
            for e, c in terms:
                k = m + e
                j = column.get(k, -1)
                if j == -1:
                    exps, rest = [], k
                    for _ in range(nvars):
                        rest, r = divmod(rest, base)
                        exps.append(r)
                    j = column[k] = None if _in_monomial_ideal(exps, ideal) else next(fresh)
                if j is not None:
                    row[j] = c
            if row:
                rows.append(row)
    if rows:
        reduced, pivots = rref(rows, field)
        out += [{j - first: c for j, c in sorted(row.items())}
                for row, c in zip(reduced, pivots) if c >= first]
        out.sort(key=min)
    return out


def _in_monomial_ideal(e, ideal) -> bool:
    """Does one of the exponent vectors in `ideal` divide the monomial e?"""
    for g in ideal:
        for a, b in zip(g, e):
            if a > b:
                break
        else:
            return True
    return False


def _tangent_forms(sat: ReesAlg, pt: ClosedPoint) -> list:
    """Initial forms at pt of the saturated generators whose order there
    equals their weight, read from their translates (kept on each `MPoly`).

    Raises InputError when pt is off the singular locus: the algebra is the
    unit algebra or some generator has order below its weight.
    """
    if sat.is_unit:
        raise InputError("tau is only defined at points of the singular locus")
    forms = []
    for f, n in sat.gens:
        g = f.translate(pt.values)
        order = g.order_total()
        if order < n:
            raise InputError("tau is only defined at points of the singular locus")
        if order == n:
            forms.append(g.homogeneous_part(n))
    return forms


def tau_at(alg: ReesAlg, pt: ClosedPoint) -> TangentData:
    """Codimension of the subspace of vertices of the tangent cone at pt.

    Saturates absolutely, collects initial forms of generators whose local
    order equals their weight, and measures the independent additive forms in
    the p-power graded pieces of the ideal they generate (degree-one forms in
    characteristic 0, where full saturation already exposes every vertex).
    In each piece the single-term forms are read as a monomial ideal and
    only the others give Macaulay rows (`_additive_forms_in_degree`), which
    raises BudgetError past TAU_MAX_ROWS rows in one piece.
    """
    if not isinstance(pt, ClosedPoint):
        raise InputError("tau is computed at closed points")
    sat = diff_saturate(alg)
    forms = _tangent_forms(sat, pt)
    field, nvars = alg.field, alg.nvars
    p = field.characteristic
    degrees = [1]  # p^e at index e
    if p:
        maxdeg = max((f.total_degree() for f in forms), default=0)
        while degrees[-1] * p <= maxdeg:
            degrees.append(degrees[-1] * p)
    roots = []
    for deg in degrees:
        # the root of sum c_i x_i^deg is sum c_i x_i: over F_p each
        # coefficient is its own p-th root, and over Q deg is 1
        roots += _additive_forms_in_degree(forms, deg, field, nvars)
    tau = len(rref(roots, field)[0]) if roots else 0
    # saturation leaves the singular locus unchanged, so the strata of
    # sat are those of alg, and sat keeps them once scanned; the vertices at
    # pt span the tangent space of every singular stratum through pt
    codims = [len(s) for s in singular_coordinate_strata(sat)
              if all(pt.values[i] == 0 for i in s)]
    if codims and tau > min(codims):
        raise InvariantError(
            "tau exceeded the codimension of a coordinate singular stratum")
    return TangentData(tau, tuple(forms))


def singular_coordinate_strata(alg: ReesAlg) -> list:
    """All variable subsets S with the generic point of V(S) singular, by
    size, then in `itertools.combinations` order.

    A generator's order at the generic point of V(S) only grows with S, so
    V(S) is singular when some V(S - {v}) is, and no stratum is singular
    when the origin, which lies on every V(S), is not.  The scan tests the
    origin first and stops there when it is smooth; otherwise it walks the
    2^nvars - 1 strata and tests only those with no singular V(S - {v}).
    The strata are scanned once per `ReesAlg` instance and kept on it; each
    call returns a fresh list.
    """
    strata = alg._strata
    if strata is None:
        strata = alg._strata = _scan_strata(alg)
    return list(strata)


def _scan_strata(alg: ReesAlg) -> tuple:
    origin = frozenset(range(alg.nvars))
    if not origin or not sing_member(alg, GenericPoint(origin)):
        return ()
    found = {}      # dict for its insertion order
    for S in map(frozenset, nonempty_subsets(range(alg.nvars))):
        if (S == origin or any(S - {v} in found for v in S)
                or sing_member(alg, GenericPoint(S))):
            found[S] = None
    return tuple(found)


# -- brute-force translation oracle (small finite fields) ----------------------

# The most translation vectors (p^m)^nvars the oracle will enumerate.
ORACLE_MAX_VECTORS = 10 ** 6


class SmallExtField:
    """Arithmetic in F_{p^m} for m = 1, 2, 3, elements as coefficient tuples.

    For m > 1 the modulus is the first monic polynomial of degree m, its
    lower coefficients in `itertools.product` order, with no root in F_p:
    in degree 2 or 3 a proper factor would be linear, so that is exactly
    irreducibility.  Fields of more than ORACLE_MAX_VECTORS elements are
    refused, which bounds the O(p) root tests of the search.
    """

    def __init__(self, p: int, m: int):
        if not 1 <= m <= 3:
            raise InputError("extension degree must be 1, 2 or 3")
        if p ** m > ORACLE_MAX_VECTORS:
            raise BudgetError("F_%d^%d has %d elements, above the oracle's budget of %d"
                              % (p, m, p ** m, ORACLE_MAX_VECTORS))
        self.p = p
        self.m = m
        self.modulus = None if m == 1 else next(
            c + (1,) for c in itertools.product(range(p), repeat=m)
            if all((a ** m + sum(x * a ** i for i, x in enumerate(c))) % p
                   for a in range(p)))

    def zero(self):
        return (0,) * self.m

    def embed(self, c: int):
        return (c % self.p,) + (0,) * (self.m - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, m = self.p, self.m
        if m == 1:
            return ((a[0] * b[0]) % p,)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        mod = self.modulus
        for k in range(len(prod) - 1, m - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(m):
                    prod[k - m + j] = (prod[k - m + j] - c * mod[j]) % p
        return tuple(prod[:m])

    def power(self, a, n: int):
        out = self.embed(1)
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def elements(self):
        return itertools.product(range(self.p), repeat=self.m)


def tau_translation_oracle(alg: ReesAlg, pt: ClosedPoint, ext_degree: int = 1) -> int:
    """Brute-force tau: count translations over F_{p^m} fixing every collected
    initial form, i.e. vectors v with F(x + v) = F(x) identically.

    The good vectors form the rational points of the vertex space, so their
    count is (p^m)^dim.  Exact for cones cut by the collected forms
    individually; used as an oracle in tests and behind a CLI flag.  Any
    prime p and m = 1, 2, 3 serve, within ORACLE_MAX_VECTORS; the count
    does not depend on the modulus `SmallExtField` picks, as all fields of
    p^m elements are isomorphic over F_p.
    """
    p = alg.field.characteristic
    if p == 0:
        raise InputError("the translation oracle needs positive characteristic")
    # refuses a degree outside 1..3 and a field past the budget, before any work
    gf = SmallExtField(p, ext_degree)
    nvars = alg.nvars
    vectors = (p ** ext_degree) ** nvars
    if vectors > ORACLE_MAX_VECTORS:
        raise BudgetError("the translation oracle would enumerate %d vectors over F_%d^%d "
                          "in %d variables, above its budget of %d"
                          % (vectors, p, ext_degree, nvars, ORACLE_MAX_VECTORS))
    forms = _tangent_forms(diff_saturate(alg), pt)

    # Precompute, per form, the coefficient table of F(x+v) - F(x) as a
    # polynomial in x whose coefficients are polynomials in v:
    #   F(x+v) = sum_alpha Hasse^alpha(F)(x) * v^alpha.
    tables = []
    for F in forms:
        table: dict = {}
        degs = [F.degree_in_var(i) for i in range(nvars)]
        for alpha in itertools.product(*(range(d + 1) for d in degs)):
            if sum(alpha) == 0:
                continue
            g = F.hasse_deriv_multi(alpha)
            for e, c in g.terms:
                table.setdefault(e, []).append((alpha, c))
        tables.append(table)

    good = 0
    for v in itertools.product(gf.elements(), repeat=nvars):
        ok = True
        for table in tables:
            for entries in table.values():
                acc = gf.zero()
                for alpha, c in entries:
                    term = gf.embed(int(c))
                    for i, a in enumerate(alpha):
                        if a:
                            term = gf.mul(term, gf.power(v[i], a))
                    acc = gf.add(acc, term)
                if acc != gf.zero():
                    ok = False
                    break
            if not ok:
                break
        if ok:
            good += 1
    q = p ** ext_degree
    dim = 0
    count = good
    while count > 1:
        if count % q:
            raise InvariantError("fixed-translation count is not a power of the field size")
        count //= q
        dim += 1
    return nvars - dim

