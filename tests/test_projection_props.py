"""Property test: the H-order memo along random permissible towers.

Every presentation of a random tower over F_2, F_3 or F_5 is asked for its
H-order at the chart origin and at the generic point of every stratum of
the present exceptional divisors.  The memoised answer must equal the one
computed on a presentation rebuilt from the same fields for that point, with
fresh polynomials, so that neither the H-order memo nor the coefficient
splits are shared, or both must raise the same DominationError.

The normal-form test reads the weight-q initial form piece by piece and
skips it when a_(p^e) misses the slope; over F_2, F_3, F_5, F_7 and Q, at the
origin, at closed points off it and at generic points, it must give what the
whole form, built first, gives.  A root A it returns must expand, in sympy,
to the weight-nq terms of f, and a (z + B)^n draw whose added terms all lie
above the weight of B must return B.

Every blowup carries the monic split of each section polynomial to its
transform; the carried split must equal the one rebuilt from the terms,
and the H-order must agree with the rebuilt presentation's.

Cleaning one section polynomial over F_2 or F_3 reaches the largest slope
that a substitution z -> z + alpha vanishing at the point can.  The best
alpha of bounded degree, tried one by one, gives the same slope at the
origin (degree at most the ceiling of the slope) and along x = 0 (degree at
most the larger of 2 and that ceiling); at the origin an infinite slope is
only checked to be no lower.  Moved so that its origin sits at a closed
point y off the origin, with section coordinate 0, the same polynomial
cleans at y to the same slope.

The tests skip when hypothesis is not installed; it is not a runtime
dependency.
"""

import itertools
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import assume, example, given, settings  # noqa: E402

from charpres.blowup import Tower  # noqa: E402
from charpres.errors import DominationError  # noqa: E402
from charpres.poly import (INF, ClosedPoint, FieldSpec, GenericPoint,  # noqa: E402
                           MPoly, monic_coefficients, parse_poly)
from charpres.projection import (SimplifiedPresentation, _weighted_root,  # noqa: E402
                                 hord, hord_data, make_p_presentation,
                                 normalize, normalize_poly, slope_poly)
from charpres.rees import ReesAlg  # noqa: E402

from oracles import brute_force_slope, weighted_root_reference  # noqa: E402
from strategies import towers  # noqa: E402

PROPS = settings(max_examples=40, deadline=None)


def _cleaning_breaks_domination():
    """Over F_5, cleaning z -> z - x moves a_4 to 3x^7 + 3x^3y^4 + 4x^6, of
    slope 3/2 below the elimination order 2 at the origin."""
    field = FieldSpec(5)
    f = parse_poly("z^5 + x^3*z^4 + x*y^4*z^3 + x^4*z^3 + x^6*z^2 + x^5", field,
                   ("z", "x", "y"))
    sp = make_p_presentation(field, 3, (0,), (f,), ReesAlg.make(field, 3, []))
    return Tower.start(["v0", "v1", "v2"], sp)


def _rebuilt(sp):
    def fresh(f):
        return MPoly(f.field, f.nvars, f.terms)
    elim = ReesAlg.make(sp.field, sp.nvars, [(fresh(g), n) for g, n in sp.elim.gens],
                        sp.elim.is_unit)
    return type(sp)(sp.field, sp.nvars, sp.sections,
                    tuple(fresh(f) for f in sp.polys), elim)


def _hord_or_error(sp, y):
    try:
        return hord_data(sp, y)
    except DominationError as exc:
        return str(exc)


@PROPS
@given(towers())
@example(_cleaning_breaks_domination())
def test_memoised_hord_matches_rebuilt_presentation(tower):
    present = sorted(tower.chart.present_divisors().values())
    for sp in tower.states():
        points = [ClosedPoint((sp.field.zero,) * sp.nvars)]
        points += [GenericPoint(frozenset(sub))
                   for k in range(1, len(present) + 1)
                   for sub in itertools.combinations(present, k)]
        for y in points:
            memo = _hord_or_error(sp, y)
            again = _rebuilt(sp)
            assert memo == _hord_or_error(again, y)
            if isinstance(memo, str):
                # a call that raises stores nothing and raises again
                assert _hord_or_error(sp, y) == memo
                continue
            assert hord_data(sp, y) is memo
            assert hord(sp, y) == hord(again, y)


@PROPS
@given(towers())
def test_carried_split_matches_rebuilt_split(tower):
    """Each blowup carries the monic split of every section polynomial to
    its transform; the carried split must equal the one rebuilt from the
    terms of a fresh copy, and the H-order must not change."""
    present = sorted(tower.chart.present_divisors().values())
    for sp in tower.states():
        again = _rebuilt(sp)
        for z, f, g in zip(sp.sections, sp.polys, again.polys):
            assert dict(monic_coefficients(f, z)) == dict(monic_coefficients(g, z))
        points = [ClosedPoint((sp.field.zero,) * sp.nvars)]
        points += [GenericPoint(frozenset(sub))
                   for k in range(1, len(present) + 1)
                   for sub in itertools.combinations(present, k)]
        for y in points:
            memo = _hord_or_error(sp, y)
            fresh = _hord_or_error(again, y)
            if isinstance(memo, str):
                assert memo == fresh
            else:
                assert memo.value == fresh.value


FIELDS = tuple(FieldSpec(p) for p in (2, 3, 5, 7, 0))


@st.composite
def rooted_polys(draw):
    """(f, y, B): f monic in z = x_0 over the downstairs variables, y a
    downstairs point: the origin, a closed point off it, or a generic point.
    Half the draws are (z + B)^n plus terms above the weight of B, in local
    coordinates at y, so that the weighted form has the root B; the others
    have B None."""
    field = draw(st.sampled_from(FIELDS))
    p = field.characteristic
    nvars = draw(st.integers(3, 4))
    down = list(range(1, nvars))
    coeff = st.integers(1, p - 1) if p else st.sampled_from((-2, -1, 1, 2, 3))
    kind = draw(st.sampled_from(("origin", "closed", "generic")))
    values = [0] * nvars
    if kind == "generic":
        graded = sorted(draw(st.sets(st.sampled_from(down), min_size=1)))
        y = GenericPoint(frozenset(graded))
    else:
        graded = down
        if kind == "closed":
            values[1:] = [draw(st.integers(0, (p or 4) - 1)) for _ in down]
            values[1] = draw(st.integers(1, (p or 4) - 1))
        y = ClosedPoint(tuple(field.coerce(v) for v in values))

    def form(degree):
        """A nonzero polynomial whose terms all have graded degree `degree`."""
        terms = {}
        for _ in range(draw(st.integers(1, 2))):
            exps = [0] * nvars
            for _ in range(degree):
                exps[draw(st.sampled_from(graded))] += 1
            for v in down:
                if v not in graded:
                    exps[v] = draw(st.integers(0, 2))
            terms[tuple(exps)] = draw(coeff)
        return MPoly.from_dict(field, nvars, terms)

    n = draw(st.integers(2, 5))
    z = MPoly.var(field, nvars, 0)
    if draw(st.booleans()):
        d = draw(st.integers(1, 2))
        B = form(d)
        f = (z + B) ** n
        above = lambda j: j * d + draw(st.integers(1, 2))  # noqa: E731
    else:
        B = None
        f = z ** n
        above = lambda j: draw(st.integers(0, 2 * j + 1))  # noqa: E731
    for j in draw(st.sets(st.integers(1, n), min_size=1)):
        f = f + form(above(j)) * z ** (n - j)
    if kind == "closed":
        f = f.translate(tuple(field.neg(field.coerce(v)) for v in values))
    return f, y, B


@PROPS
@given(rooted_polys())
def test_weighted_root_matches_the_weighted_form(case):
    f, y, _ = case
    q = slope_poly(f, 0, y)
    assume(q != INF)
    assert _weighted_root(f, 0, y, q) == weighted_root_reference(f, 0, y, q)


def _sympy_terms(sympy, f: MPoly, shift=()):
    """{exponents: coefficient} of f expanded in sympy after x_i -> x_i + v
    for the values v of `shift`, given for x_1, x_2, ..."""
    p = f.field.characteristic
    xs = sympy.symbols("x0:%d" % f.nvars)
    expr = sum(sympy.Rational(c) * sympy.Mul(*(x ** k for x, k in zip(xs, e)))
               for e, c in f.terms)
    expr = expr.subs({x: x + sympy.Rational(v) for x, v in zip(xs[1:], shift)},
                     simultaneous=True)
    poly = sympy.Poly(expr, *xs, domain=sympy.GF(p) if p else sympy.QQ)
    return {e: c for e, c in poly.terms() if c != 0}


@PROPS
@given(rooted_polys())
def test_weighted_root_expands_to_the_weight_nq_terms(case):
    """(Z + A)^n, expanded in sympy, is the part of f at y of weight n*q,
    where z weighs q, the variables of a generic point (every variable but
    z at a closed point) weigh 1 and the others 0."""
    sympy = pytest.importorskip("sympy")
    f, y, _ = case
    q = slope_poly(f, 0, y)
    assume(q != INF)
    A = _weighted_root(f, 0, y, q)
    assume(A is not None)
    n = f.degree_in_var(0)
    if isinstance(y, ClosedPoint):
        graded, shift = range(1, f.nvars), y.values[1:]
    else:
        graded, shift = y.vars, ()
    boundary = {e: c for e, c in _sympy_terms(sympy, f, shift).items()
                if q * e[0] + sum(e[i] for i in graded) == n * q}
    assert boundary == _sympy_terms(sympy, (MPoly.var(f.field, f.nvars, 0) + A) ** n)


@PROPS
@given(rooted_polys())
def test_weighted_root_finds_the_drawn_root(case):
    """(z + B)^n plus terms strictly above the weight of B has the root B."""
    f, y, B = case
    assume(B is not None)
    assert _weighted_root(f, 0, y, slope_poly(f, 0, y)) == B


def _form(draw, field, nvars, d):
    """A nonzero form of degree d in the last two of nvars variables."""
    p = field.characteristic
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=d + 1, max_size=d + 1)
                  .filter(any))
    return MPoly.from_dict(field, nvars, {(0,) * (nvars - 2) + (i, d - i): c
                                          for i, c in enumerate(coeffs)})


def _cleanable(draw, field, nvars, zi):
    """A monic polynomial in the variable zi with coefficients in the last
    two variables x, y: often (z + r)^n with r a nonzero linear form in x,
    y, plus terms a_j z^(n-j) with a_j a nonzero form of degree j + 1 to 2j,
    so cleaning has slopes above 1 to reach."""
    n = draw(st.sampled_from((2, 3)))
    z = MPoly.var(field, nvars, zi)
    f = (z + _form(draw, field, nvars, 1)) ** n if draw(st.booleans()) else z ** n
    for j in draw(st.sets(st.integers(1, n), min_size=1)):
        f = f + _form(draw, field, nvars, draw(st.integers(j + 1, 2 * j))) * z ** (n - j)
    return f


@st.composite
def cleanable_polys(draw):
    """A `_cleanable` polynomial over F_2 or F_3 on z, x, y."""
    return _cleanable(draw, FieldSpec(draw(st.sampled_from((2, 3)))), 3, 0)


@st.composite
def two_section_presentations(draw):
    """Two `_cleanable` section polynomials over F_2 or F_3 on z1, z2, x, y,
    one in z1 and one in z2, over an elimination part that is empty (order
    inf) or one form in x, y of degree 1 to 4 and weight 2 or 3."""
    field = FieldSpec(draw(st.sampled_from((2, 3))))
    polys = (_cleanable(draw, field, 4, 0), _cleanable(draw, field, 4, 1))
    gens = []
    if draw(st.booleans()):
        gens.append((_form(draw, field, 4, draw(st.integers(1, 4))),
                     draw(st.sampled_from((2, 3)))))
    return SimplifiedPresentation(field, 4, (0, 1), polys, ReesAlg.make(field, 4, gens))


@PROPS
@given(cleanable_polys())
def test_cleaning_reaches_the_brute_force_slope(f):
    origin = ClosedPoint((0, 0, 0))
    s = normalize_poly(f, 0, origin).slope
    if s == INF:
        assert brute_force_slope(f, 0, origin, 2) <= s
    else:
        # an alpha of degree at most the ceiling of the slope suffices
        assert brute_force_slope(f, 0, origin, math.ceil(s)) == s
    along_x = GenericPoint(frozenset({1}))
    sx = normalize_poly(f, 0, along_x).slope
    assert brute_force_slope(f, 0, along_x, 2 if sx is INF else max(2, math.ceil(sx))) == sx


@PROPS
@given(two_section_presentations())
def test_two_sections_clean_to_the_brute_force_slopes(sp):
    # each section polynomial cleans on its own, up to the elimination
    # order; the alphas tried use x and y only, never the other section
    origin = ClosedPoint((0, 0, 0, 0))
    data = normalize(sp, origin)
    eord = data.elim_ord
    least = []
    for z, f, r in zip(sp.sections, sp.polys, data.normalizations):
        s = min(r.slope, eord)
        if s == INF:
            assert brute_force_slope(f, z, origin, 2, down=(2, 3)) <= s
        else:
            # the alphas cleaning takes below eord have degree below it
            D = max(1, math.ceil(s))
            assert min(brute_force_slope(f, z, origin, D, down=(2, 3)), eord) == s
        least.append(s)
    assert data.value == min(least)


@PROPS
@given(cleanable_polys(), st.data())
def test_cleaning_off_the_origin_reaches_the_slope_at_the_origin(f, data):
    # f moved so that its origin sits at y: the slope cleaning reaches at y
    # must be the one it reaches for f at the origin, and the brute-force one
    p = f.field.characteristic
    down = data.draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(any))
    y = ClosedPoint((0,) + down)
    moved = f.translate((0,) + tuple(f.field.neg(v) for v in down))
    origin = ClosedPoint((0, 0, 0))
    s = normalize_poly(moved, 0, y).slope
    assert s == normalize_poly(f, 0, origin).slope
    if s == INF:
        assert brute_force_slope(f, 0, origin, 2) <= s
    else:
        assert brute_force_slope(f, 0, origin, math.ceil(s)) == s
