"""Property tests: the lift's claim point by point and chart by chart, and
the coordinate invariance of the H-order and of tau on tower states.

The lift's claim.  A strong tower's lifted centers are permissible and its
lift leaves a smooth chart origin.  After the lift, every F_p point of the
final chart is mapped back through the lift's blowups (x_c = x_c' * x_v for
the chart variable v); no point over the pre-lift origin may be singular
for the final upstairs algebra.  Only charts with p^n <= FIBER_MAX_POINTS
are enumerated.  The lift follows one chart per blowup; at each lifted
blowup whose center has two or more non-section variables the tower is
forked into every other non-section chart, and the fork must be strong and
lift as well.

Invariance.  The H-order at a point is unchanged by z -> z + alpha(x)
with ord alpha >= 1 there, and, on some draws, by x_i -> x_i + beta_i(x)
with ord beta_i >= 2 there, applied to the section polynomials and the
elimination generators alike.  At a singular point with section
coordinates 0, tau of the upstairs algebra is at least e + tau(elim): the
initial forms of the e section polynomials add e roots in their own
variables.  Both are checked at the chart origin and on the strata of the
present divisors: the H-order at the stratum's generic point, where alpha
and beta lie in the stratum's ideal, and tau at the closed point of the
stratum whose other downstairs coordinates are 1.

All run over `towers()` draws and over the towers of the benchmark's seed-1
`towers` workload, there on every state with one seeded move per point.  The tests
skip when hypothesis is not installed; it is not a runtime dependency.
"""

import itertools
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import example, given, settings  # noqa: E402

from charpres.blowup import Center, Tower  # noqa: E402
from charpres.errors import CharpresError  # noqa: E402
from charpres.monomial import is_strong_monomial, lift_resolution  # noqa: E402
from charpres.poly import (ClosedPoint, FieldSpec, GenericPoint, MPoly,  # noqa: E402
                           parse_poly)
from charpres.projection import (SimplifiedPresentation, hord_data,  # noqa: E402
                                 upstairs_algebra)
from charpres.rees import ReesAlg, sing_member, tau_at  # noqa: E402
from oracles import lift_back_map, workload_towers  # noqa: E402
from strategies import towers  # noqa: E402

PROPS = settings(max_examples=40, deadline=None)
FIBER_MAX_POINTS = 625


# -- the lift, point by point and chart by chart ----------------------------------


def _lift(tower):
    """The number of steps before the lift, or None when the tower is not
    strong.  A strong tower's lifted centers are permissible, and its lift
    leaves a smooth chart origin; other lift failures (an infinite H-order
    at a center) are not this file's concern and give None."""
    try:
        if not is_strong_monomial(tower).strong:
            return None
    except CharpresError:
        return None
    before = len(tower.steps)
    try:
        lift_resolution(tower)
    except CharpresError as exc:
        assert "is impermissible" not in str(exc)
        assert "lift ended with singular strata" not in str(exc)
        return None
    return before


def _assert_fiber_over_origin_is_regular(tower, before):
    field, n = tower.obj.field, tower.obj.nvars
    p = field.characteristic
    if p ** n > FIBER_MAX_POINTS:
        return
    up = upstairs_algebra(tower.obj)
    lifted = tower.steps[before:]
    for values in itertools.product(range(p), repeat=n):
        if any(lift_back_map(field, lifted, values)):
            continue
        assert not sing_member(up, ClosedPoint(values)), values


def _forks(tower, before):
    """At each lifted blowup whose center has two or more non-section
    variables, the tower up to that blowup, blown up in each other
    non-section chart instead."""
    sections = frozenset(tower.obj.sections)
    for i in range(before, len(tower.steps)):
        step = tower.steps[i]
        down = [v for v in step.center if v not in sections]
        if len(down) < 2:
            continue
        # a lifted blowup follows a game move on present divisors, so the
        # tower had a step before it
        prev = tower.steps[i - 1]
        # the lift blew up the presentation cleaned at the center
        cleaned = hord_data(prev.obj, GenericPoint(frozenset(down))).cleaned
        for v in down:
            if v == step.chart_var:
                continue
            fork = Tower(prev.chart, cleaned or prev.obj, tower.steps[:i], tower.initial_obj)
            fork.blow_up(Center(frozenset(step.center)), v)
            yield fork


def _check_lift(tower):
    before = _lift(tower)
    if before is None:
        return
    _assert_fiber_over_origin_is_regular(tower, before)
    for fork in _forks(tower, before):
        assert is_strong_monomial(fork).strong
        lift_resolution(fork)


def _square_section_tower():
    """Over F_2, z2^2 + x^2*w^2 = (z2 + x*w)^2: hord measures the cleaned z2^2
    along the lifted centers, so the lift must blow up the cleaned section."""
    field = FieldSpec(2)
    names = ("z1", "z2", "x", "y", "w")
    polys = tuple(parse_poly(t, field, names)
                  for t in ("z1^2 + x^3*w^3", "z2^2 + x^2*w^2"))
    elim = ReesAlg.make(field, 5, [(parse_poly("x^4*w^4", field, names), 3)])
    tower = Tower.start(names, SimplifiedPresentation(field, 5, (0, 1), polys, elim))
    for chart in (2, 4, 2, 2, 2, 2, 2):
        tower.blow_up(Center(frozenset({0, 1, 2, 4})), chart)
    return tower


def _off_divisor_factor_tower(blowups):
    """Over F_2, z^2 + x^3*y^3 with no elimination part, blown up at {z, y}
    in chart y when `blowups`: the factor x^3 lies off every divisor, so
    only the chart origin shows that the H-order exceeds the monomial
    order."""
    field = FieldSpec(2)
    f = parse_poly("z^2 + x^3*y^3", field, ("z", "x", "y"))
    sp = SimplifiedPresentation(field, 3, (0,), (f,), ReesAlg.make(field, 3, []))
    tower = Tower.start(["v0", "v1", "v2"], sp)
    if blowups:
        tower.blow_up(Center(frozenset({0, 2})), 2)
    return tower


@settings(max_examples=100, deadline=None)
@given(towers())
@example(_square_section_tower())
@example(_off_divisor_factor_tower(True))
@example(_off_divisor_factor_tower(False))
def test_strong_towers_lift_through_permissible_centers(tower):
    _check_lift(tower)


def test_lift_on_the_seed_1_workload_towers():
    for _, tower in workload_towers(1):
        _check_lift(tower)


# -- invariance of the H-order and of tau -----------------------------------------


def _state_and_strata(tower, i):
    """State i of the tower and the present-divisor variables of its chart."""
    sp = tower.states()[i]
    chart = tower.steps[i - 1].chart if i else None
    present = sorted(chart.present_divisors().values()) if chart else []
    return sp, present


def _hord_points(sp, present):
    """(point, the variables of its ideal): the chart origin, and the
    generic point of every present-divisor stratum."""
    down = [v for v in range(sp.nvars) if v not in sp.sections]
    yield ClosedPoint((sp.field.zero,) * sp.nvars), down
    for k in range(1, len(present) + 1):
        for stratum in itertools.combinations(present, k):
            yield GenericPoint(frozenset(stratum)), list(stratum)


def _in_ideal(integer, sp, ideal, order):
    """c times a product of `order` variables of `ideal`, and on some draws
    times one more downstairs variable: a term of order >= `order` along
    V(ideal).  `integer(lo, hi)` draws an integer of [lo, hi]."""
    down = [v for v in range(sp.nvars) if v not in sp.sections]
    exps = [0] * sp.nvars
    for _ in range(order):
        exps[ideal[integer(0, len(ideal) - 1)]] += 1
    if integer(0, 1):
        exps[down[integer(0, len(down) - 1)]] += 1
    return MPoly.from_dict(sp.field, sp.nvars,
                           {tuple(exps): integer(1, sp.field.characteristic - 1)})


def _moved(integer, sp, ideal):
    """sp moved by z_j -> z_j + alpha_j for every section and, on a third of
    the draws, x_i -> x_i + beta_i for one downstairs variable, alpha and
    beta of one or two terms of order >= 1 and >= 2 along V(ideal).  The
    result is a plain presentation: the move shifts a p-presentation's
    middle coefficients, which its elimination part would have to hold."""
    field, nvars = sp.field, sp.nvars

    def small(order):
        f = _in_ideal(integer, sp, ideal, order)
        return f + _in_ideal(integer, sp, ideal, order) if integer(0, 1) else f

    zs = {z: MPoly.var(field, nvars, z) + small(1) for z in sp.sections}
    xs = {}
    if integer(0, 2) == 0:
        down = [v for v in range(nvars) if v not in sp.sections]
        i = down[integer(0, len(down) - 1)]
        xs[i] = MPoly.var(field, nvars, i) + small(2)
    polys = tuple(f.substitute({**zs, **xs}) for f in sp.polys)
    gens = [(g.substitute(xs) if xs else g, m) for g, m in sp.elim.gens]
    return SimplifiedPresentation(field, nvars, sp.sections, polys,
                                  ReesAlg.make(field, nvars, gens, sp.elim.is_unit))


def _assert_hord_invariant(sp, moved, point):
    try:
        value = hord_data(sp, point).value
    except CharpresError:
        return      # a p-presentation whose reduced formula does not apply
    assert hord_data(moved, point).value == value, point


@PROPS
@given(towers(), st.data())
def test_hord_is_invariant_under_coordinate_changes(tower, data):
    sp, present = _state_and_strata(tower, data.draw(st.integers(0, len(tower.steps))))
    point, ideal = data.draw(st.sampled_from(list(_hord_points(sp, present))))

    def integer(lo, hi):
        return data.draw(st.integers(lo, hi))

    _assert_hord_invariant(sp, _moved(integer, sp, ideal), point)


def _tau_points(sp, present):
    """The chart origin and, per present-divisor stratum, its closed point
    with the other downstairs coordinates 1 (section coordinates 0)."""
    field, n = sp.field, sp.nvars
    yield ClosedPoint((field.zero,) * n)
    for k in range(1, len(present) + 1):
        for stratum in itertools.combinations(present, k):
            yield ClosedPoint(tuple(field.zero if v in stratum or v in sp.sections
                                    else field.one for v in range(n)))


def _assert_tau_law(sp, present):
    up = upstairs_algebra(sp)
    e = len(sp.sections)
    for point in _tau_points(sp, present):
        if sing_member(up, point):
            assert tau_at(up, point).tau >= e + tau_at(sp.elim, point).tau, point


@PROPS
@given(towers(), st.data())
def test_tau_of_the_upstairs_algebra_counts_the_sections(tower, data):
    i = data.draw(st.integers(0, len(tower.steps)))
    _assert_tau_law(*_state_and_strata(tower, i))


def test_invariance_laws_on_the_seed_1_workload_towers():
    """Every state of every seed-1 workload tower: the tau law, and the
    H-order law at each point with one seeded random move."""
    rng = random.Random(1)
    for _, tower in workload_towers(1):
        for i in range(len(tower.steps) + 1):
            sp, present = _state_and_strata(tower, i)
            _assert_tau_law(sp, present)
            for point, ideal in _hord_points(sp, present):
                _assert_hord_invariant(sp, _moved(rng.randint, sp, ideal), point)
