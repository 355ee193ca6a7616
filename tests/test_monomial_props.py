"""Property tests: the resolution game and the strong-monomial test against
their references, and the laws behind the strong check's divisibility test.

`resolve_game` tests a qualifying stratum for inclusion-minimality by
dropping its least exponent; `oracles.reference_resolve_game` drops each
divisor in turn.  On random exponent tables (s from 1 to 6, one to four
divisors, some absent from the chart) both must return the same
`GameResult`, moves, final table and incidence complex alike.

`monomial._strong_check` compares the monomial algebra with each monomial
elimination generator itself; `oracles.strong_divisibility_reference`
composes per-generator monomial algebras and a divisibility order.  On
random towers whose elimination part is swapped for random monomials in
the present-divisor variables, both must give the same witness, or the
same NonMonomialElimError, or neither.

On every tower that `Tower.blow_up` builds, the lift's included, the
tracked monomial algebra is in lowest terms, gcd(s, h_1, ..., h_r) = 1,
and when the elimination generators are monomials in the present divisors
it divides each of them: h*m <= e*s for every generator of weight m and
every present label.  At the step that creates a divisor, h/s = hord - 1 <=
eord - 1 <= e/m, and later steps leave e unchanged while the divisor is
present.

The strong check reads its stratum comparisons from the sandwich rows:
on every tower, its "checked" rows but the last are the sandwich rows'
(hord, ord_monomial), in order, and every ord_monomial there and at the
chart origin is `oracles.ord_monomial_reference` at that point.

The tests skip when hypothesis is not installed; it is not a runtime
dependency.
"""

import math
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import assume, event, example, given, settings  # noqa: E402

from charpres.blowup import Center, Chart, Tower  # noqa: E402
from charpres.errors import CharpresError, NonMonomialElimError  # noqa: E402
from charpres.monomial import (MonomialAlg, _strong_check,  # noqa: E402
                               is_strong_monomial, lift_resolution, resolve_game,
                               sandwich_report, track_monomial)
from charpres.poly import (ClosedPoint, FieldSpec, GenericPoint, MPoly,  # noqa: E402
                           parse_poly)
from charpres.projection import SimplifiedPresentation  # noqa: E402
from charpres.rees import ReesAlg  # noqa: E402
from oracles import (ord_monomial_reference, reference_resolve_game,  # noqa: E402
                     strong_divisibility_reference, workload_towers)
from strategies import towers  # noqa: E402

PROPS = settings(max_examples=200, deadline=None)


@st.composite
def games(draw):
    """A monomial algebra over s with 1-4 divisors H1.. and a chart in which
    each divisor is cut out by its own variable or misses the chart."""
    s = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    exps = draw(st.lists(st.integers(0, 3 * s), min_size=k, max_size=k))
    present = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    labels = ["H%d" % (i + 1) for i in range(k)]
    chart = Chart(tuple("x%d" % i for i in range(k)),
                  tuple((lab, i if on else None)
                        for i, (lab, on) in enumerate(zip(labels, present))))
    return MonomialAlg(s, tuple(zip(labels, exps))), chart


@PROPS
@given(games())
def test_game_matches_the_reference(case):
    M, chart = case
    assert resolve_game(M, chart) == reference_resolve_game(M, chart)


# -- the strong check's divisibility test ----------------------------------------


def _with_elim(tower, elim):
    """The tower with the elimination part of its presentation replaced by
    `elim`.  The result is a plain presentation: a p-presentation's
    elimination part would have to hold its middle coefficients too."""
    sp = tower.obj
    tower.obj = SimplifiedPresentation(sp.field, sp.nvars, sp.sections, sp.polys, elim)
    return tower


@st.composite
def monomial_elim_towers(draw):
    """A `towers()` draw whose elimination part is swapped for one to three
    monomials in the present-divisor variables.  Each exponent is drawn
    next to ceil(h*m/s), the least that the monomial algebra divides, or
    left out, so that both divided and undivided generators come up.  One
    draw in four spoils a generator, which must then raise whatever the
    others give."""
    tower = draw(towers())
    try:
        M = track_monomial(tower)
    except CharpresError:
        assume(False)
    sp = tower.obj
    field, nvars, p = sp.field, sp.nvars, sp.field.characteristic
    present = tower.chart.present_divisors()
    h = dict(M.exponents)
    gens = []
    for _ in range(draw(st.integers(1, 3)) if present else 0):
        m = draw(st.integers(1, 3))
        exps = [0] * nvars
        for lab, v in present.items():
            least = -(-h[lab] * m // M.s)
            if draw(st.integers(0, 3)):
                exps[v] = draw(st.integers(max(0, least - 1), least + 1))
        if not any(exps):
            exps[draw(st.sampled_from(sorted(present.values())))] = 1
        gens.append((MPoly.from_dict(field, nvars, {tuple(exps): draw(st.integers(1, p - 1))}),
                     m))
    # now and then one generator is spoiled: it gains a second term, or a
    # variable that cuts out no present divisor
    spoil = draw(st.sampled_from(("none",) * 6 + ("sum", "non-exceptional")))
    free = [v for v in range(nvars) if v not in sp.sections and v not in present.values()]
    if gens and spoil != "none" and (free or spoil == "sum"):
        i = draw(st.integers(0, len(gens) - 1))
        g, m = gens[i]
        v = draw(st.sampled_from(free if spoil == "non-exceptional" else sorted(present.values())))
        shifted = g * MPoly.var(field, nvars, v)
        gens[i] = (g + shifted if spoil == "sum" else shifted, m)
    return _with_elim(tower, ReesAlg.make(field, nvars, gens))


def _example(text, p, centers, elim_gens):
    """A one-section tower over F_p in z, x, y with the elimination part
    elim_gens, (text, weight) pairs, swapped in after the blowups."""
    field, names = FieldSpec(p), ("z", "x", "y")
    f = parse_poly(text, field, names)
    tower = Tower.start(names, SimplifiedPresentation(field, 3, (0,), (f,),
                                                      ReesAlg.make(field, 3, [])))
    index = {n: i for i, n in enumerate(names)}
    for cvars, chart in centers:
        tower.blow_up(Center(frozenset(index[v] for v in cvars)), index[chart])
    elim = ReesAlg.make(field, 3, [(parse_poly(t, field, names), m) for t, m in elim_gens])
    return _with_elim(tower, elim)


STD = (("zx", "x"), ("zy", "y"))


def _outcome(fn, tower):
    try:
        return fn(tower)
    except NonMonomialElimError as exc:
        return "NonMonomialElimError: %s" % exc


def _divisibility_outcome(tower):
    """What `_strong_check` says about divisibility: its "divides" witness,
    or None when every generator is divided."""
    res = _outcome(_strong_check, tower)
    if isinstance(res, str):
        return res
    if res.witness is not None and res.witness["kind"] == "divides":
        return res.witness
    return None


@settings(max_examples=150, deadline=None)
@given(monomial_elim_towers())
# M = (x^2*y^3)^(1/2) does not divide x*y W^2
@example(_example("z^2 + x^4*y^5", 2, STD, [("x*y", 2)]))
# M = x*y against x^2*y W, x*y W (equality) and M = x^2*y against x*y W
@example(_example("z^2 + x^5*y^4 + x^4*y^5", 3, STD, [("x^2*y", 1)]))
@example(_example("z^2 + x^5*y^4 + x^4*y^5", 3, STD, [("x*y", 1)]))
@example(_example("z^2 + x^6*y^4", 3, STD, [("x*y", 1)]))
# M = x^2 against x*y^3 W: 2 > 1 along H1
@example(_example("z^2 + x^6*y^2", 3, STD, [("x*y^3", 1)]))
# M = x against x^3*y^9 W^3, s != m: 1*3 = 3*1 along H1, 0 <= 9 along H2
@example(_example("z^2 + x^4*y^2", 3, STD, [("x^3*y^9", 3)]))
# M = x^(4/3) against x^2 W^2: 4*2 > 2*3
@example(_example("z^3 + x^7", 2, STD[:1], [("x^2", 2)]))
def test_strong_check_matches_the_divisibility_reference(tower):
    expected = _outcome(strong_divisibility_reference, tower)
    event("witness" if isinstance(expected, dict) else
          "error" if isinstance(expected, str) else "divided")
    assert _divisibility_outcome(tower) == expected


# -- the laws behind the divisibility test ----------------------------------------


def _prefixes(tower):
    """Every tower Tower.blow_up built on the way to `tower`, `tower`'s own
    state last."""
    for i, step in enumerate(tower.steps, 1):
        yield Tower(step.chart, step.obj, tower.steps[:i], tower.initial_obj)


def _assert_divisibility_laws(tower):
    try:
        M = track_monomial(tower)
    except CharpresError:
        return
    assert math.gcd(M.s, *(h for _, h in M.exponents)) == 1
    present = tower.chart.present_divisors()
    label_of = {v: lab for lab, v in present.items()}
    gens = []
    for g, m in tower.obj.elim.gens:
        if not g.is_single_term():
            return
        exps = g.terms[0][0]
        if any(e and v not in label_of for v, e in enumerate(exps)):
            return
        gens.append((exps, m))
    h = dict(M.exponents)
    for exps, m in gens:
        for lab, v in present.items():
            assert h[lab] * m <= exps[v] * M.s, (lab, exps, m, M)


def _check_laws_through_the_lift(tower):
    try:
        strong = is_strong_monomial(tower).strong
    except CharpresError:
        strong = False
    if strong:
        try:
            lift_resolution(tower)
        except CharpresError:
            pass        # the steps it made are checked all the same
    for prefix in _prefixes(tower):
        _assert_divisibility_laws(prefix)


@settings(max_examples=60, deadline=None)
@given(towers())
def test_tracked_algebra_is_reduced_and_divides_monomial_elim(tower):
    _check_laws_through_the_lift(tower)


def test_divisibility_laws_on_the_seed_1_workload_towers():
    for _, tower in workload_towers(1):
        _check_laws_through_the_lift(tower)


# -- the strong check reads the sandwich rows -------------------------------------


def _assert_checked_rows_are_the_sandwich_rows(tower) -> str:
    """Check the rows of one tower state; returns what was compared."""
    try:
        rows = sandwich_report(tower)
    except CharpresError:
        return "no sandwich"
    M = track_monomial(tower)
    chart = tower.chart
    present = chart.present_divisors()
    for row in rows:
        pt = GenericPoint(frozenset(present[lab] for lab in row["stratum"].split("&")))
        assert row["ord_monomial"] == ord_monomial_reference(M, pt, chart), row
    try:
        checked = is_strong_monomial(tower).checked
    except NonMonomialElimError:
        return "elimination part not monomial"
    if not checked:
        return "divides witness"
    *strata, origin = checked
    assert [(c["at"], c["hord"], c["ord_monomial"]) for c in strata] \
        == [("stratum " + r["stratum"], r["hord"], r["ord_monomial"]) for r in rows]
    sp = tower.obj
    assert origin["at"] == "point 1"
    assert origin["ord_monomial"] == ord_monomial_reference(
        M, ClosedPoint((sp.field.zero,) * sp.nvars), chart)
    return "strata compared"


@settings(max_examples=60, deadline=None)
@given(towers())
def test_strong_check_rows_are_the_sandwich_rows(tower):
    for prefix in _prefixes(tower):
        event(_assert_checked_rows_are_the_sandwich_rows(prefix))


def test_strong_check_rows_are_the_sandwich_rows_on_the_seed_1_workload_towers():
    seen = Counter(_assert_checked_rows_are_the_sandwich_rows(tower)
                   for _, tower in workload_towers(1))
    # no seed-1 tower stops before the strata
    assert seen == {"strata compared": 105}, seen
