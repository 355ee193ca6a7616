"""Chart-level monoidal transforms, towers, and the two-stage experiment."""

import json
import random
from fractions import Fraction

import pytest

import charpres.blowup as blowup
from charpres.blowup import (Center, Chart, StageRows, Tower, blow_up_poly,
                             invariant_snapshot, stage_ab_experiment,
                             transform_presentation, transform_rees)
from charpres.errors import BudgetError, InputError, InvariantError, PermissibilityError
from charpres.poly import (ClosedPoint, FieldSpec, MPoly, monic_coefficients,
                           parse_poly, render_poly)
from charpres.projection import (PPresentation, SimplifiedPresentation, hord,
                                 make_p_presentation)
from charpres.rees import ReesAlg, sing_member
from charpres.scene import canonical_json, jsonify

from oracles import coefficient_elim

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
ZXY = ("z", "x", "y")


def P(text, field=Q, names=ZXY):
    return parse_poly(text, field, names)


def test_blow_up_poly_charts():
    f = P("z^2 + x^3")
    zx = Center(frozenset({0, 1}))
    assert blow_up_poly(f, 2, zx, 1) == P("z^2 + x")
    assert blow_up_poly(f, 2, zx, 0) == P("x^3*z + 1")
    assert blow_up_poly(P("x^5"), 2, Center(frozenset({1})), 1) == P("x^3")


def test_blow_up_poly_rejects_shallow_center():
    with pytest.raises(PermissibilityError):
        blow_up_poly(P("z^2 + x"), 2, Center(frozenset({0, 1})), 1)
    with pytest.raises(ValueError):
        blow_up_poly(P("z^2"), 2, Center(frozenset({0, 1})), 2)


def test_blow_up_round_trip():
    rng = random.Random(31)
    for _ in range(200):
        field = rng.choice((Q, F2, F3, F5))
        center = Center(frozenset(rng.sample(range(3), rng.randint(1, 3))))
        w = rng.choice(sorted(center.vars))
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            c = field.coerce(rng.randint(-4, 4))
            terms[exps] = field.add(terms.get(exps, field.zero), c)
        f = MPoly.from_dict(field, 3, terms)
        if f.is_zero():
            continue
        n = f.order_wrt(center.vars)
        g = blow_up_poly(f, n, center, w)
        wv = MPoly.var(field, 3, w)
        sub = {v: MPoly.var(field, 3, v) * wv for v in center.vars if v != w}
        assert f.substitute(sub) == g * (wv ** n)


def test_transform_pair():
    # the ideal-with-weight (z^2 + x^3, 2) as a one-generator algebra
    alg = ReesAlg.make(Q, 3, [(P("z^2 + x^3"), 2)])
    out = transform_rees(alg, Center(frozenset({0, 1})), 1)
    assert out.gens == ((P("z^2 + x"), 2),)
    # the transform is nonsingular everywhere on the chart
    assert not sing_member(out, ClosedPoint((0, 0, 0)))


def test_transform_pair_impermissible():
    alg = ReesAlg.make(Q, 3, [(P("z^2 + x^3"), 2)])
    # the {z, y} line is not inside the singular locus {z = x = 0}
    with pytest.raises(PermissibilityError):
        transform_rees(alg, Center(frozenset({0, 2})), 2)


def test_transform_rees_unit():
    a = ReesAlg.make(Q, 3, [(P("x^2"), 2), (P("x"), 1)])
    out = transform_rees(a, Center(frozenset({1})), 1)
    assert out.is_unit


def test_transform_presentation():
    f = P("z^2 + x^3")
    pres = SimplifiedPresentation(Q, 3, (0,), (f,), coefficient_elim(f, 0))
    out = transform_presentation(pres, Center(frozenset({0, 1})), 1)
    assert out.polys[0] == P("z^2 + x")
    assert [(render_poly(g, ZXY), n) for g, n in out.elim.gens] == [("x", 2)]


def test_transform_presentation_requires_sections_in_center():
    f = P("z^2 + x^3")
    pres = SimplifiedPresentation(Q, 3, (0,), (f,), coefficient_elim(f, 0))
    with pytest.raises(PermissibilityError, match="beta-vertical"):
        transform_presentation(pres, Center(frozenset({1})), 1)
    with pytest.raises(PermissibilityError, match="downstairs"):
        transform_presentation(pres, Center(frozenset({0, 1})), 0)


def test_transform_presentation_two_sections():
    names = ("z1", "z2", "x")
    polys = (parse_poly("z1^2 + x^3", Q, names),
             parse_poly("z2^2 + x^5", Q, names))
    elim = ReesAlg.make(Q, 3, [(parse_poly("x^4", Q, names), 2)])
    sp = SimplifiedPresentation(Q, 3, (0, 1), polys, elim)
    out = transform_presentation(sp, Center(frozenset({0, 1, 2})), 2)
    assert [render_poly(g, names) for g in out.polys] == ["z1^2 + x", "x^3 + z2^2"]
    assert [(render_poly(g, names), n) for n_, (g, n) in enumerate(out.elim.gens)] \
        == [("x^2", 2)]


def test_transform_p_presentation_keeps_its_kind():
    f = P("z^2 + x^3*z + x^4", F2)
    pp = make_p_presentation(F2, 3, (0,), (f,), ReesAlg.make(F2, 3, []))
    out = transform_presentation(pp, Center(frozenset({0, 1})), 1)
    assert type(out) is PPresentation
    assert out.polys[0] == P("z^2 + x^2*z + x^2", F2)
    assert [(render_poly(g, ZXY), n) for g, n in out.elim.gens] == [("x^2", 1)]


def test_transform_p_presentation_to_unit_elimination_part():
    # the middle coefficient x becomes the constant 1, so the transformed
    # elimination part is the unit algebra, which holds every coefficient
    f = P("z^2 + x*z + x^2", F2)
    pp = make_p_presentation(F2, 3, (0,), (f,), ReesAlg.make(F2, 3, []))
    out = transform_presentation(pp, Center(frozenset({0, 1})), 1)
    assert type(out) is PPresentation
    assert out.polys[0] == P("z^2 + z + 1", F2)
    assert out.elim.is_unit
    assert hord(out, ClosedPoint((0, 0, 0))) == 0


def test_transform_presentation_checks_elimination_part_once(monkeypatch):
    calls = []
    member = blowup.sing_member

    def counted(alg, pt):
        calls.append(pt)
        return member(alg, pt)

    monkeypatch.setattr(blowup, "sing_member", counted)
    f = P("z^2 + x^3*y^3")
    pres = SimplifiedPresentation(Q, 3, (0,), (f,), coefficient_elim(f, 0))
    transform_presentation(pres, Center(frozenset({0, 1})), 1)
    assert len(calls) == 1
    bad = SimplifiedPresentation(Q, 3, (0,), (f,), ReesAlg.make(Q, 3, [(P("x^2 + y"), 2)]))
    with pytest.raises(PermissibilityError,
                       match="not permissible for the elimination part"):
        transform_presentation(bad, Center(frozenset({0, 1})), 1)
    # the stand-alone algebra transform keeps its own message
    with pytest.raises(PermissibilityError, match="not contained in the singular locus"):
        transform_rees(ReesAlg.make(Q, 3, [(P("x + y"), 2)]), Center(frozenset({1, 2})), 1)


def test_transform_presentation_permissibility_messages_and_precedence():
    # z2^2 + x*z2 + x has ord 1 < 2 along {z1, z2, x}, and the elimination
    # generator x + y of weight 2 has ord 0 there: each check fires only when
    # those before it pass, in the order beta-vertical, chart variable,
    # section polynomials, elimination part
    names = ("z1", "z2", "x", "y")
    good = parse_poly("z1^2 + x^3", Q, names)
    bad = parse_poly("z2^2 + x*z2 + x", Q, names)
    bad_elim = ReesAlg.make(Q, 4, [(parse_poly("x + y", Q, names), 2)])
    good_elim = ReesAlg.make(Q, 4, [(parse_poly("x^2", Q, names), 2)])

    def message(polys, elim, center, chart):
        sp = SimplifiedPresentation(Q, 4, (0, 1), polys, elim)
        with pytest.raises(PermissibilityError) as err:
            transform_presentation(sp, Center(frozenset(center)), chart)
        return str(err.value)

    everything_bad = ((good, bad), bad_elim)
    assert message(*everything_bad, {0, 2}, 2) == "center not beta-vertical"
    assert message(*everything_bad, {0, 1, 2}, 0) \
        == "chart variable must be a downstairs variable"
    # the failing polynomial may come first or second
    for polys in ((good, bad), (parse_poly("z1^2 + x*z1 + x", Q, names),
                                parse_poly("z2^2 + x^3", Q, names))):
        assert message(polys, bad_elim, {0, 1, 2}, 2) \
            == "center not permissible for a section polynomial"
    assert message((good, parse_poly("z2^2 + x^2*z2 + x^2", Q, names)), bad_elim,
                   {0, 1, 2}, 2) == "center not permissible for the elimination part"
    out = transform_presentation(
        SimplifiedPresentation(Q, 4, (0, 1), (good, parse_poly("z2^2 + x^2", Q, names)),
                               good_elim), Center(frozenset({0, 1, 2})), 2)
    assert [render_poly(g, names) for g in out.polys] == ["z1^2 + x", "z2^2 + 1"]


def test_transform_presentation_carries_the_monic_split():
    # the transformed polynomial holds the split of its transform, equal to
    # the split rebuilt from its terms
    f = P("z^3 + x^2*y*z^2 + x^4*z + x^6*y^2", F3)
    pres = SimplifiedPresentation(F3, 3, (0,), (f,), ReesAlg.make(F3, 3, []))
    out = transform_presentation(pres, Center(frozenset({0, 1})), 1)
    g = out.polys[0]
    assert g == P("z^3 + x*y*z^2 + x^2*z + x^3*y^2", F3)
    carried = dict(monic_coefficients(g, 0))
    assert carried == {1: P("x*y", F3), 2: P("x^2", F3), 3: P("x^3*y^2", F3)}
    assert carried == dict(monic_coefficients(MPoly(g.field, g.nvars, g.terms), 0))
    # a polynomial with no z-free part keeps a zero a_n
    h = transform_presentation(
        SimplifiedPresentation(F3, 3, (0,), (P("z^2 + x^2*z", F3),),
                               ReesAlg.make(F3, 3, [])),
        Center(frozenset({0, 1})), 1).polys[0]
    assert dict(monic_coefficients(h, 0)) == {1: P("x", F3), 2: P("0", F3)}


def test_transform_presentation_calls_blow_up_poly_per_split_entry_and_generator(
        monkeypatch):
    # one blow_up_poly call per entry of each section polynomial's split,
    # a_n included, then one per elimination generator, each with its weight
    calls = []
    real = blowup.blow_up_poly

    def counted(f, n, center, chart_var):
        calls.append(n)
        return real(f, n, center, chart_var)

    monkeypatch.setattr(blowup, "blow_up_poly", counted)
    names = ("z1", "z2", "x", "y")
    polys = (parse_poly("z1^2 + x^5", F3, names),
             parse_poly("z2^3 + x^5*z2 + x^9*y", F3, names))
    elim = ReesAlg.make(F3, 4, [(parse_poly("x^6", F3, names), 2),
                                (parse_poly("x^7*y", F3, names), 3)])
    sp = SimplifiedPresentation(F3, 4, (0, 1), polys, elim)
    center = Center(frozenset({0, 1, 2}))
    assert [sorted(monic_coefficients(f, z)) for z, f in zip(sp.sections, sp.polys)] \
        == [[2], [2, 3]]
    out = transform_presentation(sp, center, 2)
    assert sorted(calls[:3]) == [2, 2, 3] and sorted(calls[3:]) == [2, 3]
    # a carried split is used as it is: the next blowup makes as many calls
    calls.clear()
    transform_presentation(out, center, 2)
    assert len(calls) == 5


def test_coefficients_commute_with_transform():
    # transforming the coefficient algebra equals taking coefficients of the
    # transformed polynomial
    f = P("z^2 + x^4*y^5", F2)
    center, chart = Center(frozenset({0, 1})), 1
    before = coefficient_elim(f, 0)
    after_poly = coefficient_elim(blow_up_poly(f, 2, center, chart), 0)
    after_alg = transform_rees(before, center, chart)
    assert after_poly == after_alg


def test_chart_registry():
    chart = Chart.initial(ZXY)
    assert chart.present_divisors() == {}
    c1 = chart.after_blowup(Center(frozenset({0, 1})), 1)
    assert c1.divisors == (("H1", 1),)
    # blowing up in the x-chart again retires H1 and creates H2 on x
    c2 = c1.after_blowup(Center(frozenset({0, 1})), 1)
    assert c2.divisors == (("H1", None), ("H2", 1))
    c3 = c2.after_blowup(Center(frozenset({0, 2})), 2)
    assert c3.divisors == (("H1", None), ("H2", 1), ("H3", 2))
    assert c3.present_divisors() == {"H2": 1, "H3": 2}


def test_tower_snapshots():
    f = P("z^2 + x^3")
    pres = SimplifiedPresentation(Q, 3, (0,), (f,), coefficient_elim(f, 0))
    tower = Tower.start(ZXY, pres)
    step = tower.blow_up(Center(frozenset({0, 1})), 1)
    assert step.chart.divisors == (("H1", 1),)
    assert invariant_snapshot(step.obj) == {"elim_ord_origin": Fraction(1, 2),
                                            "hord_origin": Fraction(1, 2)}
    assert len(tower.states()) == 2
    assert tower.states()[0] is pres


def test_tower_rejects_impermissible_center():
    f = P("z^2 + x^3")
    pres = SimplifiedPresentation(Q, 3, (0,), (f,), coefficient_elim(f, 0))
    tower = Tower.start(ZXY, pres)
    with pytest.raises(PermissibilityError):
        tower.blow_up(Center(frozenset({0, 2})), 2)


@pytest.mark.parametrize("kind", ["presentation", "algebra"])
@pytest.mark.parametrize("center", [{0, 1, 7}, {0, 1, -1}], ids=["past-the-end", "negative"])
def test_tower_checks_the_center_before_transforming(monkeypatch, kind, center):
    # a variable outside the chart is refused before the transform reads
    # it: 7 would raise IndexError there, and -1 would read the last variable
    f = P("z^2 + x^3", F2)
    if kind == "presentation":
        obj = SimplifiedPresentation(F2, 3, (0,), (f,), coefficient_elim(f, 0))
    else:
        obj = ReesAlg.make(F2, 3, [(f, 2)])
    tower = Tower.start(ZXY, obj)
    transformed = []
    real = blowup.transform_object
    monkeypatch.setattr(blowup, "transform_object",
                        lambda *args: transformed.append(args) or real(*args))
    with pytest.raises(InputError, match="center variable out of range"):
        tower.blow_up(Center(frozenset(center)), 1)
    assert transformed == []
    assert (tower.chart, tower.obj, tower.steps) == (Chart.initial(ZXY), obj, [])


def test_stage_ab_cusp_family():
    f = parse_poly("z^2 + x^3", F5, ("z", "x"))
    for N, want in ((4, 1), (6, 2), (8, 3), (10, 4), (12, 5)):
        ell, trace = stage_ab_experiment(f, 0, N, names=("z", "x"))
        assert ell == want
        assert trace["expected"] == want
        assert trace["q"] == Fraction(3, 2)
        assert len([s for s in trace["steps"] if s["stage"] == "A"]) == N


def test_stage_ab_other_slopes():
    g = parse_poly("z^2 + x^3*y", F2, ZXY)
    assert stage_ab_experiment(g, 0, 5, names=ZXY)[0] == 4
    h = parse_poly("z^3 + x^5", F3, ("z", "x"))
    assert stage_ab_experiment(h, 0, 4, names=("z", "x"))[0] == 1
    assert stage_ab_experiment(h, 0, 6, names=("z", "x"))[0] == 3
    k = parse_poly("z^4 + x^7", F5, ("z", "x"))
    assert stage_ab_experiment(k, 0, 2, names=("z", "x"))[0] == 0
    assert stage_ab_experiment(k, 0, 8, names=("z", "x"))[0] == 5


def test_stage_ab_slope_one_never_starts():
    f = parse_poly("z^2 + x^2", Q, ("z", "x"))
    ell, trace = stage_ab_experiment(f, 0, 4, names=("z", "x"))
    assert ell == -1
    assert trace["expected"] == -1
    assert trace["performed"] == 0


def _stage_b_count(f, z, N):
    """The closed-form number of Stage-B blowups: a term of total degree S
    and z-degree e < n has order e + N*(S - n) - j*(n - e) along V(z, t)
    after j of them, and the first term to fall below n stops Stage B."""
    n = f.degree_in_var(z)
    return min(max(0, (e[z] + N * (sum(e) - n) - n) // (n - e[z]) + 1)
               for e, _ in f.terms if e[z] < n)


@pytest.mark.parametrize("text,performed", [("z^2 + x^3", 5000),
                                            ("z^2 + x^4", 10000)])
def test_stage_ab_law_far_out(text, performed):
    """The corpus experiment polynomials keep l_N = floor(N(q-1)-1) at N = 10^4."""
    f = parse_poly(text, F5, ("z", "x"))
    ell, trace = stage_ab_experiment(f, 0, 10000, names=("z", "x"))
    assert ell == trace["expected"] == performed - 1
    assert trace["performed"] == _stage_b_count(f, 0, 10000) == performed
    steps = trace["steps"]
    assert steps.N + len(steps.orders) == 10000 + performed + 1


def _rows_as_list(point, line, chart, n, N, orders):
    """The rows a StageRows stands for, built out one by one."""
    return ([{"stage": "A", "index": i, "center": point, "chart": chart,
              "order": n, "permissible": True} for i in range(1, N + 1)]
            + [{"stage": "B", "index": j, "center": line, "chart": chart,
                "order": nu, "permissible": nu >= n} for j, nu in enumerate(orders, 1)])


def test_stage_rows_is_the_list_of_its_rows():
    fields = (["t", "x", "z"], ["t", "z"], "t", 2, 3, (4, 3, 2, 1))
    rows, want = StageRows(*fields), _rows_as_list(*fields)
    assert list(rows) == want and [row for row in rows] == want
    assert list(StageRows([], [], "t", 1, 0, ())) == []


def test_canonical_json_writes_stage_rows_without_building_them(monkeypatch):
    f = parse_poly("z^2 + x^3", F5, ("z", "x"))
    doc = {"records": [stage_ab_experiment(f, 0, N, names=("z", "x"))[1]
                       for N in (1, 7, 200)]}
    exact = json.dumps(jsonify(doc), sort_keys=True, separators=(",", ":")) + "\n"

    def refuse(*args):
        raise AssertionError("a stage row was built")

    monkeypatch.setattr(StageRows, "__iter__", refuse)
    assert canonical_json(doc) == exact


def test_stage_ab_budget_refuses_before_building():
    f = parse_poly("z^2 + x^3", F5, ("z", "x"))
    assert _stage_b_count(f, 0, 10 ** 7) + 10 ** 7 + 1 > blowup.EXPERIMENT_MAX_STEPS
    with pytest.raises(BudgetError, match="15000001 trace rows"):
        stage_ab_experiment(f, 0, 10 ** 7, names=("z", "x"))


@pytest.mark.parametrize("shift", (-1, 1))
def test_stage_b_ends_where_its_closed_form_says(monkeypatch, shift):
    """Stage-B rows built to one row short of or past the first
    impermissible center fail the experiment's ending check."""
    stop = blowup._stage_b_stop
    monkeypatch.setattr(blowup, "_stage_b_stop", lambda lines, n: stop(lines, n) + shift)
    f = parse_poly("z^2 + x^3", F5, ("z", "x"))
    with pytest.raises(InvariantError, match="Stage B must stop"):
        stage_ab_experiment(f, 0, 8, names=("z", "x"))
