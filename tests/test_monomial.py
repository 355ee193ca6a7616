"""Exponent tracking, the strong-monomial test, the combinatorial game and
its lift."""

from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from charpres import monomial, projection
from charpres.blowup import Center, Chart, Tower, TowerStep
from charpres.errors import CharpresError, NonMonomialElimError, TrackingError
from charpres.monomial import (MonomialAlg, is_strong_monomial,
                               lift_resolution, resolve_game, sandwich_report,
                               track_monomial)
from charpres.poly import (ClosedPoint, FieldSpec, GenericPoint, MPoly,
                           parse_poly, render_poly)
from charpres.projection import SimplifiedPresentation
from charpres.rees import ReesAlg, sing_member
from charpres.scene import RunOptions, _Execution, execute_command, load_scene

from oracles import coefficient_elim

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
ZXY = ("z", "x", "y")


def P(text, field=Q, names=ZXY):
    return parse_poly(text, field, names)


def tower_for(text, field, centers, elim_gens=None, names=ZXY):
    f = P(text, field, names)
    if elim_gens is None:
        elim = coefficient_elim(f, 0)
    else:
        elim = ReesAlg.make(field, len(names),
                            [(P(t, field, names), n) for t, n in elim_gens])
    pres = SimplifiedPresentation(field, len(names), (0,), (f,), elim)
    tower = Tower.start(names, pres)
    index = {n: i for i, n in enumerate(names)}
    for cvars, chart in centers:
        tower.blow_up(Center(frozenset(index[v] for v in cvars)), index[chart])
    return tower


STD = (("zx", "x"), ("zy", "y"))


def test_track_monomial_standard():
    tower = tower_for("z^2 + x^4*y^5", F2, STD)
    M = track_monomial(tower)
    assert M.s == 2
    assert M.exponents == (("H1", 2), ("H2", 3))


def test_track_rejects_algebra_tower():
    alg = ReesAlg.make(F2, 3, [(P("z^2 + x^4*y^5", F2), 2)])
    tower = Tower.start(ZXY, alg)
    with pytest.raises(TrackingError):
        track_monomial(tower)


def test_ord_monomial_on_the_rows():
    # each sandwich row sums its stratum's exponents over s, and the strong
    # check sums every present exponent at the chart origin
    tower = tower_for("z^2 + x^4*y^5", F2, STD)
    assert [(r["stratum"], r["ord_monomial"]) for r in sandwich_report(tower)] == [
        ("H1", 1), ("H2", Fraction(3, 2)), ("H1&H2", Fraction(5, 2))]
    origin = is_strong_monomial(tower).checked[-1]
    assert (origin["at"], origin["ord_monomial"]) == ("point 1", Fraction(5, 2))
    # retired divisors carry exponents but lie on no row and not on the origin
    tower = tower_for("z^2 + x^6*y^7", F2, (("zx", "x"),) * 2 + (("zy", "y"),) * 2)
    assert track_monomial(tower).exponents == (("H1", 4), ("H2", 2), ("H3", 5), ("H4", 3))
    assert [(r["stratum"], r["ord_monomial"]) for r in sandwich_report(tower)] == [
        ("H2", 1), ("H4", Fraction(3, 2)), ("H2&H4", Fraction(5, 2))]
    assert is_strong_monomial(tower).checked[-1]["ord_monomial"] == Fraction(5, 2)


def test_strong_monomial_standard():
    tower = tower_for("z^2 + x^4*y^5", F2, STD)
    res = is_strong_monomial(tower)
    assert res.strong
    assert res.witness is None
    strata = [row["at"] for row in res.checked]
    assert strata == ["stratum H1", "stratum H2", "stratum H1&H2", "point 1"]
    assert all(row["equal"] for row in res.checked)


def test_sandwich_rows():
    tower = tower_for("z^2 + x^4*y^5", F2, STD)
    rows = sandwich_report(tower)
    assert [(r["stratum"], r["ord_monomial"], r["hord"], r["elim_ord"])
            for r in rows] == [
        ("H1", 1, 1, 1),
        ("H2", Fraction(3, 2), Fraction(3, 2), Fraction(3, 2)),
        ("H1&H2", Fraction(5, 2), Fraction(5, 2), Fraction(5, 2))]
    assert all(r["ok"] for r in rows)


def test_sandwich_rows_are_kept_per_tower_state():
    tower = tower_for("z^2 + x^4*y^5", F2, STD)
    rows = sandwich_report(tower)
    # each call returns a fresh list of fresh rows, so no caller edits the memo
    rows[0]["ok"] = None
    rows.pop()
    again = sandwich_report(tower)
    assert len(again) == 3 and again[0]["ok"] is True
    assert again is not sandwich_report(tower)
    tower.blow_up(Center(frozenset({0, 1})), 1)
    assert "sandwich" not in tower.memo
    assert [r["stratum"] for r in sandwich_report(tower)] == ["H2", "H3", "H2&H3"]


SCENES = Path(__file__).resolve().parent.parent / "scenes"


@pytest.mark.parametrize("path", sorted(SCENES.glob("t*.scene")), ids=lambda p: p.stem)
def test_strong_check_looks_up_each_stratum_once(monkeypatch, path):
    """The strong-check command reads the H-order once per stratum of the
    tower's state: the strong check takes its stratum comparisons from the
    sandwich rows, and the command's sandwich reads them from the memo."""
    ex = _Execution(load_scene(str(path)), RunOptions())
    for _, text in ex.scene.script:
        if text.startswith("blowup:"):
            execute_command(ex, text)
    sp = ex.tower.obj
    looked_up = Counter()
    for name in ("hord", "hord_data"):
        def counted(obj, y, real=getattr(monomial, name)):
            if obj is sp:
                looked_up[y] += 1
            return real(obj, y)
        monkeypatch.setattr(monomial, name, counted)
    rec = execute_command(ex, "strong-check")
    strata = [GenericPoint(frozenset(v for lab, v in ex.tower.chart.divisors
                                     if lab in row["stratum"].split("&")))
              for row in rec["sandwich"]]
    assert len(strata) == 2 ** len(ex.tower.chart.present_divisors()) - 1
    assert {y: looked_up[y] for y in strata} == dict.fromkeys(strata, 1)
    assert sum(looked_up.values()) == len(strata) + (len(rec["checked"]) > 0)


def test_nonstrong_char3_witness():
    tower = tower_for("z^2 + x^5*y^4 + x^4*y^5", F3, STD,
                      elim_gens=[("x^12*y^12", 4)])
    final = tower.obj
    assert render_poly(final.polys[0], ZXY) == "x^3*y^2 + x^2*y^3 + z^2"
    M = track_monomial(tower)
    assert (M.s, M.exponents) == (1, (("H1", 1), ("H2", 1)))
    res = is_strong_monomial(tower)
    assert not res.strong
    assert res.witness == {"kind": "order mismatch", "at": "stratum H1&H2",
                           "hord": Fraction(5, 2), "ord_monomial": 2}
    with pytest.raises(TrackingError, match="lift refused"):
        lift_resolution(tower)


def test_nonstrong_extra_elim_gen():
    tower = tower_for("z^2 + x^4*y^5", F2, STD,
                      elim_gens=[("x^4*y^5", 2), ("x^3*y^7", 2)])
    M = track_monomial(tower)
    assert (M.s, M.exponents) == (2, (("H1", 1), ("H2", 3)))
    res = is_strong_monomial(tower)
    assert not res.strong
    assert res.witness["at"] == "stratum H1&H2"


def test_non_monomial_elim_is_an_error():
    # keeping the honest coefficient algebra here leaves x + y inside the
    # elimination part, which the strong-monomial test must refuse
    tower = tower_for("z^2 + x^5*y^4 + x^4*y^5", F3, STD)
    with pytest.raises(NonMonomialElimError):
        is_strong_monomial(tower)


def with_elim(tower, elim_gens, names=ZXY):
    """The tower with its current presentation's elimination part replaced
    by `elim_gens`, (text, weight) pairs."""
    sp = tower.obj
    elim = ReesAlg.make(sp.field, sp.nvars,
                        [(P(t, sp.field, names), n) for t, n in elim_gens])
    tower.obj = type(sp)(sp.field, sp.nvars, sp.sections, sp.polys, elim)
    return tower


def test_strong_check_divisibility_witness():
    # M = x^(2/2)*y^(3/2) does not divide x*y W^2: 2*2 > 1*2 along H1
    tower = with_elim(tower_for("z^2 + x^4*y^5", F2, STD), [("x*y", 2)])
    res = is_strong_monomial(tower)
    assert not res.strong
    assert res.checked == ()
    assert res.witness == {"kind": "divides", "elim_gen_weight": 2,
                           "monomial": (("H1", 2), ("H2", 3)),
                           "elim": (("H1", 1), ("H2", 1))}


def test_strong_check_witness_pads_absent_labels():
    # the first generator is divided, the second lacks y: exponent 0 on H2
    tower = with_elim(tower_for("z^2 + x^4*y^5", F2, STD),
                      [("x^4*y^6", 4), ("x^3", 2)])
    assert is_strong_monomial(tower).witness == {
        "kind": "divides", "elim_gen_weight": 2,
        "monomial": (("H1", 2), ("H2", 3)), "elim": (("H1", 3), ("H2", 0))}


NOT_MONOMIAL = "elimination generator is not a monomial"
NOT_EXCEPTIONAL = "elimination generator involves the non-exceptional variable #1"


@pytest.mark.parametrize("centers,elim_gens,message", [
    (STD, [("x*y + x^2*y", 2)], NOT_MONOMIAL),
    # the first generator alone fails divisibility; the one after it raises
    (STD, [("x*y", 2), ("x^2*y + x*y^2", 2)], NOT_MONOMIAL),
    # only {z, y} is blown up, so x cuts out no divisor
    (STD[1:], [("x*y^3", 2)], NOT_EXCEPTIONAL),
    (STD[1:], [("y", 2), ("x*y^3", 2)], NOT_EXCEPTIONAL),
])
def test_non_monomial_elim_raises_before_any_comparison(centers, elim_gens, message):
    tower = with_elim(tower_for("z^2 + x^4*y^5", F2, centers), elim_gens)
    with pytest.raises(NonMonomialElimError) as info:
        is_strong_monomial(tower)
    assert str(info.value) == message
    if len(elim_gens) > 1:
        first = with_elim(tower_for("z^2 + x^4*y^5", F2, centers), elim_gens[:1])
        assert is_strong_monomial(first).witness["kind"] == "divides"


def test_game_single_subtraction():
    chart = Chart(tuple(ZXY), (("H1", 1),))
    moves = resolve_game(MonomialAlg(2, (("H1", 3),)), chart).moves
    assert len(moves) == 1
    assert moves[0].labels == frozenset({"H1"})
    assert moves[0].new_label is None
    assert moves[0].exponents_after == (("H1", 1),)


def test_game_pair_blowup():
    chart = Chart(tuple(ZXY), (("H1", 1), ("H2", 2)))
    result = resolve_game(MonomialAlg(2, (("H1", 1), ("H2", 1))), chart)
    assert len(result.moves) == 1
    mv = result.moves[0]
    assert mv.labels == frozenset({"H1", "H2"})
    assert mv.new_label == "E1"
    assert mv.exponent == 0
    # stellar subdivision removed the H1&H2 face
    assert frozenset({"H1", "H2"}) not in result.faces
    assert frozenset({"H1", "E1"}) in result.faces


def test_game_deepest_first_then_oldest():
    chart = Chart(tuple(ZXY), (("H1", 1), ("H2", 2)))
    moves = resolve_game(MonomialAlg(2, (("H1", 2), ("H2", 1))), chart).moves
    # only H1 alone qualifies as inclusion-minimal: the pair contains the
    # qualifying singleton, so it is not minimal
    assert [sorted(m.labels) for m in moves] == [["H1"]]
    assert moves[0].exponents_after == (("H1", 0), ("H2", 1))


def test_game_final_faces_below_threshold():
    chart = Chart(tuple(ZXY), (("H1", 1), ("H2", 2)))
    result = resolve_game(MonomialAlg(3, (("H1", 7), ("H2", 5))), chart)
    h = dict(result.exponents)
    assert all(sum(h[l] for l in S) < 3 for S in result.faces)


def test_lift_standard():
    tower = tower_for("z^2 + x^4*y^5", F2, STD)
    M = track_monomial(tower)
    res = lift_resolution(tower)
    assert res.monomial == M
    assert [r.contact_case for r in res.records] == ["A", "A"]
    assert [r.hord_at_center for r in res.records] == [1, Fraction(3, 2)]
    assert render_poly(tower.obj.polys[0], ZXY) == "z^2 + y"
    # nothing singular remains upstairs
    up = ReesAlg.make(F2, 3, [(tower.obj.polys[0], 2)])
    assert not sing_member(up, ClosedPoint((0, 0, 0)))


def test_lift_two_sections():
    names = ("z1", "z2", "x", "y")
    polys = (parse_poly("z1^2 + x^4*y^5", F2, names),
             parse_poly("z2^2 + x^8*y^10", F2, names))
    elim = ReesAlg.make(F2, 4, [(parse_poly("x^4*y^5", F2, names), 2)])
    sp = SimplifiedPresentation(F2, 4, (0, 1), polys, elim)
    tower = Tower.start(names, sp)
    tower.blow_up(Center(frozenset({0, 1, 2})), 2)
    tower.blow_up(Center(frozenset({0, 1, 3})), 3)
    M = track_monomial(tower)
    assert (M.s, M.exponents) == (2, (("H1", 2), ("H2", 3)))
    assert is_strong_monomial(tower).strong
    res = lift_resolution(tower)
    assert [render_poly(g, names) for g in tower.obj.polys] \
        == ["z1^2 + y", "x^4*y^6 + z2^2"]
    assert res.monomial == M


def test_lift_length_four_with_absent_divisors():
    tower = tower_for("z^2 + x^6*y^7", F2,
                      (("zx", "x"), ("zx", "x"), ("zy", "y"), ("zy", "y")))
    M = track_monomial(tower)
    assert (M.s, M.exponents) == (2, (("H1", 4), ("H2", 2), ("H3", 5), ("H4", 3)))
    assert dict(tower.chart.divisors) == {"H1": None, "H2": 1, "H3": None, "H4": 2}
    game = resolve_game(M, tower.chart)
    res = lift_resolution(tower)
    assert render_poly(tower.obj.polys[0], ZXY) == "z^2 + y"
    # the lift plays the game's moves in order, one record each
    assert [r.move for r in res.records] == list(game.moves)
    assert res.monomial == M


def test_vacuous_tower():
    # no divisors, so the monomial order is 0 everywhere, and the H-order
    # 1/2 at the chart origin is a witness
    f = P("z^2 + x", F2)
    pres = SimplifiedPresentation(F2, 3, (0,), (f,), ReesAlg.make(F2, 3, []))
    tower = Tower.start(ZXY, pres)
    M = track_monomial(tower)
    assert M.exponents == ()
    res = is_strong_monomial(tower)
    assert not res.strong
    assert res.checked == ({"at": "point 1", "hord": Fraction(1, 2),
                            "ord_monomial": 0, "equal": False},)
    assert res.witness == {"kind": "order mismatch", "at": "point 1",
                           "hord": Fraction(1, 2), "ord_monomial": 0}
    with pytest.raises(TrackingError, match="lift refused"):
        lift_resolution(tower)


def test_strong_check_tests_the_chart_origin():
    # over F_2, z^2 + x^3*y^3 blown up at {z, y} in chart y becomes
    # z^2 + x^3*y^4: hord and ord_monomial agree along H1 (2 = 2), but the
    # factor x^3 off the divisor gives hord 2 at the origin against 1/2
    tower = tower_for("z^2 + x^3*y^3", F2, (("zy", "y"),), elim_gens=[])
    res = is_strong_monomial(tower)
    assert [row["at"] for row in res.checked] == ["stratum H1", "point 1"]
    assert res.checked[0]["equal"]
    assert not res.strong
    assert res.witness == {"kind": "order mismatch", "at": "point 1",
                           "hord": 2, "ord_monomial": Fraction(1, 2)}
    steps = len(tower.steps)
    with pytest.raises(TrackingError, match="lift refused"):
        lift_resolution(tower)
    assert len(tower.steps) == steps


# -- the tower memo ---------------------------------------------------------------


def _fresh(sp):
    """The presentation rebuilt from fresh polynomials: no H-order memo and
    no coefficient split is shared with sp."""
    def fresh(f):
        return MPoly(f.field, f.nvars, f.terms)
    elim = ReesAlg.make(sp.field, sp.nvars, [(fresh(g), n) for g, n in sp.elim.gens],
                        sp.elim.is_unit)
    return type(sp)(sp.field, sp.nvars, sp.sections, tuple(fresh(f) for f in sp.polys),
                    elim)


def _rebuilt_tower(tower):
    """A tower in the same state as `tower`, with an empty memo."""
    steps = [TowerStep(st.center, st.chart_var, st.chart, _fresh(st.obj))
             for st in tower.steps]
    return Tower(tower.chart, _fresh(tower.obj), steps, _fresh(tower.initial_obj))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except CharpresError as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _assert_memo_matches_rebuilt(tower):
    again = _rebuilt_tower(tower)
    for fn in (track_monomial, is_strong_monomial, sandwich_report):
        memo = _outcome(fn, tower)
        assert memo == _outcome(fn, again)
        # a second call of the same state is served the same result
        assert _outcome(fn, tower) == memo


def test_tower_memo_serves_one_state():
    tower = tower_for("z^2 + x^4*y^5", F2, STD)
    M = track_monomial(tower)
    assert track_monomial(tower) is M
    res = is_strong_monomial(tower)
    assert is_strong_monomial(tower) is res
    # any assignment to the tower's state empties the memo
    tower.obj = tower.obj
    assert tower.memo == {}
    assert track_monomial(tower) == M and track_monomial(tower) is not M


def test_tower_memo_follows_blow_up():
    tower = tower_for("z^2 + x^4*y^5", F2, STD[:1])
    _assert_memo_matches_rebuilt(tower)
    tower.blow_up(Center(frozenset({0, 2})), 2)
    _assert_memo_matches_rebuilt(tower)
    assert track_monomial(tower).exponents == (("H1", 2), ("H2", 3))


def test_tower_memo_follows_a_successful_lift():
    tower = tower_for("z^2 + x^6*y^7", F2,
                      (("zx", "x"), ("zx", "x"), ("zy", "y"), ("zy", "y")))
    _assert_memo_matches_rebuilt(tower)
    lift_resolution(tower)
    _assert_memo_matches_rebuilt(tower)


def test_lift_normalizes_nothing_at_the_origin(monkeypatch):
    """The lift's blowups compute no origin snapshot: no lifted state is
    cleaned at the chart origin.  The strong check, which the lift reads
    from the tower memo, tests the origin of the tower's own state."""
    tower = tower_for("z^2 + x^6*y^7", F2,
                      (("zx", "x"), ("zx", "x"), ("zy", "y"), ("zy", "y")))
    assert is_strong_monomial(tower).strong
    points = []
    normalize = projection._normalize

    def counted(sp, y):
        points.append(y)
        return normalize(sp, y)

    monkeypatch.setattr(projection, "_normalize", counted)
    steps = len(tower.steps)
    lift_resolution(tower)
    assert len(tower.steps) > steps
    # the lift cleans at its centers, and nowhere at the origin
    assert points and ClosedPoint((0, 0, 0)) not in points


def test_tower_memo_follows_a_lift_that_fails(monkeypatch):
    # a strong tower whose lift blows up twice and then fails its end test,
    # here patched to find the origin singular
    tower = tower_for("z^2 + x^4*y^5", F2, STD)
    _assert_memo_matches_rebuilt(tower)
    assert is_strong_monomial(tower).strong
    monkeypatch.setattr(monomial, "sing_member", lambda alg, pt: True)
    with pytest.raises(TrackingError, match="lift ended with singular strata"):
        lift_resolution(tower)
    assert len(tower.steps) == 4
    _assert_memo_matches_rebuilt(tower)
