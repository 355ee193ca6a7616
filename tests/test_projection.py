"""Slopes, normal forms, membership, H-orders, coefficient elimination."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import charpres.projection as projection
from charpres.errors import DegenerateSlopeError, NotNormalFormError
from charpres.poly import (INF, ClosedPoint, FieldSpec, GenericPoint, MPoly,
                           parse_poly, render_poly)
from charpres.projection import (PPresentation, SimplifiedPresentation, _weighted_root,
                                 fiber_point, hord, hord_data, is_normal_at,
                                 make_p_presentation, membership_criterion,
                                 normalize, normalize_poly, slope_poly,
                                 upstairs_algebra)
from charpres.rees import ReesAlg, sing_member

from oracles import coefficient_elim, saturate_all_alpha

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
ZXY = ("z", "x", "y")
ORIGIN = ClosedPoint((0, 0, 0))


def P(text, field=Q, names=ZXY):
    return parse_poly(text, field, names)


def ealg(field, gens, names=ZXY):
    return ReesAlg.make(field, len(names), [(P(t, field, names), n) for t, n in gens])


def pres1(text, field=Q, elim_gens=None):
    f = P(text, field)
    if elim_gens is None:
        elim = coefficient_elim(f, 0)
    else:
        elim = ealg(field, elim_gens)
    return SimplifiedPresentation(field, 3, (0,), (f,), elim)


def test_slope_poly_values():
    assert slope_poly(P("z^2 + x^3"), 0, ORIGIN) == Fraction(3, 2)
    assert slope_poly(P("z^2 + x*y"), 0, ORIGIN) == 1
    assert slope_poly(P("z^2 + 2*x*z + x^2 + x^3"), 0, ORIGIN) == 1
    assert slope_poly(P("z^3"), 0, ORIGIN) is INF
    # off-origin slope is measured after translation
    assert slope_poly(P("z^2 + x^2*y"), 0, ClosedPoint((0, 0, 1))) == 1
    # generic points use the coordinate order
    assert slope_poly(P("z^2 + x^2*y^3"), 0, GenericPoint(frozenset({2}))) == Fraction(3, 2)


def test_weighted_root():
    # the slope-1 form keeps 2xz and x^2 but not x^3: (Z + x)^2
    assert _weighted_root(P("z^2 + 2*x*z + x^2 + x^3"), 0, ORIGIN, Fraction(1)) == P("x")
    # char 2: x^3 has no square root
    assert _weighted_root(P("z^2 + x^3", F2), 0, ORIGIN, Fraction(3, 2)) is None
    # char 5, n = p: the p-th root comes from the constant coefficient
    f5 = (P("z + x", F5) ** 5) + P("x^6", F5)
    assert _weighted_root(f5, 0, ORIGIN, Fraction(1)) == P("x", F5)


def test_weighted_root_reads_only_the_weight_q_boundary():
    # over F_2 at the slope 1, a_1 = x^2 and the x^4 of a_2 lie above the
    # weight, so the form is Z^2 + x^2 = (Z + x)^2
    f = P("z^2 + x^2*z + x^2 + x^4", F2)
    assert _weighted_root(f, 0, ORIGIN, Fraction(1)) == P("x", F2)
    # along x = 0 only the x-degree counts: Z^2 + x^2*y^2 = (Z + x*y)^2
    f = P("z^2 + x^2*y^2 + x^3", F2)
    assert _weighted_root(f, 0, GenericPoint(frozenset({1})), Fraction(1)) == P("x*y", F2)


def test_normalize_char0():
    pres = pres1("z^2 + 2*x*z + x^2 + x^3", elim_gens=[])
    res = normalize(pres, ORIGIN)
    assert render_poly(res.cleaned.polys[0], ZXY) == "x^3 + z^2"
    rec, = res.normalizations
    assert rec.iterations == 1
    assert rec.slopes == (Fraction(1), Fraction(3, 2))
    assert [render_poly(a, ZXY) for a in rec.substitutions] == ["x"]


def test_normalize_already_normal():
    pres = pres1("z^2 + x^3", F2, elim_gens=[])
    res = normalize(pres, ORIGIN)
    assert res.normalizations[0].iterations == 0
    # nothing moved, so there is no cleaned presentation
    assert res.cleaned is None
    assert is_normal_at(pres, ORIGIN)


def test_normalize_char5_artin_style():
    f = (P("z + x", F5) ** 5) + P("x^6", F5)
    pres = SimplifiedPresentation(F5, 3, (0,), (f,), ReesAlg.make(F5, 3, []))
    res = normalize(pres, ORIGIN)
    assert res.cleaned.polys[0] == P("z^5 + x^6", F5)
    assert res.normalizations[0].slope == Fraction(6, 5)


def test_normalize_iteration_cap(monkeypatch):
    def pres():   # a fresh presentation each time: normalize memoises per object
        return pres1("z^2 + 2*x*z + x^2 + x^3", elim_gens=[])
    # one substitution is needed; a budget of 64*n allows it
    assert normalize(pres(), ORIGIN).normalizations[0].iterations == 1
    monkeypatch.setattr(projection, "NORMALIZE_CAP_FACTOR", 0)
    with pytest.raises(DegenerateSlopeError):
        normalize(pres(), ORIGIN)
    # a polynomial already in normal form needs no budget
    res = normalize(pres1("z^2 + x^3", elim_gens=[]), ORIGIN)
    assert res.normalizations[0].iterations == 0


def test_cleaning_stops_at_slope_zero():
    # at slope 0 the root of the weighted initial form is a unit: over F_2,
    # z^2 + x + 1 = (z + 1)^2 + x, and z -> z - 1 would move the point
    # instead of raising the slope at it (f(0) = 1, so the fiber point is
    # not on V(f))
    f = P("z^2 + x + 1", F2)
    r = normalize_poly(f, 0, ORIGIN)
    assert (r.slopes, r.iterations, r.poly) == ((0,), 0, f)
    assert hord(pres1("z^2 + x + 1", F2, elim_gens=[]), ORIGIN) == 0
    # over F_3, along x = 0 the root of z^3 + x^4 + y^3 is y, a unit there
    g = P("z^3 + x^4 + y^3", F3)
    r = normalize_poly(g, 0, GenericPoint(frozenset({1})))
    assert (r.slopes, r.iterations, r.poly) == ((0,), 0, g)


def test_normalize_off_origin():
    # translate the char-0 example to (0, 1, 0): same intrinsic slope
    f = P("z^2 + 2*x*z + x^2 + x^3").translate((0, -1, 0))
    pres = SimplifiedPresentation(Q, 3, (0,), (f,), ReesAlg.make(Q, 3, []))
    res = normalize(pres, ClosedPoint((0, 1, 0)))
    assert res.normalizations[0].slope == Fraction(3, 2)


def test_slope_presentation_caps_at_elim():
    pres = pres1("z^2 + x^3", elim_gens=[("x^2", 2)])
    res = normalize(pres, ORIGIN)
    assert res.normalizations[0].slope == Fraction(3, 2)
    assert res.value == 1     # eord = 1 caps 3/2


def test_membership_criterion():
    pres = pres1("z^2 + x*y")
    assert membership_criterion(pres, ORIGIN) is True
    assert membership_criterion(pres, ClosedPoint((0, 1, 0))) is False
    gen = pres1("z^2 + x^2*y^3")
    assert membership_criterion(gen, GenericPoint(frozenset({2}))) is True


def test_membership_off_origin_char3():
    pres = pres1("z^2 + x^3 + y^3", F3)
    # (1, 2) lies on the singular anti-diagonal x + y = 0
    assert membership_criterion(pres, ClosedPoint((0, 1, 2))) is True
    assert membership_criterion(pres, ClosedPoint((0, 1, 1))) is False


def test_membership_requires_normal_form():
    f = P("z^2 + 2*x*z + x^2 + x^5")
    pres = SimplifiedPresentation(Q, 3, (0,), (f,), ealg(Q, [("x^5", 2)]))
    assert not is_normal_at(pres, ORIGIN)
    with pytest.raises(NotNormalFormError):
        membership_criterion(pres, ORIGIN)


def test_membership_matches_upstairs():
    pres = pres1("z^2 + x^3 + y^3", F3)
    for a in range(3):
        for b in range(3):
            y = ClosedPoint((0, a, b))
            cleaned = normalize(pres, y).cleaned or pres
            member = membership_criterion(cleaned, y)
            up = sing_member(upstairs_algebra(cleaned), fiber_point(cleaned, y))
            assert member == up


def test_hord_two_sections():
    polys = (P("z1^2 + x^3", names=("z1", "z2", "x")),
             P("z2^2 + x^5", names=("z1", "z2", "x")))
    elim = ReesAlg.make(Q, 3, [(parse_poly("x^4", Q, ("z1", "z2", "x")), 2)])
    sp = SimplifiedPresentation(Q, 3, (0, 1), polys, elim)
    data = hord_data(sp, ClosedPoint((0, 0, 0)))
    assert data.value == Fraction(3, 2)
    assert [r.slope for r in data.normalizations] == [Fraction(3, 2), Fraction(5, 2)]
    assert data.elim_ord == 2


def test_normalize_memo_two_sections():
    names = ("z1", "z2", "x", "y")
    # over F_2, z2^2 + x^2*y^2 = (z2 + x*y)^2 cleans to z2^2; z1 stays
    polys = (P("z1^2 + x^3", F2, names), P("z2^2 + x^2*y^2", F2, names))
    elim = ReesAlg.make(F2, 4, [(P("x^4*y^4", F2, names), 3)])
    sp = SimplifiedPresentation(F2, 4, (0, 1), polys, elim)
    y = ClosedPoint((0, 0, 0, 0))
    res = normalize(sp, y)
    assert normalize(sp, y) is res
    assert hord_data(sp, y) is res
    assert [r.iterations for r in res.normalizations] == [0, 1]
    assert [r.slope for r in res.normalizations] == [Fraction(3, 2), INF]
    assert res.cleaned.polys == (polys[0], P("z2^2", F2, names))
    assert res.cleaned.elim is elim
    assert res.elim_ord == Fraction(8, 3) and res.value == Fraction(3, 2)
    assert not is_normal_at(sp, y) and is_normal_at(res.cleaned, y)


def test_normalize_calls_normalize_poly_once_per_section(monkeypatch):
    # one normalize_poly call per section for each computed normalization,
    # none for a memo hit; the second section cleans once, the first does not
    calls = []
    real = projection.normalize_poly

    def counted(f, z_index, y, elim_ord=INF):
        calls.append(z_index)
        return real(f, z_index, y, elim_ord=elim_ord)

    monkeypatch.setattr(projection, "normalize_poly", counted)
    names = ("z1", "z2", "x", "y")
    polys = (P("z1^2 + x^3", F2, names), P("z2^2 + x^2*y^2", F2, names))
    elim = ReesAlg.make(F2, 4, [(P("x^4*y^4", F2, names), 3)])
    sp = SimplifiedPresentation(F2, 4, (0, 1), polys, elim)
    for y in (ClosedPoint((0, 0, 0, 0)), GenericPoint(frozenset({2}))):
        calls.clear()
        res = normalize(sp, y)
        assert calls == [0, 1]
        assert normalize(sp, y) is res and hord_data(sp, y) is res
        is_normal_at(sp, y)
        hord(sp, y)
        assert calls == [0, 1]


def test_hord_single_section():
    pres = pres1("z^2 + x^3")
    assert hord(pres, ORIGIN) == Fraction(3, 2)


def test_hord_pure_power_falls_to_elim():
    pres = pres1("z^2", elim_gens=[("x^3", 2)])
    assert hord(pres, ORIGIN) == Fraction(3, 2)


def test_hord_at_generic_point():
    pres = pres1("z^2 + x^2*y^3", F2)
    assert hord(pres, GenericPoint(frozenset({1}))) == 1
    assert hord(pres, GenericPoint(frozenset({2}))) == Fraction(3, 2)
    assert hord(pres, GenericPoint(frozenset({1, 2}))) == Fraction(5, 2)


def test_p_presentation_reduced_formula():
    f = P("z^2 + x^3", F2)
    elim = ealg(F2, [("x^3", 2)])
    pp = make_p_presentation(F2, 3, (0,), (f,), elim)
    assert isinstance(pp, PPresentation)
    assert pp.degrees == (2,)
    assert tuple(round(math.log(n, 2)) for n in pp.degrees) == (1,)
    d = hord_data(pp, ORIGIN)
    # the reduced formula (constant coefficients only) agrees, or hord_data raises
    assert d.value == Fraction(3, 2)


def test_make_p_presentation_augments_elim():
    # the middle coefficient x of z^2 + xz + y^3 must join the elimination
    # part for the constant-term formula to be valid
    f = P("z^2 + x*z + y^3", F2)
    pp = make_p_presentation(F2, 3, (0,), (f,), ReesAlg.make(F2, 3, []))
    got = {(render_poly(g, ZXY), n) for g, n in pp.elim.gens}
    assert ("x", 1) in got
    assert hord_data(pp, ORIGIN).value == 1


def test_normalize_p_presentation_gives_plain_presentation():
    # z -> z + x already creates the middle coefficients x^6 and x^7, which
    # are not in the elimination part, so the result is no p-presentation
    pp = make_p_presentation(F2, 3, (0,), (P("z^4 + x^5*z^3 + x^4", F2),),
                             ReesAlg.make(F2, 3, []))
    res = normalize(pp, ORIGIN)
    assert type(res.cleaned) is SimplifiedPresentation
    assert res.normalizations[0].substitutions[0] == P("x", F2)
    out = res.cleaned
    with pytest.raises(ValueError, match="middle coefficient"):
        PPresentation(out.field, out.nvars, out.sections, out.polys, out.elim)
    assert res.normalizations[0].slope == hord(pp, ORIGIN)
    # hord_data checks the reduced formula on the same record
    assert hord_data(pp, ORIGIN) is res


def test_p_presentation_rejects_missing_middle_coefficient():
    f = P("z^2 + x*z + y^3", F2)
    with pytest.raises(ValueError):
        PPresentation(F2, 3, (0,), (f,), ReesAlg.make(F2, 3, []))


def test_coefficient_elim():
    def gens(f):
        return sorted((render_poly(g, ZXY), n) for g, n in coefficient_elim(f, 0).gens)
    assert gens(P("z^2 + x^3")) == [("x^3", 2)]
    assert gens(P("z^5 + x^6", F5)) == [("x^6", 5)]
    assert gens(P("z^2 + x*z + y^2")) == [("x", 1), ("y^2", 2)]


def test_coefficient_elim_saturation_route_agrees():
    # relative saturation along z sends a_j downstairs with weight j: its
    # section-free generators are already coefficient generators
    found = []
    for text, field in (("z^2 + x^3", Q), ("z^2 + x*z + y^2", Q),
                        ("z^2 + x^3", F2), ("z^3 + x^2*y^2", F3),
                        ("z^2 + x*z + y^3", F2), ("z^3 + x*z^2 + y*z + x^4", F3)):
        f = P(text, field)
        plain = coefficient_elim(f, 0)
        n = f.degree_in_var(0)
        sat = saturate_all_alpha(ReesAlg.make(field, 3, [(f, n)]), [0])
        downstairs = [(g, m) for g, m in sat.gens if not g.uses_var(0)]
        assert plain == ReesAlg.make(field, 3, list(plain.gens) + downstairs)
        found += [(render_poly(g, ZXY), m) for g, m in downstairs]
    # in characteristic p a derivative can lose every z: H_z of z^2 + x*z is x
    assert found == [("x", 1), ("x", 1)]


def test_upstairs_algebra_and_fiber_point():
    pres = pres1("z^2 + x^3")
    up = upstairs_algebra(pres)
    assert (P("z^2 + x^3"), 2) in up.gens
    assert (P("x^3"), 2) in up.gens
    fp = fiber_point(pres, ClosedPoint((7, 1, 2)))
    assert fp == ClosedPoint((0, 1, 2))
    gp = fiber_point(pres, GenericPoint(frozenset({1})))
    assert gp == GenericPoint(frozenset({0, 1}))


def test_section_invariance_small():
    pres = pres1("z^3 + x^4 + y^5", F3)
    base = hord(pres, ORIGIN)
    for alpha_text in ("x", "2*y", "x + y^2", "x^2 + 2*x*y"):
        alpha = P(alpha_text, F3)
        z = parse_poly("z", F3, ZXY)
        shifted = pres.polys[0].substitute({0: z - alpha})
        moved = SimplifiedPresentation(F3, 3, (0,), (shifted,), pres.elim)
        assert hord(moved, ORIGIN) == base


_STALLED_SLOPE = """
import sys
from fractions import Fraction
import charpres.projection as pr
from charpres.errors import InvariantError
from charpres.poly import ClosedPoint, FieldSpec, parse_poly

assert False, "this line only runs without -O"
pr.slope_poly = lambda *args: Fraction(1)   # the slope never rises
f = parse_poly("z^2 + 2*z*x + x^2 + x^3", FieldSpec(0), ("z", "x", "y"))
try:
    pr.normalize_poly(f, 0, ClosedPoint((0, 0, 0)))
except InvariantError as exc:
    print("optimize=%d: %s" % (sys.flags.optimize, exc))
"""


def test_invariant_checks_survive_python_O():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-O", "-c", _STALLED_SLOPE], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == \
        "optimize=1: normalization must strictly increase the slope"


def test_normal_form_test_builds_a_form_only_when_a_root_can_exist(monkeypatch):
    built = []
    root = MPoly.pth_power_root

    def counted(self, pe):
        built.append(pe)
        return root(self, pe)

    monkeypatch.setattr(MPoly, "pth_power_root", counted)
    # slope 1 from a_2 = x^2; a_3 = y^7 misses 3*1, so no cube root can exist
    pres = pres1("z^3 + x^2*z + y^7", F3, elim_gens=[])
    d = hord_data(pres, ORIGIN)
    assert d.normalizations[0].iterations == 0 and d.value == 1
    assert is_normal_at(pres, ORIGIN)
    assert built == []
    # a_1 = 2x attains the slope 1: one root taken, one substitution, and
    # after it a_1 = 0 takes none at the slope 3/2
    pres = pres1("z^2 + 2*x*z + x^2 + x^3", elim_gens=[])
    d = hord_data(pres, ORIGIN)
    assert d.normalizations[0].iterations == 1 and d.value == Fraction(3, 2)
    assert built == [1]


def test_hord_data_memo(monkeypatch):
    pres = pres1("z^2 + 2*x*z + x^2 + x^3", elim_gens=[])
    # a call over budget that raises stores nothing and raises again
    with monkeypatch.context() as m:
        m.setattr(projection, "NORMALIZE_CAP_FACTOR", 0)
        for _ in range(2):
            with pytest.raises(DegenerateSlopeError):
                hord_data(pres, ORIGIN)
    d = hord_data(pres, ORIGIN)
    assert hord_data(pres, ORIGIN) is d
    assert normalize(pres, ORIGIN) is d
    assert d.normalizations[0].iterations == 1
    # an equal point is the same entry
    assert hord_data(pres, ClosedPoint((0, 0, 0))) is d
    # an equal presentation rebuilt afresh computes an equal result
    again = pres1("z^2 + 2*x*z + x^2 + x^3", elim_gens=[])
    assert again == pres
    fresh = hord_data(again, ORIGIN)
    assert fresh is not d and fresh == d


def test_p_presentation_splits_each_section_once(monkeypatch):
    calls = []
    split = MPoly.coefficients_in_var

    def counted(self, i):
        calls.append(i)
        return split(self, i)

    monkeypatch.setattr(MPoly, "coefficients_in_var", counted)
    f = P("z^9 + x^2*z^6 + x*y*z^3 + y^7", F3)
    pp = make_p_presentation(F3, 3, (0,), (f,), ReesAlg.make(F3, 3, []))
    assert pp.degrees == (9,)
    assert calls == [0]
