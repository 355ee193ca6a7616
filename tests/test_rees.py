"""Weighted algebras: differential saturation, singular loci, tau."""

import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from charpres import rees
from charpres.errors import BudgetError, InputError
from charpres.poly import (INF, ClosedPoint, FieldSpec, GenericPoint, MPoly,
                           parse_poly, render_poly)
from charpres.rees import (ReesAlg, SmallExtField, diff_saturate, ord_at,
                           sing_member, singular_coordinate_strata, tau_at,
                           tau_translation_oracle)
from charpres.scene import RunOptions, parse_scene, run_scene

from oracles import macaulay_additive_forms_reference, multi_indices, quadratic_rank

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
ZXY = ("z", "x", "y")


def P(text, field=Q, names=ZXY):
    return parse_poly(text, field, names)


def alg(field, gens, names=ZXY):
    return ReesAlg.make(field, len(names), [(P(t, field, names), n) for t, n in gens])


ORIGIN = ClosedPoint((0, 0, 0))


def test_make_drops_zero_and_detects_units():
    a = alg(Q, [("0", 2), ("z^2 + x^3", 2)])
    assert [n for _, n in a.gens] == [2]
    u = alg(Q, [("2", 1)])
    assert u.is_unit
    assert ord_at(u, ORIGIN) == 0
    assert not sing_member(u, ORIGIN)
    # a non-constant generator with a unit constant term is not the unit
    # algebra, but no point of V(f) = empty locus near it is singular
    v = alg(Q, [("1 + x", 1)])
    assert not v.is_unit
    assert not sing_member(v, ORIGIN)


def test_make_drops_exact_repeats_without_hashing(monkeypatch):
    texts = [("1/2*x + z^2", 2), ("2/3*x^3", 1), ("1/2*x + z^2", 1), ("2/3*x^3", 1),
             ("1/2*x + z^2", 2), ("y", 1)]
    gens = [(P(t), n) for t, n in texts]

    def refuse(self):
        raise AssertionError("a coefficient was hashed")

    monkeypatch.setattr(Fraction, "__hash__", refuse)
    a = ReesAlg.make(Q, 3, gens)
    assert [(render_poly(f, ZXY), n) for f, n in a.gens] == [
        ("y", 1), ("2/3*x^3", 1), ("z^2 + 1/2*x", 1), ("z^2 + 1/2*x", 2)]


def test_trivial_algebra():
    t = ReesAlg.make(Q, 3, [])
    assert not t.gens and not t.is_unit
    assert ord_at(t, ORIGIN) is INF
    assert sing_member(t, ORIGIN)


def test_saturation_of_cusp():
    a = alg(Q, [("z^2 + x^3", 2)])
    sat = diff_saturate(a)
    got = {(render_poly(f, ZXY), n) for f, n in sat.gens}
    assert got == {("3*x^2", 1), ("2*z", 1), ("x^3 + z^2", 2)}
    # saturating again is a fixpoint
    assert diff_saturate(sat) == sat


def test_saturation_is_kept_on_the_algebra():
    a = alg(F3, [("z^3 + x^2*y^2", 3)])
    sat = diff_saturate(a)
    assert diff_saturate(a) is sat
    # a saturation is its own saturation
    assert diff_saturate(sat) is sat
    # an equal algebra built afresh saturates to an equal algebra
    assert diff_saturate(ReesAlg.make(F3, 3, sat.gens)) == sat


def test_saturation_keeps_one_generator_per_scalar_class():
    # f = (x + 2y)^2: H^y f = 4x + 8y is twice H^x f = 2x + 4y, the first formed
    a = alg(Q, [("x^2 + 4*x*y + 4*y^2", 2)])
    got = [(render_poly(f, ZXY), n) for f, n in diff_saturate(a).gens]
    assert got == [("2*x + 4*y", 1), ("x^2 + 4*x*y + 4*y^2", 2)]


def test_monic_key_is_one_per_scalar_class():
    def key(text, n=1, field=Q):
        return rees._monic_key(P(text, field), n)

    # over Q: the primitive integer vector with a positive leading entry
    assert key("2*x + 4") == key("x + 2") == key("-1/2*x - 1") == (1, (((0, 1, 0), 1),
                                                                        ((0, 0, 0), 2)))
    assert key("x + 2") != key("x + 3")
    assert key("x + 2") != key("x + 2", 2)
    assert key("2/3*x^2 - 4/9*y") == key("-3*x^2 + 2*y")
    assert all(type(c) is int for _, c in key("1/2*x - 1/3*y")[1])
    # over F_p: scaled to leading coefficient 1
    assert key("2*x + 1", 1, F3) == key("x + 2", 1, F3) != key("x + 1", 1, F3)


def test_saturation_unit_detection():
    # the z-derivative of z + x^2 is the constant 1 at weight 1
    a = alg(Q, [("z + x^2", 2)])
    sat = diff_saturate(a)
    assert sat.is_unit
    # weight 1 admits no derivatives of order below the weight
    b = alg(Q, [("z + x^2", 1)])
    assert diff_saturate(b) == b


def test_singular_strata():
    a = alg(Q, [("z^2 + x^3", 2)])
    sat = diff_saturate(a)
    strata = singular_coordinate_strata(sat)
    assert set(strata) == {frozenset({0, 1}), frozenset({0, 1, 2})}


def _count_strata_tests(monkeypatch, a):
    """The strata of `a` and the points the scan tested."""
    tested = []
    sing_member_ = rees.sing_member

    def counted(alg, pt):
        tested.append(pt)
        return sing_member_(alg, pt)

    monkeypatch.setattr(rees, "sing_member", counted)
    return singular_coordinate_strata(a), tested


def test_strata_scan_of_a_smooth_origin_makes_one_test(monkeypatch):
    a = alg(Q, [("z^2 + x^3", 2), ("y + x^2", 2)])
    assert _count_strata_tests(monkeypatch, a) == ([], [GenericPoint(frozenset({0, 1, 2}))])


def test_strata_scan_tests_no_superset_of_a_singular_stratum(monkeypatch):
    # z^2 is singular along V(z), so every stratum containing z is too
    strata, tested = _count_strata_tests(monkeypatch, alg(F3, [("z^2", 2)]))
    assert strata == [frozenset({0}), frozenset({0, 1}), frozenset({0, 2}),
                      frozenset({0, 1, 2})]
    assert [sorted(pt.vars) for pt in tested] == [[0, 1, 2], [0], [1], [2], [1, 2]]


def test_sing_member_points():
    a = alg(Q, [("z^2 + x^3", 2)])
    assert sing_member(a, ORIGIN)
    assert not sing_member(a, ClosedPoint((1, Fraction(-1), 0)))
    assert sing_member(a, GenericPoint(frozenset({0, 1})))


def test_tau_char0():
    a = alg(Q, [("z^2 + x^3", 2)])
    td = tau_at(a, ORIGIN)
    assert td.tau == 1
    node = alg(Q, [("z^2 - x*y", 2)])
    assert tau_at(node, ORIGIN).tau == 3
    assert quadratic_rank(P("z^2 - x*y")) == 3
    quad = ReesAlg.make(Q, 2, [(parse_poly("x^2 + y^2", Q, ("x", "y")), 2)])
    assert tau_at(quad, ClosedPoint((0, 0))).tau == 2


def test_tau_rejects_nonsingular_point():
    a = alg(Q, [("z^2 + x^3", 2)])
    with pytest.raises(ValueError):
        tau_at(a, ClosedPoint((0, 1, 0)))


def test_tau_char2_ideal_level():
    # z^2 + xy: the ideal contains z^2 = (z^2+xy) + x*y, so all three
    # directions are vertices even though the form itself is not additive
    a = alg(F2, [("z^2 + x*y", 2)])
    td = tau_at(a, ORIGIN)
    assert td.tau == 3
    for m in (1, 2, 3):
        assert tau_translation_oracle(a, ORIGIN, m) == 3


def test_tau_char2_drops():
    a = alg(F2, [("z^2 + x^2*y", 2)])
    assert tau_at(a, ORIGIN).tau == 1
    for m in (1, 2):
        assert tau_translation_oracle(a, ORIGIN, m) == 1


def test_tau_char3_cube():
    a = alg(F3, [("z^3 + x^3", 3)])
    td = tau_at(a, ORIGIN)
    assert td.tau == 1
    for m in (1, 2):
        assert tau_translation_oracle(a, ORIGIN, m) == 1


def test_tau_off_a_singular_stratum_may_exceed_its_codimension():
    # x^2*y*(x + 1) is singular along V(x), of codimension 1, and at the
    # origin; the point (1, 0) is on neither, and there the vertices are
    # both directions
    names = ("x", "y")
    a = ReesAlg.make(F2, 2, [(parse_poly("x^3*y + x^2*y", F2, names), 2)])
    assert sorted(map(sorted, singular_coordinate_strata(a))) == [[0], [0, 1]]
    pt = ClosedPoint((1, 0))
    assert tau_at(a, pt).tau == 2
    for m in (1, 2):
        assert tau_translation_oracle(a, pt, m) == 2


def test_tau_quadric_char2_vs_char0():
    names = ("x", "y")
    q2 = ReesAlg.make(F2, 2, [(parse_poly("x^2 + y^2", F2, names), 2)])
    assert tau_at(q2, ClosedPoint((0, 0))).tau == 1
    for m in (1, 2, 3):
        assert tau_translation_oracle(q2, ClosedPoint((0, 0)), m) == 1


# -- tau's graded pieces: single-term forms as a monomial ideal, a row budget ----


XYZ = ("x", "y", "z")


def _forms(field, texts, names):
    return [parse_poly(t, field, names) for t in texts]


def test_single_term_forms_build_no_rows(monkeypatch):
    # x*y divides x^2*y and y^2 is a repeat: M is (x*y, y^2, z^3), so its
    # pure powers of degree 3 are y^3 and z^3, and no rref runs
    def refuse(*args):
        raise AssertionError("single-term forms built Macaulay rows")

    monkeypatch.setattr(rees, "rref", refuse)
    forms = _forms(F3, ["x*y", "x^2*y", "2*y^2", "y^2", "z^3"], XYZ)
    assert rees._additive_forms_in_degree(forms, 3, F3, 3) == [{1: 1}, {2: 1}]
    # over Q the unit vectors hold Fractions, as rref's rows do
    got = rees._additive_forms_in_degree(_forms(Q, ["3*y"], XYZ), 1, Q, 3)
    assert got == [{1: 1}] and type(got[0][1]) is Fraction


def test_multi_term_rows_drop_the_cells_in_the_monomial_ideal(monkeypatch):
    # y^3 lies in M; x^3 + y^3 + z^3 reduces to x^3 + z^3 modulo M, which
    # pivots before y^3, so the list is sorted by pivot
    seen = []
    rref = rees.rref

    def recorded(rows, field):
        seen.extend(dict(r) for r in rows)
        return rref(rows, field)

    monkeypatch.setattr(rees, "rref", recorded)
    forms = _forms(F3, ["y^3", "z^3 + x^3 + y^3"], XYZ)
    assert rees._additive_forms_in_degree(forms, 3, F3, 3) == [{0: 1, 2: 1}, {1: 1}]
    assert len(seen) == 1 and len(seen[0]) == 2
    # a multiple that lies in M altogether gives no row
    seen.clear()
    forms = _forms(F3, ["z", "x*z + y*z"], XYZ)
    assert rees._additive_forms_in_degree(forms, 3, F3, 3) == [{2: 1}]
    assert seen == []


def test_tau_budget_counts_the_multi_term_rows(monkeypatch):
    # over F_5 in 3 variables, x^2 + y^2 gives binom(5 - 2 + 2, 2) = 10
    # rows of degree 5, and x*y + z^2 10 more; the single-term z^2 none.
    # Modulo z^2 the ideal holds x*y, so x^3 = x*(x^2 + y^2) - y*(x*y)
    forms = _forms(FieldSpec(5), ["x^2 + y^2", "x*y + z^2", "z^2"], XYZ)
    monkeypatch.setattr(rees, "TAU_MAX_ROWS", 19)
    with pytest.raises(BudgetError, match="degree-5 piece .* 20 Macaulay rows"):
        rees._additive_forms_in_degree(forms, 5, FieldSpec(5), 3)
    monkeypatch.setattr(rees, "TAU_MAX_ROWS", 20)
    assert (rees._additive_forms_in_degree(forms, 5, FieldSpec(5), 3)
            == [{0: 1}, {1: 1}, {2: 1}])


def test_tau_budget_refuses_before_building_a_row(monkeypatch):
    # degree 125 over F_5 in 4 variables: binom(124 + 3, 3) = 333,375
    # multiples of x + y, refused before any is built
    def refuse(*args):
        raise AssertionError("the piece was built over budget")

    monkeypatch.setattr(rees, "rref", refuse)
    monkeypatch.setattr(itertools, "combinations_with_replacement", refuse)
    forms = _forms(FieldSpec(5), ["x + y"], ("x", "y", "z", "w"))
    with pytest.raises(BudgetError, match="degree-125 piece .* 333375 Macaulay rows"):
        rees._additive_forms_in_degree(forms, 125, FieldSpec(5), 4)


_F13_SCENE = "\n".join(["[field]", "characteristic: 13", "[variables]", "vars: a, b, c, d",
                        "[algebra]", "gen: (a + b + c + d)^12*a W^13", "[script]",
                        "analyze at origin", ""])


def test_tau_budget_in_a_scene(monkeypatch):
    # the degree-13 piece of this tangent cone takes 18,837 rows: within
    # the budget tau is 2, and one row under it the command records the
    # refusal
    sc = parse_scene(_F13_SCENE, "f13.scene")
    assert run_scene(sc, RunOptions())["records"][0]["tau"] == 2
    monkeypatch.setattr(rees, "TAU_MAX_ROWS", 18836)
    doc = run_scene(parse_scene(_F13_SCENE, "f13.scene"), RunOptions())
    assert doc["status"] == "error"
    assert doc["records"][0]["error_type"] == "BudgetError"
    assert "degree-13 piece" in doc["records"][0]["error"]
    assert "18837 Macaulay rows" in doc["records"][0]["error"]


def test_additive_forms_equal_the_macaulay_reference_on_the_workloads(monkeypatch):
    """Every graded piece that the 25 goldens and the seed-1 `analyze`
    scenes meet gives exactly the list of the all-rows Macaulay build: the
    same dicts, keys in the same order, in the same order."""
    kernel = rees._additive_forms_in_degree
    pieces = []

    def compared(forms, degree, field, nvars):
        got = kernel(forms, degree, field, nvars)
        want = macaulay_additive_forms_reference(forms, degree, field, nvars)
        assert got == want
        assert [list(row) for row in got] == [list(row) for row in want]
        pieces.append(degree)
        return got

    monkeypatch.setattr(rees, "_additive_forms_in_degree", compared)
    for case in workloads.load_corpus(1) + workloads.load_analyze(1):
        workloads.run_case(case, RunOptions())
    assert len(pieces) > 200


def test_small_ext_field_axioms():
    rng = random.Random(7)
    for (p, m) in ((2, 2), (2, 3), (3, 2), (5, 2),
                   (11, 2), (13, 2), (5, 3), (11, 3), (7, 3)):
        K = SmallExtField(p, m)
        # monic of degree m with no root in F_p, so irreducible for m = 2, 3
        assert len(K.modulus) == m + 1 and K.modulus[-1] == 1
        assert all(sum(c * a ** i for i, c in enumerate(K.modulus)) % p
                   for a in range(p))
        els = list(K.elements())
        assert len(els) == p ** m
        for _ in range(60):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert K.mul(a, K.mul(b, c)) == K.mul(K.mul(a, b), c)
            assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
        # Frobenius fixed field is F_p
        fixed = [a for a in els if K.power(a, p) == a]
        assert len(fixed) == p


def test_small_ext_field_refuses_other_degrees_and_oversized_fields():
    with pytest.raises(InputError, match="extension degree must be 1, 2 or 3"):
        SmallExtField(2, 4)
    with pytest.raises(InputError, match="extension degree must be 1, 2 or 3"):
        SmallExtField(2, 0)
    # 1009^2 = 1,018,081 elements; the search never starts
    with pytest.raises(BudgetError, match="F_1009\\^2 has 1018081 elements"):
        SmallExtField(1009, 2)
    assert SmallExtField(997, 2).modulus[-1] == 1


@pytest.mark.parametrize("p", [11, 13])
def test_oracle_over_a_quadratic_extension_of_a_larger_prime_field(p):
    field = FieldSpec(p)
    names = ("x", "y")
    for text, n, point, tau in (("x^2 + y^3", 2, (0, 0), 1),
                                ("x^3", 3, (0, 0), 1),
                                ("(x - 1)^2 + (y - 2)^2", 2, (1, 2), 2),
                                ("x^2*y^2 + y^5", 3, (0, 0), 0)):
        a = ReesAlg.make(field, 2, [(parse_poly(text, field, names), n)])
        pt = ClosedPoint(point)
        assert tau_at(a, pt).tau == tau_translation_oracle(a, pt, 2) == tau, text


def test_canonical_generator_order_is_stable():
    a = alg(Q, [("x^3 + z^2", 2), ("2*z", 1), ("3*x^2", 1)])
    b = alg(Q, [("3*x^2", 1), ("x^3 + z^2", 2), ("2*z", 1)])
    assert a == b


def test_oracle_refuses_over_budget_before_enumerating(monkeypatch):
    names = tuple("x%d" % i for i in range(7))
    F7 = FieldSpec(7)
    a = ReesAlg.make(F7, 7, [(parse_poly("x0^2 + x1*x2", F7, names), 2)])
    origin = ClosedPoint((0,) * 7)

    def refuse(*args):
        raise AssertionError("the oracle started work over budget")

    monkeypatch.setattr(rees, "_tangent_forms", refuse)
    monkeypatch.setattr(SmallExtField, "elements", refuse)
    with pytest.raises(BudgetError, match=r"F_7\^3 in 7 variables"):
        tau_translation_oracle(a, origin, 3)
    F11 = FieldSpec(11)
    b = ReesAlg.make(F11, 2, [(parse_poly("x^2 + y^3", F11, ("x", "y")), 2)])
    with pytest.raises(BudgetError, match=r"1771561 vectors over F_11\^3 in 2 variables"):
        tau_translation_oracle(b, ClosedPoint((0, 0)), 3)


@pytest.mark.parametrize("m", [0, -1, 4])
def test_oracle_refuses_a_degree_outside_1_to_3_before_saturating(monkeypatch, m):
    saturated = []
    saturate = rees._saturate

    def counted(a):
        saturated.append(a)
        return saturate(a)

    monkeypatch.setattr(rees, "_saturate", counted)
    with pytest.raises(InputError, match="^extension degree must be 1, 2 or 3$"):
        tau_translation_oracle(alg(F2, [("z^2 + x^3", 2)]), ORIGIN, m)
    assert saturated == []


@pytest.mark.parametrize("call,message", [
    (lambda: ReesAlg.make(F2, 3, [(P("x", F2), 0)]), "generator weights must be positive"),
    (lambda: ReesAlg.make(F2, 2, [(P("x", F2), 1)]), "generator lives in the wrong ring"),
    (lambda: ReesAlg.make(F3, 3, [(P("x", F2), 1)]), "generator lives in the wrong ring"),
    (lambda: tau_at(alg(F2, [("x^2", 2)]), GenericPoint(frozenset({1}))),
     "tau is computed at closed points"),
    (lambda: tau_translation_oracle(alg(Q, [("x^2", 2)]), ORIGIN),
     "the translation oracle needs positive characteristic"),
], ids=["weight-0", "arity", "field", "tau-at-a-generic-point", "oracle-over-q"])
def test_arguments_outside_the_domain_are_input_errors(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


# -- one local expansion per polynomial and closed point -------------------------


def _count_shifts(monkeypatch):
    """Record each polynomial the Taylor-shift kernel runs on: the work that
    the translate memo on `MPoly` exists to do once."""
    calls = []
    shift = MPoly._shift

    def counted(self, values):
        calls.append(self)
        return shift(self, values)

    monkeypatch.setattr(MPoly, "_shift", counted)
    return calls


def _analyze(a, pt):
    """The calls `analyze` makes at a closed point."""
    ord_at(a, pt)
    sing_member(a, pt)
    sat = diff_saturate(a)
    sing_member(sat, pt)
    return tau_at(a, pt)


def test_each_generator_is_translated_once_per_point(monkeypatch):
    a = alg(F3, [("(z - 1)^3 + (x - 1)^2*(y + 1)^2", 3), ("(x - 1)^2 + (y + 1)^3", 2)])
    sat = diff_saturate(a)
    pt = ClosedPoint((1, 1, 2))
    shifted = [f._shift(pt.values) for f, _ in sat.gens]
    calls = _count_shifts(monkeypatch)
    td = _analyze(a, pt)
    # the saturation holds the original generators themselves, and the
    # translate of a derivative H^alpha f is H^alpha of the translate of f,
    # so the analysis shifts each original once and nothing else
    originals = [f for f, _ in a.gens]
    assert all(any(f is g for g, _ in sat.gens) for f in originals)
    assert sorted(map(id, calls)) == sorted(map(id, originals))
    assert len(calls) == len(a.gens) < len(sat.gens)
    # every polynomial of the saturation keeps its own translate, equal to a shift
    assert all(list(f._translates) == [pt.values] for f, _ in sat.gens)
    assert [f._translates[pt.values] for f, _ in sat.gens] == shifted
    # an equal point built afresh is served from the memo
    fresh = ClosedPoint(tuple(list(pt.values)))
    assert fresh == pt and fresh.values is not pt.values
    assert _analyze(a, fresh) == td
    assert len(calls) == len(a.gens)
    assert all(list(f._translates) == [pt.values] for f, _ in sat.gens)
    # another point is a separate entry
    sing_member(sat, ClosedPoint((1, 0, 0)))
    assert set(sat.gens[0][0]._translates) == {pt.values, (1, 0, 0)}


def test_local_memo_stops_where_the_singular_test_stops(monkeypatch):
    a = alg(Q, [("z^2 + x^3", 2)])
    sat = diff_saturate(a)
    off = ClosedPoint((0, 1, 0))
    calls = _count_shifts(monkeypatch)
    assert not sing_member(sat, off)
    # the first generator, 3*x^2 at weight 1, already has order 0 there; it
    # is a derivative of the original, whose shift is the one made
    first = sat.gens[0][0]
    (f, _), = a.gens
    assert first is not f
    assert calls == [f] and list(first._translates) == [off.values]
    assert list(f._translates) == [off.values]
    assert all(g._translates is None for g, _ in sat.gens[1:] if g is not f)
    assert ord_at(sat, off) == 0
    assert len(calls) == len(a.gens)


def _walked(monkeypatch):
    """Record (f, alpha) for each derivative the saturation walk lists, in
    the order it lists them: the derivatives `_saturate` forms."""
    calls = []
    walk = rees._derivatives

    def counted(f, max_total, most):
        leaves = walk(f, max_total, most)
        calls.extend((f, alpha) for alpha, _ in leaves or ())
        return leaves

    monkeypatch.setattr(rees, "_derivatives", counted)
    return calls


def test_saturation_differentiates_only_under_the_support(monkeypatch):
    # z^3 + x^2*y^2 has 9 multi-indices of order 1 or 2, 7 of them under its
    # exponents (z, z^2; x, y, x^2, x*y, y^2); x^2 + y has 3 of order 1, 2 of
    # them under its exponents; H^z(z^3) = 3*z^2 and H^(z^2)(z^3) = 3*z
    # vanish mod 3 (Lucas: the base-3 digits 1 and 2 do not lie under those
    # of 3 = 10_3), so they are not formed either
    a = alg(F3, [("z^3 + x^2*y^2", 3), ("x^2 + y", 2)])
    calls = _walked(monkeypatch)
    sat = diff_saturate(a)
    assert all(any(all(a_i <= e_i for a_i, e_i in zip(alpha, e)) for e, _ in f.terms)
               for f, alpha in calls)
    z3 = a.gens[1][0]
    assert len(calls) == 7 and (z3, (1, 0, 0)) not in calls and (z3, (2, 0, 0)) not in calls
    assert not any(f.hasse_deriv_multi(alpha).is_zero() for f, alpha in calls)
    assert sum(len(list(multi_indices(3, range(3), n - 1))) for _, n in a.gens) == 12
    # every derivative kept is one the walk listed, and records it
    derived = [g._derived for g, _ in sat.gens if g._derived is not None]
    assert derived and all(d in calls for d in derived)
    got = {(render_poly(g, ZXY), n) for g, n in sat.gens}
    assert ("z^2", 2) not in got and ("z", 1) not in got


def test_saturation_forms_only_nonzero_derivatives(monkeypatch):
    # over F_2, binom(4, a) is even for a = 1, 2, 3, so every derivative of
    # z^4 + x^4 of order below 4 vanishes: none is formed, and the algebra
    # is its own saturation
    a = alg(F2, [("z^4 + x^4", 4)])
    calls = _walked(monkeypatch)
    assert diff_saturate(a).gens == a.gens
    assert calls == []
    # over F_3 the pure derivatives of order 1 and 3 survive (binom(4, 2) = 6)
    b = alg(F3, [("z^4 + x^4", 4)])
    got = {(render_poly(g, ZXY), n) for g, n in diff_saturate(b).gens}
    assert got == {("z^4 + x^4", 4), ("z^3", 3), ("x^3", 3), ("z", 1), ("x", 1)}
    assert [alpha for _, alpha in calls] == [(1, 0, 0), (0, 1, 0), (3, 0, 0), (0, 3, 0)]


def test_saturation_budget_counts_derivatives_times_terms(monkeypatch):
    # over F_3, z^3 + x^2*y^2 (2 terms) has 5 nonzero derivatives of order
    # below 3 and x^2 + y (2 terms) has 2 of order 1: 5*2 + 2*2 = 14 units
    a = alg(F3, [("z^3 + x^2*y^2", 3), ("x^2 + y", 2)])
    monkeypatch.setattr(rees, "SATURATION_MAX_WORK", 13)
    with pytest.raises(BudgetError, match="14 units of work .* weight 3 with 2 terms"):
        diff_saturate(a)
    monkeypatch.setattr(rees, "SATURATION_MAX_WORK", 14)
    assert len(diff_saturate(a).gens) == 8


def test_generic_points_never_enter_the_local_memo(monkeypatch):
    a = alg(Q, [("z^2 + x^3", 2)])
    calls = _count_shifts(monkeypatch)
    L = GenericPoint(frozenset({0, 1}))
    assert sing_member(a, L) and ord_at(a, L) == 1
    assert sing_member(diff_saturate(a), L)
    assert calls == []
    assert all(f._translates is None for f, _ in diff_saturate(a).gens)


def test_wrong_arity_raises_on_every_call(monkeypatch):
    a = alg(Q, [("z^2 + x^3", 2)])
    short = ClosedPoint((0, 0))
    calls = _count_shifts(monkeypatch)
    for _ in range(2):
        for fn in (ord_at, sing_member, tau_at):
            with pytest.raises(ValueError, match="arity"):
                fn(a, short)
    assert calls == []
    assert all(f._translates is None for f, _ in diff_saturate(a).gens)


def test_strata_are_scanned_once_per_algebra(monkeypatch):
    a = alg(Q, [("z^2 + x^3", 2)])
    sat = diff_saturate(a)
    scans = []
    order_at = rees.order_at

    def counted(f, pt):
        scans.append(pt)
        return order_at(f, pt)

    monkeypatch.setattr(rees, "order_at", counted)
    strata = singular_coordinate_strata(sat)
    assert set(strata) == {frozenset({0, 1}), frozenset({0, 1, 2})}
    scanned = len(scans)
    assert scanned > 0
    # the returned list is a copy: mutating it leaves the memo alone
    strata.append(frozenset({2}))
    strata.clear()
    assert set(singular_coordinate_strata(sat)) == {frozenset({0, 1}), frozenset({0, 1, 2})}
    # tau_at reads the strata of the saturation, already scanned
    assert tau_at(a, ORIGIN).tau == 1
    assert len(scans) == scanned
    # another algebra scans its own
    singular_coordinate_strata(a)
    assert len(scans) > scanned
