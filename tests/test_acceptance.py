"""Acceptance suite.  One test function per criterion, so `pytest -v` prints
one pass/fail line for each."""

import glob
import math
import os
import random
import time
from fractions import Fraction

from charpres.blowup import Center, Chart, blow_up_poly, stage_ab_experiment
from charpres.monomial import MonomialAlg, resolve_game
from charpres.poly import (ClosedPoint, FieldSpec, GenericPoint, MPoly,
                           order_at, parse_poly)
from charpres.projection import (SimplifiedPresentation, fiber_point,
                                 membership_criterion, normalize,
                                 upstairs_algebra)
from charpres.rees import ReesAlg, sing_member, tau_at, tau_translation_oracle
from charpres.scene import load_scene, run_scene

from oracles import evaluate, quadratic_rank

Q = FieldSpec(0)
SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def scene_docs(prefix):
    out = []
    for path in sorted(glob.glob(os.path.join(SCENES, prefix + "*.scene"))):
        sc = load_scene(path)
        out.append((os.path.basename(path), sc, run_scene(sc)))
    return out


def record(doc, command):
    return next(r for r in doc["records"] if r.get("command") == command)


def test_criterion_1_stage_ab_slope_law():
    t0 = time.monotonic()
    F5 = FieldSpec(5)
    cusp = parse_poly("z^2 + x^3", F5, ("z", "x"))
    ratios = []
    for N, want in [(4, 1), (6, 2), (8, 3), (10, 4), (12, 5)]:
        ell, trace = stage_ab_experiment(cusp, 0, N)
        assert trace["q"] == Fraction(3, 2)
        assert ell == want == trace["expected"]
        ratios.append(Fraction(ell, N))
    quartic = parse_poly("z^2 + x^4", F5, ("z", "x"))
    for N, want in [(3, 2), (5, 4)]:
        ell, trace = stage_ab_experiment(quartic, 0, N)
        assert trace["q"] == 2
        assert ell == want == trace["expected"]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, "experiments took %.2fs" % elapsed
    # l_N / N climbs monotonically toward q - 1
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < Fraction(1, 2) for r in ratios)
    assert Fraction(1, 2) - ratios[-1] < Fraction(1, 2) - ratios[0]


def test_criterion_2_normal_form_slopes():
    zx = ("z", "x")
    origin = ClosedPoint((0, 0))

    def pres_for(f):
        return SimplifiedPresentation(f.field, 2, (0,), (f,),
                                      ReesAlg.make(f.field, 2, []))

    res = normalize(pres_for(parse_poly("z^2 + 2*x*z + x^2 + x^3", Q, zx)), origin)
    assert res.normalizations[0].iterations == 1
    assert res.normalizations[0].slope == Fraction(3, 2)

    res = normalize(pres_for(parse_poly("z^2 + x^3", FieldSpec(2), zx)), origin)
    assert res.normalizations[0].iterations == 0
    assert res.normalizations[0].slope == Fraction(3, 2)

    for p in (2, 3, 5):
        Fp = FieldSpec(p)
        z, x = (MPoly.var(Fp, 2, i) for i in (0, 1))
        f = (z + x) ** p + x ** (p + 1)
        res = normalize(pres_for(f), origin)
        assert res.normalizations[0].slope == Fraction(p + 1, p)
        assert res.normalizations[0].iterations >= 1


def test_criterion_3_membership_grid():
    checked = 0
    for name, sc, doc in scene_docs("m"):
        assert doc["status"] == "ok", name
        pres = sc.presentation
        for a in range(3):
            for b in range(3):
                y = ClosedPoint((0, a, b))
                cleaned = normalize(pres, y).cleaned or pres
                member = membership_criterion(cleaned, y)
                up = upstairs_algebra(cleaned)
                assert member == sing_member(up, fiber_point(cleaned, y)), \
                    "%s at (%d, %d)" % (name, a, b)
                checked += 1
    assert checked == 90


def test_criterion_4_tau_characteristic_sensitivity():
    xy = ("x", "y")
    origin2 = ClosedPoint((0, 0))
    f0 = parse_poly("x^2 + y^2", Q, xy)
    alg0 = ReesAlg.make(Q, 2, [(f0, 2)])
    assert tau_at(alg0, origin2).tau == 2 == quadratic_rank(f0)

    F2 = FieldSpec(2)
    f2 = parse_poly("x^2 + y^2", F2, xy)
    alg2 = ReesAlg.make(F2, 2, [(f2, 2)])
    assert tau_at(alg2, origin2).tau == 1
    for m in (1, 2, 3):        # oracle over F_2, F_4, F_8
        assert tau_translation_oracle(alg2, origin2, m) == 1

    node = parse_poly("z^2 + 2*x*y", Q, ("z", "x", "y"))
    algn = ReesAlg.make(Q, 3, [(node, 2)])
    assert tau_at(algn, ClosedPoint((0, 0, 0))).tau == 3 == quadratic_rank(node)


def test_criterion_5_sandwich_inequality():
    towers = 0
    chars = set()
    for name, sc, doc in scene_docs("t"):
        assert doc["status"] == "ok", name
        length = sum(1 for r in doc["records"] if r.get("command") == "blowup")
        assert 1 <= length <= 4
        chars.add(sc.field.characteristic)
        rows = record(doc, "strong-check")["sandwich"]
        assert rows
        for row in rows:
            assert row["ord_monomial"] <= row["hord"] <= row["elim_ord"], \
                "%s at stratum %s" % (name, row["stratum"])
            assert row["ok"]
        towers += 1
    assert towers >= 10
    assert chars == {2, 3, 5}


def test_criterion_6_strong_monomial_resolution():
    resolved, refused = [], []
    two_section_resolved = 0
    for name, sc, doc in scene_docs("t"):
        check = record(doc, "strong-check")
        if check["strong"]:
            rec = record(doc, "resolve")
            assert rec["singular_after"] == [], name
            if len(rec["final"].get("polys", ())) == 2:
                two_section_resolved += 1
            resolved.append(name)
        else:
            wit = check["witness"]
            assert wit is not None, name
            assert wit["kind"] == "order mismatch"
            assert wit["at"].startswith("stratum") or wit["at"].startswith("point")
            assert wit["hord"] != wit["ord_monomial"]
            refused.append(name)
    assert len(resolved) >= 5
    assert two_section_resolved >= 1
    assert len(refused) >= 2


def test_criterion_7_section_invariance():
    F3 = FieldSpec(3)
    origin = ClosedPoint((0, 0, 0))
    monos = [(i, j) for i in range(4) for j in range(4) if 1 <= i + j <= 3]
    rng = random.Random(20260814)
    from charpres.projection import hord_data
    for name, sc, doc in scene_docs("m"):
        pres = sc.presentation
        base = hord_data(pres, origin).value
        zvar = MPoly.var(F3, 3, 0)
        for _ in range(100):
            alpha = MPoly.from_dict(
                F3, 3, {(0, i, j): rng.randrange(3) for i, j in monos})
            moved = pres.polys[0].substitute({0: zvar + alpha})
            again = SimplifiedPresentation(F3, 3, (0,), (moved,), pres.elim)
            assert hord_data(again, origin).value == base, \
                "%s with alpha = %s" % (name, alpha)


def _rand_poly(rng, field, nvars, max_terms=5, max_exp=3, nonzero=False):
    while True:
        d = {}
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randint(0, max_exp) for _ in range(nvars))
            d[exps] = rng.randint(-4, 4)
        f = MPoly.from_dict(field, nvars, d)
        if not (nonzero and f.is_zero()):
            return f


def _rand_point(rng, field, nvars):
    if rng.random() < 0.5:
        k = rng.randint(1, nvars)
        return GenericPoint(frozenset(rng.sample(range(nvars), k)))
    hi = field.characteristic if field.characteristic else 5
    return ClosedPoint(tuple(rng.randrange(hi) for _ in range(nvars)))


def test_criterion_8_property_suites():
    fields = [Q, FieldSpec(2), FieldSpec(3), FieldSpec(5)]
    rng = random.Random(97)

    for _ in range(500):       # Taylor expansion via Hasse derivatives
        field = rng.choice(fields)
        f = _rand_poly(rng, field, 2)
        hi = field.characteristic if field.characteristic else 5
        a = tuple(rng.randrange(hi) for _ in range(2))
        terms = {}
        for i in range(f.degree_in_var(0) + 1):
            for j in range(f.degree_in_var(1) + 1):
                c = evaluate(f.hasse_deriv_multi((i, j)), a)
                if c:
                    terms[(i, j)] = c
        assert f.translate(a) == MPoly.from_dict(field, 2, terms)

    for _ in range(500):       # composition rule for Hasse derivatives
        field = rng.choice(fields)
        f = _rand_poly(rng, field, 2, max_exp=5)
        i = rng.randrange(2)
        r, s = rng.randint(0, 4), rng.randint(0, 4)
        lhs = f.hasse_deriv(i, s).hasse_deriv(i, r)
        rhs = f.hasse_deriv(i, r + s).scale(math.comb(r + s, r))
        assert lhs == rhs

    for _ in range(500):       # order is multiplicative at every point
        field = rng.choice(fields)
        f = _rand_poly(rng, field, 3, nonzero=True)
        g = _rand_poly(rng, field, 3, nonzero=True)
        pt = _rand_point(rng, field, 3)
        assert order_at(f * g, pt) == order_at(f, pt) + order_at(g, pt)

    for _ in range(500):       # chart transform times the divisor recovers f
        field = rng.choice(fields)
        f = _rand_poly(rng, field, 3, nonzero=True)
        size = rng.randint(1, 3)
        center = Center(frozenset(rng.sample(range(3), size)))
        chart_var = rng.choice(sorted(center.vars))
        n = f.order_wrt(center.vars)
        g = blow_up_poly(f, n, center, chart_var)
        w = MPoly.var(field, 3, chart_var)
        mapping = {v: MPoly.var(field, 3, v) * w
                   for v in center.vars if v != chart_var}
        assert f.substitute(mapping) == g * w ** n

    for _ in range(500):       # the game terminates below the threshold
        k = rng.randint(1, 4)
        names = tuple("abcde"[:k + 1])
        chart = Chart(names, tuple(("H%d" % (i + 1), i) for i in range(k)))
        s = rng.randint(1, 4)
        M = MonomialAlg(s, tuple(("H%d" % (i + 1), rng.randint(0, 10))
                                 for i in range(k)))
        result = resolve_game(M, chart)
        h = dict(result.exponents)
        assert all(sum(h[l] for l in S) < s for S in result.faces)
