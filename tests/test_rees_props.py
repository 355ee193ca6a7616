"""Property tests: one-pass differential saturation and tau set-up.

`diff_saturate` is checked against the fixpoint loop it replaced (kept here
as the reference only), generator classes are compared up to scalars with
sympy's `monic`, and the singular locus at closed points against orders
computed by sympy, over F_p (p in 2, 3, 5, 7) and over Q.  The tests skip
when sympy or hypothesis is not installed; neither is a runtime dependency.
"""

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import given, settings  # noqa: E402

from charpres.poly import ClosedPoint, FieldSpec, MPoly  # noqa: E402
from charpres.rees import (ReesAlg, diff_saturate, sing_member,  # noqa: E402
                           tau_at)

CHARACTERISTICS = (0, 2, 3, 5, 7)
PROPS = settings(max_examples=60, deadline=None)


def _coeffs(p):
    if p:
        return st.integers(0, p - 1)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def algebras(draw, max_weight=4):
    """A random algebra and a point; when `singular` is drawn, every
    generator is shifted so that its order at the point is at least its
    weight."""
    field = FieldSpec(draw(st.sampled_from(CHARACTERISTICS)))
    p = field.characteristic
    nvars = draw(st.integers(1, 3))
    point = tuple(draw(st.lists(_coeffs(p), min_size=nvars, max_size=nvars)))
    singular = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, max_weight))
        low = n if singular else 0
        exps = st.lists(st.integers(0, n + 1), min_size=nvars, max_size=nvars).filter(
            lambda e: low <= sum(e) <= n + 2).map(tuple)
        terms = draw(st.dictionaries(exps, _coeffs(p), min_size=1, max_size=4))
        f = MPoly.from_dict(field, nvars, terms)
        if singular:
            f = f.translate([-v for v in point])
        gens.append((f, n))
    return ReesAlg.make(field, nvars, gens), ClosedPoint(point)


def fixpoint_saturate(alg: ReesAlg) -> ReesAlg:
    """The reference: differentiate every generator, the ones added too,
    until no new (generator, weight) pair appears."""
    if alg.is_unit:
        return alg
    seen = set(alg.gens)
    frontier = list(alg.gens)
    unit = False
    while frontier:
        new = []
        for f, n in frontier:
            for total in range(1, n):
                for cut in itertools.combinations_with_replacement(range(alg.nvars), total):
                    alpha = [0] * alg.nvars
                    for i in cut:
                        alpha[i] += 1
                    g = f.hasse_deriv_multi(alpha)
                    if g.is_zero():
                        continue
                    if g.is_constant():
                        unit = True
                        continue
                    key = (g, n - total)
                    if key not in seen:
                        seen.add(key)
                        new.append(key)
        frontier = new
    return ReesAlg.make(alg.field, alg.nvars, seen, unit)


def _symbols(nvars):
    return sympy.symbols("x0:%d" % nvars)


def _domain(field):
    p = field.characteristic
    return sympy.GF(p) if p else sympy.QQ


def _rational(c):
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(f: MPoly):
    d = {e: _rational(c) for e, c in f.terms}
    return sympy.Poly.from_dict(d, *_symbols(f.nvars), domain=_domain(f.field))


def scalar_classes(alg: ReesAlg) -> set:
    """(weight, monic generator) pairs: one per generator up to scalars."""
    return {(n, tuple(sorted(to_sympy(f).monic().as_dict().items()))) for f, n in alg.gens}


def at_point(f: MPoly, pt: ClosedPoint):
    """f in local coordinates at pt, as a sympy Poly."""
    xs = _symbols(f.nvars)
    shift = {x: x + _rational(v) for x, v in zip(xs, pt.values)}
    return sympy.Poly(to_sympy(f).as_expr().subs(shift, simultaneous=True), *xs,
                      domain=_domain(f.field))


def sympy_order(f: MPoly, pt: ClosedPoint) -> int:
    return min(sum(e) for e, c in at_point(f, pt).terms() if c != 0)


@PROPS
@given(algebras())
def test_one_pass_spans_the_fixpoint_up_to_scalars(case):
    alg, _ = case
    sat = diff_saturate(alg)
    ref = fixpoint_saturate(alg)
    assert sat.is_unit == ref.is_unit
    assert scalar_classes(sat) == scalar_classes(ref)
    # no two kept generators differ by a scalar
    assert len(scalar_classes(sat)) == len(sat.gens)
    assert set(sat.gens) <= set(ref.gens)


@PROPS
@given(algebras())
def test_saturation_is_idempotent(case):
    alg, _ = case
    sat = diff_saturate(alg)
    assert diff_saturate(sat) == sat
    afresh = ReesAlg.make(sat.field, sat.nvars, sat.gens, sat.is_unit)
    assert diff_saturate(afresh) == sat


@PROPS
@given(algebras())
def test_sing_member_and_tau_agree_at_closed_points(case):
    alg, pt = case
    sat = diff_saturate(alg)
    singular = sing_member(alg, pt)
    assert sing_member(sat, pt) == singular
    expected = not sat.is_unit and all(sympy_order(f, pt) >= n for f, n in sat.gens)
    assert singular == expected
    if not singular:
        with pytest.raises(ValueError):
            tau_at(alg, pt)
        return
    td = tau_at(alg, pt)
    assert 0 <= td.tau <= alg.nvars
    # the forms of the one translate per generator are the degree-n parts at
    # pt of the generators of order n there, in generator order
    expected_forms = [{e: c for e, c in at_point(f, pt).as_dict().items() if sum(e) == n}
                      for f, n in sat.gens if sympy_order(f, pt) == n]
    assert [to_sympy(g).as_dict() for g in td.initial_forms] == expected_forms
