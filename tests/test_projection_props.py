"""Property test: the H-order memo along random permissible towers.

Every presentation of a random tower over F_2, F_3 or F_5 is asked for its
H-order at the chart origin and at the generic point of every stratum of
the present exceptional divisors.  The memoised answer must equal the one
computed on a presentation rebuilt from the same fields for that point, with
fresh polynomials, so that neither the H-order memo nor the coefficient
splits are shared.  The test skips when hypothesis is not installed; it is
not a runtime dependency.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import given, settings  # noqa: E402

from charpres.blowup import Center, Tower  # noqa: E402
from charpres.errors import PermissibilityError  # noqa: E402
from charpres.poly import ClosedPoint, FieldSpec, GenericPoint, MPoly  # noqa: E402
from charpres.projection import (SimplifiedPresentation, hord, hord_data,  # noqa: E402
                                 make_p_presentation)
from charpres.rees import ReesAlg  # noqa: E402

PROPS = settings(max_examples=40, deadline=None)


def _downstairs_poly(draw, field, nvars, down, low):
    """A nonzero section-free polynomial whose terms have degree >= low in
    the downstairs variables."""
    p = field.characteristic
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = [0] * nvars
        for v in down:
            exps[v] = draw(st.integers(0, low + 2))
        short = low - sum(exps)
        if short > 0:
            exps[draw(st.sampled_from(down))] += short
        terms[tuple(exps)] = draw(st.integers(1, p - 1))
    return MPoly.from_dict(field, nvars, terms)


@st.composite
def towers(draw):
    field = FieldSpec(draw(st.sampled_from((2, 3, 5))))
    p = field.characteristic
    nsec = draw(st.integers(1, 2))
    nvars = nsec + draw(st.integers(2, 3))
    sections = tuple(range(nsec))
    down = list(range(nsec, nvars))
    as_p = draw(st.booleans())
    polys = []
    for z in sections:
        n = p if as_p else draw(st.integers(2, 3))
        f = MPoly.monomial(field, nvars, [n if v == z else 0 for v in range(nvars)])
        for j in draw(st.sets(st.integers(1, n), min_size=1)):
            a = _downstairs_poly(draw, field, nvars, down, j * draw(st.integers(1, 3)))
            f = f + a * MPoly.monomial(field, nvars,
                                       [n - j if v == z else 0 for v in range(nvars)])
        polys.append(f)
    elim_gens = []
    for _ in range(draw(st.integers(0, 2))):
        w = draw(st.integers(1, 3))
        elim_gens.append((_downstairs_poly(draw, field, nvars, down,
                                           w * draw(st.integers(1, 3))), w))
    elim = ReesAlg.make(field, nvars, elim_gens)
    if as_p:
        sp = make_p_presentation(field, nvars, sections, polys, elim)
    else:
        sp = SimplifiedPresentation(field, nvars, sections, tuple(polys), elim)
    tower = Tower.start(["v%d" % i for i in range(nvars)], sp)
    for _ in range(draw(st.integers(1, 6))):
        stratum = draw(st.sets(st.sampled_from(down), min_size=1))
        chart = draw(st.sampled_from(sorted(stratum)))
        try:
            tower.blow_up(Center(frozenset(stratum) | frozenset(sections)), chart)
        except PermissibilityError:
            continue
    return tower


def _rebuilt(sp):
    def fresh(f):
        return MPoly(f.field, f.nvars, f.terms)
    elim = ReesAlg.make(sp.field, sp.nvars, [(fresh(g), n) for g, n in sp.elim.gens],
                        sp.elim.is_unit)
    return type(sp)(sp.field, sp.nvars, sp.sections,
                    tuple(fresh(f) for f in sp.polys), elim)


@PROPS
@given(towers())
def test_memoised_hord_matches_rebuilt_presentation(tower):
    present = sorted(tower.chart.present_divisors().values())
    for sp in tower.states():
        points = [ClosedPoint((sp.field.zero,) * sp.nvars)]
        points += [GenericPoint(frozenset(sub))
                   for k in range(1, len(present) + 1)
                   for sub in itertools.combinations(present, k)]
        for y in points:
            memo = hord_data(sp, y)
            assert hord_data(sp, y) is memo
            again = _rebuilt(sp)
            assert memo == hord_data(again, y)
            assert hord(sp, y) == hord(again, y)
