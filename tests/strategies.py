"""Hypothesis strategies shared by the property tests.

`towers()` draws a random permissible presentation tower over F_2, F_3 or
F_5.  Import this module only after `pytest.importorskip("hypothesis")`:
hypothesis is a test dependency, not a runtime one.
"""

from hypothesis import strategies as st

from charpres.blowup import Center, Tower
from charpres.errors import DominationError, PermissibilityError
from charpres.poly import FieldSpec, MPoly
from charpres.projection import SimplifiedPresentation, make_p_presentation
from charpres.rees import ReesAlg


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
        zvar = MPoly.var(field, nvars, z)
        f = zvar ** n
        for j in draw(st.sets(st.integers(1, n), min_size=1)):
            a = _downstairs_poly(draw, field, nvars, down, j * draw(st.integers(1, 3)))
            f = f + a * zvar ** (n - j)
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
        except (PermissibilityError, DominationError):
            continue
    return tower
