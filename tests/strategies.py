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


def _downstairs_poly(draw, field, nvars, down, low, active, most=3):
    """A nonzero section-free polynomial of up to `most` terms, each of
    degree >= low in the downstairs variables.  With `active` variables
    drawn, the terms are monomials in those alone, each exponent at least
    low."""
    p = field.characteristic
    terms = {}
    for _ in range(draw(st.integers(1, most))):
        exps = [0] * nvars
        for v in active or down:
            exps[v] = draw(st.integers(low if active else 0, low + 2))
        short = low - sum(exps)
        if short > 0:
            exps[draw(st.sampled_from(down))] += short
        terms[tuple(exps)] = draw(st.integers(1, p - 1))
    return MPoly.from_dict(field, nvars, terms)


@st.composite
def towers(draw):
    """A presentation tower of one to six drawn blowups, refused centers
    skipped.  Half of the draws have no active variables: the downstairs
    polynomials use every downstairs variable and the centers any of them.
    The other half draw active downstairs variables, as the benchmark's
    "growing" towers do: the downstairs terms are monomials in those alone,
    each exponent at least the term's weight times 1-3, so that a center in
    them is permissible at first, and the first charts take each active
    variable once, so that each carries a divisor."""
    field = FieldSpec(draw(st.sampled_from((2, 3, 5))))
    p = field.characteristic
    nsec = draw(st.integers(1, 2))
    nvars = nsec + draw(st.integers(2, 3))
    sections = tuple(range(nsec))
    down = list(range(nsec, nvars))
    as_p = draw(st.booleans())
    active = []
    if draw(st.booleans()):
        active = draw(st.permutations(down))[:draw(st.integers(1, len(down)))]
    polys = []
    for z in sections:
        n = p if as_p else draw(st.integers(2, 3))
        zvar = MPoly.var(field, nvars, z)
        f = zvar ** n
        for j in draw(st.sets(st.integers(1, n), min_size=1)):
            # a middle coefficient of a p-presentation joins its elimination part
            most = 1 if active and as_p and j < n else 3
            a = _downstairs_poly(draw, field, nvars, down, j * draw(st.integers(1, 3)),
                                 active, most)
            f = f + a * zvar ** (n - j)
        polys.append(f)
    elim_gens = []
    for _ in range(draw(st.integers(0, 2))):
        w = draw(st.integers(1, 3))
        elim_gens.append((_downstairs_poly(draw, field, nvars, down, w * draw(st.integers(1, 3)),
                                           active, 1 if active else 3), w))
    elim = ReesAlg.make(field, nvars, elim_gens)
    if as_p:
        sp = make_p_presentation(field, nvars, sections, polys, elim)
    else:
        sp = SimplifiedPresentation(field, nvars, sections, tuple(polys), elim)
    tower = Tower.start(["v%d" % i for i in range(nvars)], sp)
    for k in range(draw(st.integers(max(1, len(active)), 6))):
        stratum = draw(st.sets(st.sampled_from(active or down), min_size=1))
        if k < len(active):
            stratum.add(active[k])
            chart = active[k]
        else:
            chart = draw(st.sampled_from(sorted(stratum)))
        try:
            tower.blow_up(Center(frozenset(stratum) | frozenset(sections)), chart)
        except (PermissibilityError, DominationError):
            continue
    return tower
