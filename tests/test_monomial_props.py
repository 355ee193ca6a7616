"""Property test: the resolution game against its reference.

`resolve_game` tests a qualifying stratum for inclusion-minimality by
dropping its least exponent; `oracles.reference_resolve_game` drops each
divisor in turn.  On random exponent tables (s from 1 to 6, one to four
divisors, some absent from the chart) both must return the same
`GameResult`, moves, final table and incidence complex alike.  The test
skips when hypothesis is not installed; it is not a runtime dependency.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import given, settings  # noqa: E402

from charpres.blowup import Chart  # noqa: E402
from charpres.monomial import MonomialAlg, resolve_game  # noqa: E402
from oracles import reference_resolve_game  # noqa: E402

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
