"""Property test: the stage A/B experiment against its step-by-step reference.

`stage_ab_experiment` reads every order off the term exponents of f.  The
reference below builds the polynomial the experiment describes: it adjoins
t, then at each step takes the order with `order_at` and blows up with
`blow_up_poly`.  Over F_2, F_3, F_5, F_7 and Q, on random
z^n + sum c * x^a * z^j, both must return the same (l, trace), or raise the
same exception type with the same message.  The test skips when hypothesis
is not installed; it is not a runtime dependency.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import given, settings  # noqa: E402

from charpres.blowup import (Center, blow_up_poly,  # noqa: E402
                             stage_ab_experiment)
from charpres.errors import CharpresError, InputError, PermissibilityError  # noqa: E402
from charpres.poly import (INF, ClosedPoint, FieldSpec, GenericPoint,  # noqa: E402
                           MPoly, order_at)
from charpres.projection import (SimplifiedPresentation, is_normal_at,  # noqa: E402
                                 slope_poly)
from charpres.rees import ReesAlg  # noqa: E402

PROPS = settings(max_examples=200, deadline=None)


def reference_experiment(f, z_index, N, names=None):
    """The experiment as a sequence of chart transforms of one polynomial."""
    if N < 1:
        raise InputError("N must be positive")
    n = f.degree_in_var(z_index)
    origin = ClosedPoint((f.field.zero,) * f.nvars)
    q = slope_poly(f, z_index, origin)
    if q == INF or q < 1:
        raise InputError("the experiment needs a finite slope q >= 1")
    pres = SimplifiedPresentation(f.field, f.nvars, (z_index,), (f,),
                                  ReesAlg.make(f.field, f.nvars, []))
    if not is_normal_at(pres, origin):
        raise InputError("polynomial is not in normal form at the base point")

    nvars = f.nvars + 1
    t_index = f.nvars
    names = list(names) if names is not None else ["v%d" % i for i in range(f.nvars)]
    names = names + ["t"]
    g = MPoly(f.field, nvars, tuple((e + (0,), c) for e, c in f.terms))
    trace = {"n": n, "q": q, "N": N, "steps": []}

    point_center = Center(frozenset(range(nvars)))
    for i in range(N):
        nu = order_at(g, ClosedPoint((f.field.zero,) * nvars))
        if nu < n:
            raise PermissibilityError("marked point left the singular locus during stage A")
        g = blow_up_poly(g, n, point_center, t_index)
        trace["steps"].append({"stage": "A", "index": i + 1,
                               "center": sorted(names), "chart": "t",
                               "order": nu, "permissible": True})

    line_center = Center(frozenset({z_index, t_index}))
    xi = GenericPoint(line_center.vars)
    performed = 0
    while True:
        nu = order_at(g, xi)
        permissible = nu >= n
        trace["steps"].append({"stage": "B", "index": performed + 1,
                               "center": sorted([names[z_index], "t"]), "chart": "t",
                               "order": nu, "permissible": permissible})
        if not permissible:
            break
        g = blow_up_poly(g, n, line_center, t_index)
        performed += 1
    ell = performed - 1
    trace["performed"] = performed
    trace["l"] = ell
    target = N * (q - 1) - 1
    trace["expected"] = target.numerator // target.denominator
    return ell, trace


@st.composite
def experiments(draw):
    """(f, z_index, N, names) with f = z^n + sum c * x^a * z^j, j < n.

    A lifted term gets n - j more downstairs degree, which keeps its slope
    contribution at least 1, so most draws pass the slope check; the others
    exercise the refusals."""
    p = draw(st.sampled_from((2, 3, 5, 7, 0)))
    field = FieldSpec(p)
    down = draw(st.integers(1, 3))
    nvars = down + 1
    z = draw(st.integers(0, down))
    xs = [v for v in range(nvars) if v != z]
    n = draw(st.integers(2, 5))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        j = draw(st.integers(0, n - 1))
        exps = [0] * nvars
        exps[z] = j
        for v in xs:
            exps[v] = draw(st.integers(0, 4))
        if draw(st.booleans()):
            exps[draw(st.sampled_from(xs))] += n - j
        if p:
            c = draw(st.integers(1, p - 1))
        else:
            c = Fraction(draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1))),
                         draw(st.integers(1, 4)))
        terms[tuple(exps)] = c
    f = MPoly.var(field, nvars, z) ** n
    if draw(st.booleans()):
        # (z + x^k)^n has an n-th power as its weighted initial form, so unless
        # a term of lower slope hides it, it is not in normal form
        x = [0] * nvars
        x[draw(st.sampled_from(xs))] = draw(st.integers(1, 2))
        f = (MPoly.var(field, nvars, z) + MPoly.from_dict(field, nvars, {tuple(x): 1})) ** n
    f = f + MPoly.from_dict(field, nvars, terms)
    N = draw(st.integers(1, 30))
    names = draw(st.sampled_from((None, ["x%d" % v for v in range(nvars)])))
    return f, z, N, names


def _outcome(run, args):
    try:
        ell, trace = run(*args)
    except CharpresError as exc:
        return type(exc), str(exc)
    return ell, dict(trace, steps=list(trace["steps"]))


@PROPS
@given(experiments())
def test_stage_ab_matches_reference(args):
    assert _outcome(stage_ab_experiment, args) == _outcome(reference_experiment, args)

