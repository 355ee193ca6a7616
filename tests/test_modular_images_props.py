"""Modular images of drawn Q algebras.

Hypothesis draws an algebra over Q in one to three variables: one to three
generators of weight at most 4, each a sum of up to three monomials in the
local coordinates at one centre, the origin or a drawn Q point P, with
distinct exponents so that no generator cancels to zero.  In half of the
draws every term has degree at least its generator's weight, so that the
centre is singular and `analyze` computes tau there.  `analyze` runs at the
origin and at P, and each record is compared with its images at
2^61 - 1 and 2^31 - 1 under the rules of `test_modular_images`.

The tests skip when hypothesis is not installed; it is not a runtime
dependency.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import given, settings  # noqa: E402

from test_modular_images import compare_with_images  # noqa: E402

NAMES = ("x", "y", "z")
COORDS = ("0", "1", "-1", "2", "1/2", "-2/3", "3")
COEFFS = ("1", "2", "3", "1/2", "5/7")


@st.composite
def q_scenes(draw):
    names = NAMES[:draw(st.integers(1, 3))]
    point = [draw(st.sampled_from(COORDS)) for _ in names]
    centre = draw(st.sampled_from((point, ["0"] * len(names))))
    singular = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        weight = draw(st.integers(1, 4))
        exps = draw(st.lists(st.tuples(*[st.integers(0, 3)] * len(names)),
                             min_size=1, max_size=3))
        if singular:
            exps = [(e[0] + max(0, weight - sum(e)),) + e[1:] for e in exps]
        text = ""
        for e in dict.fromkeys(exps):
            factors = [draw(st.sampled_from(COEFFS))] + [
                "(%s - (%s))^%d" % (v, a, k) for v, a, k in zip(names, centre, e) if k]
            text += draw(st.sampled_from((" + ", " - "))) + "*".join(factors)
        gens.append("gen: %s W^%d" % (text.removeprefix(" + ").strip(), weight))
    return "\n".join(["[field]", "characteristic: 0", "[variables]",
                      "vars: " + ", ".join(names), "[algebra]", *gens, "[points]",
                      "P = (%s)" % ", ".join(point), "[script]",
                      "analyze at origin", "analyze at P", ""])


@settings(max_examples=60, deadline=None)
@given(q_scenes())
def test_modular_images_of_drawn_q_algebras_agree_with_q(text):
    compare_with_images(text)
