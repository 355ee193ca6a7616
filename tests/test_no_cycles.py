"""Scenes leave no cyclic garbage.

The memos the library keeps (normal forms on a presentation, the saturation
on an algebra, translates and splits on a polynomial, checks on a tower)
never refer back to their owner, so the objects of a scene are freed by
reference counting as soon as the scene's trace is written, and the cyclic
collector finds nothing.  Each test disables the collector while the
library runs and restores its state afterwards.
"""

import gc
import sys
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

from charpres.poly import ClosedPoint, FieldSpec, GenericPoint, parse_poly
from charpres.projection import (SimplifiedPresentation, hord_data, is_normal_at,
                                 make_p_presentation)
from charpres.rees import ReesAlg, diff_saturate, singular_coordinate_strata, tau_at

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

F2 = FieldSpec(2)
NAMES = ("z", "x", "y")


@contextmanager
def collector_off():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# the golden corpus with the translation oracle, and the seed-1 benchmark scenes
@pytest.mark.parametrize("name", ["corpus", "analyze", "towers"])
def test_scenes_leave_no_cyclic_garbage(name):
    workload = workloads.WORKLOADS[name]
    cases = workload.load(1)
    with collector_off():
        for case in cases:
            workloads.run_case(case, workload.options)
        found = gc.collect()
        if found:
            # name the first scene that leaves garbage on its own
            culprit = next((case.name for case in cases
                            if workloads.run_case(case, workload.options) and gc.collect()),
                           None)
            pytest.fail("%d cyclic objects left by %s scenes (first: %s)"
                        % (found, name, culprit))


def P(text):
    return parse_poly(text, F2, NAMES)


def test_presentations_and_algebras_die_with_their_last_reference():
    origin = ClosedPoint((0, 0, 0))
    generic = GenericPoint(frozenset({2}))
    with collector_off():
        # z^2 + x^2*y^2 + x^5 = (z + x*y)^2 + x^5 cleans at the origin, not along y = 0
        elim = ReesAlg.make(F2, 3, [(P("x^4*y^4"), 3)])
        sp = SimplifiedPresentation(F2, 3, (0,), (P("z^2 + x^2*y^2 + x^5"),), elim)
        assert not is_normal_at(sp, origin)
        assert is_normal_at(sp, generic)
        pp = make_p_presentation(F2, 3, (0,), (P("z^2 + x^3"),), elim)
        assert hord_data(pp, origin) is hord_data(pp, origin)
        alg = ReesAlg.make(F2, 3, [(P("z^2 + x^3 + x*y^4"), 2)])
        sat = diff_saturate(alg)
        assert diff_saturate(sat) is sat
        tau_at(alg, origin)
        singular_coordinate_strata(alg)
        refs = [weakref.ref(obj) for obj in (sp, pp, alg, sat)]
        del sp, pp, alg, sat
        assert [ref() for ref in refs] == [None] * 4
