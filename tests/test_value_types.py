"""Value types are immutable by contract, and their memos are their own.

The library's value types (polynomials, points, algebras, presentations and
the records built from them) are plain dataclasses: a frozen dataclass sets
each field through `object.__setattr__`, which makes every construction
several times dearer on CPython.  Nothing enforces immutability at run time,
so this module guards it: a write-once `__setattr__` is installed on every
value type while the golden corpus and the seed-1 `analyze` and `towers`
scenes run, and no field may be assigned a second time.

Memos (translates, splits, normal forms, saturation, strata) are plain
attributes with a class default of None, set on first use.  They are not
fields, so they take no part in equality, hashing or `repr`, and each
instance holds its own.
"""

import dataclasses
import inspect
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import charpres.blowup as blowup
import charpres.monomial as monomial
import charpres.poly as poly
import charpres.projection as projection
import charpres.rees as rees
import charpres.scene as scene
from charpres.poly import (ClosedPoint, FieldSpec, GenericPoint, MPoly,
                           monic_coefficients, parse_poly)
from charpres.projection import (PPresentation, SimplifiedPresentation,
                                 make_p_presentation, normalize)
from charpres.rees import ReesAlg, diff_saturate, singular_coordinate_strata

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

F2 = FieldSpec(2)
Q = FieldSpec(0)
NAMES = ("z", "x", "y")

# the dataclasses that are state, not values: a scene, its options and its
# run, and a tower, which blowups extend in place
STATEFUL = {scene.Scene, scene.RunOptions, scene._Execution, blowup.Tower}


def _library_dataclasses():
    found = set()
    for mod in (poly, rees, projection, blowup, monomial, scene):
        for _, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ == mod.__name__ and dataclasses.is_dataclass(cls):
                found.add(cls)
    return found


VALUE_TYPES = sorted(_library_dataclasses() - STATEFUL, key=lambda c: c.__qualname__)


def test_the_value_types_are_the_expected_ones():
    assert {c.__qualname__ for c in VALUE_TYPES} == {
        "FieldSpec", "MPoly", "ClosedPoint", "GenericPoint",
        "ReesAlg", "TangentData",
        "SimplifiedPresentation", "PPresentation", "PolyNormalization",
        "NormalizeResult",
        "Center", "Chart", "TowerStep", "StageRows",
        "MonomialAlg", "StrongCheckResult", "GameMove", "GameResult",
        "LiftRecord", "LiftResult"}
    assert STATEFUL <= _library_dataclasses()


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda c: c.__qualname__)
def test_value_types_are_plain_dataclasses_that_hash_like_frozen_ones(cls):
    params = cls.__dataclass_params__
    assert not params.frozen
    # nothing in the class body replaces attribute assignment
    assert "__setattr__" not in vars(cls) and "__delattr__" not in vars(cls)
    if cls is blowup.StageRows:
        # compared and hashed by identity, as it always was
        assert not params.eq and cls.__hash__ is object.__hash__
    else:
        assert params.eq and params.unsafe_hash and cls.__hash__ is not None


class FieldReassigned(AssertionError):
    pass


@pytest.fixture
def write_once(monkeypatch):
    """Install on every value type a __setattr__ that refuses a second
    assignment to a field; returns the list of refused assignments, so one
    that some caller swallowed is still seen."""
    refused = []

    def install(cls):
        fields = frozenset(f.name for f in dataclasses.fields(cls))

        def __setattr__(self, name, value):
            if name in fields and name in self.__dict__:
                refused.append("%s.%s" % (type(self).__qualname__, name))
                raise FieldReassigned(refused[-1])
            object.__setattr__(self, name, value)

        monkeypatch.setattr(cls, "__setattr__", __setattr__)

    for cls in VALUE_TYPES:
        install(cls)
    return refused


def test_the_guard_refuses_a_field_reassignment(write_once):
    f = parse_poly("z^2 + x^3", F2, NAMES)
    with pytest.raises(FieldReassigned):
        f.terms = ()
    pt = ClosedPoint((Fraction(1, 2), 0, 0))
    with pytest.raises(FieldReassigned):
        pt.values = (0, 0, 0)
    assert write_once == ["MPoly.terms", "ClosedPoint.values"]
    # memos are not fields, and a fresh instance sets each field once
    f._translates = {}
    assert MPoly(F2, 3, f.terms) == f


@pytest.mark.parametrize("name", ["corpus", "analyze", "towers"])
def test_scenes_assign_each_field_once(write_once, name):
    workload = workloads.WORKLOADS[name]
    for case in workload.load(1):
        if workload.prepare is not None:
            assert workload.prepare(case) == [], case.name
        doc, text = workloads.run_case(case, workload.options)
        assert workload.check(case, doc, text) == [], case.name
    assert write_once == []


def _P(text, field=F2):
    return parse_poly(text, field, NAMES)


def _twins():
    """Pairs of equal, distinct instances of the hashed value types."""
    elim = ReesAlg.make(F2, 3, [(_P("x^4*y^4"), 3)])
    return {
        "FieldSpec": (FieldSpec(5), FieldSpec(5)),
        "MPoly": (_P("z^2 + x^3"), _P("x^3 + z^2")),
        "ClosedPoint": (ClosedPoint((1, 0, 1)), ClosedPoint((1, 0, 1))),
        "ClosedPoint over Q": (ClosedPoint((Fraction(1, 2), Fraction(0), 3)),
                               ClosedPoint((Fraction(1, 2), 0, Fraction(3)))),
        "GenericPoint": (GenericPoint(frozenset({1, 2})), GenericPoint(frozenset({2, 1}))),
        "ReesAlg": (ReesAlg.make(F2, 3, [(_P("z^2 + x^3"), 2), (_P("x*y"), 1)]),
                    ReesAlg.make(F2, 3, [(_P("x*y"), 1), (_P("x^3 + z^2"), 2)])),
        "SimplifiedPresentation": (
            SimplifiedPresentation(F2, 3, (0,), (_P("z^2 + x^3"),), elim),
            SimplifiedPresentation(F2, 3, (0,), (_P("z^2 + x^3"),),
                                   ReesAlg.make(F2, 3, [(_P("x^4*y^4"), 3)]))),
        "PPresentation": (make_p_presentation(F2, 3, (0,), (_P("z^2 + x^3"),), elim),
                          make_p_presentation(F2, 3, (0,), (_P("z^2 + x^3"),), elim)),
    }


@pytest.mark.parametrize("kind", list(_twins()))
def test_equal_instances_hash_equal(kind):
    a, b = _twins()[kind]
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert {a: kind}[b] == kind


def test_a_p_presentation_is_not_equal_to_the_plain_one():
    sp, _ = _twins()["SimplifiedPresentation"]
    pp, _ = _twins()["PPresentation"]
    assert dataclasses.astuple(sp) == dataclasses.astuple(pp)
    assert sp != pp and pp != sp


def test_filled_memos_are_not_fields():
    f = _P("z^2 + x^3 + x*y")
    fresh = _P("z^2 + x^3 + x*y")
    assert f.translate((1, 1, 0)) != f
    assert monic_coefficients(f, 0)
    assert f._translates and f._splits
    assert fresh._translates is None and fresh._splits is None
    assert f == fresh and fresh == f
    assert hash(f) == hash(fresh)
    assert repr(f) == repr(fresh)
    assert [fl.name for fl in dataclasses.fields(MPoly)] == ["field", "nvars", "terms"]


# -- memos: computed once per instance, held on that instance only --------------


def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(args[0])
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_class_defaults_stay_none():
    # filling the memos of many instances leaves the classes' defaults alone
    for f in (_P("z^2 + x^3"), _P("z^2 + x*y")):
        f.translate((1, 0, 1))
        monic_coefficients(f, 0)
    a = ReesAlg.make(F2, 3, [(_P("z^2 + x^3"), 2)])
    singular_coordinate_strata(diff_saturate(a))
    normalize(SimplifiedPresentation(F2, 3, (0,), (_P("z^2 + x^3"),),
                                     ReesAlg.make(F2, 3, [])), ClosedPoint((0, 0, 0)))
    assert MPoly._translates is None and MPoly._splits is None
    assert SimplifiedPresentation._normal_forms is None
    assert PPresentation._normal_forms is None
    assert ReesAlg._saturation is None and ReesAlg._strata is None
    assert ReesAlg._saturated is False


def test_translates_are_shifted_once_per_polynomial(monkeypatch):
    calls = _counting(monkeypatch, MPoly, "_shift")
    f, g = _P("z^2 + x^3", Q), _P("z^2 + x^3", Q)
    pt = ClosedPoint((Fraction(1, 2), 1, 0))
    assert f._translates is None
    moved = f.translate(pt.values)
    assert f.translate(pt.values) is moved and calls == [f]
    assert f._translates == {pt.values: moved}
    # an equal polynomial keeps its own dict and shifts on its own
    assert g._translates is None
    assert g.translate(pt.values) == moved
    assert calls == [f, g]
    assert g._translates is not f._translates


def test_splits_are_made_once_per_polynomial(monkeypatch):
    calls = _counting(monkeypatch, MPoly, "coefficients_in_var")
    f, g = _P("z^2 + x*z + x^3"), _P("z^2 + x*z + x^3")
    split = monic_coefficients(f, 0)
    assert monic_coefficients(f, 0) is split and calls == [f]
    assert monic_coefficients(g, 0) == split and calls == [f, g]
    assert g._splits is not f._splits and list(f._splits) == [0]


def test_normal_forms_are_computed_once_per_presentation(monkeypatch):
    calls = _counting(monkeypatch, projection, "_normalize")
    elim = ReesAlg.make(F2, 3, [(_P("x^4*y^4"), 3)])
    sp = SimplifiedPresentation(F2, 3, (0,), (_P("z^2 + x^2*y^2 + x^5"),), elim)
    twin = SimplifiedPresentation(F2, 3, (0,), (_P("z^2 + x^2*y^2 + x^5"),), elim)
    origin = ClosedPoint((0, 0, 0))
    data = normalize(sp, origin)
    assert normalize(sp, origin) is data and calls == [sp]
    assert normalize(twin, origin) == data and calls == [sp, twin]
    assert twin._normal_forms is not sp._normal_forms
    assert list(sp._normal_forms) == [origin]
    # the cleaned presentation starts with no memo of its own
    assert data.cleaned is not None and data.cleaned._normal_forms is None


def test_saturation_is_computed_once_per_algebra(monkeypatch):
    calls = _counting(monkeypatch, rees, "_saturate")
    a = ReesAlg.make(F2, 3, [(_P("z^2 + x^3 + x*y^4"), 2)])
    twin = ReesAlg.make(F2, 3, [(_P("z^2 + x^3 + x*y^4"), 2)])
    sat = diff_saturate(a)
    assert diff_saturate(a) is sat and calls == [a]
    # a saturation is its own, by a flag and not by a reference to itself
    assert diff_saturate(sat) is sat and calls == [a]
    assert sat._saturated and sat._saturation is None
    assert not a._saturated and a._saturation is sat
    other = diff_saturate(twin)
    assert other == sat and other is not sat and calls == [a, twin]


def test_strata_are_scanned_once_per_instance(monkeypatch):
    calls = _counting(monkeypatch, rees, "_scan_strata")
    a = ReesAlg.make(F2, 3, [(_P("z^2 + x^3"), 2)])
    twin = ReesAlg.make(F2, 3, [(_P("z^2 + x^3"), 2)])
    strata = singular_coordinate_strata(a)
    assert singular_coordinate_strata(a) == strata and calls == [a]
    assert singular_coordinate_strata(twin) == strata and calls == [a, twin]
    assert a._strata == tuple(strata) and twin._strata is not None
