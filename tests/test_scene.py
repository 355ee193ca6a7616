"""Scene parsing, canonical traces, verification, the CLI, and the golden
regression corpus."""

import glob
import json
import os
import sys
from collections import OrderedDict
from fractions import Fraction

import pytest

import charpres.rees as rees_mod
import charpres.scene as scene_mod
from charpres.blowup import StageRows
from charpres.cli import main
from charpres.errors import InvariantError, SceneParseError
from charpres.poly import INF, ClosedPoint, FieldSpec, GenericPoint, MPoly, parse_poly
from charpres.projection import SimplifiedPresentation
from charpres.rees import ReesAlg
from charpres.scene import (RunOptions, canonical_json, jsonify, load_scene,
                            parse_scene, run_scene, verify_trace)

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")

MINIMAL = """\
[field]
characteristic: 3

[variables]
vars: z, x, y
sections: z

[presentation]
poly 1: z^2 + x^3
elim: x^3 W^2

[points]
P1 = (0, 1, 2)
L = {x}

[script]
hord at origin
"""


def test_parse_minimal():
    sc = parse_scene(MINIMAL)
    assert sc.field.characteristic == 3
    assert sc.names == ["z", "x", "y"]
    assert sc.presentation.sections == (0,)
    assert sc.points["P1"] == ClosedPoint((0, 1, 2))
    assert sc.points["L"] == GenericPoint(frozenset({1}))
    # the origin is always available without being declared
    assert sc.points["origin"] == ClosedPoint((0, 0, 0))
    assert [text for _, text in sc.script] == ["hord at origin"]


# one digit more than int() converts; "1" when it converts any number
# (Python before 3.10.7, or the limit switched off)
LONG = "1" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)
DIGIT_LIMIT = pytest.mark.skipif(LONG == "1", reason="int() converts any number of digits")


@pytest.mark.parametrize("mangle,fragment,lineno", [
    (lambda s: s.replace("[points]", "[bogus]"), "unknown section", 12),
    (lambda s: "stray\n" + s, "content before the first section", 1),
    (lambda s: s.replace("characteristic: 3", "characteristic: three"),
     "characteristic must be an integer", 2),
    (lambda s: s.replace("characteristic: 3", "char: 3"),
     "expected 'characteristic: <p>'", 2),
    (lambda s: s.replace("vars: z, x, y", "vars: z, x, x"),
     "duplicate variable name", 5),
    (lambda s: s.replace("vars: z, x, y", "vars: z, x, W"),
     "'W' is reserved", 5),
    (lambda s: s.replace("P1 = (0, 1, 2)", "P1 = (0, 1)"),
     "closed point needs 3 coordinates", 13),
    (lambda s: s.replace("sections: z", "sections: q"),
     "unknown variable 'q'", 6),
    (lambda s: s.replace("elim: x^3 W^2", "elim: x^3"),
     "W^<weight>", 10),
    (lambda s: s.replace("elim: x^3 W^2", "elim: x^3 W^0"),
     "generator weights must be positive", 10),
    (lambda s: s.replace("[script]", "[algebra]\ngen: x^2 W^2\ngen: y^3 W^0\n\n[script]"),
     "generator weights must be positive", 18),
    (lambda s: s.replace("[script]", "[algebra]\ngenerator: x^2 W^2\n\n[script]"),
     "expected 'gen: <poly> W^<n>'", 17),
    # a polynomial syntax error in a section polynomial: at its poly line
    (lambda s: s.replace("poly 1: z^2 + x^3", "poly 1: z^2 + + x^3"),
     "unexpected token '+'", 9),
    # an error of one section polynomial is reported at its own poly line
    (lambda s: s.replace("poly 1: z^2 + x^3\nelim: x^3 W^2",
                         "elim: x^3 W^2\npoly 1: x*z^2 + x^3"),
     "must be monic", 10),
    (lambda s: s.replace("sections: z", "sections: z, y")
                .replace("elim: x^3 W^2", "elim: x^3 W^2\npoly 2: y^2 + z*x^3"),
     "free of all section variables", 11),
    # errors of the presentation as a whole: at the line that causes them
    (lambda s: s.replace("elim: x^3 W^2", "elim: x^3 W^2\nkind: p"),
     "p-presentation degrees must be powers of p", 11),
    (lambda s: s.replace("elim: x^3 W^2", "elim: x^3 W^2\nelim: z*x W^1"),
     "elimination generators must be section-free", 11),
    (lambda s: s.replace("sections: z", "sections: z, z"),
     "sections must be distinct", 6),
    (lambda s: s.replace("[presentation]\n", "[presentation]\nsections: x, x\n"),
     "sections must be distinct", 9),
    (lambda s: s.replace("elim: x^3 W^2", "elim: x^3 W^2\nkind: q"),
     "presentation kind must be 'simplified' or 'p'", 11),
    # no kind line: at the first [presentation] line
    (lambda s: s.replace("poly 1: z^2 + x^3", "poly 2: z^2 + x^3"),
     "presentation needs 'poly i:' for i = 1..e", 9),
    # a single-valued entry given twice: at the repeat
    # primality is decided by Miller-Rabin, below 2^64
    (lambda s: s.replace("characteristic: 3", "characteristic: 2305843009213693953"),
     "characteristic must be 0 or prime, got 2305843009213693953", 2),
    (lambda s: s.replace("characteristic: 3", "characteristic: %d" % (2 ** 89 - 1)),
     "characteristic must be below 2^64", 2),
    (lambda s: s.replace("characteristic: 3", "characteristic: 3\ncharacteristic: 5"),
     "characteristic given twice (first at line 2)", 3),
    (lambda s: s.replace("vars: z, x, y", "vars: z, x, y\nvars: z, x, w"),
     "vars given twice (first at line 5)", 6),
    (lambda s: s.replace("sections: z", "sections: z\nsections: x"),
     "sections given twice (first at line 6)", 7),
    (lambda s: s.replace("[presentation]\n", "[presentation]\nsections: z\nsections: x\n"),
     "sections given twice (first at line 9)", 10),
    (lambda s: s.replace("poly 1: z^2 + x^3", "poly 1: z^2 + x^3\npoly: z^2 + x^5"),
     "poly 1 given twice (first at line 9)", 10),
    (lambda s: s.replace("elim: x^3 W^2", "elim: x^3 W^2\nkind: simplified\nkind: p"),
     "kind given twice (first at line 11)", 12),
    (lambda s: s.replace("L = {x}", "L = {x}\nP1 = (1, 1, 1)"),
     "point P1 given twice (first at line 13)", 15),
    (lambda s: s.replace("L = {x}", " = {x}"), "point name '' is empty", 14),
    (lambda s: s.replace("L = {x}", "L 2 = {x}"), "point name 'L 2' is empty or holds", 14),
    (lambda s: s.replace("L = {x}", "L {x}"), "expected '<name> = (…)' or '<name> = {…}'", 14),
    (lambda s: s.replace("L = {x}", "L = {}"), "generic point needs at least one variable", 14),
    # a coordinate is an optional sign and n or n/d, as in polynomial text
    (lambda s: s.replace("P1 = (0, 1, 2)", "P1 = (0.5, 1, 2)"),
     "bad coordinate: expected n or n/d with an optional sign, got '0.5'", 13),
    (lambda s: s.replace("P1 = (0, 1, 2)", "P1 = (1e400, 1, 2)"),
     "bad coordinate: expected n or n/d with an optional sign, got '1e400'", 13),
    (lambda s: s.replace("P1 = (0, 1, 2)", "P1 = (0, +-1, 2)"),
     "bad coordinate: expected n or n/d with an optional sign, got '+-1'", 13),
    (lambda s: s.replace("P1 = (0, 1, 2)", "P1 = (0, 1/3, 2)"),
     "bad coordinate: denominator of 1/3 vanishes mod 3", 13),
    # a polynomial over the parse budget fails at its line
    (lambda s: s.replace("elim: x^3 W^2", "elim: (x*y + x + y + 1)^728 W^2"),
     "the power ^728 of a 4-term polynomial could have more than 100000 terms", 10),
    (lambda s: s.replace("elim: x^3 W^2", "elim: (x + 1)^2186*(x + 1)^2186 W^2"),
     "a product of a 2187-term and a 2187-term polynomial takes more than 1000000 "
     "term products", 10),
    (lambda s: s.replace("elim: x^3 W^2", "elim: (x + 1)^59048 + (y + 1)^59048 W^2"),
     "a sum has more than 100000 terms", 10),
    # parentheses nested past the parse budget, however deep
    (lambda s: s.replace("elim: x^3 W^2", "elim: " + "(" * 10 ** 3 + "x^3" + ")" * 10 ** 3
                         + " W^2"),
     "parentheses nest deeper than 100 levels (the parse budget)", 10),
    (lambda s: s.replace("elim: x^3 W^2", "elim: " + "(" * 10 ** 5 + "x^3" + ")" * 10 ** 5
                         + " W^2"),
     "parentheses nest deeper than 100 levels (the parse budget)", 10),
    # over Q, a power whose coefficient would grow past the bit budget
    (lambda s: s.replace("characteristic: 3", "characteristic: 0")
                .replace("elim: x^3 W^2", "elim: (2*x)^100000000 W^2"),
     "the power ^100000000 of a polynomial with 2-bit coefficients builds coefficients "
     "of more than 1000000 bits", 10),
    # and a product whose coefficient would
    (lambda s: s.replace("characteristic: 3", "characteristic: 0")
                .replace("elim: x^3 W^2", "elim: x^3*" + "*".join(["(2*x)^500000"] * 16)
                         + " W^2"),
     "a product of a 1-term and a 1-term polynomial could build coefficients of more "
     "than 1000000 bits", 10),
    # a number with more digits than int() converts
    pytest.param(lambda s: s.replace("elim: x^3 W^2", "elim: %s*x^3 W^2" % LONG),
                 "a literal of %d digits is too long" % len(LONG), 10, marks=DIGIT_LIMIT),
    pytest.param(lambda s: s.replace("elim: x^3 W^2", "elim: x^%s W^2" % LONG),
                 "a literal of %d digits is too long" % len(LONG), 10, marks=DIGIT_LIMIT),
    pytest.param(lambda s: s.replace("elim: x^3 W^2", "elim: x^3 W^%s" % LONG),
                 "generator weight has too many digits", 10, marks=DIGIT_LIMIT),
    pytest.param(lambda s: s.replace("P1 = (0, 1, 2)", "P1 = (0, 1/%s, 2)" % LONG),
                 "bad coordinate: a literal of %d digits is too long" % len(LONG), 13,
                 marks=DIGIT_LIMIT),
    # a numeral is a string of ASCII digits 0-9, never other Unicode digits
    pytest.param(lambda s: s.replace("characteristic: 3", "characteristic: ٥"),
                 "characteristic must be an integer", 2, id="arabic-indic-characteristic"),
    pytest.param(lambda s: s.replace("characteristic: 3", "characteristic: 1_1"),
                 "characteristic must be an integer", 2, id="underscore-characteristic"),
    (lambda s: s.replace("characteristic: 3", "characteristic: -3"),
     "characteristic must be 0 or prime, got -3", 2),
    (lambda s: s.replace("poly 1: z^2 + x^3", "poly ١: z^2 + x^3"),
     "expected 'poly <i>: <polynomial>'", 9),
    (lambda s: s.replace("[script]", "[algebra]\ngen: x^٢ W^٢\n\n[script]"),
     "expected '<polynomial> W^<weight>'", 17),
    (lambda s: s.replace("[script]", "[algebra]\ngen: x^٢ W^2\n\n[script]"),
     "unexpected character at: '٢'", 17),
    (lambda s: s.replace("P1 = (0, 1, 2)", "P1 = (٠, ١, 2)"),
     "bad coordinate: expected n or n/d with an optional sign, got '٠'", 13),
    # `origin` always names the chart origin
    (lambda s: s.replace("L = {x}", "L = {x}\norigin = {x}"),
     "'origin' is the chart origin and cannot be redefined", 15),
    (lambda s: s.replace("P1 = (0, 1, 2)", "origin = (0, 0, 0)"),
     "'origin' is the chart origin and cannot be redefined", 13),
])
def test_parse_errors_carry_line_numbers(mangle, fragment, lineno, tmp_path, capsys):
    with pytest.raises(SceneParseError) as err:
        parse_scene(mangle(MINIMAL))
    assert fragment in str(err.value)
    assert err.value.lineno == lineno
    assert str(err.value).startswith("line %d:" % lineno)
    scene = _write(tmp_path, "s.scene", mangle(MINIMAL))
    assert main(["run", "--scene", scene]) == 2
    assert capsys.readouterr().err == "parse error: %s\n" % err.value


@DIGIT_LIMIT
def test_experiment_n_past_the_int_digit_limit_is_a_command_error():
    command = "experiment q-from-presentation N=" + LONG
    doc = run_scene(parse_scene(MINIMAL.replace("hord at origin", command)))
    assert doc["records"] == [{"command": command, "error": "N has too many digits",
                               "error_type": "CommandError"}]


@pytest.mark.parametrize("depth", [10 ** 3, 10 ** 5])
def test_cli_runs_a_long_run_of_minus_signs(depth, tmp_path, capsys):
    # x*--...--x^2 with an even run of signs is x^3: parsed without recursion
    scene = _write(tmp_path, "s.scene",
                   MINIMAL.replace("elim: x^3 W^2", "elim: x*" + "-" * depth + "x^2 W^2"))
    assert main(["run", "--scene", scene]) == 0
    expected = json.loads(canonical_json(run_scene(parse_scene(MINIMAL))))
    assert json.loads(capsys.readouterr().out)["records"] == expected["records"]


def test_point_coordinates_take_signs_and_fractions():
    text = MINIMAL.replace("P1 = (0, 1, 2)", "P1 = (-1, +4/2, 7/5)")
    assert parse_scene(text).points["P1"] == ClosedPoint((2, 2, 2))
    sc = parse_scene(text.replace("characteristic: 3", "characteristic: 0"))
    assert sc.points["P1"] == ClosedPoint((Fraction(-1), Fraction(2), Fraction(7, 5)))


Q_ALGEBRA = """\
[field]
characteristic: 0
[variables]
vars: x, y, z
[algebra]
gen: 3*(x - 2)*(y + 2/3) + (z - 1/2)^2 W^2
gen: (x - 2)^3 + (y + 2/3)^2*(z - 1/2) W^2
[points]
P = (2, -2/3, 1/2)
[script]
analyze at P
"""


def test_q_point_coordinates_are_hashed_once(monkeypatch):
    # a point over Q keeps its values as a tuple that computed its hash when
    # the point was made, so the translate memos look it up without hashing
    # a Fraction: neither run of analyze hashes a coordinate of P
    sc = parse_scene(Q_ALGEBRA)
    coords = {id(v) for v in sc.points["P"].values}
    hashed = []
    fraction_hash = Fraction.__hash__

    def counted(self):
        if id(self) in coords:
            hashed.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    first = run_scene(sc)
    assert first["records"][0]["tau"] == 3 and hashed == []
    assert run_scene(sc) == first and hashed == []
    # the values still equal and hash as the plain tuple
    values = sc.points["P"].values
    assert values == (2, Fraction(-2, 3), Fraction(1, 2))
    assert hash(values) == hash(tuple(values)) and len(hashed) == 3


def test_presentation_sections_override_variables():
    sc = parse_scene(MINIMAL.replace("[presentation]\n", "[presentation]\nsections: y\n")
                     .replace("poly 1: z^2 + x^3", "poly 1: y^2 + x^3"))
    assert sc.presentation.sections == (2,)


def test_parse_error_missing_field():
    bad = MINIMAL.replace("[field]\ncharacteristic: 3\n\n", "")
    with pytest.raises(SceneParseError, match="missing \\[field\\]"):
        parse_scene(bad)


def test_parse_error_missing_variables(tmp_path, capsys):
    bad = MINIMAL.replace("[variables]\nvars: z, x, y\nsections: z\n\n", "")
    with pytest.raises(SceneParseError, match="missing \\[variables\\] section"):
        parse_scene(bad)
    scene = _write(tmp_path, "s.scene", "[field]\ncharacteristic: 2\n")
    assert main(["--scene", scene]) == 2
    assert "missing [variables] section" in capsys.readouterr().err


def test_jsonify():
    assert jsonify(Fraction(7, 2)) == "7/2"
    assert jsonify(Fraction(4, 2)) == 2
    assert jsonify(Fraction(-3, 4)) == "-3/4"
    assert jsonify(INF) == "inf"
    assert jsonify({1: {"a", "c", "b"}}) == {"1": ["a", "b", "c"]}
    assert jsonify((True, None, "x")) == [True, None, "x"]
    with pytest.raises(TypeError, match="floats"):
        jsonify(0.5)
    with pytest.raises(TypeError, match="OrderedDict"):
        jsonify(OrderedDict())


def test_canonical_json_is_sorted_and_terminated():
    text = canonical_json({"b": Fraction(1, 2), "a": [Fraction(3)]})
    assert text == '{"a":[3],"b":"1/2"}\n'


def _exact_json(doc):
    return json.dumps(jsonify(doc), sort_keys=True, separators=(",", ":")) + "\n"


def _outcome(encode, doc):
    try:
        return encode(doc)
    except TypeError as exc:
        return TypeError, str(exc)


def test_canonical_json_matches_the_exact_path():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # strings that only look like floats, integers or JSON constants
    floatish = st.one_of(
        st.sampled_from(["x1.5", "2e-3", "1e+5", "10", "true", "null"]),
        st.builds("{}{!r}".format, st.sampled_from(["", "x", "-"]),
                  st.floats(allow_nan=False, allow_infinity=False)))
    scalars = st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                        st.fractions(), st.just(INF), st.floats(), floatish)
    keys = st.one_of(st.text(), floatish, st.integers())
    # experiment rows in closed form, with names that need escaping or that
    # the fast path cannot write
    stage_rows = st.builds(StageRows, st.lists(scalars, max_size=3),
                           st.lists(scalars, max_size=2), scalars, st.integers(),
                           st.integers(0, 3), st.lists(st.integers(), max_size=3).map(tuple))
    documents = st.recursive(
        st.one_of(scalars, stage_rows),
        lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                                st.dictionaries(keys, inner)),
        max_leaves=15)
    rows = StageRows(["t", "x", "z"], ["t", "z"], "t", 2, 2, (3, 2, 1))
    more = StageRows(["t1", "%s", "z"], ["t1", "z"], "t1", 3, 1, (3, 0))

    # keys the C encoder would sort as numbers or name its own way
    @hypothesis.example({10: 0, 2: [1]})
    @hypothesis.example({"a": {True: 1, False: None}})
    @hypothesis.example([{None: "x"}])
    @hypothesis.example({1: 0, "1": 1})
    @hypothesis.example({"scene": "towers-s1-00.scene", "q": Fraction(3, 2)})
    # a string equal to the marker the fast path writes for rows
    @hypothesis.example({"note": scene_mod._ROWS_MARKER, "steps": rows})
    @hypothesis.example([scene_mod._ROWS_MARKER])
    # rows beside INF take the exact path; beside a float they still raise
    @hypothesis.example({"q": INF, "steps": rows})
    @hypothesis.example({"steps": rows, "x": 0.5})
    @hypothesis.example({"steps": StageRows(["t", 1.5], ["t"], "t", 1, 1, ())})
    @hypothesis.example({"records": [{"steps": rows}, {"N": 1, "steps": more}]})
    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(documents)
    def check(doc):
        assert _outcome(canonical_json, doc) == _outcome(_exact_json, doc)

    check()


def test_canonical_json_refuses_a_cycle():
    rows = []
    rows.append({"rows": rows})
    with pytest.raises(RecursionError):
        canonical_json({"records": rows})


@pytest.mark.parametrize("value", [0.5, 1e300, float("inf"), float("nan")])
def test_canonical_json_refuses_a_nested_float(value):
    with pytest.raises(TypeError, match="^floats are not allowed in traces$"):
        canonical_json({"records": [{"rows": [value]}], "status": "ok"})


def test_verify_trace():
    a = '{"records": [{"hord": "9/2"}], "status": "ok"}'
    same_reordered = '{"status": "ok", "records": [{"hord": "9/2"}]}'
    different = '{"records": [{"hord": "7/2"}], "status": "ok"}'
    ok, report = verify_trace(a, same_reordered)
    assert ok and report is None
    ok, report = verify_trace(a, different)
    assert not ok
    assert report == "$.records[0].hord: '9/2' != '7/2'"
    ok, report = verify_trace(a, "{nope")
    assert not ok and report.startswith("not valid JSON")
    # a trace never holds a float, so such a golden is a mismatch, not a crash
    for value in ("1.5", "1e999", "NaN"):
        ok, report = verify_trace(a, '{"records": [], "status": %s}' % value)
        assert (ok, report) == (False, "not a trace: floats are not allowed in traces")
    # an integer too long for int() is refused by json.loads in Python 3.11
    ok, report = verify_trace(a, "1" * 5000)
    assert not ok
    # the report names the first divergent value: a type, a key, a length
    for trace, golden, report in [
            ('{"a": 1}', '{"a": "1"}', "$.a: type int != str"),
            ('{"a": 1, "b": 2}', '{"a": 1}', "$: missing key 'b' on the right"),
            ('{"a": 1}', '{"a": 1, "b": 2}', "$: missing key 'b' on the left"),
            ('{"a": [1, 2]}', '{"a": [1]}', "$.a: length 2 != 1"),
            ('{"a": [1, 3]}', '{"a": [1]}', "$.a: length 2 != 1"),
            ('{"a": [1, 3]}', '{"a": [2]}', "$.a[0]: 1 != 2")]:
        assert verify_trace(trace, golden) == (False, report)


def test_cli_verify_against_a_float_golden_exits_1(tmp_path, capsys):
    scene = os.path.join(SCENES, "t06_strong_char5.scene")
    golden = _write(tmp_path, "golden.json", '{"a": 1.5}')
    assert main(["run", "--scene", scene, "--verify", golden]) == 1
    assert capsys.readouterr().err == (
        "trace mismatch: not a trace: floats are not allowed in traces\n")


def test_run_scene_empty_script():
    sc = parse_scene(MINIMAL.split("[script]")[0])
    doc = run_scene(sc)
    assert doc["records"] == [] and doc["status"] == "ok"


def test_run_scene_stops_at_first_error():
    sc = parse_scene(MINIMAL.replace(
        "hord at origin",
        "blowup: center = {z, y}; chart = y\nhord at origin"))
    doc = run_scene(sc)
    assert doc["status"] == "error"
    assert len(doc["records"]) == 1
    rec = doc["records"][0]
    assert rec["error_type"] == "PermissibilityError"
    assert "not permissible" in rec["error"]


def test_run_scene_unknown_command():
    sc = parse_scene(MINIMAL.replace("hord at origin", "frobnicate"))
    doc = run_scene(sc)
    assert doc["status"] == "error"
    assert doc["records"][0]["error_type"] == "CommandError"


def _raise(exc):
    def command(ex, point_name):
        raise exc
    return command


@pytest.mark.parametrize("exc", [KeyError("boom"), InvariantError("broken"),
                                 TypeError("no"), ValueError("max() arg is empty")])
def test_run_scene_lets_internal_errors_propagate(monkeypatch, exc):
    monkeypatch.setattr(scene_mod, "_cmd_hord", _raise(exc))
    with pytest.raises(type(exc)):
        run_scene(parse_scene(MINIMAL))


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_run_and_verify(tmp_path, capsys):
    scene = _write(tmp_path, "s.scene", MINIMAL)
    trace = str(tmp_path / "t.json")
    assert main(["run", "--scene", scene, "--trace-out", trace]) == 0
    with open(trace) as fh:
        text = fh.read()
    doc = json.loads(text)
    assert doc["status"] == "ok"
    assert doc["records"][0]["hord"] == "3/2"

    golden = _write(tmp_path, "golden.json", text)
    assert main(["run", "--scene", scene, "--verify", golden]) == 0
    capsys.readouterr()

    bad = _write(tmp_path, "bad.json", text.replace('"hord":"3/2"', '"hord":"5/2"'))
    assert main(["run", "--scene", scene, "--verify", bad]) == 1
    err = capsys.readouterr().err
    assert "trace mismatch" in err and "$.records[0].hord" in err


def test_cli_verify_accepts_equal_bytes_without_parsing(tmp_path, capsys, monkeypatch):
    scene = _write(tmp_path, "s.scene", MINIMAL)
    trace = str(tmp_path / "t.json")
    assert main(["run", "--scene", scene, "--trace-out", trace]) == 0

    def refuse(*args, **kwargs):
        raise AssertionError("equal bytes need no parse")

    monkeypatch.setattr(json, "loads", refuse)
    assert main(["run", "--scene", scene, "--verify", trace]) == 0
    assert capsys.readouterr().err == "verified against %s\n" % trace


def test_cli_verify_canonicalizes_a_reformatted_golden(tmp_path, capsys):
    scene = _write(tmp_path, "s.scene", MINIMAL)
    trace = str(tmp_path / "t.json")
    assert main(["run", "--scene", scene, "--trace-out", trace]) == 0
    with open(trace) as fh:
        doc = json.load(fh)
    pretty = _write(tmp_path, "pretty.json", json.dumps(doc, indent=4))
    assert main(["run", "--scene", scene, "--verify", pretty]) == 0
    capsys.readouterr()
    doc["records"][0]["elim_ord"] = "7/2"
    bad = _write(tmp_path, "bad.json", json.dumps(doc, indent=4))
    assert main(["run", "--scene", scene, "--verify", bad]) == 1
    assert "$.records[0].elim_ord" in capsys.readouterr().err


def test_verify_trace_refuses_equal_texts_that_are_not_traces():
    for text in ("{nope", '{"a": 1.5}'):
        ok, report = verify_trace(text, text)
        assert not ok and report


STRONG_TOWER = """\
[field]
characteristic: 2
[variables]
vars: z, x, y
sections: z
[presentation]
poly 1: z^2 + x^7
elim: x^7 W^2
[script]
"""
BLOWUPS = ["blowup: center = {z, x}; chart = x"] * 2


def test_cli_checks_of_one_tower_state_match_a_fresh_run(tmp_path, capsys):
    # the tower keeps its monomial algebra and strong checks per state; each
    # record of a scene that checks, blows up, checks again, resolves and
    # tracks must equal the last record of a scene that reaches the same
    # state with no earlier checks
    def records(*commands):
        scene = _write(tmp_path, "s.scene", STRONG_TOWER + "\n".join(commands) + "\n")
        trace = str(tmp_path / "t.json")
        main(["run", "--scene", scene, "--trace-out", trace])
        capsys.readouterr()
        with open(trace) as fh:
            return json.load(fh)["records"]

    one, two = BLOWUPS[:1], BLOWUPS
    got = records(*one, "strong-check", BLOWUPS[1], "strong-check", "resolve",
                  "monomial-track")
    assert [r["command"] for r in got] == ["blowup", "strong-check", "blowup",
                                           "strong-check", "resolve", "monomial-track"]
    assert got[1]["strong"] and got[3]["strong"]
    assert got[1] != got[3]     # the two strong checks see different states
    assert got[1] == records(*one, "strong-check")[-1]
    assert got[3] == records(*two, "strong-check")[-1]
    assert got[4] == records(*two, "resolve")[-1]
    assert got[5] == records(*two, "resolve", "monomial-track")[-1]


def test_cli_stdout_default(tmp_path, capsys):
    scene = _write(tmp_path, "s.scene", MINIMAL)
    assert main(["--scene", scene]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["records"][0]["command"] == "hord"


def test_cli_parse_error_exits_2(tmp_path, capsys):
    scene = _write(tmp_path, "s.scene", MINIMAL.replace("[points]", "[bogus]"))
    assert main(["run", "--scene", scene]) == 2
    assert "unknown section" in capsys.readouterr().err


def test_cli_command_error_exits_1(tmp_path, capsys):
    scene = _write(tmp_path, "s.scene",
                   MINIMAL.replace("hord at origin", "hord at nowhere"))
    assert main(["run", "--scene", scene]) == 1
    assert "command failed" in capsys.readouterr().err


def test_cli_internal_error_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(scene_mod, "_cmd_hord", _raise(KeyError("boom")))
    scene = _write(tmp_path, "s.scene", MINIMAL)
    assert main(["run", "--scene", scene]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: KeyError: 'boom'\n"


@pytest.mark.parametrize("target", ["parse_poly", "SimplifiedPresentation"])
def test_cli_internal_error_while_parsing_exits_3(tmp_path, capsys, monkeypatch,
                                                  target):
    def broken(*args):
        raise InvariantError("broken")

    monkeypatch.setattr(scene_mod, target, broken)
    scene = _write(tmp_path, "s.scene", MINIMAL)
    assert main(["run", "--scene", scene]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: InvariantError: broken\n"


@pytest.mark.parametrize("target", ["_cmd_hord", "parse_poly"])
def test_cli_bare_value_error_exits_3(tmp_path, capsys, monkeypatch, target):
    # only a CharpresError is a domain failure, while running or parsing
    def broken(*args):
        raise ValueError("max() arg is an empty sequence")

    monkeypatch.setattr(scene_mod, target, broken)
    assert main(["run", "--scene", _write(tmp_path, "s.scene", MINIMAL)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: ValueError: max() arg is an empty sequence\n"


def test_cli_scene_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "s.scene"
    path.write_bytes(MINIMAL.encode() + b"# \xff\n")
    assert main(["run", "--scene", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot read scene: ") and len(err.splitlines()) == 1


def test_cli_unwritable_trace_exits_1(tmp_path, capsys):
    scene = _write(tmp_path, "s.scene", MINIMAL)
    trace = str(tmp_path / "missing" / "t.json")
    assert main(["run", "--scene", scene, "--trace-out", trace]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write trace: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_cli_golden_not_utf8_exits_1(tmp_path, capsys):
    scene = _write(tmp_path, "s.scene", MINIMAL)
    golden = tmp_path / "golden.json"
    golden.write_bytes(b'{"records": "\xff"}')
    assert main(["run", "--scene", scene, "--verify", str(golden)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot read golden trace: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


# a pure power: every slope and H-order is infinite, so the trace holds "inf"
INF_SCENE = """\
[field]
characteristic: 2
[variables]
vars: z, x
[presentation]
sections: z
poly 1: z^2
[script]
hord at origin
slope at origin
"""


def test_cli_trace_with_infinities_verifies(tmp_path, capsys):
    scene = _write(tmp_path, "inf.scene", INF_SCENE)
    trace = str(tmp_path / "inf.trace.json")
    assert main(["run", "--scene", scene, "--trace-out", trace]) == 0
    with open(trace, encoding="utf-8") as fh:
        text = fh.read()
    hord, slope = json.loads(text)["records"]
    assert hord["hord"] == hord["elim_ord"] == "inf" and hord["poly_slopes"] == ["inf"]
    assert slope["slope_raw"] == slope["presentation_slope"] == "inf"
    assert text == _exact_json(run_scene(parse_scene(INF_SCENE, "inf.scene")))
    assert main(["run", "--scene", scene, "--verify", trace]) == 0
    assert capsys.readouterr().err == "verified against %s\n" % trace


def test_cli_undominated_p_presentation_exits_1(tmp_path, capsys):
    # cleaning z -> z - x leaves a_4 = 3x^7 + 3x^3y^4 + 4x^6 of slope 3/2
    # below the elimination order 2, so the reduced H-order formula fails
    scene = _write(tmp_path, "s.scene", """\
[field]
characteristic: 5
[variables]
vars: z, x, y
sections: z
[presentation]
kind: p
poly 1: z^5 + x^3*z^4 + x*y^4*z^3 + x^4*z^3 + x^6*z^2 + x^5
[script]
hord at origin
""")
    assert main(["run", "--scene", scene]) == 1
    out, err = capsys.readouterr()
    record = json.loads(out)["records"][-1]
    assert record["error_type"] == "DominationError"
    assert err == ("command failed: hord at origin: cleaned middle coefficient a_4 "
                   "of polynomial 1 has slope 3/2 below the elimination order 2; "
                   "the reduced H-order formula does not apply\n")


def test_cli_resolve_blows_up_cleaned_sections(tmp_path, capsys):
    # over F_2, z2^2 + x^2*w^2 = (z2 + x*w)^2: hord measures the cleaned
    # section, and the lift must blow up that one for its centers to be
    # permissible
    scene = _write(tmp_path, "s.scene", """\
[field]
characteristic: 2
[variables]
vars: z1, z2, x, y, w
[presentation]
sections: z1, z2
poly 1: z1^2 + x^3*w^3
poly 2: z2^2 + x^2*w^2
elim: x^4*w^4 W^3
[script]
blowup: center = {z1, z2, x, w}; chart = x
blowup: center = {z1, z2, w, x}; chart = w
blowup: center = {z1, z2, x, w}; chart = x
blowup: center = {z1, z2, x, w}; chart = x
blowup: center = {z1, z2, x, w}; chart = x
blowup: center = {z1, z2, x, w}; chart = x
blowup: center = {z1, z2, x, w}; chart = x
strong-check
resolve
""")
    assert main(["run", "--scene", scene]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    strong, resolve = doc["records"][-2:]
    assert strong["strong"] is True
    assert resolve["command"] == "resolve"
    assert resolve["singular_after"] == []
    assert resolve["final"]["polys"][1] == "z2^2"


def test_cli_cleans_a_section_polynomial(tmp_path, capsys):
    # over F_2 the weight-1 initial form of z^2 + x^2 + x^3 is (z + x)^2, so
    # cleaning maps z to z - x, which leaves z^2 + x^3 of slope 3/2
    scene = _write(tmp_path, "s.scene", """\
[field]
characteristic: 2
[variables]
vars: z, x, y
sections: z
[presentation]
kind: p
poly 1: z^2 + x^2 + x^3
[script]
slope at origin
hord at origin
""")
    assert main(["run", "--scene", scene]) == 0
    slope, hord = json.loads(capsys.readouterr().out)["records"]
    assert slope["iterations"] == 1
    assert slope["slopes"] == [1, "3/2"]
    assert slope["normalized_poly"] == "x^3 + z^2"
    assert slope["membership"] is True
    assert hord["hord"] == hord["reduced_hord"] == "3/2"


def test_cli_slope_does_not_clean_at_slope_zero(tmp_path, capsys):
    # over F_2 the weight-0 initial form of z^2 + x + 1 is (z + 1)^2, whose
    # root 1 is a unit: cleaning with it would move the point, so nothing
    # is cleaned, and f(0) = 1 keeps the origin out of the singular locus
    scene = _write(tmp_path, "s.scene", """\
[field]
characteristic: 2
[variables]
vars: z, x, y
sections: z
[presentation]
poly 1: z^2 + x + 1
[script]
slope at origin
""")
    assert main(["run", "--scene", scene]) == 0
    (slope,) = json.loads(capsys.readouterr().out)["records"]
    assert slope["slopes"] == [0] and slope["iterations"] == 0
    assert slope["normalized_poly"] == "z^2 + x + 1"
    assert slope["presentation_slope"] == 0
    assert slope["membership"] is False


def test_cli_bad_subcommand_exits_2(tmp_path, capsys):
    scene = _write(tmp_path, "s.scene", MINIMAL)
    with pytest.raises(SystemExit) as err:
        main(["explode", "--scene", scene])
    assert err.value.code == 2
    capsys.readouterr()


def test_cli_extra_terminal_command(tmp_path, capsys):
    scene = _write(tmp_path, "s.scene",
                   MINIMAL.replace("hord at origin",
                                   "blowup: center = {z, x}; chart = x"))
    assert main(["monomial-track", "--scene", scene]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["records"][-1] == {"command": "monomial-track", "s": 2,
                                  "exponents": {"H1": 1}}


ALGEBRA_TOWER = """\
[field]
characteristic: 2

[variables]
vars: z, x, y

[algebra]
gen: z^2 + x^4*y^5 W^2

[script]
blowup: center = {z, x}; chart = x
"""


@pytest.mark.parametrize("command", ["monomial-track", "strong-check", "resolve"])
def test_monomial_commands_need_a_presentation_tower(tmp_path, capsys, command):
    doc = run_scene(parse_scene(ALGEBRA_TOWER), extra_commands=[command])
    assert doc["status"] == "error"
    assert doc["records"][-1] == {"command": command,
                                  "error": "monomial tracking needs a presentation tower",
                                  "error_type": "TrackingError"}
    scene = _write(tmp_path, "s.scene", ALGEBRA_TOWER)
    assert main([command, "--scene", scene]) == 1
    assert capsys.readouterr().err == ("command failed: %s: monomial tracking needs "
                                       "a presentation tower\n" % command)


NO_OBJECT = """\
[field]
characteristic: 3

[variables]
vars: x, y
"""


@pytest.mark.parametrize("text,command,message", [
    (NO_OBJECT, "analyze at origin", "scene declares neither an algebra nor a presentation"),
    # an algebra tower has no presentation to take the H-order of
    (ALGEBRA_TOWER, "hord at origin", "the tower does not track a presentation"),
    (MINIMAL, "blowup: center = {z, q}; chart = z", "unknown variable 'q'"),
])
def test_command_errors_are_recorded(text, command, message):
    doc = run_scene(parse_scene(text), extra_commands=[command])
    assert doc["status"] == "error"
    assert doc["records"][-1] == {"command": command, "error": message,
                                  "error_type": "CommandError"}


def test_analyze_marks_a_unit_algebra():
    doc = run_scene(parse_scene(NO_OBJECT + "[algebra]\ngen: 1 W^1\n"),
                    extra_commands=["analyze at origin"])
    assert doc["records"] == [{"command": "analyze", "point": "origin",
                               "point_spec": {"closed": [0, 0]}, "unit_algebra": True,
                               "ord": 0, "singular": False, "saturated_singular": False,
                               "singular_strata": []}]


def test_analyze_warns_when_the_oracle_disagrees(monkeypatch):
    sc = load_scene(os.path.join(SCENES, "a01_tau_char2.scene"))
    monkeypatch.setattr(scene_mod, "tau_translation_oracle", lambda alg, pt, m: 4)
    rec = run_scene(sc, RunOptions(tau_oracle_extension=2))["records"][0]
    assert (rec["tau"], rec["tau_oracle"], rec["oracle_agrees"]) == (3, 4, False)
    assert rec["warning"] == ("translation oracle over extension degree 2 disagrees "
                              "with the graded computation")


def test_presentation_scene_saturates_its_upstairs_algebra_once(monkeypatch):
    # a scene with no [algebra] analyzes the upstairs algebra of its
    # presentation, and that algebra keeps its saturation between commands
    calls = []
    saturate = rees_mod._saturate

    def counted(alg):
        calls.append(alg)
        return saturate(alg)

    monkeypatch.setattr(rees_mod, "_saturate", counted)
    sc = load_scene(os.path.join(SCENES, "t01_strong_char2.scene"))
    doc = run_scene(sc, extra_commands=["analyze at origin"] * 3)
    assert doc["status"] == "ok"
    first, *rest = doc["records"][-3:]
    assert first["command"] == "analyze" and rest == [first, first]
    assert len(calls) == 1


def test_cli_oracle_flag_rejects_large_extension(tmp_path, capsys):
    scene = _write(tmp_path, "s.scene", MINIMAL)
    with pytest.raises(SystemExit):
        main(["run", "--scene", scene, "--tau-oracle-field-extension", "4"])
    capsys.readouterr()


# only the ASCII strings 1, 2 and 3 name an extension degree; int() would read
# the Arabic-Indic digit two and an underscore-separated 0_2 as 2
@pytest.mark.parametrize("m", ["\u0662", "0_2", "4", " 2", "+2", "02"])
def test_cli_oracle_flag_takes_only_ascii_1_to_3(tmp_path, capsys, m):
    scene = _write(tmp_path, "s.scene", MINIMAL)
    with pytest.raises(SystemExit) as err:
        main(["run", "--scene", scene, "--tau-oracle-field-extension", m])
    assert err.value.code == 2
    assert "invalid choice: %r" % m in capsys.readouterr().err


def test_cli_oracle_flag_runs_the_oracle(capsys):
    scene = os.path.join(SCENES, "a01_tau_char2.scene")
    golden = os.path.join(SCENES, "golden", "a01_tau_char2.trace.json")
    # the goldens were made with the oracle over F_2^2
    assert main(["run", "--scene", scene, "--verify", golden,
                 "--tau-oracle-field-extension", "2"]) == 0
    assert main(["run", "--scene", scene, "--verify", golden]) == 1
    capsys.readouterr()


def test_parsed_presentation_is_the_direct_one():
    field = FieldSpec(3)

    def P(text):
        return parse_poly(text, field, ("z", "x", "y"))

    direct = SimplifiedPresentation(field, 3, (0,), (P("z^2 + x^3"),),
                                    ReesAlg.make(field, 3, [(P("x^3"), 2)]))
    assert parse_scene(MINIMAL).presentation == direct


TWO_SECTIONS = """\
[field]
characteristic: 2
[variables]
vars: z1, z2, x
sections: z1, z2
[presentation]
poly 1: z1^2 + x^3
poly 2: z2^2 + x^5
[script]
hord at origin
"""


def test_experiment_n_in_other_digits_is_a_command_error(tmp_path, capsys):
    command = "experiment q-from-presentation N=٣"
    text = MINIMAL.replace("hord at origin", command)
    message = "expected 'experiment q-from-presentation N=<count>'"
    assert run_scene(parse_scene(text))["records"] == [
        {"command": command, "error": message, "error_type": "CommandError"}]
    assert main(["run", "--scene", _write(tmp_path, "s.scene", text)]) == 1
    assert capsys.readouterr().err == "command failed: %s: %s\n" % (command, message)


@pytest.mark.parametrize("command,message", [
    ("slope at origin", "the slope command needs a one-section presentation"),
    ("experiment q-from-presentation N=3",
     "the experiment needs a one-section presentation"),
])
def test_one_section_commands_reject_two_sections(command, message):
    doc = run_scene(parse_scene(TWO_SECTIONS + command + "\n"))
    assert doc["status"] == "error"
    assert doc["records"][0]["hord"] == Fraction(3, 2)
    assert doc["records"][-1] == {"command": command, "error": message,
                                  "error_type": "CommandError"}


@pytest.mark.parametrize("command, message", [
    ("blowup: center = {}; chart = x", "a center needs at least one variable"),
    ("slope at S", "downstairs points cannot involve section variables"),
    ("hord at S", "downstairs points cannot involve section variables"),
    ("experiment q-from-presentation N=0", "N must be positive"),
])
def test_arguments_outside_the_domain_are_input_errors(command, message, tmp_path, capsys):
    text = MINIMAL.replace("L = {x}", "L = {x}\nS = {z}").replace("hord at origin", command)
    doc = run_scene(parse_scene(text))
    assert doc["records"] == [{"command": command, "error": message,
                               "error_type": "InputError"}]
    assert main(["run", "--scene", _write(tmp_path, "s.scene", text)]) == 1
    assert capsys.readouterr().err == "command failed: %s: %s\n" % (command, message)


def test_experiment_over_budget_is_a_budget_error(tmp_path, capsys):
    text = MINIMAL.replace("hord at origin", "experiment q-from-presentation N=10000000")
    rec = run_scene(parse_scene(text))["records"][-1]
    assert rec["error_type"] == "BudgetError"
    assert "above its budget" in rec["error"]
    assert main(["run", "--scene", _write(tmp_path, "s.scene", text)]) == 1
    assert "above its budget" in capsys.readouterr().err


# 6,188 terms: its saturation would form 12,375 derivatives, 7.7 * 10^7
# units of work
SATURATION_OVER_BUDGET = """\
[field]
characteristic: 0
[variables]
vars: v0, v1, v2, v3, v4, v5
[algebra]
gen: (v0 + 2*v1 + 3*v2 + 4*v3 + 5*v4 + 6*v5)^12 + v0^11*v1 W^12
[script]
analyze at origin
"""


def _walks(monkeypatch):
    """Record (f, max_total, most, leaves) for each walk the saturation
    makes; leaves is None when the walk gave up on the budget."""
    walks = []
    walk = rees_mod._derivatives

    def recorded(f, max_total, most):
        leaves = walk(f, max_total, most)
        walks.append((f, max_total, most, leaves))
        return leaves

    monkeypatch.setattr(rees_mod, "_derivatives", recorded)
    return walks


def test_saturation_over_budget_is_a_budget_error(tmp_path, capsys, monkeypatch):
    walks = _walks(monkeypatch)
    rec = run_scene(parse_scene(SATURATION_OVER_BUDGET))["records"][-1]
    assert rec["error_type"] == "BudgetError"
    assert "at the generator of weight 12 with 6188 terms" in rec["error"]
    # the one generator's walk gave up, so no derivative was formed
    assert [leaves for *_, leaves in walks] == [None]
    assert main(["run", "--scene", _write(tmp_path, "s.scene", SATURATION_OVER_BUDGET)]) == 1
    assert "above its budget" in capsys.readouterr().err
    assert [leaves for *_, leaves in walks] == [None, None]


class _GuardedExponents(tuple):
    """An exponent vector whose coordinates from `stop` on may not be read."""

    stop = 3

    def __getitem__(self, k):
        if k >= self.stop:
            raise AssertionError("the walk read coordinate %d" % k)
        return tuple.__getitem__(self, k)


def test_saturation_over_budget_stops_enumerating_derivatives(monkeypatch):
    # at weight 16 the generator has 20,349 terms and 54,263 nonzero
    # derivatives, which differ in all six coordinates; with 10^7 // 20,349
    # = 491 of them left in the budget, the walk has 15, 135 and 815
    # prefixes with a nonzero entry after the first three coordinates, and
    # gives up there without reading the other three
    text = (SATURATION_OVER_BUDGET.replace(")^12", ")^16")
            .replace("v0^11*v1 W^12", "v0^15*v1 W^16"))
    walks = _walks(monkeypatch)
    rec = run_scene(parse_scene(text))["records"][-1]
    assert rec["error_type"] == "BudgetError"
    assert "at the generator of weight 16 with 20349 terms" in rec["error"]
    (f, max_total, most, leaves), = walks
    assert (len(f.terms), max_total, most, leaves) == (20349, 15, 491, None)
    guarded = MPoly(f.field, f.nvars, tuple((_GuardedExponents(e), c) for e, c in f.terms))
    assert rees_mod._derivatives(guarded, max_total, most) is None
    monkeypatch.setattr(_GuardedExponents, "stop", 2)
    with pytest.raises(AssertionError, match="read coordinate 2"):
        rees_mod._derivatives(guarded, max_total, most)


# hord and ord_monomial agree at the generic points of the divisor strata but
# not at the closed point origin (5/2 against 2), so the tower is not strong
NON_STRONG_AT_ORIGIN = """\
[field]
characteristic: 3
[variables]
vars: z, x, y, w
sections: z
[presentation]
poly 1: z^2 + x*y^2*w^2
elim: y^4*w^3 W^2
[script]
blowup: center = {z, y, w}; chart = y
blowup: center = {z, y, w}; chart = w
strong-check
resolve
"""


def test_resolve_refuses_tower_strong_check_rejects(tmp_path, capsys):
    doc = run_scene(parse_scene(NON_STRONG_AT_ORIGIN))
    check, resolve = doc["records"][-2:]
    assert check["strong"] is False
    assert check["witness"]["at"] == "point 1"
    assert doc["status"] == "error"
    assert resolve["command"] == "resolve"
    assert resolve["error"].startswith("lift refused")
    scene = _write(tmp_path, "s.scene", NON_STRONG_AT_ORIGIN)
    assert main(["run", "--scene", scene]) == 1
    assert "lift refused" in capsys.readouterr().err


# the scene's closed point P is not among the points the strong check tests:
# those are the divisor strata and the chart origin
STRONG_WITH_A_POINT = """\
[field]
characteristic: 2
[variables]
vars: z, x, y
sections: z
[presentation]
poly 1: z^2 + x^4*y^5
elim: x^4*y^5 W^2
[points]
P = (0, 1, 1)
[script]
blowup: center = {z, x}; chart = x
blowup: center = {z, y}; chart = y
strong-check
resolve
"""


def test_strong_check_tests_the_chart_origin_not_the_scene_points():
    doc = run_scene(parse_scene(STRONG_WITH_A_POINT))
    assert doc["status"] == "ok"
    check = doc["records"][2]
    assert [row["at"] for row in check["checked"]] == [
        "stratum H1", "stratum H2", "stratum H1&H2", "point 1"]
    assert check["checked"][-1] == {"at": "point 1", "hord": Fraction(5, 2),
                                    "ord_monomial": Fraction(5, 2), "equal": True}
    bare = STRONG_WITH_A_POINT.replace("[points]\nP = (0, 1, 1)\n", "")
    assert run_scene(parse_scene(bare))["records"] == doc["records"]


EXPERIMENT_WITH_T = """\
[field]
characteristic: 5
[variables]
vars: z, t
sections: z
[presentation]
poly 1: z^2 + t^3
elim: t^3 W^2
[script]
experiment q-from-presentation N=2
"""


def test_experiment_names_its_variable_apart_from_the_scene():
    rec = run_scene(parse_scene(EXPERIMENT_WITH_T))["records"][0]
    assert rec["agrees"]
    assert [(row["stage"], row["center"], row["chart"]) for row in rec["steps"]] == [
        ("A", ["t", "t1", "z"], "t1"), ("A", ["t", "t1", "z"], "t1"),
        ("B", ["t1", "z"], "t1"), ("B", ["t1", "z"], "t1")]


def _scene_paths():
    return sorted(glob.glob(os.path.join(SCENES, "*.scene")))


def test_corpus_is_present():
    assert len(_scene_paths()) == 25


@pytest.mark.parametrize("path", _scene_paths(),
                         ids=[os.path.basename(p) for p in _scene_paths()])
def test_golden_regression(path):
    sc = load_scene(path)
    doc = run_scene(sc, RunOptions(tau_oracle_extension=2))
    assert doc["status"] == "ok"
    got = canonical_json(doc)
    name = os.path.basename(path).rsplit(".", 1)[0]
    golden_path = os.path.join(SCENES, "golden", name + ".trace.json")
    with open(golden_path, "r", encoding="utf-8") as fh:
        golden = fh.read()
    assert got == golden


def test_traces_are_deterministic():
    path = _scene_paths()[0]
    one = canonical_json(run_scene(load_scene(path), RunOptions(tau_oracle_extension=2)))
    two = canonical_json(run_scene(load_scene(path), RunOptions(tau_oracle_extension=2)))
    assert one == two
