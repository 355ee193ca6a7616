"""Scene files and their execution.

A scene is a line-oriented UTF-8 file with bracketed sections declaring the
base field, the variables, an algebra and/or a presentation, named points,
and a script of commands.  Execution appends one record per command to a
trace document; traces serialize as canonical JSON (sorted keys, rationals as
"num/den" strings, never floats) so byte equality is meaningful.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .blowup import (Center, StageRows, Tower, _origin, invariant_snapshot,
                     stage_ab_experiment)
from .errors import CharpresError, CommandError, SceneParseError
from .monomial import (is_strong_monomial, lift_resolution, sandwich_report,
                       track_monomial)
from .poly import (INF, ClosedPoint, FieldSpec, GenericPoint, MPoly,
                   PointSpec, parse_coeff, parse_poly, render_poly)
from .projection import (PPresentation, SimplifiedPresentation, check_elim_gen,
                         check_section_poly, hord_data, make_p_presentation,
                         membership_criterion, normalize, upstairs_algebra)
from .rees import (ReesAlg, diff_saturate, ord_at, sing_member,
                   singular_coordinate_strata, tau_at, tau_translation_oracle)

_SECTIONS = ("field", "variables", "algebra", "presentation", "points", "script")
_GEN_RE = re.compile(r"^(.*?)\s+W\^([0-9]+)$")


@dataclass
class Scene:
    field: FieldSpec
    names: list
    algebra: Optional[ReesAlg]
    presentation: Optional[SimplifiedPresentation]
    points: dict                    # name -> PointSpec
    script: list                    # [(lineno, command text)]
    path: str = "<scene>"

    def require_algebra(self) -> ReesAlg:
        if self.algebra is not None:
            return self.algebra
        if self.presentation is not None:
            return self._upstairs
        raise CommandError("scene declares neither an algebra nor a presentation")

    @cached_property
    def _upstairs(self) -> ReesAlg:
        # built once, so its saturation memo serves every analyze
        return upstairs_algebra(self.presentation)

    def require_presentation(self):
        if self.presentation is None:
            raise CommandError("this command needs a [presentation] section")
        return self.presentation


def _numeral(text: str, pattern: str = "[0-9]+") -> int:
    """The int that text spells when it matches pattern, a numeral of ASCII
    digits; ValueError for other text, as from int() past its digit limit."""
    if not re.fullmatch(pattern, text):
        raise ValueError("not an ASCII numeral: %r" % text)
    return int(text)


def _split_csv(text: str):
    return [t.strip() for t in text.split(",") if t.strip()]


def _at(lineno: int, fn, *args):
    """fn(*args), with a library error raised as a parse error at lineno."""
    try:
        return fn(*args)
    except CharpresError as exc:
        raise SceneParseError(str(exc), lineno)


def parse_scene(text: str, path: str = "<scene>") -> Scene:
    # each entry split once, stripped: (lineno, key, sep, value) at its first ":",
    # or "=" in [points]; a script line stays whole, (lineno, text)
    section = None
    data: dict = {name: [] for name in _SECTIONS}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise SceneParseError("unknown section [%s]" % name, lineno)
            section = name
            continue
        if section is None:
            raise SceneParseError("content before the first section header", lineno)
        if section == "script":
            data[section].append((lineno, line))
        else:
            key, sep, value = line.partition("=" if section == "points" else ":")
            data[section].append((lineno, key.strip(), sep, value.strip()))

    first: dict = {}    # (section, single-valued entry) -> line of its first copy

    def once(section: str, entry: str, lineno: int) -> None:
        seen = first.setdefault((section, entry), lineno)
        if seen != lineno:
            raise SceneParseError("%s given twice (first at line %d)" % (entry, seen),
                                  lineno)

    # field
    characteristic = None
    for lineno, key, _, value in data["field"]:
        if key != "characteristic":
            raise SceneParseError("expected 'characteristic: <p>'", lineno)
        once("field", "characteristic", lineno)
        try:
            characteristic = _numeral(value, "[-+]?[0-9]+")
        except ValueError:
            raise SceneParseError("characteristic must be an integer", lineno)
    if characteristic is None:
        raise SceneParseError("missing [field] characteristic")
    field = _at(data["field"][0][0], FieldSpec, characteristic)

    # variables
    if not data["variables"]:
        raise SceneParseError("missing [variables] section")
    names = None
    section_names = []
    sections_lineno = data["variables"][0][0]
    for lineno, key, _, value in data["variables"]:
        if key == "vars":
            names = _split_csv(value)
        elif key == "sections":
            section_names = _split_csv(value)
            sections_lineno = lineno
        else:
            raise SceneParseError("unknown [variables] entry %r" % key, lineno)
        once("variables", key, lineno)
    if not names:
        raise SceneParseError("missing [variables] vars line")
    if len(set(names)) != len(names):
        raise SceneParseError("duplicate variable name", data["variables"][0][0])
    if "W" in names:
        raise SceneParseError("'W' is reserved for generator weights",
                              data["variables"][0][0])
    index = {n: i for i, n in enumerate(names)}

    def var_index(name: str, lineno: int) -> int:
        if name not in index:
            raise SceneParseError("unknown variable %r" % name, lineno)
        return index[name]

    sections = tuple(var_index(n, sections_lineno) for n in section_names)

    def parse_gen(line: str, lineno: int):
        m = _GEN_RE.match(line)
        if not m:
            raise SceneParseError("expected '<polynomial> W^<weight>'", lineno)
        f = _at(lineno, parse_poly, m.group(1), field, names)
        try:
            weight = int(m.group(2))
        except ValueError:     # more digits than int() converts
            raise SceneParseError("generator weight has too many digits", lineno)
        if weight < 1:
            raise SceneParseError("generator weights must be positive", lineno)
        return f, weight

    # algebra
    algebra = None
    gens = []
    for lineno, key, _, value in data["algebra"]:
        if key != "gen":
            raise SceneParseError("expected 'gen: <poly> W^<n>'", lineno)
        gens.append(parse_gen(value, lineno))
    if gens:
        algebra = _at(data["algebra"][0][0], ReesAlg.make, field, len(names), gens)

    # presentation
    presentation = None
    if data["presentation"]:
        psecs, psecs_lineno = sections, sections_lineno
        polys = {}
        elim_gens = []
        kind = "simplified"
        kind_lineno = data["presentation"][0][0]
        for lineno, key, _, value in data["presentation"]:
            if key == "sections":
                once("presentation", key, lineno)
                psecs = tuple(var_index(n, lineno) for n in _split_csv(value))
                psecs_lineno = lineno
            elif key.startswith("poly"):
                tail = key[4:].strip()
                try:
                    i = _numeral(tail) if tail else 1
                except ValueError:
                    raise SceneParseError("expected 'poly <i>: <polynomial>'", lineno)
                once("presentation", "poly %d" % i, lineno)
                polys[i] = (_at(lineno, parse_poly, value, field, names), lineno)
            elif key == "elim":
                elim_gens.append((parse_gen(value, lineno), lineno))
            elif key == "kind":
                if value not in ("simplified", "p"):
                    raise SceneParseError("presentation kind must be 'simplified' or 'p'",
                                          lineno)
                once("presentation", key, lineno)
                kind, kind_lineno = value, lineno
            else:
                raise SceneParseError("unknown [presentation] entry %r" % key, lineno)
        if not psecs:
            raise SceneParseError("presentation needs section variables",
                                  data["presentation"][0][0])
        if len(set(psecs)) != len(psecs):
            raise SceneParseError("sections must be distinct", psecs_lineno)
        if sorted(polys) != list(range(1, len(psecs) + 1)):
            raise SceneParseError("presentation needs 'poly i:' for i = 1..e",
                                  data["presentation"][0][0])
        entries = [polys[i] for i in range(1, len(psecs) + 1)]
        for z, (f, lineno) in zip(psecs, entries):
            _at(lineno, check_section_poly, f, z, psecs)
        for (g, _), lineno in elim_gens:
            _at(lineno, check_elim_gen, g, psecs)
        # every entry passed its own check, so what fails now is the kind
        elim = _at(kind_lineno, ReesAlg.make, field, len(names),
                   [gen for gen, _ in elim_gens])
        build = make_p_presentation if kind == "p" else SimplifiedPresentation
        presentation = _at(kind_lineno, build, field, len(names), psecs,
                           tuple(f for f, _ in entries), elim)

    # points
    points: dict = {}
    for lineno, name, eq, value in data["points"]:
        if not eq:
            raise SceneParseError("expected '<name> = (…)' or '<name> = {…}'", lineno)
        if name.split() != [name]:
            # script commands name a point by one word
            raise SceneParseError("point name %r is empty or holds whitespace" % name,
                                  lineno)
        if name == "origin":
            raise SceneParseError("'origin' is the chart origin and cannot be redefined",
                                  lineno)
        once("points", "point " + name, lineno)
        if value.startswith("(") and value.endswith(")"):
            parts = _split_csv(value[1:-1])
            if len(parts) != len(names):
                raise SceneParseError("closed point needs %d coordinates" % len(names),
                                      lineno)
            try:
                vals = tuple(parse_coeff(c, field) for c in parts)
            except CharpresError as exc:
                raise SceneParseError("bad coordinate: %s" % exc, lineno)
            points[name] = ClosedPoint(vals)
        elif value.startswith("{") and value.endswith("}"):
            vs = frozenset(var_index(n, lineno) for n in _split_csv(value[1:-1]))
            if not vs:
                raise SceneParseError("generic point needs at least one variable", lineno)
            points[name] = GenericPoint(vs)
        else:
            raise SceneParseError("expected '(…)' or '{…}' point syntax", lineno)
    points["origin"] = _origin(field, len(names))

    return Scene(field, names, algebra, presentation, points, data["script"], path)


def load_scene(path: str) -> Scene:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read(), path)


# -- serialization -----------------------------------------------------------------


def jsonify(obj):
    """Exact JSON image: Fractions become ints or 'num/den' strings, infinity
    becomes 'inf', containers recurse.  No floats ever.  Dispatch is on the
    exact type, so a subclass of a supported type is refused."""
    t = type(obj)
    if t is str or t is int or t is bool or obj is None:
        return obj
    if t is dict:
        return {str(k): jsonify(v) for k, v in obj.items()}
    if t is list or t is tuple:
        return [jsonify(v) for v in obj]
    if t is Fraction:
        if obj.denominator == 1:
            return int(obj)
        return "%d/%d" % (obj.numerator, obj.denominator)
    if obj is INF:
        return "inf"
    if t is StageRows:
        return [jsonify(row) for row in obj]
    if isinstance(obj, float):
        raise TypeError("floats are not allowed in traces")
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonify(v) for v in obj)
    raise TypeError("cannot serialize %r" % t.__name__)


# What the C encoder writes that the exact image would not: a finite float
# (its repr always holds a digit, "." and a digit, or a digit, "e" and a
# sign), and the first key of a dict whose keys are not strings (the encoder
# sorts such keys before it turns them into text, and names True, False and
# None differently; a dict that mixes them with str keys fails its sort).
_GUARDS = (re.compile(r"\.(?<=\d\.)\d"), re.compile(r"e[-+](?<=\de[-+])"),
           re.compile(r'\{"(?:-?\d+|true|false|null)":'))
# The fast path writes this string in place of each StageRows, and the rows'
# text in place of its JSON once the guards have passed.  A trace string equal
# to it makes the count of markers differ from the count of StageRows.
_ROWS_MARKER = "\x00StageRows\x00"
_ROWS_MARKER_JSON = json.dumps(_ROWS_MARKER)
# one row of each stage with its keys sorted; point, line and chart come in as
# JSON text, and in stage A only the index varies
_ROW_A = '{"center":%s,"chart":%s,"index":%%d,"order":%d,"permissible":true,"stage":"A"}'
_ROW_B = '{"center":%s,"chart":%s,"index":%%d,"order":%%d,"permissible":%%s,"stage":"B"}'


def _rows_json(rows: StageRows, point: str, line: str, chart: str) -> str:
    """The text of `list(rows)` from its closed form; point, line and chart
    are the JSON texts of its fields."""
    point, line, chart = (s.replace("%", "%%") for s in (point, line, chart))
    template = ",".join([_ROW_A % (point, chart, rows.n)] * rows.N
                        + [_ROW_B % (line, chart)] * len(rows.orders))
    args = [*range(1, rows.N + 1)]
    args += [x for j, nu in enumerate(rows.orders, 1)
             for x in (j, nu, "true" if nu >= rows.n else "false")]
    return "[" + template % tuple(args) + "]"


def canonical_json(doc) -> str:
    """The text of `json.dumps(jsonify(doc), sort_keys=True,
    separators=(",", ":"))`, plus a newline: sorted keys, Fractions as ints or
    "num/den", INF as "inf", and a TypeError for any float.

    The fast path hands `doc` as it is to the C encoder, with a hook for
    what the encoder does not know: `jsonify` for Fractions and sets, and a
    marker string for each `StageRows`, whose text `_rows_json` writes from
    the closed form, so no row dict is built.  The text stands unless the
    encoder raised (ValueError for INF, inf or NaN, TypeError for a key it
    cannot write or a value `jsonify` refuses), a guard of `_GUARDS` matches
    it or the JSON of a StageRows' point, line or chart, or the markers in it
    are not exactly one per StageRows.  Then the document takes the exact
    path through `jsonify`, which is also the only path for traces holding
    INF, the reference the tests compare against, and the walk
    `verify_trace` reports divergences with.  A string that only looks like
    a float takes the exact path and gets the same bytes.  One difference is
    kept: the fast path writes subclasses of dict, list, tuple, str and int
    by value, where `jsonify` refuses them; no trace holds one."""
    found = []

    def default(obj):
        if type(obj) is StageRows:
            found.append(obj)
            return _ROWS_MARKER
        return jsonify(obj)

    # a trace is a tree; a cycle ends in RecursionError on either path
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False,
                               check_circular=False, default=default)
    try:
        text = encoder.encode(doc)
        heads = [[encoder.encode(x) for x in (rows.point, rows.line, rows.chart)]
                 for rows in found]
    except (ValueError, TypeError):
        heads = None
    if heads is not None and not any(guard.search(s) for s in itertools.chain([text], *heads)
                                     for guard in _GUARDS):
        pieces = text.split(_ROWS_MARKER_JSON)
        if len(pieces) == len(found) + 1:
            out = [pieces[0]]
            for rows, head, piece in zip(found, heads, pieces[1:]):
                out += (_rows_json(rows, *head), piece)
            return "".join(out) + "\n"
    return json.dumps(jsonify(doc), sort_keys=True, separators=(",", ":")) + "\n"


def _first_divergence(a, b, path="$"):
    if type(a) is not type(b):
        return "%s: type %s != %s" % (path, type(a).__name__, type(b).__name__)
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                return "%s: missing key %r on the left" % (path, k)
            if k not in b:
                return "%s: missing key %r on the right" % (path, k)
            d = _first_divergence(a[k], b[k], "%s.%s" % (path, k))
            if d:
                return d
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            d = _first_divergence(x, y, "%s[%d]" % (path, i))
            if d:
                return d
        if len(a) != len(b):
            return "%s: length %d != %d" % (path, len(a), len(b))
        return None
    if a != b:
        return "%s: %r != %r" % (path, a, b)
    return None


def verify_trace(trace_text: str, golden_text: str):
    """Byte equality of canonicalized traces; on mismatch, a pointer to the
    first divergent value.  Both texts are parsed, so two equal texts that
    are not traces fail."""
    try:
        text = canonical_json(json.loads(trace_text))
    except ValueError as exc:   # JSONDecodeError, or an integer too long to read
        return False, "not valid JSON: %s" % exc
    except TypeError as exc:    # a float, inf or NaN: never in a trace
        return False, "not a trace: %s" % exc
    return verify_canonical_trace(text, golden_text)


def verify_canonical_trace(text: str, golden_text: str):
    """`verify_trace` for a `text` that `canonical_json` wrote.  Equal bytes
    pass with neither text parsed; otherwise the golden is parsed and
    canonicalized, and `text` is parsed only for the divergence report."""
    if text == golden_text:
        return True, None
    try:
        golden = json.loads(golden_text)
        if canonical_json(golden) == text:
            return True, None
    except ValueError as exc:
        return False, "not valid JSON: %s" % exc
    except TypeError as exc:
        return False, "not a trace: %s" % exc
    return False, (_first_divergence(jsonify(json.loads(text)), jsonify(golden))
                   or "traces differ")


# -- command execution ---------------------------------------------------------------


@dataclass
class RunOptions:
    tau_oracle_extension: Optional[int] = None


@dataclass
class _Execution:
    scene: Scene
    options: RunOptions
    tower: Optional[Tower] = None
    records: list = dc_field(default_factory=list)

    def rp(self, f: MPoly) -> str:
        return render_poly(f, self.scene.names)

    def point(self, name: str) -> PointSpec:
        if name not in self.scene.points:
            raise CommandError("unknown point %r" % name)
        return self.scene.points[name]

    def point_json(self, pt: PointSpec):
        if isinstance(pt, ClosedPoint):
            return {"closed": [v for v in pt.values]}
        return {"generic": sorted(self.scene.names[i] for i in pt.vars)}

    def current_presentation(self):
        if self.tower is not None:
            obj = self.tower.obj
            if isinstance(obj, SimplifiedPresentation):
                return obj
            raise CommandError("the tower does not track a presentation")
        return self.scene.require_presentation()

    def ensure_tower(self) -> Tower:
        if self.tower is None:
            obj = (self.scene.presentation if self.scene.presentation is not None
                   else self.scene.require_algebra())
            self.tower = Tower.start(self.scene.names, obj)
        return self.tower


def _object_json(ex: _Execution, obj) -> dict:
    if isinstance(obj, ReesAlg):
        return {"kind": "algebra", "unit": obj.is_unit,
                "gens": [{"poly": ex.rp(f), "weight": n} for f, n in obj.gens]}
    return {"kind": "presentation",
            "sections": [ex.scene.names[z] for z in obj.sections],
            "polys": [ex.rp(f) for f in obj.polys],
            "elim": [{"poly": ex.rp(g), "weight": m} for g, m in obj.elim.gens]}


def _cmd_analyze(ex: _Execution, point_name: str) -> dict:
    alg = ex.scene.require_algebra()
    pt = ex.point(point_name)
    rec = {"command": "analyze", "point": point_name,
           "point_spec": ex.point_json(pt)}
    if alg.is_unit:
        rec["unit_algebra"] = True
    rec["ord"] = ord_at(alg, pt)
    rec["singular"] = sing_member(alg, pt)
    sat = diff_saturate(alg)
    rec["saturated_singular"] = sing_member(sat, pt)
    rec["singular_strata"] = [sorted(ex.scene.names[i] for i in S)
                              for S in singular_coordinate_strata(sat)]
    if isinstance(pt, ClosedPoint) and rec["saturated_singular"]:
        td = tau_at(alg, pt)
        rec["tau"] = td.tau
        m = ex.options.tau_oracle_extension
        if m is not None and ex.scene.field.characteristic > 0:
            oracle = tau_translation_oracle(alg, pt, m)
            rec["tau_oracle"] = oracle
            rec["oracle_agrees"] = oracle == td.tau
            if oracle != td.tau:
                rec["warning"] = ("translation oracle over extension degree %d "
                                  "disagrees with the graded computation" % m)
    return rec


def _cmd_slope(ex: _Execution, point_name: str) -> dict:
    pres = ex.current_presentation()
    if len(pres.sections) != 1:
        raise CommandError("the slope command needs a one-section presentation")
    pt = ex.point(point_name)
    data = normalize(pres, pt)
    norm = data.normalizations[0]
    rec = {"command": "slope", "point": point_name,
           "point_spec": ex.point_json(pt),
           "slope_raw": norm.slopes[0],
           "elim_ord": data.elim_ord,
           "iterations": norm.iterations,
           "slopes": list(norm.slopes),
           "normalized_poly": ex.rp(norm.poly),
           "presentation_slope": data.value}
    rec["membership"] = membership_criterion(data.cleaned or pres, pt)
    return rec


def _cmd_hord(ex: _Execution, point_name: str) -> dict:
    pres = ex.current_presentation()
    pt = ex.point(point_name)
    data = hord_data(pres, pt)
    rec = {"command": "hord", "point": point_name,
           "point_spec": ex.point_json(pt),
           "hord": data.value,
           "elim_ord": data.elim_ord,
           "poly_slopes": [r.slope for r in data.normalizations],
           "iterations": [r.iterations for r in data.normalizations]}
    if isinstance(pres, PPresentation):
        rec["reduced_hord"] = data.value   # hord_data checked the reduced formula
    return rec


_BLOWUP_RE = re.compile(r"^center\s*=\s*\{([^}]*)\}\s*;\s*chart\s*=\s*(\S+)$")


def _cmd_blowup(ex: _Execution, spec: str) -> dict:
    m = _BLOWUP_RE.match(spec.strip())
    if not m:
        raise CommandError("expected 'blowup: center = {v, …}; chart = v'")
    index = {n: i for i, n in enumerate(ex.scene.names)}
    try:
        vars_ = [index[n] for n in _split_csv(m.group(1))]
        chart_var = index[m.group(2)]
    except KeyError as exc:
        raise CommandError("unknown variable %s" % exc)
    tower = ex.ensure_tower()
    step = tower.blow_up(Center(frozenset(vars_)), chart_var)
    return {"command": "blowup",
            "center": sorted(ex.scene.names[v] for v in step.center),
            "chart": ex.scene.names[step.chart_var],
            "divisors": {lab: (None if v is None else ex.scene.names[v])
                         for lab, v in step.chart.divisors},
            "object": _object_json(ex, step.obj),
            "snapshot": invariant_snapshot(step.obj)}


_EXPERIMENT_RE = re.compile(r"^q-from-presentation\s+N\s*=\s*([0-9]+)$")


def _cmd_experiment(ex: _Execution, spec: str) -> dict:
    m = _EXPERIMENT_RE.match(spec.strip())
    if not m:
        raise CommandError("expected 'experiment q-from-presentation N=<count>'")
    try:
        N = int(m.group(1))
    except ValueError:     # more digits than int() converts
        raise CommandError("N has too many digits")
    pres = ex.scene.require_presentation()
    if len(pres.sections) != 1:
        raise CommandError("the experiment needs a one-section presentation")
    ell, trace = stage_ab_experiment(pres.polys[0], pres.sections[0], N,
                                     names=ex.scene.names)
    return {"command": "experiment", "N": N, "q": trace["q"], "l": ell,
            "expected": trace["expected"], "agrees": ell == trace["expected"],
            "performed": trace["performed"], "steps": trace["steps"]}


def _cmd_monomial_track(ex: _Execution) -> dict:
    tower = ex.ensure_tower()
    M = track_monomial(tower)
    return {"command": "monomial-track", "s": M.s,
            "exponents": {lab: h for lab, h in M.exponents}}


def _cmd_strong_check(ex: _Execution) -> dict:
    tower = ex.ensure_tower()
    res = is_strong_monomial(tower)
    rec = {"command": "strong-check", "strong": res.strong,
           "monomial": {"s": res.monomial.s,
                        "exponents": {lab: h for lab, h in res.monomial.exponents}},
           "checked": list(res.checked),
           "witness": res.witness}
    if tower.steps:
        rec["sandwich"] = sandwich_report(tower)
    return rec


def _cmd_resolve(ex: _Execution) -> dict:
    tower = ex.ensure_tower()
    lift = lift_resolution(tower)
    M = lift.monomial
    moves = [r.move for r in lift.records]
    rec = {"command": "resolve",
           "monomial": {"s": M.s, "exponents": {lab: h for lab, h in M.exponents}},
           "moves": [{"stratum": sorted(m.labels), "new_label": m.new_label,
                      "exponent": m.exponent,
                      "exponents_after": {lab: h for lab, h in m.exponents_after}}
                     for m in moves]}
    rec["lift"] = [{"stratum": sorted(r.move.labels), "skipped": r.skipped,
                    "reason": r.reason, "case": r.contact_case,
                    "hord_at_center": r.hord_at_center,
                    "elim_ord_at_center": r.elim_ord_at_center}
                   for r in lift.records]
    rec["final"] = _object_json(ex, tower.obj)
    rec["divisors"] = {lab: (None if v is None else ex.scene.names[v])
                       for lab, v in tower.chart.divisors}
    # lift_resolution raises when the followed chart's origin, and with it
    # any coordinate stratum, is singular; other points are not checked
    rec["singular_after"] = []
    return rec


_AT_RE = re.compile(r"^(analyze|slope|hord)\s+at\s+(\S+)$")


def execute_command(ex: _Execution, text: str) -> dict:
    m = _AT_RE.match(text)
    if m:
        fn = {"analyze": _cmd_analyze, "slope": _cmd_slope, "hord": _cmd_hord}[m.group(1)]
        return fn(ex, m.group(2))
    if text.startswith("blowup:"):
        return _cmd_blowup(ex, text[len("blowup:"):])
    if text.startswith("experiment"):
        return _cmd_experiment(ex, text[len("experiment"):])
    if text == "monomial-track":
        return _cmd_monomial_track(ex)
    if text == "strong-check":
        return _cmd_strong_check(ex)
    if text == "resolve":
        return _cmd_resolve(ex)
    raise CommandError("unknown command %r" % text)


def run_scene(scene: Scene, options: Optional[RunOptions] = None,
              extra_commands=()) -> dict:
    """Execute the scene script (plus any extra commands) in order.  The
    first command that fails with a domain error, a `CharpresError`, is
    recorded with its reason and stops execution; the trace status reflects
    it.  Any other exception, a bare `ValueError` or an `InvariantError`
    included, is a bug and propagates."""
    ex = _Execution(scene, options or RunOptions())
    doc = {"scene": scene.path.rsplit("/", 1)[-1],
           "field": str(scene.field),
           "variables": list(scene.names),
           "records": ex.records,
           "status": "ok"}
    commands = [(lineno, text) for lineno, text in scene.script]
    commands += [(None, text) for text in extra_commands]
    for lineno, text in commands:
        try:
            ex.records.append(execute_command(ex, text))
        except CharpresError as exc:
            ex.records.append({"command": text, "error": str(exc),
                               "error_type": type(exc).__name__})
            doc["status"] = "error"
            break
    return doc
