"""The benchmark's workloads: scene texts and the checks their traces must pass.

A workload is a list of cases (scene texts) plus a check applied to every
trace.  ``corpus`` reads the repository's golden corpus.  ``analyze`` and
``towers`` are generated from a seed; the same seed gives byte-identical
scene text.  Both generators walk a fixed grid of shapes (field, arity,
weight or tower layout) and the seed draws the values inside each shape, so
runs with different seeds do comparable work.

Scenes run the way the CLI runs them: scene text -> ``parse_scene`` ->
``run_scene`` -> ``canonical_json``.  The calls go through the
``charpres.scene`` module object so that the tracer's wrappers apply.
"""

from __future__ import annotations

import glob
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import charpres.scene as scene_mod
from charpres.scene import RunOptions

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Case:
    """One scene of a workload."""

    name: str
    text: str
    golden: Optional[str] = None                     # corpus: expected trace bytes
    oracle_tau: dict = field(default_factory=dict)   # analyze: record index -> oracle tau


@dataclass(frozen=True)
class Workload:
    name: str
    load: Callable[[int], list]                  # seed -> cases
    options: RunOptions
    check: Callable[[Case, dict, str], list]     # (case, doc, trace text) -> failures
    prepare: Optional[Callable[[Case], list]] = None     # untimed pre-pass -> failures


def run_case(case: Case, options: RunOptions):
    """Run one scene as the CLI does; returns the trace document and its text."""
    sc = scene_mod.parse_scene(case.text, case.name)
    doc = scene_mod.run_scene(sc, options)
    return doc, scene_mod.canonical_json(doc)


def _status_failures(doc: dict) -> list:
    if doc["status"] == "ok":
        return []
    bad = doc["records"][-1]
    return ["unexpected error in %r: %s" % (bad.get("command"), bad.get("error"))]


# -- corpus -----------------------------------------------------------------------
# Why: the 25 golden scenes are the repository's contract and the only workload
# that runs the translation oracle (tau_oracle_extension=2, the setting the
# goldens were made with).  Their polynomials are small, so per-call overhead
# weighs most here: constructors, dataclass validation, parsing and JSON.


def load_corpus(seed: int) -> list:
    """The golden corpus; the seed only orders each pass (see run.py)."""
    cases = []
    for path in sorted(glob.glob(os.path.join(REPO, "scenes", "*.scene"))):
        base = os.path.basename(path)
        golden = os.path.join(REPO, "scenes", "golden", base[:-len(".scene")] + ".trace.json")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        with open(golden, encoding="utf-8") as fh:
            cases.append(Case("scenes/" + base, text, golden=fh.read()))
    if not cases:
        raise FileNotFoundError("no scenes under %s" % os.path.join(REPO, "scenes"))
    return cases


def check_corpus(case: Case, doc: dict, text: str) -> list:
    if text == case.golden:
        return []
    _, where = scene_mod.verify_trace(text, case.golden)
    return ["golden mismatch: %s" % (where or "trace bytes differ")]


# -- analyze ----------------------------------------------------------------------
# Why: all rees and poly work -- saturation, tau, rref and strata, plus
# translate/substitute at closed points away from the origin.  Projection,
# blowup and monomial do none of it, so this workload bypasses what `towers`
# exercises.  Each generator is singular at the point P by construction: it is
# a sum of products of powers of (v - P_v) of total degree at least its weight.
# Which variable carries which power is fixed per cell of the grid, so the
# shape of every expansion, and with it the cost, is the same for every seed.

ANALYZE_VARS = ("x", "y", "z", "w")
# Weights per characteristic, for 3 and for 4 variables.  Q stops at 5 because
# rational arithmetic makes every weight step several times dearer than over
# F_p.  Over F_p the cost is not monotone in the weight (weights that are
# multiples of p are cheap), so each list mixes cheap and dear weights.  No
# scene takes more than a few percent of a pass, and a pass is short enough
# that every scene runs a dozen times or more in a timed phase.
ANALYZE_WEIGHTS = ((0, (2, 3, 4, 5, 5), (2, 3, 3, 4, 5)),
                   (2, (2, 4, 5, 8, 9), (3, 4, 5, 7, 8)),
                   (3, (3, 5, 6, 7, 8), (3, 4, 5, 6, 7)),
                   (5, (2, 4, 5, 9, 10), (3, 4, 5, 6, 10)),
                   (7, (2, 3, 4, 5, 6), (2, 3, 4, 5, 6)))
_Q_COORDS = ("1", "2", "-1", "1/2", "-2/3", "3")
_Q_COEFFS = ("", "2*", "3*", "1/2*", "-1*")


def _coord(rng: random.Random, p: int) -> str:
    return rng.choice(_Q_COORDS) if p == 0 else str(rng.randrange(1, p))


def _coeff(rng: random.Random, p: int) -> str:
    if p == 0:
        return rng.choice(_Q_COEFFS)
    c = rng.randrange(1, p)
    return "" if c == 1 else "%d*" % c


def _local_power(name: str, c: str, e: int) -> str:
    """(name - c)^e as scene text."""
    base = "(%s + %s)" % (name, c[1:]) if c.startswith("-") else "(%s - %s)" % (name, c)
    return base if e == 1 else "%s^%d" % (base, e)


def analyze_scene(rng: random.Random, p: int, nvars: int, weight: int, strata: int,
                  name: str) -> str:
    names = ANALYZE_VARS[:nvars]
    P = [_coord(rng, p) for _ in names]

    def u(i, e):
        return _local_power(names[i], P[i], e)

    k = weight // 2
    gen1 = "%s%s*%s + %s%s" % (_coeff(rng, p), u(0, weight - k), u(1, k),
                               _coeff(rng, p), u(2, weight))
    m = max(2, weight // 2)
    gen2 = "%s%s + %s" % (_coeff(rng, p), u(nvars - 1, m), u(0, m + 1))
    Q = [_coord(rng, p) for _ in names]
    L = sorted(rng.sample(names, strata))
    return "\n".join([
        "# %s: weights %d and %d, singular at P by construction" % (name, weight, m),
        "[field]", "characteristic: %d" % p, "",
        "[variables]", "vars: " + ", ".join(names), "",
        "[algebra]", "gen: %s W^%d" % (gen1, weight), "gen: %s W^%d" % (gen2, m), "",
        "[points]", "P = (%s)" % ", ".join(P), "Q = (%s)" % ", ".join(Q),
        "L = {%s}" % ", ".join(L), "",
        "[script]", "analyze at P", "analyze at Q", "analyze at L", ""])


def load_analyze(seed: int) -> list:
    """100 scenes: every cell of the grid twice, with a stratum L of one and of
    two variables."""
    rng = random.Random(seed)
    cases = []
    for p, *per_arity in ANALYZE_WEIGHTS:
        for nvars, weights in zip((3, 4), per_arity):
            for weight in weights:
                for strata in (1, 2):
                    name = "analyze-s%d-%03d.scene" % (seed, len(cases))
                    cases.append(Case(name, analyze_scene(rng, p, nvars, weight, strata,
                                                          name)))
    return cases


def prepare_analyze(case: Case) -> list:
    """Run the translation oracle over F_p once, outside the timed phase, and
    keep its tau per record for the check."""
    doc, _ = run_case(case, RunOptions(tau_oracle_extension=1))
    for i, rec in enumerate(doc["records"]):
        if "tau_oracle" in rec:
            case.oracle_tau[i] = rec["tau_oracle"]
    return ["oracle pass: %s" % f for f in _status_failures(doc)]


def check_analyze(case: Case, doc: dict, text: str) -> list:
    failures = _status_failures(doc)
    positive_char = doc["field"] != "Q"
    for i, rec in enumerate(doc["records"]):
        if rec.get("point") == "P" and rec.get("singular") is not True:
            failures.append("record %d: P is singular by construction but analyze says %s"
                            % (i, rec.get("singular")))
        if rec.get("singular") != rec.get("saturated_singular"):
            failures.append("record %d: singular %s but saturated_singular %s"
                            % (i, rec.get("singular"), rec.get("saturated_singular")))
        if "tau" in rec and positive_char and rec["tau"] != case.oracle_tau.get(i):
            failures.append("record %d: tau %s but the translation oracle gives %s"
                            % (i, rec["tau"], case.oracle_tau.get(i)))
    return failures


# -- towers -----------------------------------------------------------------------
# Why: blowup, projection and monomial do the work, and poly is used as
# substitution with exponents that keep growing.  Closed points appear only at
# the origin, where translate returns at once; saturation and tau never run.
# This bypasses what `analyze` exercises.
#
# Every tower is permissible by construction.  Section polynomials are
# z^n + (one or two monomials) and elimination generators are monomials, all in
# 2-3 "active" downstairs variables, each of which serves as a chart at least
# once so that it ends up carrying a divisor.  Degrees n are never powers of p,
# so no section polynomial ever needs cleaning.  Three layouts:
# - growing: active exponents start at or above the weight w.  A center
#   {sections, x_c, x_d} sends a_c to a_c + a_d - w, which keeps them there, and
#   {sections, x_c} is used only while a_c >= 2w.  These towers are mostly in
#   the strong monomial case and run the resolution game and its lift.
# - clipped: only centers {sections, x_c}, each lowering a_c by w, so a_c starts
#   at w times the number of x_c charts.  Crossing terms survive such centers
#   and the elimination part sits above the polynomials, so these towers are
#   designed to leave the strong monomial case and be refused by resolve.
# - experiment: a growing tower that, when it has one section, also runs stage
#   A/B.  These N <= 200 experiments are the dear tail of a pass, so they are
#   kept to two cells in seven: the median scene is a plain tower and the p90
#   scene an experiment.
# Exponents stay small: a blowup at most doubles the largest one, there are at
# most ten, and stage A/B multiplies the initial ones by at most N = 200.

TOWER_DOWN = ("x", "y", "w", "v")
TOWER_FIELDS = (2, 3, 5)
TOWER_SHAPES = ((3, 1), (4, 1), (4, 2), (5, 1), (5, 2))   # (arity, sections)
TOWER_LAYOUTS = ("experiment", "growing", "clipped", "growing",
                 "experiment", "clipped", "growing")        # per field and shape
TOWER_DEGREES = {2: (3,), 3: (2, 4), 5: (2, 3, 4)}       # no powers of p
EXPERIMENT_NS = (25, 50, 100)


def _monomial(names, exps) -> str:
    return "*".join(n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, exps) if e)


def _above(rng: random.Random, floors: list, act: list, extra: int) -> list:
    """Exponents at their floors plus `extra` units spread over the active
    variables at random; the total, and with it the slope, is fixed."""
    exps = list(floors)
    for _ in range(extra):
        exps[rng.choice(act)] += 1
    return exps


def _crossing(rng: random.Random, exps: list, act: list, floors: list) -> list:
    """A second monomial that loses to `exps` along the active variable with
    the most room above its floor and beats it along another (like x^5*y^4 +
    x^4*y^5), which can break monomiality at a deeper stratum.  Its total is
    not lower, so the slope is still that of `exps`."""
    k = max(act, key=lambda v: (exps[v] - floors[v], v))
    j = rng.choice([v for v in act if v != k])
    down = min(2, exps[k] - floors[k])
    out = list(exps)
    out[k] -= down
    out[j] += down + rng.randint(0, 1)
    return out


def tower_scene(rng: random.Random, p: int, nvars: int, nsec: int, layout: str,
                cell: int, name: str) -> str:
    """One tower scene.  The cell index fixes the sizes (active variables,
    blowups, degrees, weights, experiment N); the seed draws the rest."""
    secs = ["z"] if nsec == 1 else ["z1", "z2"]
    down = list(TOWER_DOWN[:nvars - nsec])
    nd = len(down)
    act = sorted(rng.sample(range(nd), 2 if nd == 2 else 2 + cell % 2))
    charts = rng.sample(act, len(act))
    charts += [rng.choice(act) for _ in range(6 + cell % 5 - len(charts))]
    clipped = layout == "clipped"

    def floors(w):
        return [(w * charts.count(k) if clipped else w) if k in act else 0
                for k in range(nd)]

    polys = []          # [(degree, [exponent lists], coefficient texts)]
    for i in range(len(secs)):
        n = TOWER_DEGREES[p][(cell + i) % len(TOWER_DEGREES[p])]
        low = floors(n)
        terms = [_above(rng, low, act, len(act))]
        if clipped or cell % 2:
            terms.append(_crossing(rng, terms[0], act, low))
        coeffs = [("%d*" % rng.randrange(2, p)) if p > 2 and rng.random() < 0.5 else ""
                  for _ in terms]
        polys.append((n, terms, coeffs))
    m = 2 + cell % 2
    if clipped:     # elimination orders above every polynomial slope
        tops = [max(-(-t[k] // n) for n, terms, _ in polys for t in terms) for k in range(nd)]
        elims = [[m * (tops[k] + 2) if k in act else 0 for k in range(nd)]]
    else:
        elims = [_above(rng, floors(m), act, m * len(act))]
        if cell % 3 == 0:
            elims.append(_crossing(rng, elims[0], act, floors(m)))
    script = ["[presentation]", "sections: " + ", ".join(secs)]
    for i, (n, terms, coeffs) in enumerate(polys):
        body = " + ".join(c + _monomial(down, t) for c, t in zip(coeffs, terms))
        script.append("poly %d: %s^%d + %s" % (i + 1, secs[i], n, body))
    script += ["elim: %s W^%d" % (_monomial(down, b), m) for b in elims]

    weighted = [(n, t) for n, terms, _ in polys for t in terms] + [(m, b) for b in elims]
    steps = []
    for c in charts:
        if clipped or (all(t[c] >= 2 * w for w, t in weighted) and rng.random() < 0.7):
            D = [c]
        else:
            D = [c, rng.choice([k for k in act if k != c])]
        for w, t in weighted:
            t[c] = sum(t[k] for k in D) - w
        steps.append("blowup: center = {%s}; chart = %s"
                     % (", ".join(secs + [down[k] for k in D]), down[c]))

    L1 = down[rng.choice(act)]
    L2 = ", ".join(sorted(down[k] for k in rng.sample(act, 2)))
    script += ["", "[points]", "L1 = {%s}" % L1, "L2 = {%s}" % L2, "", "[script]"]
    script += steps + ["hord at origin", "hord at L1", "hord at L2"]
    if nsec == 1 and layout == "experiment":
        for N in (EXPERIMENT_NS[cell % len(EXPERIMENT_NS)], 200):
            script.append("experiment q-from-presentation N=%d" % N)
    script += ["monomial-track", "strong-check", "resolve"]
    head = ["# %s: %s tower of %d blowups, permissible by construction"
            % (name, layout, len(steps)),
            "[field]", "characteristic: %d" % p, "",
            "[variables]", "vars: " + ", ".join(secs + down), ""]
    return "\n".join(head + script) + "\n"


def load_towers(seed: int) -> list:
    rng = random.Random(seed)
    cases = []
    for p in TOWER_FIELDS:
        for nvars, nsec in TOWER_SHAPES:
            for layout in TOWER_LAYOUTS:
                name = "towers-s%d-%02d.scene" % (seed, len(cases))
                cases.append(Case(name, tower_scene(rng, p, nvars, nsec, layout,
                                                    len(cases), name)))
    return cases


def check_towers(case: Case, doc: dict, text: str) -> list:
    """The laws: l_N = floor(N(q-1)-1) for every experiment; every sandwich row
    ok; strong towers resolve to an empty singular locus; non-strong towers
    carry a witness and the lift refuses them."""
    records = doc["records"]
    failures = []
    for rec in records:
        if rec["command"] == "experiment" and rec.get("agrees") is not True:
            failures.append("experiment N=%s: l=%s but the law gives %s"
                            % (rec.get("N"), rec.get("l"), rec.get("expected")))
        for row in rec.get("sandwich", ()):
            if not row["ok"]:
                failures.append("sandwich fails at stratum %s" % row["stratum"])
    checks = [r for r in records if r["command"] == "strong-check"]
    last = records[-1]
    if not checks:
        return failures + _status_failures(doc)
    if checks[0]["strong"]:
        failures += _status_failures(doc)
        if last["command"] != "resolve" or last.get("singular_after") != []:
            failures.append("strong tower did not resolve to an empty singular locus")
    else:
        if not checks[0]["witness"]:
            failures.append("non-strong tower without a witness")
        if doc["status"] != "error" or "lift refused" not in last.get("error", ""):
            failures.append("non-strong tower was not refused by resolve")
    return failures


WORKLOADS = {
    "corpus": Workload("corpus", load_corpus, RunOptions(tau_oracle_extension=2),
                       check_corpus),
    "analyze": Workload("analyze", load_analyze, RunOptions(), check_analyze,
                        prepare_analyze),
    "towers": Workload("towers", load_towers, RunOptions(), check_towers),
}
