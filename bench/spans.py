"""Per-layer tracing for the benchmark, from outside the library.

``Tracer.install()`` patches a wrapper over each traced function into every
``charpres`` module namespace that binds it (``scene`` imports
``diff_saturate`` by name, ``rees`` imports ``order_at``, and so on) and over
the traced ``MPoly`` methods on the class; ``uninstall()`` puts the originals
back.  Each wrapped call opens a span (name, start, end, parent, scene-run id).
Spans stay in memory until the run ends.

Self time is a span's duration minus the durations of its direct child spans.
The poly kernel operations (``KERNEL``) are leaves: a poly operation they call
in turn is counted but opens no span, so its time stays in the caller's self
time.  ``poly.translate.self_s`` is thus the whole cost of a shift, including
the substitutions and products it is built from; ``poly.from_dict.self_s`` is
only the time of constructor calls made outside the kernel, while
``poly.from_dict.calls`` counts every call.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

from charpres.errors import CharpresError

# metric prefix -> (module, attribute); "Class.name" names a method
TARGETS = {
    "poly.mul": ("charpres.poly", "MPoly.__mul__"),
    "poly.translate": ("charpres.poly", "MPoly.translate"),
    "poly.substitute": ("charpres.poly", "MPoly.substitute"),
    "poly.hasse_deriv": ("charpres.poly", "MPoly.hasse_deriv"),
    "poly.from_dict": ("charpres.poly", "MPoly.from_dict"),
    "poly.order_at": ("charpres.poly", "order_at"),
    "rees.diff_saturate": ("charpres.rees", "diff_saturate"),
    "rees.tau_at": ("charpres.rees", "tau_at"),
    "rees.rref": ("charpres.rees", "rref"),
    "rees.strata": ("charpres.rees", "singular_coordinate_strata"),
    "rees.oracle": ("charpres.rees", "tau_translation_oracle"),
    "projection.hord_data": ("charpres.projection", "hord_data"),
    "projection.normalize_poly": ("charpres.projection", "normalize_poly"),
    "blowup.blow_up_poly": ("charpres.blowup", "blow_up_poly"),
    "blowup.tower_step": ("charpres.blowup", "Tower.blow_up"),
    "blowup.stage_ab": ("charpres.blowup", "stage_ab_experiment"),
    "monomial.strong_check": ("charpres.monomial", "is_strong_monomial"),
    "monomial.resolve_game": ("charpres.monomial", "resolve_game"),
    "monomial.lift": ("charpres.monomial", "lift_resolution"),
    "monomial.sandwich": ("charpres.monomial", "sandwich_report"),
    "scene.parse": ("charpres.scene", "parse_scene"),
    "scene.run": ("charpres.scene", "run_scene"),
    "scene.json": ("charpres.scene", "canonical_json"),
}
KERNEL = frozenset({"poly.mul", "poly.translate", "poly.substitute",
                    "poly.hasse_deriv", "poly.from_dict"})
LAYERS = ("poly", "rees", "projection", "blowup", "monomial", "scene")


def _rref_cells(args, kwargs, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _oracle_vectors(args, kwargs, result):
    alg = args[0]
    m = args[2] if len(args) > 2 else kwargs.get("ext_degree", 1)
    return (alg.field.characteristic ** m) ** alg.nvars


# metric prefix -> (counter suffix, amount of work in one call)
WORK = {
    "poly.mul": ("terms_out", lambda a, k, r: len(r.terms)),
    "rees.diff_saturate": ("gens_out", lambda a, k, r: len(r.gens)),
    "rees.rref": ("cells", _rref_cells),
    "rees.oracle": ("vectors", _oracle_vectors),
    "projection.normalize_poly": ("iterations", lambda a, k, r: r.iterations),
    "monomial.resolve_game": ("moves", lambda a, k, r: len(r.moves)),
}

_REPORTED = (
    ("poly.mul", "calls self_s terms_out"),
    ("poly.translate", "calls self_s"),
    ("poly.substitute", "calls self_s"),
    ("poly.hasse_deriv", "calls self_s"),
    ("poly.from_dict", "calls self_s"),
    ("poly.order_at", "calls self_s"),
    ("rees.diff_saturate", "calls self_s gens_out useful_ratio"),
    ("rees.tau_at", "calls self_s"),
    ("rees.rref", "calls self_s cells"),
    ("rees.strata", "self_s"),
    ("rees.oracle", "calls self_s vectors"),
    ("projection.hord_data", "calls self_s"),
    ("projection.normalize_poly", "calls self_s iterations"),
    ("blowup.blow_up_poly", "calls self_s"),
    ("blowup.tower_step", "calls self_s"),
    ("blowup.stage_ab", "calls self_s"),
    ("monomial.strong_check", "self_s"),
    ("monomial.resolve_game", "self_s moves"),
    ("monomial.lift", "self_s"),
    ("monomial.sandwich", "self_s"),
    ("scene.parse", "self_s"),
    ("scene.run", "self_s"),
    ("scene.json", "self_s"),
)
_UNITS = {"self_s": "s", "useful_ratio": "ratio"}

# The per-layer metrics a traced run reports, with their units.
METRICS = (tuple(("%s.%s" % (name, kind), _UNITS.get(kind, "count"))
                 for name, kinds in _REPORTED for kind in kinds.split())
           + tuple(("%s.errors" % layer, "count") for layer in LAYERS)
           + (("trace.overhead_s", "s"),))


def self_times(spans) -> Counter:
    """Total self time per span name.  A span is (id, parent id or -1, run id,
    name, start, end); ids index the list."""
    child = [0.0] * len(spans)
    for sid, parent, _, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out = Counter()
    for sid, _, _, name, start, end in spans:
        out[name] += (end - start) - child[sid]
    return out


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []          # [id, parent, run id, name, start, end]
        self.stack = []          # ids of open spans
        self.open = Counter()    # open spans per name
        self.calls = Counter()
        self.work = Counter()    # "<name>.<counter>" -> amount
        self.errors = Counter()  # layer -> CharpresErrors raised out of wrapped calls
        self.run_id = 0
        self._patches = []

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        work = WORK.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self.calls[name] += 1
            absorbed = bool(stack) and spans[stack[-1]][3] in KERNEL
            if not absorbed:
                sid = len(spans)
                spans.append([sid, stack[-1] if stack else -1, self.run_id, name, clock(), 0.0])
                stack.append(sid)
                self.open[name] += 1
            try:
                result = fn(*args, **kwargs)
            except CharpresError as exc:
                self._count_error(layer, exc)
                raise
            finally:
                if not absorbed:
                    spans[sid][5] = clock()
                    stack.pop()
                    self.open[name] -= 1
            if work is not None:
                self.work["%s.%s" % (name, work[0])] += work[1](args, kwargs, result)
            return result

        return traced

    def _count_error(self, layer, exc):
        # an error crossing several wrapped calls of one layer counts once there
        seen = exc.__dict__.setdefault("_bench_layers", set())
        if layer not in seen:
            seen.add(layer)
            self.errors[layer] += 1

    def _count_derivative(self, fn):
        def counted(*args, **kwargs):
            if self.open["rees.diff_saturate"]:
                self.work["rees.diff_saturate.derivs"] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching ----------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "charpres" or n.startswith("charpres.")]
        for name, (modname, path) in TARGETS.items():
            module = importlib.import_module(modname)
            owner, _, attr = path.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self._wrap(name, raw))
            else:
                orig = getattr(module, path)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, attr, wrapper)
        poly = importlib.import_module("charpres.poly")
        self._patch(poly.MPoly, "hasse_deriv_multi",
                    self._count_derivative(poly.MPoly.__dict__["hasse_deriv_multi"]))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric in METRICS, as {name: (value, unit)}."""
        values = Counter()
        for name, total in self_times(self.spans).items():
            values[name + ".self_s"] = total
        for name, n in self.calls.items():
            values[name + ".calls"] = n
        values.update(self.work)
        derivs = self.work["rees.diff_saturate.derivs"]
        values["rees.diff_saturate.useful_ratio"] = (
            values["rees.diff_saturate.gens_out"] / derivs if derivs else 0.0)
        for layer in LAYERS:
            values[layer + ".errors"] = self.errors[layer]
        values["trace.overhead_s"] = overhead_s
        return {name: (values[name], unit) for name, unit in METRICS}

    def write(self, path: str):
        """Write the spans as JSON lines: id, parent, run, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
