"""Tests of the benchmark itself: python -m pytest bench"""

import copy
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "bench"))

import charpres.poly  # noqa: E402
import charpres.rees  # noqa: E402
import charpres.scene  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402


def test_fixed_seed_gives_identical_scenes():
    for load in (workloads.load_analyze, workloads.load_towers):
        first = [c.text for c in load(7)]
        assert first == [c.text for c in load(7)]
        assert first != [c.text for c in load(8)]


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4], which holds c [2, 3]; a also holds c [5, 6]
    synthetic = [[0, -1, 0, "a", 0.0, 10.0],
                 [1, 0, 0, "b", 1.0, 4.0],
                 [2, 1, 0, "c", 2.0, 3.0],
                 [3, 0, 0, "c", 5.0, 6.0]]
    assert spans.self_times(synthetic) == {"a": 6.0, "b": 2.0, "c": 2.0}


def test_corpus_check_reports_one_altered_byte(tmp_path):
    case = next(c for c in workloads.load_corpus(0) if c.name.endswith("t01_strong_char2.scene"))
    altered = tmp_path / "t01.trace.json"
    altered.write_text(case.golden.replace('"status":"ok"', '"status":"oK"'), encoding="utf-8")
    bad = workloads.Case(case.name, case.text, golden=altered.read_text(encoding="utf-8"))
    doc, text = workloads.run_case(bad, workloads.WORKLOADS["corpus"].options)
    assert workloads.check_corpus(case, doc, text) == []
    failures = workloads.check_corpus(bad, doc, text)
    assert failures == ["golden mismatch: $.status: 'ok' != 'oK'"]


def test_towers_check_flags_a_broken_law():
    case = next(c for c in workloads.load_towers(3) if "experiment" in c.text)
    doc, text = workloads.run_case(case, workloads.WORKLOADS["towers"].options)
    assert workloads.check_towers(case, doc, text) == []
    broken = copy.deepcopy(doc)
    rec = next(r for r in broken["records"] if r["command"] == "experiment")
    rec["agrees"] = False
    failures = workloads.check_towers(case, broken, text)
    assert len(failures) == 1 and failures[0].startswith("experiment N=")


def test_tracing_keeps_traces_and_restores_the_library():
    originals = (charpres.poly.MPoly.__dict__["from_dict"], charpres.poly.MPoly.__mul__,
                 charpres.rees.order_at, charpres.scene.diff_saturate)
    case = next(c for c in workloads.load_corpus(0) if c.name.endswith("a01_tau_char2.scene"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert charpres.scene.diff_saturate is charpres.rees.diff_saturate
        assert charpres.rees.order_at is not originals[2]
        doc, text = workloads.run_case(case, workloads.WORKLOADS["corpus"].options)
    finally:
        tracer.uninstall()
    assert text == case.golden
    assert originals == (charpres.poly.MPoly.__dict__["from_dict"], charpres.poly.MPoly.__mul__,
                         charpres.rees.order_at, charpres.scene.diff_saturate)
    metrics = tracer.metrics(0.0)
    assert metrics["rees.diff_saturate.calls"][0] > 0
    assert metrics["rees.oracle.calls"][0] == case.golden.count('"tau_oracle"') > 0
    assert metrics["scene.run.self_s"][0] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == [name for name, _ in spans.METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [unit for _, unit in spans.METRICS]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
