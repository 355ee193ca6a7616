"""The charpres benchmark.

    python3 bench/run.py --workload {corpus,analyze,towers,all} --seed N
                         [--seconds S] [--trace 0|1]

Runs scenes the way the CLI does (scene text -> parse_scene -> run_scene ->
canonical_json) in a closed loop: one process, one thread, one scene after
another.  Every trace is checked (see workloads.py).  Human-readable lines go
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs the three workloads one after another, each in a fresh process, and
exits with the worst of their exit codes.

--trace 0 (default) measures the end-to-end metrics.  The timed phase runs
passes over the workload's scenes, each pass in an order drawn from the seed,
until --seconds have elapsed and 3 passes and 100 scene runs are complete.
The host is shared, and for seconds to minutes at a time it runs this process
up to twice as slow.  So after every scene the phase times
reference_kernel(), fixed pure-Python work that uses no charpres code; the
mean kernel time over the phase, against REFERENCE_MS, is the host's slowdown
during the phase, and every time below is divided by it.  The times are thus
in milliseconds of a host that runs the kernel in REFERENCE_MS; the raw
figures are printed too.
  scenes_per_s   scene runs completed and checked per second
  scene_ms_p50   per-scene latency, median over all scene runs
  scene_ms_p90   per-scene latency, 90th percentile over all scene runs (at
                 least ten samples lie beyond it)
  setup_s        median over fresh processes of the time from process start to
                 ready-to-run: importing charpres and reading or generating
                 the workload's scene texts; its slowdown comes from kernels
                 timed between those processes
  peak_rss_mb    peak resident memory of this process
The error rate, failed checks over scene runs attempted, is printed too and
carried by ``failed`` and ``attempted``.

--trace 1 runs one fixed list of scenes (so that counts repeat for a seed)
untraced twice, the first time as a warm-up, and then traced.  It reports the
per-layer metrics of spans.py and the tracing overhead: traced wall time minus
untraced wall time.  The spans
are written to .bench_out/spans-<workload>.jsonl in the checkout, replacing
those of the previous traced run of the workload.

Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
checkout lacks the library sources or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

MIN_PASSES = 3           # every scene runs at least 3 times
MIN_SAMPLES = 100        # so that at least ten samples lie beyond p90
REFERENCE_MS = 0.90      # best time of reference_kernel() on the baseline host
SETUP_PROBES = 9         # fresh processes timed for setup_s
KERNELS_PER_PROBE = 40   # reference kernels timed before each of them
TRACE_PASSES = {"corpus": 10, "analyze": 1, "towers": 1}
MAX_REPORTED = 20        # distinct failures printed in full
END_TO_END = (("scenes_per_s", "1/s"), ("scene_ms_p50", "ms"), ("scene_ms_p90", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description="charpres benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("corpus", "analyze", "towers", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="load the workload, print 'ready' and exit (times setup_s)")
    return ap.parse_args(argv)


class Checker:
    """Counts scene runs and failed checks; prints each distinct failure once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reported = set()

    def record(self, scene: str, failures) -> None:
        self.attempted += 1
        if not failures:
            return
        self.failed += 1
        for f in failures:
            if (scene, f) not in self.reported and len(self.reported) < MAX_REPORTED:
                self.reported.add((scene, f))
                print("FAIL %s: %s" % (scene, f), file=sys.stderr)


def passes(cases, seed):
    """Endless passes over the cases, each in its own order drawn from the seed."""
    rng = random.Random("order-%d" % seed)
    while True:
        order = list(cases)
        rng.shuffle(order)
        yield order


def reference_kernel() -> int:
    """Fixed work that uses no charpres code, so that no change to the library
    moves its time: a product of two sparse polynomials over F_7 held as dicts
    of exponent tuples, the kind of work the library's own kernels do."""
    a = {(i, j, i * j % 5): (i + 2 * j) % 7 + 1 for i in range(12) for j in range(12)}
    b = {(i, (i + j) % 4, j): (3 * i + j) % 7 + 1 for i in range(6) for j in range(5)}
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[k] = (out.get(k, 0) + va * vb) % 7
    return len(out)


def time_kernel(times: list, n: int) -> None:
    """Append the times of n runs of reference_kernel(), made with the
    collector off so that the library's heap cannot slow them."""
    gc.disable()
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()


def slowdown(kernel_times: list) -> float:
    """How many times slower than REFERENCE_MS the kernel ran on average."""
    return 1000.0 * statistics.mean(kernel_times) / REFERENCE_MS


def timed_phase(workloads, workload, cases, checker, seed, seconds):
    """Run passes until `seconds` have elapsed, MIN_PASSES passes are complete
    and there are MIN_SAMPLES latencies; the last pass stops where the time
    ran out.  After each scene, time reference_kernel() once.  Returns the
    scene latencies and the kernel times."""
    latencies, kernel = [], []
    clock = time.perf_counter
    start = clock()
    for done, order in enumerate(passes(cases, seed)):
        for case in order:
            if (done >= MIN_PASSES and len(latencies) >= MIN_SAMPLES
                    and clock() - start >= seconds):
                return latencies, kernel
            t0 = clock()
            doc, text = workloads.run_case(case, workload.options)
            latencies.append(clock() - t0)
            checker.record(case.name, workload.check(case, doc, text))
            time_kernel(kernel, 1)


def measure_setup(args):
    """Median time from spawning a fresh interpreter to its 'ready' line, and
    the host slowdown measured by reference kernels timed between the probes."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times, kernel = [], []
    for _ in range(SETUP_PROBES):
        time_kernel(kernel, KERNELS_PER_PROBE)
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=REPO, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed with exit code %s" % proc.returncode)
        times.append(elapsed)
    return statistics.median(times), slowdown(kernel)


def run_untraced(args, workloads, workload, cases, checker):
    setup_raw, setup_slowdown = measure_setup(args)
    latencies, kernel = timed_phase(workloads, workload, cases, checker,
                                    args.seed, args.seconds)
    phase_slowdown = slowdown(kernel)
    raw = sorted(1000.0 * t for t in latencies)
    ms = [t / phase_slowdown for t in raw]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("samples: %d scene runs of %d scenes" % (len(ms), len(cases)))
    print("host slowdown against %.2f ms of reference kernel: %.4f in set-up, "
          "%.4f in the timed phase" % (REFERENCE_MS, setup_slowdown, phase_slowdown))
    print("raw: %.6f scenes/s, p50 %.6f ms, p90 %.6f ms, setup %.6f s"
          % (len(raw) / sum(latencies), statistics.median(raw),
             statistics.quantiles(raw, n=10)[8], setup_raw))
    values = {"scenes_per_s": len(ms) / sum(ms) * 1000.0,
              "scene_ms_p50": statistics.median(ms),
              "scene_ms_p90": statistics.quantiles(ms, n=10)[8],
              "setup_s": setup_raw / setup_slowdown,
              "peak_rss_mb": peak}
    return {name: (values[name], unit) for name, unit in END_TO_END}


def run_traced(args, workloads, workload, cases, checker):
    import spans

    order = [case for _, batch in zip(range(TRACE_PASSES[workload.name]),
                                      passes(cases, args.seed)) for case in batch]

    def one_pass(tracer=None):
        t0 = time.perf_counter()
        for run_id, case in enumerate(order):
            if tracer is not None:
                tracer.run_id = run_id
            doc, text = workloads.run_case(case, workload.options)
            checker.record(case.name, workload.check(case, doc, text))
        return time.perf_counter() - t0

    one_pass()      # warm-up, so that the untraced pass is not the first
    untraced = one_pass()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = one_pass(tracer)
    finally:
        tracer.uninstall()
    out_dir = os.path.join(REPO, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, "spans-%s.jsonl" % workload.name))
    print("traced %d scene runs: %.3f s untraced, %.3f s traced, %d spans"
          % (len(order), untraced, traced, len(tracer.spans)))
    return tracer.metrics(traced - untraced)


def run_all(args) -> int:
    codes = []
    for name in ("corpus", "analyze", "towers"):
        print("== %s" % name, flush=True)
        codes.append(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=REPO).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "charpres", "__init__.py")):
        print("charpres sources not found under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    cases = workload.load(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    checker = Checker()
    if workload.prepare is not None:
        for case in cases:
            checker.record(case.name, workload.prepare(case))
    if args.trace:
        metrics = run_traced(args, workloads, workload, cases, checker)
    else:
        metrics = run_untraced(args, workloads, workload, cases, checker)
    failed = checker.failed
    error_rate = failed / checker.attempted
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6f %s" % (name, value, unit))
    print("%-34s %14.6f %s" % ("error_rate", error_rate, "ratio"))
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
