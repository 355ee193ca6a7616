"""The benchmark workloads' traces, pinned byte for byte.

Each case runs one seed of one workload of `bench/workloads.py` the way the
benchmark does (scene text -> parse -> run -> canonical JSON) and hashes the
concatenated trace texts of its scenes in load order.  A change to the
library that is meant to leave every trace as it was must keep these hashes;
a change to the benchmark's scene generators must pin them again.  The
corpus traces do not depend on the seed, so its two hashes are equal.
"""

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

PINNED = {
    ("corpus", 1): "700dc1f55d215fb88eaf846fdc11ddc7e3a74ecaa1ed4ff8961fc46c0f8fdead",
    ("corpus", 2): "700dc1f55d215fb88eaf846fdc11ddc7e3a74ecaa1ed4ff8961fc46c0f8fdead",
    ("analyze", 1): "c79470a9840921b5791e94a5b3853e30c9528ea470cdebbdc62b6e3d1fc79917",
    ("analyze", 2): "3397ddc913830497844febfe9efb98d9da855c3a9454ceddea77316b1acf0a23",
    ("towers", 1): "6810883697fe5d65895021efb617afa99e73882944c564017311c404d2b211d9",
    ("towers", 2): "0d38e9283151158bdef583680209c8263005c44ff7188b7dbb11666a7f4b9454",
}


@pytest.mark.parametrize("name,seed", sorted(PINNED))
def test_workload_traces_are_pinned(name, seed):
    workload = workloads.WORKLOADS[name]
    digest = hashlib.sha256()
    for case in workload.load(seed):
        text = workloads.run_case(case, workload.options)[1]
        digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == PINNED[name, seed]
