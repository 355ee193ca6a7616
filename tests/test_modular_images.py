"""The Q paths of `analyze`, checked against their images over F_ell.

Every coefficient and coordinate of these scenes is an integer or a fraction
with a small denominator, so the scene also reads over F_ell for a large prime
ell.  Reduction mod ell can only raise an order, and it leaves every other
invariant alone unless ell divides one of the finitely many determinants the
computation takes.  So a record whose order over F_ell is below its order
over Q is wrong at once, and one that differs from Q at both primes is
wrong; a difference at one prime only is an unlucky prime, counted and
printed, not failed.
"""

import sys
from pathlib import Path

import pytest

from charpres.scene import parse_scene, run_scene
from oracles import modular_image

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402

SCENES = Path(__file__).resolve().parent.parent / "scenes"
PRIMES = (2 ** 61 - 1, 2 ** 31 - 1)
KEYS = ("ord", "singular", "saturated_singular", "singular_strata", "tau")


def _q_scenes():
    cases = [(case.name, case.text) for case in workloads.load_analyze(1)
             if "characteristic: 0\n" in case.text]
    path = SCENES / "a02_tau_char0.scene"
    cases.append((path.name, path.read_text(encoding="utf-8")))
    return [pytest.param(name, text, id=name) for name, text in cases]


def _invariants(text: str) -> list:
    doc = run_scene(parse_scene(text))
    assert doc["status"] == "ok", doc["records"][-1]
    return [{k: rec[k] for k in KEYS if k in rec} for rec in doc["records"]]


def compare_with_images(text: str) -> int:
    """Run a Q scene and its images at PRIMES under the rules above; return
    the number of records that differ from Q at one prime only."""
    over_q = _invariants(text)
    images = [_invariants(modular_image(text, ell)) for ell in PRIMES]
    unlucky = 0
    for i, rec in enumerate(over_q):
        at_ell = [image[i] for image in images]
        for ell, other in zip(PRIMES, at_ell):
            assert other["ord"] >= rec["ord"], (i, ell, other["ord"], rec["ord"])
        assert rec in at_ell, (i, rec, at_ell)
        unlucky += at_ell.count(rec) < len(PRIMES)
    return unlucky


@pytest.mark.parametrize("name,text", _q_scenes())
def test_modular_images_agree_with_q(name, text, capsys):
    unlucky = compare_with_images(text)
    if unlucky:
        with capsys.disabled():
            print("\n%s: %d record(s) differ at one prime" % (name, unlucky))
