"""Robustness fuzz: mangled golden scenes through the CLI.

Each example takes one scene of the golden corpus and deletes a line,
duplicates a line or replaces one character, then runs `charpres.cli.main`
in-process on the result.  Whatever the damage, the CLI must answer with a
trace, a command error or a parse error (exit 0, 1 or 2), in at most one
line of stderr and never with a traceback; exit 3 means a bug in the
library.  The test skips when hypothesis is not installed; it is not a
runtime dependency.
"""

import contextlib
import glob
import io
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import given, settings  # noqa: E402

from charpres.cli import main  # noqa: E402

SCENES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "scenes",
                                       "*.scene")))
# characters the scene syntax gives meaning to, plus a few it does not
ALPHABET = "0123456789xyzwW^*+-=/(),:;{}[]# \nab?"


@st.composite
def mangled_scenes(draw):
    with open(draw(st.sampled_from(SCENES)), encoding="utf-8") as fh:
        text = fh.read()
    how = draw(st.sampled_from(("delete", "duplicate", "replace")))
    if how == "replace":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + draw(st.sampled_from(ALPHABET)) + text[i + 1:]
    lines = text.splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if how == "delete":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "".join(lines)


@settings(max_examples=50, deadline=None)
@given(mangled_scenes())
def test_mangled_scene_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mangled.scene")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--scene", path])
    err = err.getvalue()
    assert code in (0, 1, 2), err
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in err
