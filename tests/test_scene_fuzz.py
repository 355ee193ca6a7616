"""Robustness fuzz: mangled golden scenes through the CLI.

Each example takes one scene of the golden corpus and deletes a line,
duplicates a line or replaces one character, then runs `charpres.cli.main`
in-process on the result.  Whatever the damage, the CLI must answer with a
trace, a command error or a parse error (exit 0, 1 or 2), in at most one
line of stderr and never with a traceback; exit 3 means a bug in the
library.

A second test appends one well-formed command with a drawn argument to a
golden scene: a blowup over any set of variables, the empty one included;
slope, hord or analyze at the origin, at a closed point or at the generic
point of any variables, section variables included; or the experiment for
any N >= 0.  An argument outside a command's domain must give a command
error (exit 1), and a point coordinate the field cannot hold, such as 1/2
over F_2, a parse error (exit 2), each with one line on stderr.

The tests skip when hypothesis is not installed; it is not a runtime
dependency.
"""

import contextlib
import glob
import io
import os
import re
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


@st.composite
def scenes_with_a_command(draw):
    with open(draw(st.sampled_from(SCENES)), encoding="utf-8") as fh:
        text = fh.read()
    names = re.search(r"^vars:(.*)$", text, re.M).group(1).replace(" ", "").split(",")
    a_name = st.sampled_from(names)
    kind = draw(st.sampled_from(("blowup", "slope", "hord", "analyze", "experiment")))
    if kind == "blowup":
        return text + "\n[script]\nblowup: center = {%s}; chart = %s\n" % (
            ", ".join(draw(st.lists(a_name, unique=True))), draw(a_name))
    if kind == "experiment":
        N = draw(st.one_of(st.integers(0, 40), st.sampled_from((10 ** 6, 10 ** 30))))
        return text + "\n[script]\nexperiment q-from-presentation N=%d\n" % N
    point = draw(st.one_of(
        st.just(None),
        st.lists(a_name, unique=True, min_size=1).map(lambda vs: "{%s}" % ", ".join(vs)),
        st.lists(st.sampled_from(("0", "1", "-1", "2", "1/2")), min_size=len(names),
                 max_size=len(names)).map(lambda cs: "(%s)" % ", ".join(cs))))
    if point is None:
        return text + "\n[script]\n%s at origin\n" % kind
    return text + "\n[points]\nfuzzed = %s\n[script]\n%s at fuzzed\n" % (point, kind)


def _run_cli(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzzed.scene")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--scene", path])
    return code, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(mangled_scenes())
def test_mangled_scene_exits_cleanly(text):
    code, err = _run_cli(text)
    assert code in (0, 1, 2), err
    assert len(err.splitlines()) <= 1, err
    assert "Traceback" not in err


@settings(max_examples=50, deadline=None)
@given(scenes_with_a_command())
def test_command_with_a_drawn_argument_exits_cleanly(text):
    code, err = _run_cli(text)
    assert code in (0, 1, 2), err
    assert len(err.splitlines()) == (code != 0), err
