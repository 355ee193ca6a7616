"""The internal consistency checks are live: each test breaks the premise of
one check with a monkeypatch and requires its `InvariantError`, from the
library call and from the console, which exits 3 with one line on stderr."""

import dataclasses
import os

import pytest

from charpres import monomial, projection, rees
from charpres.blowup import Chart
from charpres.cli import main
from charpres.errors import InvariantError
from charpres.monomial import MonomialAlg, resolve_game
from charpres.poly import ClosedPoint, MPoly
from charpres.scene import parse_scene

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")

ORIGIN2 = ClosedPoint((0, 0))
ORIGIN3 = ClosedPoint((0, 0, 0))

# over F_2, z^2 + x^2 + x^3 has slope 1 at the origin, and cleaning by
# z -> z - x raises it to 3/2
CLEANED = """\
[field]
characteristic: 2
[variables]
vars: z, x, y
[presentation]
sections: z
%s
poly 1: z^2 + x^2 + x^3
[script]
%s
"""


def _algebra_scene(p):
    return ("[field]\ncharacteristic: %d\n[variables]\nvars: x, y\n[algebra]\n"
            "gen: x^2 W^2\n[script]\nanalyze at origin\n" % p)


def _console_exits_3(tmp_path, capsys, text, message, *flags):
    scene = tmp_path / "s.scene"
    scene.write_text(text)
    assert main(["--scene", str(scene), *flags]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: InvariantError: %s\n" % message


def test_tau_above_a_stratum_codimension_is_an_invariant_error(monkeypatch, tmp_path,
                                                               capsys):
    # x^2 W^2 is singular along x = 0, of codimension 1; a kernel that
    # returns every coordinate as an additive form makes tau 2
    monkeypatch.setattr(rees, "_additive_forms_in_degree",
                        lambda forms, degree, field, nvars: [{i: 1} for i in range(nvars)])
    message = "tau exceeded the codimension of a coordinate singular stratum"
    alg = parse_scene(_algebra_scene(2)).algebra
    with pytest.raises(InvariantError, match="^%s$" % message):
        rees.tau_at(alg, ORIGIN2)
    _console_exits_3(tmp_path, capsys, _algebra_scene(2), message)


def test_a_translation_count_off_the_field_size_is_an_invariant_error(monkeypatch,
                                                                      tmp_path, capsys):
    # a field that lists zero twice: over F_3 the translations (0, v) fixing
    # x^2 number 2 * 4 = 8, not a power of 3
    elements = rees.SmallExtField.elements
    monkeypatch.setattr(rees.SmallExtField, "elements",
                        lambda self: [*elements(self), self.zero()])
    message = "fixed-translation count is not a power of the field size"
    alg = parse_scene(_algebra_scene(3)).algebra
    with pytest.raises(InvariantError, match="^%s$" % message):
        rees.tau_translation_oracle(alg, ORIGIN2, 1)
    _console_exits_3(tmp_path, capsys, _algebra_scene(3), message,
                     "--tau-oracle-field-extension", "1")


def test_cleaning_that_does_not_raise_the_slope_is_an_invariant_error(monkeypatch,
                                                                      tmp_path, capsys):
    # a wrong root, x + y for x: z -> z - x - y leaves z^2 + y^2 + x^3 of
    # slope 1 again
    weighted_root = projection._weighted_root

    def wrong_root(f, z_index, y, q):
        A = weighted_root(f, z_index, y, q)
        return None if A is None else A + MPoly.var(f.field, f.nvars, 2)

    monkeypatch.setattr(projection, "_weighted_root", wrong_root)
    message = "normalization must strictly increase the slope"
    text = CLEANED % ("", "slope at origin")
    f = parse_scene(text).presentation.polys[0]
    with pytest.raises(InvariantError, match="^%s$" % message):
        projection.normalize_poly(f, 0, ORIGIN3)
    _console_exits_3(tmp_path, capsys, text, message)


def test_membership_against_a_wrong_fiber_test_is_an_invariant_error(monkeypatch,
                                                                     tmp_path, capsys):
    sing_member = projection.sing_member
    monkeypatch.setattr(projection, "sing_member", lambda alg, pt: not sing_member(alg, pt))
    message = "projection membership disagrees with the fiber test"
    text = CLEANED.replace("x^2 + x^3", "x^3") % ("elim: x^3 W^2", "slope at origin")
    with pytest.raises(InvariantError, match="^%s$" % message):
        projection.membership_criterion(parse_scene(text).presentation, ORIGIN3)
    _console_exits_3(tmp_path, capsys, text, message)


def test_p_presentation_formulas_that_disagree_are_an_invariant_error(monkeypatch,
                                                                      tmp_path, capsys):
    # an H-order one above the cleaned constant coefficient's slope 3/2,
    # with no middle coefficient to blame
    normalize = projection.normalize

    def off_by_one(sp, y):
        data = normalize(sp, y)
        return dataclasses.replace(data, value=data.value + 1)

    monkeypatch.setattr(projection, "normalize", off_by_one)
    message = "p-presentation H-order formulas disagree"
    text = CLEANED % ("kind: p", "hord at origin")
    with pytest.raises(InvariantError, match="^%s$" % message):
        projection.hord_data(parse_scene(text).presentation, ORIGIN3)
    _console_exits_3(tmp_path, capsys, text, message)


def test_a_game_on_a_complex_without_its_faces_is_an_invariant_error(monkeypatch, capsys):
    # the minimal qualifying strata are found by dropping one divisor, which
    # needs the complex to hold every face; without the single divisors the
    # game stops with H1&H2 still qualifying
    subsets = monomial.nonempty_subsets
    monkeypatch.setattr(monomial, "nonempty_subsets",
                        lambda items: [S for S in subsets(items) if len(S) > 1])
    message = "game ended with a qualifying stratum left"
    chart = Chart(("z", "x", "y"), (("H1", 1), ("H2", 2)))
    with pytest.raises(InvariantError, match="^%s$" % message):
        resolve_game(MonomialAlg(2, (("H1", 3), ("H2", 3))), chart)
    assert main(["resolve", "--scene", os.path.join(SCENES, "t01_strong_char2.scene")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: InvariantError: %s\n" % message
