"""The monomial algebra attached to a tower, the strong-monomial-case test,
the combinatorial resolution game, and its lift back upstairs.

Exponents live on exceptional-divisor labels.  The game plays on the
incidence complex of the divisors present in one chart: a move either lowers
a single divisor's exponent or blows up a deeper stratum, subdividing the
complex.  The chosen move rule (inclusion-minimal qualifying stratum, deepest
first, oldest labels breaking ties) terminates: every qualifying stratum the
move creates has strictly smaller excess than a qualifying stratum it
destroys, so the multiset of excesses decreases in the Dershowitz-Manna
order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (InputError, InvariantError, NonMonomialElimError,
                     PermissibilityError, TrackingError)
from .poly import INF, GenericPoint
from .projection import SimplifiedPresentation, hord, hord_data, upstairs_algebra
from .rees import nonempty_subsets, sing_member
from .blowup import Center, Chart, Tower, _origin


@dataclass(unsafe_hash=True)
class MonomialAlg:
    """I(H_1)^(h_1/s)...I(H_r)^(h_r/s) as integer exponents over a common s."""

    s: int
    exponents: tuple     # tuple[(label, int)], creation order

    def __post_init__(self):
        if self.s < 1:
            raise InputError("the common denominator must be positive")
        if any(h < 0 for _, h in self.exponents):
            raise InputError("exponents must be non-negative")
        labels = [lab for lab, _ in self.exponents]
        if len(set(labels)) != len(labels):
            raise InputError("duplicate divisor label")


def track_monomial(tower: Tower) -> MonomialAlg:
    """Attach the monomial algebra of a presentation tower: the divisor born
    at step i carries exponent h_i/s = hord(state before step i at the
    downstairs generic point of the center) - 1.  Kept in tower.memo for
    the tower's current state."""
    M = tower.memo.get("monomial")
    if M is None:
        M = tower.memo["monomial"] = _track_monomial(tower)
    return M


def _track_monomial(tower: Tower) -> MonomialAlg:
    states = tower.states()
    if not isinstance(states[0], SimplifiedPresentation):
        raise TrackingError("monomial tracking needs a presentation tower")
    values = []
    labels = []
    for i, st in enumerate(tower.steps):
        sp = states[i]
        downstairs = frozenset(st.center) - frozenset(sp.sections)
        if not downstairs:
            raise TrackingError("center has no downstairs part")
        q = hord(sp, GenericPoint(downstairs))
        if q == INF:
            raise TrackingError("H-order is infinite at a center")
        if q < 1:
            raise TrackingError("center with H-order below 1 is impermissible")
        values.append(q - 1)
        labels.append(st.chart.divisors[-1][0])
    # each value is in lowest terms, so s and the exponents share no factor
    s = math.lcm(*[v.denominator for v in values])
    exps = tuple((lab, int(v * s)) for lab, v in zip(labels, values))
    return MonomialAlg(s, exps)


# -- strong monomial case --------------------------------------------------------


@dataclass(unsafe_hash=True)
class StrongCheckResult:
    strong: bool
    monomial: MonomialAlg
    witness: Optional[dict]
    checked: tuple       # records per checked point


def is_strong_monomial(tower: Tower) -> StrongCheckResult:
    """Does the H-order equal the monomial order everywhere it can be tested?

    Tested at the generic points of all present-divisor strata, read from
    the rows of `sandwich_report`, and at the chart origin ("point 1"), as
    the lift's end test is; additionally the monomial algebra must divide
    each (monomial) elimination generator, which makes the elimination
    branch collapse onto the monomial algebra locally.
    The witness is the first failing comparison.  The result is kept in
    tower.memo for the tower's current state.
    """
    res = tower.memo.get("strong")
    if res is None:
        res = tower.memo["strong"] = _strong_check(tower)
    return res


def _strong_check(tower: Tower) -> StrongCheckResult:
    M = track_monomial(tower)
    sp = tower.obj
    present = tower.chart.present_divisors()
    monomial = tuple((lab, h) for lab, h in M.exponents if present.get(lab) is not None)
    labels = [lab for lab, _ in monomial]
    # every elimination generator must be a monomial in the present divisors,
    # read as {label: exponent}, before any is compared
    label_of = {v: lab for lab, v in present.items()}
    elim = []
    for g, m in sp.elim.gens:
        if not g.is_single_term():
            raise NonMonomialElimError("elimination generator is not a monomial")
        exps = {}
        for v, e in enumerate(g.terms[0][0]):
            if e:
                if v not in label_of:
                    raise NonMonomialElimError(
                        "elimination generator involves the non-exceptional variable #%d" % v)
                exps[label_of[v]] = e
        elim.append((m, exps))
    # the generator e W^m fails when h/s > e/m on some present label
    for m, exps in elim:
        if any(h * m > exps.get(lab, 0) * M.s for lab, h in monomial):
            return StrongCheckResult(False, M, {
                "kind": "divides", "elim_gen_weight": m, "monomial": monomial,
                "elim": tuple((lab, exps.get(lab, 0)) for lab in labels)}, ())
    # the strata are the sandwich's rows, in its order; the chart origin
    # lies on every present divisor
    points = [("stratum " + row["stratum"], row["hord"], row["ord_monomial"])
              for row in sandwich_report(tower)]
    points.append(("point 1", hord(sp, _origin(sp.field, sp.nvars)),
                   Fraction(sum(h for _, h in monomial), M.s)))
    checked = []
    witness = None
    for name, hv, mv in points:
        ok = hv == mv
        checked.append({"at": name, "hord": hv, "ord_monomial": mv, "equal": ok})
        if not ok and witness is None:
            witness = {"kind": "order mismatch", "at": name,
                       "hord": hv, "ord_monomial": mv}
    return StrongCheckResult(witness is None, M, witness, tuple(checked))


# -- the combinatorial game -------------------------------------------------------


@dataclass(unsafe_hash=True)
class GameMove:
    labels: frozenset          # the stratum blown up
    new_label: Optional[str]   # None for single-divisor moves
    exponent: Optional[int]    # exponent of the new divisor, over the game's s
    exponents_after: tuple     # full exponent table after the move


def _label_age(lab: str):
    return (0 if lab.startswith("H") else 1, int(lab[1:]))


@dataclass(unsafe_hash=True)
class GameResult:
    moves: tuple
    exponents: tuple    # final table, label order by age
    faces: frozenset    # final incidence complex


def resolve_game(M: MonomialAlg, chart: Chart) -> GameResult:
    """Play the stratum-excess game to the end.

    State: exponents on the present divisors plus the incidence complex,
    initially the full simplex (coordinate divisors all meet).  While some
    stratum has total exponent >= s, play an inclusion-minimal such stratum,
    deepest first, oldest labels breaking ties.  A single-divisor stratum
    just loses s; a deeper stratum is blown up: it gains a divisor carrying
    the excess, and the complex is stellarly subdivided so the old stratum's
    members no longer all meet.
    """
    present = chart.present_divisors()
    h = {lab: hv for lab, hv in M.exponents if present.get(lab) is not None}
    s = M.s
    faces = set(map(frozenset, nonempty_subsets(h)))

    def table():
        return tuple(sorted(h.items(), key=lambda kv: _label_age(kv[0])))

    moves = []
    counter = 0
    while True:
        # a qualifying stratum is inclusion-minimal iff dropping any one
        # divisor drops the total below s (exponents are non-negative), that
        # is iff dropping its least exponent does
        candidates = []
        for T in faces:
            t, least = 0, None
            for l in T:
                hv = h[l]
                t += hv
                if least is None or hv < least:
                    least = hv
            if t >= s and t - least < s:
                candidates.append(T)
        if not candidates:
            break
        candidates.sort(key=lambda T: (-len(T), sorted(_label_age(l) for l in T)))
        T = candidates[0]
        if len(T) == 1:
            lab = next(iter(T))
            h[lab] -= s
            moves.append(GameMove(T, None, None, table()))
            continue
        counter += 1
        new_lab = "E%d" % counter
        h[new_lab] = sum(h[l] for l in T) - s
        kept = {S for S in faces if not T <= S}
        additions = set()
        for S in itertools.chain([frozenset()], kept):
            if (S | T) in faces:
                additions.add(S | {new_lab})
        faces = kept | additions
        moves.append(GameMove(T, new_lab, h[new_lab], table()))
    for S in faces:
        t = 0
        for l in S:
            t += h[l]
        if t >= s:
            raise InvariantError("game ended with a qualifying stratum left")
    return GameResult(tuple(moves), table(), frozenset(faces))


# -- lifting the game upstairs ----------------------------------------------------


@dataclass(unsafe_hash=True)
class LiftRecord:
    move: GameMove
    skipped: bool
    reason: Optional[str]
    contact_case: Optional[str]    # "A" when hord meets the elimination order
    hord_at_center: object
    elim_ord_at_center: object


@dataclass(unsafe_hash=True)
class LiftResult:
    monomial: MonomialAlg
    records: tuple      # one LiftRecord per game move, in play order


def lift_resolution(tower: Tower) -> LiftResult:
    """Play the game on the tower's monomial algebra and materialize its
    centers upstairs: each stratum gains every section variable, the chart
    follows the oldest divisor's variable, and the presentation, cleaned at
    the downstairs generic point of each center, transforms along the way.
    Refuses non-strong towers; an impermissible lifted center or a singular
    origin of the followed chart left at the end falsifies the hypothesis and
    errors."""
    check = is_strong_monomial(tower)
    if not check.strong:
        raise TrackingError("lift refused: tower is not in the strong monomial case")
    M = check.monomial
    moves = resolve_game(M, tower.chart).moves
    sections = frozenset(tower.obj.sections)
    var_of = {lab: v for lab, v in tower.chart.divisors}
    records = []
    for move in moves:
        labs = sorted(move.labels, key=_label_age)
        vars_ = [var_of.get(lab) for lab in labs]
        if any(v is None for v in vars_):
            records.append(LiftRecord(move, True, "stratum absent from the chart",
                                      None, None, None))
            continue
        chart_var = var_of[labs[0]]
        center = Center(frozenset(vars_) | sections)
        data = hord_data(tower.obj, GenericPoint(frozenset(vars_)))
        hv, ev = data.value, data.elim_ord
        case = "A" if hv == ev else "B"
        # blow up the sections hord measured: those cleaned at the center
        if data.cleaned is not None:
            tower.obj = data.cleaned
        try:
            tower.blow_up(center, chart_var)
        except PermissibilityError as exc:
            raise TrackingError(
                "lifted center %s is impermissible (%s); the strong-monomial "
                "hypothesis fails" % (sorted(tower.chart.names[v] for v in center.vars), exc))
        # a single-divisor move keeps the divisor and its variable
        if move.new_label is not None:
            var_of[labs[0]] = None
            var_of[move.new_label] = chart_var
        records.append(LiftRecord(move, False, None, case, hv, ev))
    up = upstairs_algebra(tower.obj)
    # every coordinate stratum holds the origin, and the singular locus is
    # closed, so a singular stratum shows as a singular origin
    if sing_member(up, _origin(up.field, up.nvars)):
        raise TrackingError(
            "lift ended with singular strata [('origin',)]; the strong-monomial "
            "hypothesis fails")
    return LiftResult(M, tuple(records))


def sandwich_report(tower: Tower):
    """ord_monomial <= hord <= ord(elim), for the tower's monomial algebra,
    at the generic point of every present-divisor stratum of its final chart,
    labels by age.  There ord_monomial is the sum of the stratum's exponents
    over s, and hord and ord(elim) come from one `hord_data`.  The rows are
    kept in tower.memo for the tower's current state; each call returns a
    fresh list of fresh rows."""
    rows = tower.memo.get("sandwich")
    if rows is None:
        rows = tower.memo["sandwich"] = _sandwich_rows(tower)
    return [dict(row) for row in rows]


def _sandwich_rows(tower: Tower) -> tuple:
    M = track_monomial(tower)
    h = dict(M.exponents)
    sp = tower.obj
    present = tower.chart.present_divisors()
    rows = []
    for sub in nonempty_subsets(sorted(present, key=_label_age)):
        data = hord_data(sp, GenericPoint(frozenset(present[lab] for lab in sub)))
        om = Fraction(sum(h[lab] for lab in sub), M.s)
        hv, ev = data.value, data.elim_ord
        rows.append({"stratum": "&".join(sub), "ord_monomial": om,
                     "hord": hv, "elim_ord": ev,
                     "ok": om <= hv <= ev})
    return tuple(rows)
