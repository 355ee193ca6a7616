"""Property tests: one-pass differential saturation and the tau computation.

`diff_saturate` is checked against the fixpoint loop it replaced (kept here
as the reference only), generator classes are compared up to scalars with
sympy's `monic`, and the singular locus at closed points against orders
computed by sympy, over F_p (p in 2, 3, 5, 7) and over Q.  Its generators are
also checked one for one against the saturation along every multi-index
(`oracles.saturate_all_alpha`), the multi-indices it differentiates by
against those of every nonzero derivative
(`oracles.support_indices_reference`), the derivatives its walk lists
against `MPoly.hasse_deriv_multi` over F_2, F_3, F_5, F_7, F_101 and Q, and
their translates, H^alpha of a parent's translate for a derivative, against
the Taylor shift.  The singular coordinate strata, scanned from the origin,
are checked against the test of every stratum (`oracles.reference_strata`).
The one-elimination additive forms behind `tau_at` and the sparse `rref`
are checked against the field-generic dense elimination
(`oracles.reference_rref`) and the reduction
and null-space steps they replaced, kept here as the reference only, and the
additive forms list for list against the all-rows Macaulay build
(`oracles.macaulay_additive_forms_reference`).  The
tests skip when sympy or hypothesis is not installed; neither is a runtime
dependency.
"""

import itertools
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import example, given, settings  # noqa: E402

from charpres.poly import ClosedPoint, FieldSpec, MPoly, parse_poly  # noqa: E402
from charpres.rees import (ReesAlg, _additive_forms_in_degree,  # noqa: E402
                           _derivatives, diff_saturate, rref, sing_member,
                           singular_coordinate_strata, tau_at)
from oracles import (field_add, macaulay_additive_forms_reference,  # noqa: E402
                     reference_rref, reference_strata, saturate_all_alpha,
                     support_indices_reference)

CHARACTERISTICS = (0, 2, 3, 5, 7)
PROPS = settings(max_examples=60, deadline=None)


def _coeffs(p):
    if p:
        return st.integers(0, p - 1)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def algebras(draw, max_weight=4, singular=None):
    """A random algebra and a point; when `singular` is drawn (or given as
    True), every generator is shifted so that its order at the point is at
    least its weight."""
    field = FieldSpec(draw(st.sampled_from(CHARACTERISTICS)))
    p = field.characteristic
    nvars = draw(st.integers(1, 3))
    point = tuple(draw(st.lists(_coeffs(p), min_size=nvars, max_size=nvars)))
    if singular is None:
        singular = draw(st.booleans())
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, max_weight))
        low = n if singular else 0
        exps = st.lists(st.integers(0, n + 1), min_size=nvars, max_size=nvars).filter(
            lambda e: low <= sum(e) <= n + 2).map(tuple)
        terms = draw(st.dictionaries(exps, _coeffs(p), min_size=1, max_size=4))
        f = MPoly.from_dict(field, nvars, terms)
        if singular:
            f = f.translate([-v for v in point])
        gens.append((f, n))
    return ReesAlg.make(field, nvars, gens), ClosedPoint(point)


def fixpoint_saturate(alg: ReesAlg) -> ReesAlg:
    """The reference: differentiate every generator, the ones added too,
    until no new (generator, weight) pair appears."""
    if alg.is_unit:
        return alg
    seen = set(alg.gens)
    frontier = list(alg.gens)
    unit = False
    while frontier:
        new = []
        for f, n in frontier:
            for total in range(1, n):
                for cut in itertools.combinations_with_replacement(range(alg.nvars), total):
                    alpha = [0] * alg.nvars
                    for i in cut:
                        alpha[i] += 1
                    g = f.hasse_deriv_multi(alpha)
                    if g.is_zero():
                        continue
                    if g.is_constant():
                        unit = True
                        continue
                    key = (g, n - total)
                    if key not in seen:
                        seen.add(key)
                        new.append(key)
        frontier = new
    return ReesAlg.make(alg.field, alg.nvars, seen, unit)


def _symbols(nvars):
    return sympy.symbols("x0:%d" % nvars)


def _domain(field):
    p = field.characteristic
    return sympy.GF(p) if p else sympy.QQ


def _rational(c):
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(f: MPoly):
    d = {e: _rational(c) for e, c in f.terms}
    return sympy.Poly.from_dict(d, *_symbols(f.nvars), domain=_domain(f.field))


def scalar_classes(alg: ReesAlg) -> set:
    """(weight, monic generator) pairs: one per generator up to scalars."""
    return {(n, tuple(sorted(to_sympy(f).monic().as_dict().items()))) for f, n in alg.gens}


def at_point(f: MPoly, pt: ClosedPoint):
    """f in local coordinates at pt, as a sympy Poly."""
    xs = _symbols(f.nvars)
    shift = {x: x + _rational(v) for x, v in zip(xs, pt.values)}
    return sympy.Poly(to_sympy(f).as_expr().subs(shift, simultaneous=True), *xs,
                      domain=_domain(f.field))


def sympy_order(f: MPoly, pt: ClosedPoint) -> int:
    return min(sum(e) for e, c in at_point(f, pt).terms() if c != 0)


def _unit_with_scalar_repeats():
    # x*y and -x*y beside a constant: the unit algebra keeps both (found by
    # hypothesis), so its saturation must drop the repeat
    q = FieldSpec(0)
    gens = [(MPoly.from_dict(q, 3, {(1, 1, 0): c}), 1) for c in (1, -1)]
    gens.append((MPoly.from_dict(q, 3, {(0, 0, 0): 1}), 1))
    return ReesAlg.make(q, 3, gens), ClosedPoint((0, 0, 0))


@PROPS
@given(algebras())
@example(_unit_with_scalar_repeats())
def test_one_pass_spans_the_fixpoint_up_to_scalars(case):
    alg, _ = case
    sat = diff_saturate(alg)
    ref = fixpoint_saturate(alg)
    assert sat.is_unit == ref.is_unit
    assert scalar_classes(sat) == scalar_classes(ref)
    # no two kept generators differ by a scalar
    assert len(scalar_classes(sat)) == len(sat.gens)
    assert set(sat.gens) <= set(ref.gens)


@PROPS
@given(algebras(max_weight=5))
def test_saturation_matches_the_all_alpha_reference(case):
    alg, _ = case
    sat = diff_saturate(alg)
    ref = saturate_all_alpha(alg, range(alg.nvars))
    assert sat.gens == ref.gens and sat.is_unit == ref.is_unit


@st.composite
def high_exponent_algebras(draw):
    """An algebra whose generators have exponents up to 12, so that over
    F_p many of their Hasse derivatives vanish by Lucas' theorem."""
    field = FieldSpec(draw(st.sampled_from(CHARACTERISTICS)))
    nvars = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 12), min_size=nvars, max_size=nvars).map(tuple)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(exps, _coeffs(field.characteristic),
                                     min_size=1, max_size=4))
        gens.append((MPoly.from_dict(field, nvars, terms), draw(st.integers(1, 6))))
    return field, nvars, gens


def _z4_plus_x4_over_f2():
    f2 = FieldSpec(2)
    return f2, 2, [(parse_poly("z^4 + x^4", f2, ("z", "x")), 4)]


def _alphas(f, max_total, most):
    leaves = _derivatives(f, max_total, most)
    return None if leaves is None else [alpha for alpha, _ in leaves]


@PROPS
@given(high_exponent_algebras())
@example(_z4_plus_x4_over_f2())
def test_support_indices_match_the_reference(case):
    # the alpha that the saturation walk lists are exactly those with
    # H^alpha f nonzero, in the same order, and the saturation built from
    # them equals the one along every multi-index
    field, nvars, gens = case
    for f, n in gens:
        ref = support_indices_reference(f, n - 1)
        assert _alphas(f, n - 1, len(ref)) == ref
        if ref:
            # one alpha past its limit, the walk gives up
            assert _alphas(f, n - 1, len(ref) - 1) is None
    alg = ReesAlg.make(field, nvars, gens)
    sat = diff_saturate(alg)
    ref = saturate_all_alpha(alg, range(nvars))
    assert sat.gens == ref.gens and sat.is_unit == ref.is_unit


@st.composite
def walk_cases(draw):
    """A polynomial with exponents up to 12 and a weight, over F_2, F_3,
    F_5, F_7, F_101 or Q."""
    field = FieldSpec(draw(st.sampled_from((2, 3, 5, 7, 101, 0))))
    nvars = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 12), min_size=nvars, max_size=nvars).map(tuple)
    terms = draw(st.dictionaries(exps, _coeffs(field.characteristic), min_size=1, max_size=5))
    f = MPoly.from_dict(field, nvars, terms)
    return f, draw(st.integers(1, 14))


def _walk_case(p, text, n, names=("z", "x")):
    return parse_poly(text, FieldSpec(p), names), n


@settings(max_examples=150, deadline=None)
@given(walk_cases())
@example(_walk_case(2, "z^4 + x^4", 4))     # p | alpha_k: no derivative survives
@example(_walk_case(3, "z^4 + x^4", 4))
@example(_walk_case(2, "z^4 + x^4", 9))
@example(_walk_case(2, "x^2*y^2", 5, ("x", "y")))
@example(_walk_case(3, "x^3*y^3 + x*y", 7, ("x", "y")))
@example(_walk_case(5, "x^5*y^5 + 2*x^10", 11, ("x", "y")))
@example(_walk_case(7, "x^7*y^7 + 3*x^14*y^7", 22, ("x", "y")))
@example(_walk_case(101, "x^101*y + 5*x^202", 103, ("x", "y")))
@example(_walk_case(0, "1/2*z^4 + 2/3*x^4 + z*x", 4))
def test_derivative_walk_matches_hasse_deriv_multi(case):
    """The walk lists the alpha of `oracles.support_indices_reference` in
    its order, and each leaf is H^alpha f, term for term."""
    f, n = case
    ref = support_indices_reference(f, n - 1)
    leaves = _derivatives(f, n - 1, len(ref))
    assert [alpha for alpha, _ in leaves] == ref
    for alpha, terms in leaves:
        assert MPoly(f.field, f.nvars, terms) == f.hasse_deriv_multi(alpha)
        assert all(c for _, c in terms)


def _point_values(p):
    """Coordinates of a closed point: field elements and integers that are
    zero only mod p."""
    zeros = st.sampled_from((p, -p, 2 * p)) if p else st.just(Fraction(0))
    return st.one_of(_coeffs(p), zeros)


@PROPS
@given(algebras(max_weight=5), st.data())
def test_translates_of_saturated_generators_match_the_shift(case, data):
    alg, _ = case
    nvars = alg.nvars
    values = tuple(data.draw(st.lists(_point_values(alg.field.characteristic),
                                      min_size=nvars, max_size=nvars), label="point"))
    for g, _ in diff_saturate(alg).gens:
        assert g.translate(values) == g._shift(values)


@PROPS
@given(algebras())
def test_saturation_is_idempotent(case):
    alg, _ = case
    sat = diff_saturate(alg)
    assert diff_saturate(sat) == sat
    afresh = ReesAlg.make(sat.field, sat.nvars, sat.gens, sat.is_unit)
    assert diff_saturate(afresh) == sat


@PROPS
@given(algebras())
def test_sing_member_and_tau_agree_at_closed_points(case):
    alg, pt = case
    sat = diff_saturate(alg)
    singular = sing_member(alg, pt)
    assert sing_member(sat, pt) == singular
    expected = not sat.is_unit and all(sympy_order(f, pt) >= n for f, n in sat.gens)
    assert singular == expected
    if not singular:
        with pytest.raises(ValueError):
            tau_at(alg, pt)
        return
    td = tau_at(alg, pt)
    assert 0 <= td.tau <= alg.nvars
    # the forms of the one translate per generator are the degree-n parts at
    # pt of the generators of order n there, in generator order
    expected_forms = [{e: c for e, c in at_point(f, pt).as_dict().items() if sum(e) == n}
                      for f, n in sat.gens if sympy_order(f, pt) == n]
    assert [to_sympy(g).as_dict() for g in td.initial_forms] == expected_forms


@st.composite
def strata_algebras(draw):
    """The unit algebra, the trivial algebra (no generators), or one to
    three generators in one to four variables, each a monomial, so that
    some coordinate strata are singular, or a random polynomial."""
    field = FieldSpec(draw(st.sampled_from(CHARACTERISTICS)))
    nvars = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("unit", "trivial", "generators")))
    if kind == "unit":
        return ReesAlg.make(field, nvars, [], is_unit=True)
    gens = []
    for _ in range(draw(st.integers(1, 3)) if kind == "generators" else 0):
        n = draw(st.integers(1, 4))
        exps = st.lists(st.integers(0, n), min_size=nvars, max_size=nvars).map(tuple)
        if draw(st.booleans()):
            terms = {draw(exps): 1}
        else:
            terms = draw(st.dictionaries(exps, _coeffs(field.characteristic),
                                         min_size=1, max_size=4))
        gens.append((MPoly.from_dict(field, nvars, terms), n))
    return ReesAlg.make(field, nvars, gens)


@PROPS
@given(strata_algebras())
@example(ReesAlg.make(FieldSpec(2), 3, [(parse_poly(t, FieldSpec(2), ("x", "y", "z")), n)
                                        for t, n in (("x*y", 1), ("y^2", 2))]))
def test_strata_scan_matches_the_full_scan(alg):
    """The origin-first scan returns the strata the full 2^nvars - 1 scan
    finds, in the same order, for the algebra and its saturation."""
    assert tuple(singular_coordinate_strata(alg)) == reference_strata(alg)
    sat = diff_saturate(alg)
    assert tuple(singular_coordinate_strata(sat)) == reference_strata(sat)


# -- tau: one elimination per graded piece, and the sparse rref ----------------


def reference_reduce_against(vec, basis, pivots, field: FieldSpec):
    v = list(vec)
    for row, c in zip(basis, pivots):
        if v[c] != 0:
            factor = v[c]
            v = [field_add(field, x, field.neg(field.mul(factor, y))) for x, y in zip(v, row)]
    return v


def reference_null_space(columns, field: FieldSpec):
    """Basis of {c : sum c_i * columns[i] = 0}."""
    d = len(columns)
    if d == 0:
        return []
    mat = [[columns[j][i] for j in range(d)] for i in range(len(columns[0]))]
    if not mat:
        mat = [[field.zero] * d]
    reduced, pivots = reference_rref(mat, field)
    basis = []
    for j in (j for j in range(d) if j not in pivots):
        c = [field.zero] * d
        c[j] = field.one
        for row, pc in zip(reduced, pivots):
            c[pc] = field.neg(row[j])
        basis.append(c)
    return basis


def _monomials(nvars, deg):
    for cut in itertools.combinations_with_replacement(range(nvars), deg):
        exps = [0] * nvars
        for i in cut:
            exps[i] += 1
        yield tuple(exps)


def reference_additive_forms(forms, degree, field, nvars):
    """The reference: span the graded piece with monomial multiples, reduce
    each pure power x_i^degree against it, and solve for the combinations
    that reduce to zero."""
    basis_monos = sorted(_monomials(nvars, degree), reverse=True)
    index = {m: k for k, m in enumerate(basis_monos)}
    rows = []
    for f in forms:
        d = f.total_degree()
        if d > degree or d < 0:
            continue
        for m in _monomials(nvars, degree - d):
            shifted = f * MPoly.from_dict(field, nvars, {m: 1})
            row = [field.zero] * len(basis_monos)
            for e, c in shifted.terms:
                row[index[e]] = c
            rows.append(row)
    reduced, pivots = reference_rref(rows, field) if rows else ([], [])
    residues = []
    for i in range(nvars):
        vec = [field.zero] * len(basis_monos)
        vec[index[tuple(degree if j == i else 0 for j in range(nvars))]] = field.one
        residues.append(reference_reduce_against(vec, reduced, pivots, field))
    return reference_null_space(residues, field)


def graded_degrees(forms, p):
    """1, then p, p^2, ... up to the largest form degree (1 only over Q)."""
    out = [1]
    top = max((f.total_degree() for f in forms), default=0)
    while p and out[-1] * p <= top:
        out.append(out[-1] * p)
    return out


def dense(rows, ncols, field):
    """Sparse {column: entry} rows as lists of ncols field elements."""
    out = []
    for row in rows:
        vec = [field.zero] * ncols
        for j, c in row.items():
            vec[j] = c
        out.append(vec)
    return out


def sparse(rows):
    """Dense rows as {column: entry} dicts of their nonzero entries."""
    return [{j: c for j, c in enumerate(row) if c != 0} for row in rows]


def row_space(vectors, field):
    return reference_rref(vectors, field) if vectors else ([], [])


@PROPS
@given(algebras(max_weight=5, singular=True))
def test_tau_and_vertex_forms_match_the_reference(case):
    alg, pt = case
    td = tau_at(alg, pt)
    field, nvars = alg.field, alg.nvars
    forms = list(td.initial_forms)
    vectors = []
    for deg in graded_degrees(forms, field.characteristic):
        got = dense(_additive_forms_in_degree(forms, deg, field, nvars), nvars, field)
        ref = reference_additive_forms(forms, deg, field, nvars)
        # the same subspace: a reduced echelon basis is unique
        assert row_space(got, field) == row_space(ref, field)
        vectors += ref
    # over F_p the p^e-th root of a prime-field element is itself
    assert td.tau == len(row_space(vectors, field)[0])


@st.composite
def graded_pieces(draw, max_degree=9):
    """Homogeneous forms and a degree 1, p or p^2 (at most `max_degree`) at
    or above theirs, in a drawn order.  Pure powers are drawn often, so
    that additive forms appear.  Up to three forms of two to four terms
    (one in one variable) come first, often none; then one to four
    single-term forms, each a new monomial, a repeat of a monomial drawn
    before, or a divisor of one, which often cuts a term of a multi-term
    form."""
    field = FieldSpec(draw(st.sampled_from(CHARACTERISTICS)))
    p = field.characteristic
    nvars = draw(st.integers(1, 3))
    degree = draw(st.sampled_from([d for d in (1, p, p * p) if 0 < d <= max_degree]))
    nonzero = _coeffs(p).filter(lambda c: c != 0)

    def keys():
        d = draw(st.integers(1, degree))
        monos = list(_monomials(nvars, d))
        pure = [m for m in monos if max(m) == d]
        return st.sampled_from(pure) | st.sampled_from(monos), len(monos)

    forms = []
    for _ in range(draw(st.integers(0, 3))):
        exps, count = keys()
        terms = draw(st.dictionaries(exps, nonzero, min_size=min(2, count), max_size=4))
        forms.append(MPoly.from_dict(field, nvars, terms))
    for _ in range(draw(st.integers(1, 4))):
        seen = sorted({e for f in forms for e, _ in f.terms})
        kind = draw(st.sampled_from(("new", "repeat", "divisor"))) if seen else "new"
        if kind == "new":
            e = draw(keys()[0])
        else:
            e = draw(st.sampled_from(seen))
            if kind == "divisor":
                e = tuple(draw(st.integers(0, k)) for k in e)
                if not any(e):
                    continue
        forms.append(MPoly.from_dict(field, nvars, {e: draw(nonzero)}))
    forms = [f for f in draw(st.permutations(forms)) if not f.is_zero()]
    return field, nvars, degree, forms


@PROPS
@given(graded_pieces())
def test_additive_forms_span_the_reference_space(case):
    field, nvars, degree, forms = case
    got = dense(_additive_forms_in_degree(forms, degree, field, nvars), nvars, field)
    ref = reference_additive_forms(forms, degree, field, nvars)
    assert row_space(got, field) == row_space(ref, field)
    # the rows returned are independent
    assert len(row_space(got, field)[0]) == len(got)


def _piece(p, degree, texts, names=("x", "y", "z")):
    field = FieldSpec(p)
    return field, len(names), degree, [parse_poly(t, field, names) for t in texts]


@settings(max_examples=200, deadline=None)
@given(graded_pieces(max_degree=25))
@example(_piece(3, 3, ["y^3", "z^3 + x^3 + y^3"]))        # sorted by pivot
@example(_piece(2, 4, ["x", "x*y + x^2", "y^2*z^2"]))     # a row all in M
@example(_piece(5, 5, ["x^2 + y^2", "x*y + z^2", "z^2"]))
@example(_piece(0, 1, ["2*x", "x + y", "3*y + z"]))
# rows whose keys the two builds once inserted in different orders
@example(_piece(3, 9, ["x^6 + x*y^5 + y^6", "x^4*y"], names=("x", "y")))
@example(_piece(2, 2, ["x + y + z", "y + z", "x"]))
def test_additive_forms_equal_the_macaulay_reference(case):
    """The monomial-ideal kernel returns the list the all-rows Macaulay
    build returns: the same dicts, keys ascending, in the same order (a
    reduced echelon basis is unique)."""
    field, nvars, degree, forms = case
    got = _additive_forms_in_degree(forms, degree, field, nvars)
    want = macaulay_additive_forms_reference(forms, degree, field, nvars)
    assert got == want
    assert [list(row) for row in got] == [list(row) for row in want]
    assert all(list(row) == sorted(row) for row in got)


def test_additive_forms_of_an_analyze_sized_piece():
    """The degree-8 piece of an F_2 tangent cone in 4 variables that the
    `analyze` benchmark workload meets: 106 multiples over 165 monomials."""
    field = FieldSpec(2)
    names = ["x", "y", "z", "w"]
    forms = [parse_poly(t, field, names) for t in ("y^4", "x^4", "w^4", "x^4*y^4 + z^8")]
    got = _additive_forms_in_degree(forms, 8, field, 4)
    ref = reference_additive_forms(forms, 8, field, 4)
    assert row_space(dense(got, 4, field), field) == row_space(ref, field)
    # x^8, y^8, w^8, and z^8 = (x^4*y^4 + z^8) - x^4 * y^4
    assert len(got) == 4


def fraction_rref_mod_p(rows, p):
    """Gaussian elimination on Fractions, pivoting on entries that are nonzero
    mod p, then reduced mod p.  Every entry keeps a denominator prime to p,
    so reduction mod p commutes with each step."""
    field = FieldSpec(p)
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c].numerator % p), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r:
                mat[i] = [x - mat[i][c] * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return [[field.coerce(x) for x in row] for row in mat[:r]], pivots


@st.composite
def matrices(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols),
                         min_size=1, max_size=7))
    return p, rows


@PROPS
@given(matrices())
def test_mod_p_rref_matches_the_fraction_elimination(case):
    p, rows = case
    field = FieldSpec(p)
    reduced, pivots = rref(sparse(rows), field)
    got = dense(reduced, len(rows[0]), field), pivots
    assert got == fraction_rref_mod_p(rows, p)
    assert got == reference_rref(rows, field)
    assert all(0 < x < p and isinstance(x, int) for row in reduced for x in row.values())


@PROPS
@given(st.lists(st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
                         min_size=4, max_size=4), min_size=1, max_size=6))
def test_rational_rref_matches_the_reference(rows):
    reduced, pivots = rref(sparse(rows), FieldSpec(0))
    assert (dense(reduced, 4, FieldSpec(0)), pivots) == reference_rref(rows, FieldSpec(0))


@st.composite
def sparse_matrices(draw):
    """Sparse rows over F_2-F_7 or Q, with zero rows, repeated rows and
    single-entry rows drawn often, and the empty list of rows."""
    field = FieldSpec(draw(st.sampled_from(CHARACTERISTICS)))
    p = field.characteristic
    ncols = draw(st.integers(1, 8))
    nonzero = _coeffs(p).filter(lambda c: c != 0)
    cols = st.integers(0, ncols - 1)
    rows = draw(st.lists(st.one_of(st.just({}),
                                   st.dictionaries(cols, nonzero, min_size=1, max_size=1),
                                   st.dictionaries(cols, nonzero, max_size=ncols)),
                         max_size=8))
    if rows and draw(st.booleans()):
        rows += [dict(r) for r in draw(st.lists(st.sampled_from(rows), max_size=3))]
    return field, ncols, rows


@PROPS
@given(sparse_matrices())
@example((FieldSpec(3), 3, []))
@example((FieldSpec(0), 3, [{}, {1: Fraction(2)}, {1: Fraction(2)}, {0: Fraction(-1), 2: Fraction(1, 3)}]))
def test_sparse_rref_is_reduced_and_matches_the_reference(case):
    field, ncols, rows = case
    given_rows = [dict(r) for r in rows]
    reduced, pivots = rref(rows, field)
    assert rows == given_rows                      # the input is left as it was
    assert pivots == sorted(set(pivots))           # strictly increasing
    for row, c in zip(reduced, pivots):
        assert min(row) == c and row[c] == 1       # a leading 1
        assert all(x != 0 for x in row.values())   # no stored zeros
        if field.characteristic:
            assert all(isinstance(x, int) and 0 < x < field.characteristic
                       for x in row.values())
        else:
            assert all(type(x) is Fraction for x in row.values())
    for row, c in zip(reduced, pivots):            # pivot columns hold one entry
        assert all(c not in other for other in reduced if other is not row)
    assert (dense(reduced, ncols, field), pivots) == row_space(dense(rows, ncols, field), field)
