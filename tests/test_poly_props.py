"""Property tests: the poly kernel against independent references.

`translate`, `__mul__`, the Hasse derivatives and `parse_poly` are checked
against sympy over F_p (p in 2, 3, 5, 7) and over Q; `hasse_deriv_multi`
also against the term-by-term single-variable definition chained over the
variables, `__pow__` against repeated multiplication, `blow_up_poly`
against substitution followed by exact division, and `parse_poly` on random
token strings, malformed ones included, against the recursive-descent
parser it replaced (`oracles.reference_parse_poly`).  The per-term queries
(`is_constant`, the degrees, `uses_var` and the orders) are loops checked
against the generator expressions they replaced (`oracles.*_reference`), on
the zero polynomial, single terms and random polynomials; `least_ratio`'s
integer cross products are checked against a minimum over Fractions.  The
tests skip when sympy or hypothesis is not installed; neither is a runtime
dependency.
"""

import math
import re
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from hypothesis import example, given, settings  # noqa: E402

from charpres.blowup import Center, blow_up_poly  # noqa: E402
from charpres.errors import (BudgetError, InputError, PermissibilityError,  # noqa: E402
                             PolyParseError)
from charpres.poly import INF, FieldSpec, MPoly, least_ratio, parse_poly  # noqa: E402
from charpres.rees import nonempty_subsets  # noqa: E402
from oracles import (degree_in_var_reference, divide_by_var_power,  # noqa: E402
                     is_constant_reference, order_total_reference,
                     order_wrt_reference, reference_parse_poly,
                     total_degree_reference, uses_var_reference)

CHARACTERISTICS = (0, 2, 3, 5, 7)
PROPS = settings(max_examples=60, deadline=None)


def _coeffs(p):
    if p:
        return st.integers(0, p - 1)
    return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def polys(draw, field=None, nvars=None, max_exp=4):
    """A random polynomial; `field` and `nvars` are drawn when not given."""
    if field is None:
        field = FieldSpec(draw(st.sampled_from(CHARACTERISTICS)))
    if nvars is None:
        nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    terms = draw(st.dictionaries(exps, _coeffs(field.characteristic), max_size=6))
    return MPoly.from_dict(field, nvars, terms)


@st.composite
def poly_pairs(draw):
    f = draw(polys())
    return f, draw(polys(field=f.field, nvars=f.nvars))


def _gens(nvars):
    return sympy.symbols("x0:%d" % nvars)


def _domain(field):
    p = field.characteristic
    return sympy.GF(p) if p else sympy.QQ


def _rational(c):
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(f: MPoly):
    d = {e: _rational(c) for e, c in f.terms}
    return sympy.Poly.from_dict(d, *_gens(f.nvars), domain=_domain(f.field))


def from_sympy(g, field: FieldSpec, nvars: int) -> MPoly:
    return MPoly.from_dict(field, nvars, {
        e: Fraction(int(c.p), int(c.q)) for e, c in g.terms() if c != 0})


def hasse_reference(f: MPoly, i: int, r: int) -> MPoly:
    """x^m -> binom(m, r) x^(m - r) in variable i, one term at a time."""
    d = {}
    for e, c in f.terms:
        if e[i] >= r:
            ee = list(e)
            ee[i] -= r
            d[tuple(ee)] = c * math.comb(e[i], r)
    return MPoly.from_dict(f.field, f.nvars, d)


@PROPS
@given(st.data())
def test_translate_matches_sympy_composition(data):
    f = data.draw(polys())
    p = f.field.characteristic
    values = data.draw(st.lists(_coeffs(p), min_size=f.nvars, max_size=f.nvars))
    gens = _gens(f.nvars)
    shift = {x: x + _rational(v) for x, v in zip(gens, values)}
    expr = to_sympy(f).as_expr().subs(shift, simultaneous=True)
    expected = from_sympy(sympy.Poly(expr, *gens, domain=_domain(f.field)),
                          f.field, f.nvars)
    assert f.translate(values) == expected


@PROPS
@given(poly_pairs())
def test_mul_matches_sympy(pair):
    f, g = pair
    expected = from_sympy(to_sympy(f) * to_sympy(g), f.field, f.nvars)
    assert f * g == expected
    assert g * f == expected


@PROPS
@given(st.data())
def test_hasse_multi_matches_chained_single_variable(data):
    f = data.draw(polys())
    alpha = data.draw(st.tuples(*[st.integers(0, 5)] * f.nvars))
    expected = f
    for i, r in enumerate(alpha):
        expected = hasse_reference(expected, i, r)
    assert f.hasse_deriv_multi(alpha) == expected
    for i, r in enumerate(alpha):
        assert f.hasse_deriv(i, r) == hasse_reference(f, i, r)


@PROPS
@given(st.data())
def test_hasse_multi_matches_sympy_diff_over_q(data):
    f = data.draw(polys(field=FieldSpec(0)))
    alpha = data.draw(st.tuples(*[st.integers(0, 5)] * f.nvars))
    g = to_sympy(f)
    orders = [(x, r) for x, r in zip(_gens(f.nvars), alpha) if r]
    if orders:
        g = g.diff(*orders)
    scale = math.prod(math.factorial(r) for r in alpha)
    expected = from_sympy(g, f.field, f.nvars).scale(Fraction(1, scale))
    assert f.hasse_deriv_multi(alpha) == expected


@PROPS
@given(st.data())
def test_blow_up_poly_matches_substitute_and_divide(data):
    f = data.draw(polys(nvars=data.draw(st.integers(2, 3))))
    vars_ = data.draw(st.sets(st.integers(0, f.nvars - 1), min_size=1))
    w = data.draw(st.sampled_from(sorted(vars_)))
    order = f.order_wrt(vars_) if not f.is_zero() else 0
    n = data.draw(st.integers(0, order + 2))
    xw = MPoly.var(f.field, f.nvars, w)
    mapping = {v: MPoly.var(f.field, f.nvars, v) * xw for v in vars_ if v != w}
    try:
        expected = divide_by_var_power(f.substitute(mapping), w, n)
    except ValueError:
        with pytest.raises(PermissibilityError):
            blow_up_poly(f, n, Center(frozenset(vars_)), w)
    else:
        assert blow_up_poly(f, n, Center(frozenset(vars_)), w) == expected


# -- the per-term reductions --------------------------------------------------


@st.composite
def query_polys(draw):
    """The zero polynomial, a single term or a random polynomial, over F_2,
    F_3, F_5, F_7 or Q."""
    field = FieldSpec(draw(st.sampled_from(CHARACTERISTICS)))
    nvars = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("zero", "term", "poly")))
    if kind == "zero":
        return MPoly.zero_poly(field, nvars)
    if kind == "term":
        exps = draw(st.tuples(*[st.integers(0, 4)] * nvars))
        c = draw(_coeffs(field.characteristic).filter(bool))
        return MPoly.from_dict(field, nvars, {exps: c})
    return draw(polys(field=field, nvars=nvars))


@PROPS
@given(query_polys())
def test_per_term_loops_match_the_generator_forms(f):
    assert f.is_constant() == is_constant_reference(f)
    assert f.total_degree() == total_degree_reference(f)
    assert f.order_total() == order_total_reference(f)
    for i in range(f.nvars):
        assert f.degree_in_var(i) == degree_in_var_reference(f, i)
        assert f.uses_var(i) == uses_var_reference(f, i)
    for vs in nonempty_subsets(range(f.nvars)):
        assert f.order_wrt(vs) == order_wrt_reference(f, vs)
    if f.is_zero():
        assert f.total_degree() == f.degree_in_var(0) == -1
        assert f.order_total() is INF and f.order_wrt((0,)) is INF


@PROPS
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 6)), max_size=5))
@example([])
@example([(0, 3), (0, 1)])
@example([(2, 4), (1, 2), (3, 6)])
@example([(4, 2), (3, 1), (2, 1)])
def test_least_ratio_is_the_least_fraction(pairs):
    least = least_ratio(pairs)
    assert least == min((Fraction(o, n) for o, n in pairs), default=INF)
    if pairs:
        assert type(least) is Fraction
    else:
        assert least is INF


# -- the parser and powers ----------------------------------------------------

NAMES = ("x", "y", "z")
# a bound on the term count of a generated subexpression, so that no example
# is dear to expand
MAX_TERMS = 400


def _exponents(p):
    """Exponents 0..12, with the multiples of p drawn as often as the rest."""
    plain = st.integers(0, 12)
    return st.one_of(plain, st.sampled_from(range(0, 13, p))) if p else plain


def _leaves(p):
    dens = [d for d in range(1, 10) if p == 0 or d % p]
    return st.one_of(
        st.sampled_from(NAMES).map(lambda v: (v, sympy.Symbol(v), 1)),
        st.integers(0, 12).map(lambda n: (str(n), sympy.Integer(n), 1)),
        st.tuples(st.integers(0, 12), st.sampled_from(dens)).map(
            lambda nd: ("%d/%d" % nd, sympy.Rational(*nd), 1)))


@st.composite
def _atoms(draw, p, depth):
    if depth and draw(st.booleans()):
        text, expr, size = draw(_expressions(p, depth - 1))
        return "(%s)" % text, expr, size
    return draw(_leaves(p))


@st.composite
def _factors(draw, p, depth):
    """An atom raised to zero, one or two exponents in a row (^ is left
    associative), or a negated factor: its minus sign applies after the
    powers, as at the head of an expression."""
    if draw(st.integers(0, 2)) == 0:
        text, expr, size = draw(_factors(p, depth))
        return "-" + text, -expr, size
    text, expr, size = draw(_atoms(p, depth))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(_exponents(p))
        bound = math.comb(k + size - 1, size - 1) if size else 0
        if bound > MAX_TERMS:
            break
        text, expr, size = "%s^%d" % (text, k), expr ** k, bound
    return text, expr, size


@st.composite
def _expressions(draw, p, depth):
    """(text, sympy expression, bound on its term count): signed terms of
    one or two factors."""
    parts, expr, size = [], sympy.Integer(0), 0
    for i in range(draw(st.integers(1, 3))):
        text, term, n = draw(_factors(p, depth))
        if draw(st.booleans()):
            text2, term2, n2 = draw(_factors(p, depth))
            if n * n2 <= MAX_TERMS:
                text, term, n = text + "*" + text2, term * term2, n * n2
        sign = draw(st.sampled_from(("", "-", "+", "- -") if i == 0 else ("+", "-")))
        parts.append((sign + " " + text).strip())
        expr += -term if sign == "-" else term
        size += n
    return " ".join(parts), expr, size


@PROPS
@given(st.sampled_from(CHARACTERISTICS).flatmap(
    lambda p: _expressions(p, 2).map(lambda t: (p, t[0], t[1]))))
@example((0, "2*-x^2", -2 * sympy.Symbol("x") ** 2))
@example((3, "-x^2*-y - -(x)^2", sympy.Symbol("x") ** 2 * sympy.Symbol("y")
          + sympy.Symbol("x") ** 2))
def test_parse_poly_matches_sympy_expand(case):
    p, text, expr = case
    field = FieldSpec(p)
    # expanded over Q; its coefficients have denominators prime to p, so
    # reducing them mod p is the expansion over F_p
    expanded = sympy.Poly(sympy.expand(expr), *sympy.symbols(NAMES), domain=sympy.QQ)
    expected = from_sympy(expanded, field, len(NAMES))
    assert parse_poly(text, field, NAMES) == expected, text


@PROPS
@given(st.data())
def test_pow_matches_repeated_multiplication(data):
    f = data.draw(polys(nvars=data.draw(st.integers(1, 2)), max_exp=3))
    n = data.draw(_exponents(f.field.characteristic))
    expected = MPoly.const(f.field, f.nvars, 1)
    for _ in range(n):
        expected = expected * f
    assert f ** n == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_power_p_squared_is_frobenius(p):
    field = FieldSpec(p)
    q = p * p
    expected = parse_poly("x^%d + y^%d + z^%d + 1" % (q, q, q), field, NAMES)
    f = parse_poly("x + y + z + 1", field, NAMES)
    assert f ** q == expected
    assert parse_poly("(x + y + z + 1)^%d" % q, field, NAMES) == expected


# variables, one unknown name, literals (a zero denominator and a Unicode
# digit among them), operators, separators and characters no token takes
PARSE_TOKENS = ("x", "y", "z", "w", "x1", "_", "0", "1", "2", "3", "1/2", "2/4", "3/0",
                "0/5", "\u0663", "+", "-", "*", "^", "(", ")", "/", ";", "\u00e9", " ")


@st.composite
def parse_texts(draw):
    """Polynomial text: an expression of the grammar, runs of signs, nested
    parentheses and powers included, with up to two tokens of PARSE_TOKENS
    inserted, replaced or deleted, joined by spaces or by nothing."""
    out = []

    def factor(depth):
        out.extend(["-"] * draw(st.integers(0, 3)))
        if depth and draw(st.booleans()):
            out.append("(")
            expr(depth - 1)
            out.append(")")
        else:
            out.append(draw(st.sampled_from(("x", "y", "z", "0", "1", "2", "3", "1/2", "2/4"))))
        if draw(st.booleans()):
            out.extend(["^", draw(st.sampled_from(("0", "1", "2", "3")))])

    def term(depth):
        factor(depth)
        for _ in range(draw(st.integers(0, 2))):
            out.append("*")
            factor(depth)

    def expr(depth):
        out.extend(draw(st.lists(st.sampled_from("+-"), max_size=2)))
        term(depth)
        for _ in range(draw(st.integers(0, 2))):
            out.append(draw(st.sampled_from("+-")))
            term(depth)

    expr(2)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(out)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        if edit == "insert":
            out.insert(i, draw(st.sampled_from(PARSE_TOKENS)))
        elif i < len(out):
            if edit == "replace":
                out[i] = draw(st.sampled_from(PARSE_TOKENS))
            else:
                del out[i]
    return draw(st.sampled_from((" ", ""))).join(out)


def _parse_outcome(parse, text, field):
    try:
        return parse(text, field, NAMES)
    except (PolyParseError, BudgetError, InputError) as exc:
        return type(exc), str(exc)


@PROPS
@given(st.one_of(parse_texts(), st.lists(st.sampled_from(PARSE_TOKENS), max_size=14).map("".join)),
       st.sampled_from(CHARACTERISTICS))
@example("x/y", 0)
@example("x y", 0)
@example("x 2", 0)
@example("x^-2", 0)
@example("x^(2)", 0)
@example("x^1/2", 0)
@example("w + 1", 0)
@example("2/0*x", 0)
@example("x + 1;", 0)
@example("x + \u00e9*y", 0)
@example("(x + 1", 0)
@example("x + *", 0)
@example("", 0)
@example("x^4/2", 0)
@example("x^2/1", 3)
@example("1/3*x", 3)
@example("x y 3/0", 0)
@example("2*--x^2 - -(y)", 3)
def test_parser_matches_the_reference(text, p):
    # the same MPoly, or the same error type and message; the one intended
    # difference is that an exponent n/d, such as 4/2 = 2, is now refused
    field = FieldSpec(p)
    got = _parse_outcome(parse_poly, text, field)
    expected = _parse_outcome(reference_parse_poly, text, field)
    if got != expected:
        assert got == (PolyParseError, "exponent must be a non-negative integer"), text
        assert re.search(r"\^\s*\d+/\d+", text), text
