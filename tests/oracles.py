"""Reference computations that the library is checked against in tests,
and the fixtures that only tests need.

None of these is reached from the package: each is the plain, slower or
narrower way to get a value the library computes another way, or, like
coefficient_elim, a way to build test input.
"""

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Optional

from charpres.blowup import Chart
from charpres.errors import (BudgetError, InputError, InvariantError, NonMonomialElimError,
                             PolyParseError, TrackingError)
from charpres.monomial import (GameMove, GameResult, MonomialAlg, _label_age,
                               track_monomial)
from charpres.poly import (_LITERAL, _WORK_PER_TERM, INF, PARSE_MAX_TERMS, ClosedPoint,
                           FieldSpec, GenericPoint, MPoly, PointSpec, _clean, _literal,
                           _monomial_count, _mul_terms, _pow_terms, _product_bits,
                           monic_coefficients)
from charpres.rees import ReesAlg, nonempty_subsets, rref, sing_member


def field_add(field: FieldSpec, a, b):
    """a + b in the field, the sum the library forms inline where it needs one."""
    p = field.characteristic
    return (a + b) % p if p else a + b


def evaluate(f: MPoly, values):
    """f at the point `values`, by the sum over terms of c * prod x_i^k."""
    field = f.field
    vals = [field.coerce(v) for v in values]
    acc = field.zero
    for e, c in f.terms:
        term = c
        for i, k in enumerate(e):
            for _ in range(k):
                term = field.mul(term, vals[i])
        acc = field_add(field, acc, term)
    return acc


# -- the per-term reductions as generator expressions ---------------------------
#
# MPoly's queries and the H-order minimum of projection._normalize are plain
# loops; these are the generator-expression forms they replaced.


def is_constant_reference(f: MPoly) -> bool:
    return all(sum(e) == 0 for e, _ in f.terms)


def total_degree_reference(f: MPoly) -> int:
    if not f.terms:
        return -1
    return max(sum(e) for e, _ in f.terms)


def degree_in_var_reference(f: MPoly, i: int) -> int:
    if not f.terms:
        return -1
    return max(e[i] for e, _ in f.terms)


def uses_var_reference(f: MPoly, i: int) -> bool:
    return any(e[i] for e, _ in f.terms)


def order_total_reference(f: MPoly):
    if not f.terms:
        return INF
    return min(sum(e) for e, _ in f.terms)


def order_wrt_reference(f: MPoly, var_set):
    vs = tuple(var_set)
    if not f.terms:
        return INF
    return min(sum(e[i] for i in vs) for e, _ in f.terms)


def divide_by_var_power(f: MPoly, i: int, n: int) -> MPoly:
    """Exact division of f by x_i^n; raises ValueError if any term falls short."""
    out = []
    for e, c in f.terms:
        if e[i] < n:
            raise ValueError(
                f"term with exponent {e[i]} in variable {i} is not divisible by power {n}")
        ee = list(e)
        ee[i] -= n
        out.append((tuple(ee), c))
    # lowering one exponent of every term by n keeps the term order
    return MPoly(f.field, f.nvars, tuple(out))


def multi_indices(nvars, allowed, max_total):
    """All multi-indices with support in `allowed` and 1 <= |alpha| <= max_total,
    |alpha| ascending, then in the order of combinations over `allowed`."""
    allowed = list(allowed)
    if max_total < 1 or not allowed:
        return
    for total in range(1, max_total + 1):
        for cut in itertools.combinations_with_replacement(allowed, total):
            alpha = [0] * nvars
            for i in cut:
                alpha[i] += 1
            yield tuple(alpha)


def support_indices_reference(f: MPoly, max_total: int) -> list:
    """The multi-indices alpha with 1 <= |alpha| <= max_total and H^alpha f
    nonzero, found by forming H^alpha f for every such alpha: |alpha|
    ascending, then alpha descending lex, the order of the walk
    `rees._derivatives`."""
    out = []
    for total in range(1, max_total + 1):
        alphas = [a for a in itertools.product(range(total + 1), repeat=f.nvars)
                  if sum(a) == total]
        out += [a for a in sorted(alphas, reverse=True)
                if not f.hasse_deriv_multi(a).is_zero()]
    return out


def _monic(f: MPoly, n: int) -> tuple:
    field = f.field
    inv = field.inv(f.terms[0][1])
    return n, tuple((e, field.mul(c, inv)) for e, c in f.terms)


def saturate_all_alpha(alg: ReesAlg, allowed) -> ReesAlg:
    """One-pass saturation that differentiates each generator (f, n) along
    every alpha of `multi_indices(nvars, allowed, n - 1)`, zero results
    included, keeping the first generator formed of each weight and scalar
    class (the given generators first)."""
    kept = {}
    for f, n in alg.gens:
        kept.setdefault(_monic(f, n), (f, n))
    if alg.is_unit:
        return ReesAlg.make(alg.field, alg.nvars, kept.values(), True)
    unit = False
    for f, n in alg.gens:
        for alpha in multi_indices(alg.nvars, allowed, n - 1):
            g = f.hasse_deriv_multi(alpha)
            if g.is_zero():
                continue
            if g.is_constant():
                unit = True
                continue
            m = n - sum(alpha)
            kept.setdefault(_monic(g, m), (g, m))
    return ReesAlg.make(alg.field, alg.nvars, kept.values(), unit)


def coefficient_elim(f: MPoly, z_index: int) -> ReesAlg:
    """The coefficient generators (a_j, j), 1 <= j <= n, of a monic
    polynomial f = z^n + sum a_j z^(n-j): a downstairs proxy for its
    elimination algebra."""
    coeffs = monic_coefficients(f, z_index)
    n = max(coeffs)
    gens = [(a, j) for j, a in coeffs.items() if 1 <= j <= n and not a.is_zero()]
    return ReesAlg.make(f.field, f.nvars, gens)


def reference_rref(rows, field: FieldSpec):
    """Reduced row echelon form of dense rows (lists of field elements),
    by row reduction through the FieldSpec operations; returns (reduced
    nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = field.inv(mat[r][c])
        mat[r] = [field.mul(x, inv) for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [field_add(field, x, field.neg(field.mul(factor, y)))
                          for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def macaulay_additive_forms_reference(forms, degree: int, field: FieldSpec, nvars: int):
    """Additive forms sum(c_i x_i^degree) inside the degree-`degree` graded
    piece of the ideal generated by the given homogeneous forms.

    Returns a list of sparse coefficient vectors {i: c_i} spanning them,
    each with its keys ascending.  The graded piece is spanned by the
    monomial multiples of the forms, one sparse row each.  A monomial of
    degree at most `degree` is packed into the int sum(e_i * (degree + 1)^i),
    so a product of monomials is a sum of ints.  A monomial gets its column
    the first time it appears, and the pure power x_i^degree gets column
    first + i, after every other monomial of the degree.  After one rref,
    the rows whose pivot lies in that last block are zero outside it and
    span the additive forms of the piece.
    """
    weights = [(degree + 1) ** i for i in range(nvars)]
    first = math.comb(degree + nvars - 1, nvars - 1) - nvars
    index = {degree * w: first + i for i, w in enumerate(weights)}
    column = index.setdefault
    rows = []
    for f in forms:
        d = f.total_degree()
        if d > degree:
            continue
        terms = [(sum(map(operator.mul, e, weights)), c) for e, c in f.terms]
        for m in map(sum, itertools.combinations_with_replacement(weights, degree - d)):
            rows.append({column(m + e, len(index) - nvars): c for e, c in terms})
    if not rows:
        return []
    reduced, pivots = rref(rows, field)
    return [{j - first: c for j, c in sorted(row.items())}
            for row, c in zip(reduced, pivots) if c >= first]


def quadratic_rank(f: MPoly) -> int:
    """Rank of a quadratic form over Q (Gram matrix rank); oracle for tau in
    characteristic 0 on single-quadric algebras."""
    if f.field.characteristic != 0:
        raise ValueError("Gram-rank oracle is for characteristic 0")
    n = f.nvars
    gram = [[Fraction(0)] * n for _ in range(n)]
    for e, c in f.terms:
        if sum(e) != 2:
            raise ValueError("not a quadratic form")
        idx = [i for i in range(n) for _ in range(e[i])]
        i, j = idx
        if i == j:
            gram[i][i] = Fraction(c)
        else:
            gram[i][j] = gram[j][i] = Fraction(c) / 2
    reduced, _ = reference_rref(gram, f.field)
    return len(reduced)


def reference_strata(alg: ReesAlg) -> tuple:
    """The singular coordinate strata by a test of the generic point of
    every V(S), S a nonempty variable subset, in `nonempty_subsets` order."""
    return tuple(S for S in map(frozenset, nonempty_subsets(range(alg.nvars)))
                 if sing_member(alg, GenericPoint(S)))


# brute_force_slope refuses to try more substitutions than this
SLOPE_ORACLE_MAX_ALPHAS = 5000


def _order_along(f: MPoly, vars_) -> int:
    """The least degree in `vars_` over the terms of a nonzero f."""
    return min(sum(e[i] for i in vars_) for e, _ in f.terms)


def brute_force_slope(f: MPoly, z: int, y, D: int, down=None):
    """The largest slope of f(z + alpha) at y over every alpha with
    coefficients in F_p built from the monomials of degree 1..D in the
    variables `down` (by default every variable other than z) that vanish
    at y.

    y is the origin (a ClosedPoint of zeros) or a GenericPoint; the slope is
    min over j of ord_y(a_j)/j for f = z^n + sum a_j z^(n-j), read off the
    expanded polynomial, and inf when every a_j vanishes.  Raises
    BudgetError, before substituting anything, when more than
    SLOPE_ORACLE_MAX_ALPHAS alphas would be tried."""
    field, nvars = f.field, f.nvars
    p = field.characteristic
    if isinstance(y, GenericPoint):
        vars_ = tuple(sorted(y.vars))
    elif not any(y.values):
        vars_ = tuple(range(nvars))
    else:
        raise ValueError("brute_force_slope measures at the origin or a generic point")
    if down is None:
        down = [i for i in range(nvars) if i != z]
    monomials = []
    for cut in itertools.chain.from_iterable(
            itertools.combinations_with_replacement(down, d) for d in range(1, D + 1)):
        e = [0] * nvars
        for i in cut:
            e[i] += 1
        if sum(e[i] for i in vars_) >= 1:
            monomials.append(tuple(e))
    count = p ** len(monomials)
    if count > SLOPE_ORACLE_MAX_ALPHAS:
        raise BudgetError("%d substitutions (%d monomials over F_%d) exceed the "
                          "budget of %d" % (count, len(monomials), p,
                                            SLOPE_ORACLE_MAX_ALPHAS))
    zvar = MPoly.var(field, nvars, z)
    best = -1
    for coeffs in itertools.product(range(p), repeat=len(monomials)):
        alpha = MPoly.from_dict(field, nvars, dict(zip(monomials, coeffs)))
        parts = f.substitute({z: zvar + alpha}).coefficients_in_var(z)
        n = max(parts)
        slope = min((Fraction(_order_along(a, vars_), n - k)
                     for k, a in parts.items() if k < n), default=math.inf)
        best = max(best, slope)
    return best


def weighted_root_reference(f: MPoly, z: int, y, q) -> Optional[MPoly]:
    """The root A with (Z + A)^n the weight-q initial form of f at y, or
    None, with the whole form built first: its coefficient of Z^(n-j) is
    the degree-(q*j) piece of a_j at y, in every variable but z after
    translating a closed point to the origin and in the variables of a
    generic point, and zero when q*j is not an integer.  With n = m*p^e, p
    not dividing m, the root is read off the coefficient at j = p^e and
    confirmed by exact expansion."""
    q = Fraction(q)
    field, nvars = f.field, f.nvars
    coeffs = monic_coefficients(f, z)
    n = max(coeffs)
    if isinstance(y, ClosedPoint):
        graded = [i for i in range(nvars) if i != z]
    else:
        graded = sorted(y.vars)
    form = {}
    for j, a in coeffs.items():
        w = q * j
        if w.denominator != 1:
            continue
        if isinstance(y, ClosedPoint):
            a = a.translate(y.values)
        piece = MPoly.from_dict(field, nvars, {e: c for e, c in a.terms
                                               if sum(e[i] for i in graded) == w})
        if not piece.is_zero():
            form[j] = piece
    p = field.characteristic
    pe = 1
    while p and n % (pe * p) == 0:
        pe *= p
    if pe not in form:
        return None
    A = form[pe].scale(field.inv(field.coerce(math.comb(n, pe)))).pth_power_root(pe)
    if A is None:
        return None
    zero = MPoly.zero_poly(field, nvars)
    for j in range(1, n + 1):
        if form.get(j, zero) != (A ** j).scale(field.coerce(math.comb(n, j))):
            return None
    return A


def reference_resolve_game(M, chart) -> GameResult:
    """`monomial.resolve_game` with inclusion-minimality tested by dropping
    each divisor of a stratum in turn: a qualifying T is minimal iff the
    total of T - {j} is below s for every j in T."""
    present = chart.present_divisors()
    h = {lab: hv for lab, hv in M.exponents if present.get(lab) is not None}
    s = M.s
    faces = set(map(frozenset, nonempty_subsets(h)))

    def table():
        return tuple(sorted(h.items(), key=lambda kv: _label_age(kv[0])))

    moves = []
    counter = 0
    while True:
        candidates = [T for T in faces
                      if sum(h[l] for l in T) >= s
                      and all(sum(h[l] for l in T - {j}) < s for j in T)]
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
    if any(sum(h[l] for l in S) >= s for S in faces):
        raise InvariantError("game ended with a qualifying stratum left")
    return GameResult(tuple(moves), table(), frozenset(faces))


def _reference_divides(M: MonomialAlg, R: MonomialAlg) -> bool:
    """Componentwise h_i/s_M <= alpha_i/s_R over a shared divisor registry."""
    hm, hr = dict(M.exponents), dict(R.exponents)
    if set(hm) != set(hr):
        raise TrackingError("incompatible divisor registries")
    return all(h * R.s <= hr[lab] * M.s for lab, h in hm.items())


def _reference_elim_algebras(elim: ReesAlg, chart):
    """One MonomialAlg per elimination generator, when every generator is a
    single term supported on present exceptional variables; error otherwise."""
    present = chart.present_divisors()
    var_to_label = {v: lab for lab, v in present.items()}
    out = []
    for g, m in elim.gens:
        if not g.is_single_term():
            raise NonMonomialElimError("elimination generator is not a monomial")
        exps, _ = g.terms[0]
        alg_exps = []
        for v, e in enumerate(exps):
            if e == 0:
                continue
            if v not in var_to_label:
                raise NonMonomialElimError(
                    "elimination generator involves the non-exceptional variable #%d" % v)
            alg_exps.append((var_to_label[v], e))
        out.append(MonomialAlg(m, tuple(alg_exps)))
    return out


def strong_divisibility_reference(tower) -> Optional[dict]:
    """The divisibility half of `monomial.is_strong_monomial`, composed the
    way the library once composed it: the tower's monomial algebra
    restricted to the present divisors must divide the MonomialAlg of every
    elimination generator, padded with exponent 0 on the present labels it
    does not involve.  All generators are converted before any comparison,
    so a non-monomial generator raises NonMonomialElimError even after one
    that fails.  Returns the witness of the first failing generator, or
    None when every one is divided."""
    M = track_monomial(tower)
    sp = tower.obj
    present = tower.chart.present_divisors()
    labels = [lab for lab, _ in M.exponents if present.get(lab) is not None]
    if not sp.elim.gens:
        return None
    Mp = MonomialAlg(M.s, tuple((lab, h) for lab, h in M.exponents if lab in labels))
    for R in _reference_elim_algebras(sp.elim, tower.chart):
        rmap = dict(R.exponents)
        full = MonomialAlg(R.s, tuple((lab, rmap.get(lab, 0)) for lab in labels))
        if not _reference_divides(Mp, full):
            return {"kind": "divides", "elim_gen_weight": R.s,
                    "monomial": Mp.exponents, "elim": full.exponents}
    return None


def ord_monomial_reference(M: MonomialAlg, x: PointSpec, chart: Chart):
    """Order of the monomial algebra at a representable point: the sum of
    exponents of the present divisors passing through it, over s.  The
    general form of what `monomial.sandwich_report` sums per stratum and
    the strong check sums at the chart origin."""
    dmap = dict(chart.divisors)
    total = 0
    for lab, h in M.exponents:
        if lab not in dmap:
            raise InputError("divisor label %r is not in the chart registry" % lab)
        v = dmap[lab]
        if v is None:
            continue
        if isinstance(x, ClosedPoint):
            on = x.values[v] == 0
        else:
            on = v in x.vars
        if on:
            total += h
    return Fraction(total, M.s)


def lift_back_map(field: FieldSpec, steps, values: tuple) -> tuple:
    """The point of the chart before `steps` under the closed point `values`
    of the chart after them: each blowup is undone, the last first, by
    x_c = x_c' * x_v for the chart variable v and every other variable c of
    its center."""
    vals = list(values)
    for step in reversed(steps):
        v = step.chart_var
        for c in step.center:
            if c != v:
                vals[c] = field.mul(vals[c], vals[v])
    return tuple(vals)


def workload_towers(seed: int) -> list:
    """(name, tower) for every scene of the benchmark's `towers` workload at
    `seed`: the scene's presentation blown up by its script's blowup lines,
    as the scene itself runs them."""
    import sys
    from pathlib import Path
    from charpres.scene import RunOptions, _Execution, execute_command, parse_scene
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads
    out = []
    for case in workloads.load_towers(seed):
        ex = _Execution(parse_scene(case.text, case.name), RunOptions())
        for _, text in ex.scene.script:
            if text.startswith("blowup:"):
                execute_command(ex, text)
        out.append((case.name, ex.tower))
    return out



def modular_image(text: str, ell: int) -> str:
    """A Q scene's text read over F_ell instead: its `characteristic: 0` line
    becomes `characteristic: ell`, so every coefficient and coordinate n/d is
    read as n * d^-1 mod ell."""
    image, count = re.subn(r"(?m)^(\s*characteristic\s*:\s*)0(?=\s*(?:#|$))",
                           r"\g<1>%d" % ell, text)
    if count != 1:
        raise ValueError("not a scene over Q")
    return image

# -- the reference polynomial parser -------------------------------------------


_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:(?P<num>" + _LITERAL + r")|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
                                 r"|(?P<op>[-+*^()])|(?P<bad>\S))")


def reference_tokenize(text: str):
    """The token list of the reference parser: (kind, value) pairs, every
    literal a Fraction, and a final ("end", None)."""
    tokens = []
    for m in _REFERENCE_TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            rest = text[m.start(kind):]
            raise PolyParseError(f"unexpected character at: {rest[:20]!r}")
        val = m.group(kind)
        tokens.append((kind, _literal(val) if kind == "num" else val))
    tokens.append(("end", None))
    return tokens


class ReferenceParser:
    """The recursive-descent parser that `poly._Parser` replaced, as it was:
    recursive descent for `+ - * ^` expressions over named variables.

    Division is not an operator; rational literals like 3/2 are single
    coefficient tokens.  A minus sign binds looser than ^ everywhere: -x^2
    and 2*-x^2 both negate x^2.  Implicit multiplication is rejected by
    construction (two adjacent atoms never parse).  Every subexpression evaluates to
    (den, terms): a term dict {exponents: int} without zeros, reduced over
    F_p, and a denominator den >= 1 that divides it over Q (den = 1 over
    F_p).  `parse` makes the one MPoly at the end.  Every product, of `*`
    or inside `^`, goes through `product`, which meters the term products
    of the whole polynomial; a sum raises BudgetError once it has more than
    PARSE_MAX_TERMS terms.
    """

    def __init__(self, tokens, field: FieldSpec, names):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.p = field.characteristic
        self.names = list(names)
        self.nvars = len(self.names)
        self.work = 0   # term products taken so far

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> MPoly:
        den, d = self.expr()
        if self.peek()[0] != "end":
            raise PolyParseError(f"trailing input near token {self.peek()!r}")
        return MPoly._from_terms(self.field, self.nvars, d.items(), den)

    def neg(self, d: dict) -> dict:
        p = self.p
        return {e: -c % p for e, c in d.items()} if p else {e: -c for e, c in d.items()}

    def expr(self) -> tuple:
        sign = 1
        while self.peek() == ("op", "-") or self.peek() == ("op", "+"):
            if self.take() == ("op", "-"):
                sign = -sign
        den, acc = self.term()
        acc = self.neg(acc) if sign < 0 else acc
        if self.peek() not in (("op", "+"), ("op", "-")):
            return den, acc
        acc = dict(acc)
        get = acc.get
        while self.peek() in (("op", "+"), ("op", "-")):
            sign = 1 if self.take() == ("op", "+") else -1
            d, rhs = self.term()
            if d != den:    # bring both sides over the least common denominator
                lcm = math.lcm(den, d)
                if lcm != den:
                    acc = {e: c * (lcm // den) for e, c in acc.items()}
                    get = acc.get
                sign *= lcm // d
                den = lcm
            for e, c in rhs.items():
                acc[e] = get(e, 0) + sign * c
            if len(acc) > PARSE_MAX_TERMS:
                raise BudgetError(f"a sum has more than {PARSE_MAX_TERMS} terms "
                                  f"(the parse budget)")
        return den, _clean(acc, self.p)

    def term(self) -> tuple:
        den, acc = self.factor()
        while self.peek() == ("op", "*"):
            self.take()
            d, rhs = self.factor()
            den, acc = den * d, self.product(acc.items(), rhs.items(),
                                             den_bits=den.bit_length() + d.bit_length())
        return den, acc

    def product(self, a, b, op: Optional[str] = None, den_bits: int = 0) -> dict:
        """The clean product of the term lists a and b.  Raises BudgetError
        before it when it could have more than PARSE_MAX_TERMS terms (at most
        |a|*|b|, and at most as many as there are monomials of its degree),
        when over Q its coefficients could have more than _WORK_PER_TERM *
        PARSE_MAX_TERMS bits (`_product_bits`, plus `den_bits` for the
        denominators of the factors), or when its |a|*|b| term products take
        the polynomial's total past _WORK_PER_TERM * PARSE_MAX_TERMS.  `op`
        names the operation in the message; by default it is this product."""
        cap, size = PARSE_MAX_TERMS, len(a) * len(b)
        limit = cap * _WORK_PER_TERM
        if size > cap and _monomial_count(a, b, self.nvars, cap) > cap:
            over = f"could have more than {cap} terms"
        elif not self.p and _product_bits(a, b) + den_bits > limit:
            over = f"could build coefficients of more than {limit} bits"
        else:
            self.work += size
            if self.work <= limit:
                return _clean(_mul_terms(a, b), self.p)
            over = (f"takes more than {limit} term products, counting "
                    f"those before it in the polynomial")
        op = op or f"a product of a {len(a)}-term and a {len(b)}-term polynomial"
        raise BudgetError(f"{op} {over} (the parse budget)")

    def factor(self) -> tuple:
        if self.peek() == ("op", "-"):
            self.take()
            den, d = self.factor()
            return den, self.neg(d)
        den, base = self.atom()
        while self.peek() == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "num" or val.denominator != 1 or val < 0:
                raise PolyParseError("exponent must be a non-negative integer")
            n = int(val)
            # over Q the coefficients of base^n grow to about n times the bit
            # length of the largest numerator or denominator above 1
            big = 0 if self.p else max(max(map(abs, base.values()), default=0), den)
            limit = PARSE_MAX_TERMS * _WORK_PER_TERM
            if big > 1 and n * big.bit_length() > limit:
                raise BudgetError(f"the power ^{n} of a polynomial with {big.bit_length()}-bit "
                                  f"coefficients builds coefficients of more than "
                                  f"{limit} bits (the parse budget)")
            t = len(base)
            den, base = den ** n, _pow_terms(
                base.items(), n, self.p, self.nvars,
                lambda a, b: self.product(a, b, f"the power ^{n} of a {t}-term polynomial"))
        return den, base

    def atom(self) -> tuple:
        kind, val = self.take()
        if kind == "num":
            if self.p:
                den, c = 1, self.field.coerce(val)
            else:
                den, c = val.denominator, val.numerator
            return den, ({(0,) * self.nvars: c} if c else {})
        if kind == "name":
            try:
                i = self.names.index(val)
            except ValueError:
                raise PolyParseError(f"unknown variable {val!r}") from None
            return 1, {tuple(int(j == i) for j in range(self.nvars)): 1}
        if (kind, val) == ("op", "("):
            inner = self.expr()
            if self.take() != ("op", ")"):
                raise PolyParseError("missing closing parenthesis")
            return inner
        raise PolyParseError(f"unexpected token {val!r}")


def reference_parse_poly(text: str, field: FieldSpec, names) -> MPoly:
    """`parse_poly` through `ReferenceParser`."""
    if "/" in text:
        # A slash is only legal inside a rational coefficient literal.
        if re.search(r"(?<![0-9])/|/(?![0-9])", text):
            raise PolyParseError("division is not part of the polynomial syntax")
    return ReferenceParser(reference_tokenize(text), field, names).parse()
