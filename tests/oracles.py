"""Reference computations that the library is checked against in tests,
and the fixtures that only tests need.

None of these is reached from the package: each is the plain, slower or
narrower way to get a value the library computes another way, or, like
coefficient_elim, a way to build test input.
"""

import itertools
from fractions import Fraction

from charpres.errors import InvariantError
from charpres.monomial import GameMove, GameResult, _label_age
from charpres.poly import FieldSpec, GenericPoint, MPoly, monic_coefficients
from charpres.rees import ReesAlg, nonempty_subsets, sing_member


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
        acc = field.add(acc, term)
    return acc


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
                mat[i] = [field.add(x, field.neg(field.mul(factor, y)))
                          for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


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
