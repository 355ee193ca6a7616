"""Sparse exact multivariate polynomials over Q or F_p.

This is the carrier type for the whole library: coefficients are
`fractions.Fraction` in characteristic 0 and canonical residues `0..p-1` in
characteristic p, so every computation downstream is exact.  On top of the
ring operations the module provides the local-analysis toolkit: orders at
closed and generic points, Hasse (divided-power) derivatives, and the
coefficient split of monic section polynomials.

Term order for canonical output is graded lexicographic, largest first.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add as _add, sub as _sub
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Union

from .errors import BudgetError, InputError, NotMonicError, PolyParseError

# Orders of the zero polynomial and of empty algebras compare as infinity.
# float("inf") is used strictly for comparisons and never serialized as-is.
INF = float("inf")

# parse_poly raises BudgetError before a product or sum that could have more
# terms than this, before a product that would take the polynomial's term
# products past _WORK_PER_TERM times as many, and over Q before a power or
# product whose coefficients could have more bits than that
PARSE_MAX_TERMS = 10 ** 5
_WORK_PER_TERM = 10

Coeff = Union[Fraction, int]
Exps = tuple  # tuple[int, ...]


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first 12 primes as bases: exact for n below
    3.1 * 10^23 (Sorenson and Webster 2015), so for every n below 2^64."""
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % a == 0:
            return n == a
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(unsafe_hash=True)
class FieldSpec:
    """The base field: Q when characteristic is 0, F_p when it is a prime p."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p >= 2 ** 64:
            raise InputError(f"characteristic must be below 2^64, got {p}")
        if p != 0 and not _is_prime(p):
            raise InputError(f"characteristic must be 0 or prime, got {p}")

    @property
    def zero(self) -> Coeff:
        return 0 if self.characteristic else Fraction(0)

    @property
    def one(self) -> Coeff:
        return 1 if self.characteristic else Fraction(1)

    def coerce(self, x) -> Coeff:
        """Bring an int or Fraction into canonical element form."""
        p = self.characteristic
        if p == 0:
            return Fraction(x)
        if isinstance(x, Fraction):
            den = x.denominator % p
            if den == 0:
                raise InputError(f"denominator of {x} vanishes mod {p}")
            return (x.numerator % p) * pow(den, -1, p) % p
        return x % p

    def mul(self, a: Coeff, b: Coeff) -> Coeff:
        p = self.characteristic
        return (a * b) % p if p else a * b

    def neg(self, a: Coeff) -> Coeff:
        p = self.characteristic
        return (-a) % p if p else -a

    def inv(self, a: Coeff) -> Coeff:
        p = self.characteristic
        if p:
            return pow(a, -1, p)
        return Fraction(1) / a

    def __str__(self) -> str:
        p = self.characteristic
        return "Q" if p == 0 else f"F_{p}"


def _term_key(term):
    e = term[0]
    return (sum(e), e)


@dataclass(unsafe_hash=True)
class MPoly:
    """An immutable sparse polynomial: exponent vector -> nonzero coefficient.

    `terms` is kept sorted graded-lexicographically descending, which makes
    equality, hashing and rendering canonical.
    """

    field: FieldSpec
    nvars: int
    terms: tuple  # tuple[tuple[Exps, Coeff], ...]

    # (parent, alpha) on a Hasse derivative H^alpha(parent); see translate
    _derived = None
    # section index -> read-only monic split; see monic_coefficients
    _splits = None
    # closed point values -> translate; see translate
    _translates = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dict(cls, field: FieldSpec, nvars: int, d: Mapping[Exps, Coeff]) -> "MPoly":
        items = []
        for exps, c in d.items():
            c = field.coerce(c)
            if c == 0:
                continue
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise InputError(f"bad exponent vector {exps} for arity {nvars}")
            items.append((tuple(exps), c))
        items.sort(key=_term_key, reverse=True)
        return cls(field, nvars, tuple(items))

    @classmethod
    def _from_terms(cls, field: FieldSpec, nvars: int, pairs: Iterable[tuple],
                    den: Optional[int] = None) -> "MPoly":
        """Trusted constructor for kernel results.

        `pairs` are (exponent tuple, coefficient) with distinct exponent
        tuples of arity `nvars`.  Coefficients are field elements, except
        that over F_p they may be unreduced integer sums, and over Q with
        `den` given they are numerators (ints or Fractions) over the
        positive integer `den`, each made into one Fraction here.  Nothing is
        validated: coefficients are reduced mod p, zeros dropped and the
        terms sorted.
        """
        p = field.characteristic
        if p:
            items = [(e, r) for e, c in pairs if (r := c % p)]
        elif den is None:
            items = [(e, c) for e, c in pairs if c]
        elif den == 1:
            items = [(e, Fraction(c)) for e, c in pairs if c]
        else:
            items = [(e, Fraction(c, den)) for e, c in pairs if c]
        items.sort(key=_term_key, reverse=True)
        return cls(field, nvars, tuple(items))

    @classmethod
    def zero_poly(cls, field: FieldSpec, nvars: int) -> "MPoly":
        return cls(field, nvars, ())

    @classmethod
    def const(cls, field: FieldSpec, nvars: int, c) -> "MPoly":
        return cls.from_dict(field, nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, field: FieldSpec, nvars: int, i: int) -> "MPoly":
        exps = [0] * nvars
        exps[i] = 1
        return cls.from_dict(field, nvars, {tuple(exps): 1})

    # -- basic queries -----------------------------------------------------
    #
    # The per-term reductions are plain loops: any/all/min/max over a
    # generator expression pays for a generator frame, which on the two- and
    # three-term polynomials of a tower costs more than the reduction itself.

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        for e, _ in self.terms:
            if sum(e):
                return False
        return True

    def constant_value(self) -> Coeff:
        for e, c in self.terms:
            if sum(e) == 0:
                return c
        return self.field.zero

    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def total_degree(self) -> int:
        best = -1
        for e, _ in self.terms:
            d = sum(e)
            if d > best:
                best = d
        return best

    def degree_in_var(self, i: int) -> int:
        best = -1
        for e, _ in self.terms:
            if e[i] > best:
                best = e[i]
        return best

    def uses_var(self, i: int) -> bool:
        for e, _ in self.terms:
            if e[i]:
                return True
        return False

    def order_total(self):
        best = INF
        for e, _ in self.terms:
            d = sum(e)
            if d < best:
                best = d
        return best

    def order_wrt(self, var_set: Iterable[int]):
        vs = tuple(var_set)
        best = INF
        for e, _ in self.terms:
            d = 0
            for i in vs:
                d += e[i]
            if d < best:
                best = d
        return best

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check_compat(other)
        d = dict(self.terms)
        get = d.get
        for e, c in other.terms:
            d[e] = get(e, 0) + c
        return MPoly._from_terms(self.field, self.nvars, d.items())

    def __neg__(self) -> "MPoly":
        f = self.field
        return MPoly(f, self.nvars, tuple((e, f.neg(c)) for e, c in self.terms))

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        """Schoolbook product; over F_p the sums are reduced once at the end."""
        self._check_compat(other)
        return MPoly._from_terms(self.field, self.nvars,
                                 _mul_terms(self.terms, other.terms).items(), 1)

    def __pow__(self, n: int) -> "MPoly":
        """The n-th power by `_pow_terms`, by Frobenius over F_p."""
        if n < 0:
            raise InputError("negative power of a polynomial")
        p = self.field.characteristic
        d = _pow_terms(self.terms, n, p, self.nvars, lambda a, b: _clean(_mul_terms(a, b), p))
        return MPoly._from_terms(self.field, self.nvars, d.items(), 1)

    def scale(self, c) -> "MPoly":
        f = self.field
        c = f.coerce(c)
        if c == 0:
            return MPoly.zero_poly(f, self.nvars)
        # a nonzero scalar keeps every term nonzero and the order unchanged
        return MPoly(f, self.nvars, tuple((e, f.mul(cc, c)) for e, cc in self.terms))

    def _check_compat(self, other: "MPoly"):
        if self.field != other.field or self.nvars != other.nvars:
            raise InputError("polynomials live in different rings")

    # -- structural pieces -------------------------------------------------

    def homogeneous_part(self, k: int) -> "MPoly":
        return MPoly(self.field, self.nvars,
                     tuple((e, c) for e, c in self.terms if sum(e) == k))

    def graded_part_wrt(self, var_set: Iterable[int], k: int) -> "MPoly":
        vs = tuple(var_set)
        return MPoly(self.field, self.nvars,
                     tuple((e, c) for e, c in self.terms if sum(e[i] for i in vs) == k))

    def coefficients_in_var(self, i: int) -> dict:
        """Decompose as a polynomial in variable i: exponent -> coefficient poly."""
        buckets: dict = {}
        for e, c in self.terms:
            k = e[i]
            rest = list(e)
            rest[i] = 0
            buckets.setdefault(k, {})[tuple(rest)] = c
        return {k: MPoly._from_terms(self.field, self.nvars, d.items())
                for k, d in buckets.items()}

    # -- substitution and friends -------------------------------------------

    def substitute(self, mapping: Mapping[int, "MPoly"]) -> "MPoly":
        """Simultaneously replace variables by polynomials (ring morphism)."""
        f = self.field
        one = MPoly.const(f, self.nvars, 1)
        pow_cache: dict = {}
        d: dict = {}
        get = d.get
        for e, c in self.terms:
            piece = one
            plain = [0] * self.nvars
            for i, k in enumerate(e):
                if k == 0:
                    continue
                if i in mapping:
                    key = (i, k)
                    if key not in pow_cache:
                        pow_cache[key] = mapping[i] ** k
                    piece = piece * pow_cache[key]
                else:
                    plain[i] = k
            for e2, c2 in piece.terms:
                ee = tuple(map(_add, e2, plain))
                d[ee] = get(ee, 0) + c * c2
        return MPoly._from_terms(f, self.nvars, d.items())

    def translate(self, values) -> "MPoly":
        """Shift coordinates to a closed point: x_i -> x_i + v_i.

        The result expresses the polynomial in local coordinates at the point.
        Each moved variable is one Taylor shift over the terms: c*x_i^k
        expands to sum_j binom(k, j) v_i^(k-j) c*x_i^j, so a shift costs
        sum over terms of (k + 1) coefficient operations.  A Hasse
        derivative H^alpha(parent) that records it (`hasse_deriv_multi` and
        the saturation do) is not shifted: Hasse derivatives commute with
        translations, so its translate is H^alpha of the parent's translate.

        The translate is computed once per polynomial and point and kept on
        the polynomial, keyed by the values as a tuple, for as long as it
        lives; a tuple is the key as it is, so the values of a `ClosedPoint`
        over Q are looked up by the hash they computed once.  A
        shift that moves nothing (for a derivative: one that leaves the
        parent itself) returns the polynomial itself and is not kept; an
        all-zero point returns it at once, before the value loop.  A
        wrong-arity point raises on every call.
        """
        if not isinstance(values, tuple):
            values = tuple(values)
        if len(values) != self.nvars:
            raise InputError("point arity does not match polynomial arity")
        if not any(values):
            return self
        memo = self._translates
        if memo is None:
            memo = self._translates = {}
        g = memo.get(values)
        if g is None:
            if self._derived is None:
                g = self._shift(values)
            else:
                parent, alpha = self._derived
                moved = parent.translate(values)
                g = self if moved is parent else moved.hasse_deriv_multi(alpha)
            if g is not self:
                memo[values] = g
        return g

    def _shift(self, values) -> "MPoly":
        """The Taylor-shift kernel of `translate`, with no memo.

        Over Q it runs on integer numerators over one denominator (see
        `_numerators`): a shift of x_i by a/b multiplies the denominator by
        b^K, K the top exponent of x_i, and c*x_i^k expands with the integer
        row binom(k, j) a^(k-j) b^(K-k+j).  One Fraction is made per output
        term, at the end.
        """
        f = self.field
        p = f.characteristic
        moves = [(i, v) for i, v in enumerate(map(f.coerce, values)) if v]
        if not moves:
            return self
        den, terms = (1, self.terms) if p else _numerators(self.terms)
        for i, v in moves:
            a, b = v.numerator, v.denominator   # b = 1 over F_p
            top = max((e[i] for e, _ in terms), default=0) if b != 1 else 0
            lift = b ** top
            den *= lift
            rows: dict = {}  # k -> _shift_row(k, a, b, top, p)
            out: dict = {}
            get = out.get
            for e, c in terms:
                if p:
                    c %= p  # the sums of the previous shift are unreduced
                if not c:
                    continue
                k = e[i]
                if k == 0:
                    out[e] = get(e, 0) + c * lift
                    continue
                row = rows.get(k)
                if row is None:
                    row = rows[k] = _shift_row(k, a, b, top, p)
                head, tail = e[:i], e[i + 1:]
                for j, w in enumerate(row):
                    if w:
                        ee = head + (j,) + tail
                        out[ee] = get(ee, 0) + c * w
            terms = out.items()
        return MPoly._from_terms(f, self.nvars, terms, den)

    # -- exact roots --------------------------------------------------------

    def pth_power_root(self, pe: int) -> Optional["MPoly"]:
        """The pe-th root when pe is a p-power and the poly is a pe-th power.

        Over F_p a polynomial is a pe-th power exactly when every exponent is
        divisible by pe (coefficient roots are free by Fermat).  Returns None
        when no root exists.  pe = 1 returns the polynomial itself.
        """
        if pe == 1:
            return self
        f = self.field
        if f.characteristic == 0:
            return None
        d = {}
        for e, c in self.terms:
            if any(k % pe for k in e):
                return None
            d[tuple(k // pe for k in e)] = c
        return MPoly.from_dict(f, self.nvars, d)

    # -- Hasse derivatives ---------------------------------------------------

    def hasse_deriv(self, i: int, r: int) -> "MPoly":
        """The divided-power derivative of order r in variable i.

        Acts on monomials by x^m -> binom(m, r) x^(m-r), the binomial taken
        in Z and then reduced into the field, which is the correct divided
        Leibniz operator in every characteristic.
        """
        if r == 0:
            return self
        alpha = [0] * self.nvars
        alpha[i] = r
        return self.hasse_deriv_multi(alpha)

    def hasse_deriv_multi(self, alpha) -> "MPoly":
        """The Hasse derivative of multi-order alpha, in one pass over the terms.

        x^m -> prod_i binom(m_i, alpha_i) x^(m - alpha).  Subtracting alpha
        keeps distinct exponents distinct and the term order unchanged, so
        the surviving terms need neither accumulation nor sorting.  The
        result records (self, alpha), so that its `translate` is taken from
        this polynomial's translate; alpha = 0 returns self.
        """
        alpha = tuple(alpha)
        if len(alpha) != self.nvars:
            raise InputError(f"multi-order {alpha} does not match arity {self.nvars}")
        active = [(i, r) for i, r in enumerate(alpha) if r]
        if not active:
            return self
        p = self.field.characteristic
        comb = math.comb
        out = []
        for e, c in self.terms:
            b = 1
            for i, r in active:
                m = e[i]
                if m < r:
                    break
                b *= comb(m, r)
            else:
                c = c * b % p if p else c * b
                if c:
                    out.append((tuple(map(_sub, e, alpha)), c))
        g = MPoly(self.field, self.nvars, tuple(out))
        g._derived = (self, alpha)
        return g

    def __str__(self) -> str:
        return render_poly(self, tuple(f"x{i}" for i in range(self.nvars)))


def _shift_row(k: int, a: int, b: int, top: int, p: int) -> list:
    """[binom(k, j) * a^(k-j) * b^(top-k+j) for j = 0..k], top >= k when
    b > 1: the Taylor row of x^k shifted by a/b, times b^top.  Over F_p
    (b = 1) the entries are reduced mod p."""
    row = [0] * (k + 1)
    w = b ** top
    for j in range(k, -1, -1):
        row[j] = math.comb(k, j) * w % p if p else math.comb(k, j) * w
        w = w * a % p if p else w * a // b
    return row


# -- term-dict kernels ----------------------------------------------------------
# Products, powers and the parser work on {exponents: int} dicts and lists of
# (exponents, int) pairs; the MPoly, with its Fractions over Q, is built once
# from the result by MPoly._from_terms.


def _numerators(terms) -> tuple:
    """(den, [(e, n)]): rational (or int) coefficients as integer numerators
    over their least common denominator, den >= 1."""
    den = math.lcm(*[c.denominator for _, c in terms])
    if den == 1:
        return 1, [(e, c.numerator) for e, c in terms]
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms]


def _primitive_terms(terms) -> tuple:
    """Nonzero rational terms as their primitive integer vector with a
    positive leading entry: equal exactly for term tuples that differ by a
    nonzero scalar."""
    _, nums = _numerators(terms)
    g = math.gcd(*[c for _, c in nums])
    if nums[0][1] < 0:
        g = -g
    return tuple((e, c // g) for e, c in nums)


def _mul_terms(a, b) -> dict:
    """The schoolbook product of two term lists, its sums unreduced."""
    d: dict = {}
    get = d.get
    for e1, c1 in a:
        for e2, c2 in b:
            e = tuple(map(_add, e1, e2))
            d[e] = get(e, 0) + c1 * c2
    return d


def _clean(d: dict, p: int) -> dict:
    """The term dict `d` reduced mod p (p > 0) and without zeros."""
    if p:
        return {e: r for e, c in d.items() if (r := c % p)}
    return {e: c for e, c in d.items() if c}


def _pow_terms(terms, n: int, p: int, nvars: int, mul) -> dict:
    """The n-th power of a term list over Z (p = 0) or F_p, as a clean dict.

    Each power f^d is formed by d - 1 products with the sparse base.  Over
    F_p the exponent is split in base p first, n = sum d_k p^k: then f^n is
    the product of the (f^(d_k))^(p^k), and (f^d)^(p^k) is f^d with every
    exponent scaled by p^k, because c^p = c on F_p.  So only powers below p
    are multiplied out.  Every product goes through `mul(a, b)`, the clean
    product of two term lists, which the caller may meter.
    """
    terms = list(terms)
    if n == 0:
        return {(0,) * nvars: 1}
    if len(terms) == 1:
        (e, c), = terms
        return _clean({tuple(k * n for k in e): pow(c, n, p) if p else c ** n}, p)
    out = None
    powers = [None, dict(terms)]    # f^1, f^2, ...: the digit powers so far
    q = 1
    while n:
        n, d = divmod(n, p) if p else (0, n)
        if d:
            while len(powers) <= d:
                powers.append(mul(powers[-1].items(), terms))
            g = powers[d]
            if q > 1:
                g = {tuple(k * q for k in e): c for e, c in g.items()}
            out = g if out is None else mul(out.items(), g.items())
        q *= p
    return out


# -- points -----------------------------------------------------------------


class _HashedValues(tuple):
    """A tuple that computes its hash once, when it is made.

    The coordinates of a point over Q are Fractions, whose hash is a modular
    inverse per call; a point's values key the translate memos and are
    looked up there once per polynomial and point, so hashing them once
    saves that work on every lookup.  It equals and hashes as the plain
    tuple of the same values.
    """

    def __new__(cls, values):
        self = super().__new__(cls, values)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


@dataclass(unsafe_hash=True, init=False)
class ClosedPoint:
    """A rational point given by its coordinate values.

    Values with a Fraction among them, those of a point over Q, are kept
    as a `_HashedValues`; int values, those of a point over F_p, stay the
    plain tuple, which Python hashes without a Python-level call.  The
    values are wrapped before they are stored, so the field is assigned
    once, like every field of a value type.
    """

    values: tuple

    def __init__(self, values: tuple):
        for v in values:
            if type(v) is Fraction:
                values = _HashedValues(values)
                break
        self.values = values


@dataclass(unsafe_hash=True)
class GenericPoint:
    """The generic point of the coordinate subvariety V(x_i : i in vars)."""

    vars: frozenset

    def __post_init__(self):
        if not self.vars:
            raise InputError("generic point needs a non-empty variable set")


PointSpec = Union[ClosedPoint, GenericPoint]


def order_at(f: MPoly, pt: PointSpec):
    """The order of f at a point: infinity for the zero polynomial.

    Closed points measure the usual local multiplicity (after translating the
    point to the origin); the generic point of V(x_i : i in S) measures the
    minimal S-degree, i.e. the order along that coordinate subvariety.
    """
    if isinstance(pt, ClosedPoint):
        return f.translate(pt.values).order_total()
    return f.order_wrt(pt.vars)


def least_ratio(pairs):
    """The least o/n over (order, weight) pairs of ints with n >= 1, as a
    Fraction; INF when there are none.  The ratios compare as integer cross
    products, so only the least becomes a Fraction."""
    best, best_n = INF, 1
    for o, n in pairs:
        if o * best_n < best * n:
            best, best_n = o, n
    return INF if best == INF else Fraction(best, best_n)


def monic_coefficients(f: MPoly, z_index: int) -> Mapping[int, MPoly]:
    """Split a monic section polynomial into {j: a_j} with f = z^n + sum a_j z^(n-j).

    Raises on non-monic input or on coefficients involving the section variable
    (the latter cannot happen for polynomials built by decomposition, but input
    validation keeps presentations honest).  The split is computed once per
    polynomial and section and returned read-only, since callers share it; a
    non-monic input raises on every call.
    """
    memo = f._splits
    if memo is None:
        memo = f._splits = {}
    out = memo.get(z_index)
    if out is None:
        by_deg = f.coefficients_in_var(z_index)
        if not by_deg:
            raise NotMonicError("zero polynomial is not monic")
        n = max(by_deg)
        lead = by_deg[n]
        if n == 0 or not lead.is_constant() or lead.constant_value() != f.field.one:
            raise NotMonicError("section polynomial must be monic of positive degree")
        split = {n - k: a for k, a in by_deg.items() if k != n}
        # a_n is the z-free part, zero when absent
        split.setdefault(n, MPoly.zero_poly(f.field, f.nvars))
        out = memo[z_index] = MappingProxyType(split)
    return out


def monic_from_coefficients(field: FieldSpec, nvars: int, z_index: int,
                            split: Mapping[int, MPoly]) -> MPoly:
    """f = z^n + sum a_j z^(n-j) from a split {j: a_j} shaped as
    monic_coefficients returns one: n the largest key, a_n present (the zero
    polynomial when f has no z-free part), every other a_j nonzero, all free
    of z.  The split is kept as f's, so monic_coefficients(f, z_index)
    returns it without rebuilding it.  Trusted, like MPoly._from_terms:
    nothing is validated; SimplifiedPresentation checks the split it reads.
    Every term of a_j goes to its own term of f with its coefficient as it
    is, so the terms only need sorting.
    """
    n = max(split)
    top = [0] * nvars
    top[z_index] = n
    terms = [(tuple(top), field.one)]
    for j, a in split.items():
        k = (n - j,)
        for e, c in a.terms:
            terms.append((e[:z_index] + k + e[z_index + 1:], c))
    terms.sort(key=_term_key, reverse=True)
    f = MPoly(field, nvars, tuple(terms))
    f._splits = {z_index: MappingProxyType(dict(split))}
    return f


# -- text syntax --------------------------------------------------------------

# a coefficient literal: n or n/d, unsigned
_LITERAL = r"[0-9]+(?:/[0-9]+)?"
# a token is a literal, a name or an operator; any other character that is
# not whitespace matches the last branch, which gives the empty token
_TOKEN_RE = re.compile(r"(" + _LITERAL + r"|[A-Za-z_][A-Za-z_0-9]*|[-+*^()])|\S")
_SIGNED_LITERAL_RE = re.compile(r"[-+]?" + _LITERAL)
_OPS = frozenset("-+*^()")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
# parse_poly raises BudgetError at parentheses nested deeper than this
PARSE_MAX_DEPTH = 100


def _int(digits: str) -> int:
    """The value of a run of digits; a parse error past the digit count that
    int() converts (`sys.get_int_max_str_digits()`)."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(f"a literal of {len(digits)} digits is too long") from None


def _literal(text: str) -> Fraction:
    """The value of a coefficient literal `n` or `n/d`."""
    num, _, den = text.partition("/")
    if not den:
        return Fraction(_int(num))
    d = _int(den)
    if d == 0:
        raise PolyParseError("zero denominator in coefficient literal")
    return Fraction(_int(num), d)


def parse_coeff(text: str, field: FieldSpec) -> Coeff:
    """An optional sign and a coefficient literal `n` or `n/d`, as in
    polynomial text, as an element of `field`."""
    text = text.strip()
    if not _SIGNED_LITERAL_RE.fullmatch(text):
        raise PolyParseError(f"expected n or n/d with an optional sign, got {text!r}")
    value = _literal(text.lstrip("+-"))
    return field.coerce(-value if text[0] == "-" else value)


def _tokenize(text: str) -> list:
    """The tokens of polynomial text as strings, then None for the end.

    Raises PolyParseError at the first character no token takes, and at the
    first literal with a zero denominator, whichever comes first."""
    tokens = _TOKEN_RE.findall(text)
    if "" in tokens or "/" in text:
        for m in _TOKEN_RE.finditer(text):
            tok = m.group(1)
            if tok is None:
                raise PolyParseError(f"unexpected character at: {text[m.start():][:20]!r}")
            if "/" in tok:
                _literal(tok)
    tokens.append(None)
    return tokens


def _token_repr(tok) -> str:
    """How an error names a token: the repr of (kind, value), the value of a
    literal as a Fraction."""
    if tok is None:
        return repr(("end", None))
    if tok in _OPS:
        return repr(("op", tok))
    if tok[0] in _NAME_START:
        return repr(("name", tok))
    return repr(("num", _literal(tok)))


def _capped_comb(m: int, r: int, cap: int) -> int:
    """binom(m, r), or cap + 1 as soon as it is known to exceed cap."""
    r = min(r, m - r)
    if r < 0:
        return 0
    out = 1
    for i in range(r):
        out = out * (m - i) // (i + 1)     # binom(m, i + 1), growing with i
        if out > cap:
            return cap + 1
    return out


def _monomial_count(a, b, nvars: int, cap: int) -> int:
    """min(cap + 1, the number of monomials that a product of the term lists
    a and b can hold): binom(D + n, n), D the sum of their total degrees and
    n the number of variables they use."""
    deg = sum(max((sum(e) for e, _ in t), default=0) for t in (a, b))
    n = sum(1 for i in range(nvars) if any(e[i] for t in (a, b) for e, _ in t))
    return _capped_comb(deg + n, n, cap)


def _product_bits(a, b) -> int:
    """A bound on the bit length of the integer coefficients of the product
    of the term lists a and b: the bit lengths of their largest coefficients,
    plus log2 of the smaller term count, rounded up (a coefficient is a sum
    of at most that many products)."""
    big = [max((abs(c) for _, c in t), default=0).bit_length() for t in (a, b)]
    return big[0] + big[1] + (min(len(a), len(b)) - 1).bit_length()


class _Parser:
    """Recursive-descent parser for `+ - * ^` expressions over named variables.

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

    The tokens are the strings of `_tokenize`, read by index.  A run of
    unary minus signs is counted in a loop, and only parentheses recurse:
    past PARSE_MAX_DEPTH levels they raise BudgetError.
    """

    def __init__(self, tokens, field: FieldSpec, names):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.p = field.characteristic
        names = list(names)
        self.nvars = n = len(names)
        # name -> its unit exponent vector; the first of repeated names wins,
        # and a name no token can spell is left out
        self.units = {}
        zero = (0,) * n
        for i, name in enumerate(names):
            if name[:1] in _NAME_START:
                self.units.setdefault(name, zero[:i] + (1,) + zero[i + 1:])
        self.work = 0   # term products taken so far
        self.depth = 0  # parentheses open at the current token

    def parse(self) -> MPoly:
        den, d = self.expr()
        tok = self.tokens[self.pos]
        if tok is not None:
            raise PolyParseError(f"trailing input near token {_token_repr(tok)}")
        return MPoly._from_terms(self.field, self.nvars, d.items(), den)

    def neg(self, d: dict) -> dict:
        p = self.p
        return {e: -c % p for e, c in d.items()} if p else {e: -c for e, c in d.items()}

    def expr(self) -> tuple:
        tokens = self.tokens
        sign = 1
        tok = tokens[self.pos]
        while tok == "-" or tok == "+":
            if tok == "-":
                sign = -sign
            self.pos += 1
            tok = tokens[self.pos]
        den, acc = self.term()
        if sign < 0:
            acc = self.neg(acc)
        tok = tokens[self.pos]
        if tok != "+" and tok != "-":
            return den, acc
        get = acc.get
        while tok == "+" or tok == "-":
            self.pos += 1
            sign = 1 if tok == "+" else -1
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
            tok = tokens[self.pos]
        return den, _clean(acc, self.p)

    def term(self) -> tuple:
        den, acc = self.factor()
        tokens = self.tokens
        while tokens[self.pos] == "*":
            self.pos += 1
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
        """An optional run of minus signs, then a literal, a variable or a
        parenthesized expression, then any number of ^n."""
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        negate = False
        while tok == "-":
            negate = not negate
            pos += 1
            tok = tokens[pos]
        pos += 1
        unit = self.units.get(tok)
        if unit is not None:
            den, base = 1, {unit: 1}
        elif tok == "(":
            if self.depth == PARSE_MAX_DEPTH:
                raise BudgetError(f"parentheses nest deeper than {PARSE_MAX_DEPTH} "
                                  f"levels (the parse budget)")
            self.pos = pos
            self.depth += 1
            den, base = self.expr()
            self.depth -= 1
            pos = self.pos
            if tokens[pos] != ")":
                raise PolyParseError("missing closing parenthesis")
            pos += 1
        elif tok is None or tok in _OPS:
            raise PolyParseError(f"unexpected token {tok!r}")
        elif tok[0] in _NAME_START:
            raise PolyParseError(f"unknown variable {tok!r}")
        else:
            p = self.p
            if "/" not in tok:
                den, c = 1, _int(tok) % p if p else _int(tok)
            elif p:
                den, c = 1, self.field.coerce(_literal(tok))
            else:
                val = _literal(tok)
                den, c = val.denominator, val.numerator
            base = {(0,) * self.nvars: c} if c else {}
        while tokens[pos] == "^":
            tok = tokens[pos + 1]
            pos += 2
            if tok is None or not tok.isdecimal():
                raise PolyParseError("exponent must be a non-negative integer")
            n = _int(tok)
            # over Q the coefficients of base^n grow to about n times the bit
            # length of the largest numerator or denominator above 1
            big = 0 if self.p else max(max(map(abs, base.values()), default=0), den)
            limit = PARSE_MAX_TERMS * _WORK_PER_TERM
            if big > 1 and n * big.bit_length() > limit:
                raise BudgetError(f"the power ^{n} of a polynomial with {big.bit_length()}-bit "
                                  f"coefficients builds coefficients of more than "
                                  f"{limit} bits (the parse budget)")
            t = len(base)
            self.pos = pos
            den, base = den ** n, _pow_terms(
                base.items(), n, self.p, self.nvars,
                lambda a, b: self.product(a, b, f"the power ^{n} of a {t}-term polynomial"))
        self.pos = pos
        return den, self.neg(base) if negate else base


def parse_poly(text: str, field: FieldSpec, names) -> MPoly:
    if "/" in text:
        # A slash is only legal inside a rational coefficient literal.
        if re.search(r"(?<![0-9])/|/(?![0-9])", text):
            raise PolyParseError("division is not part of the polynomial syntax")
    return _Parser(_tokenize(text), field, names).parse()


def format_coeff(c: Coeff) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def render_poly(f: MPoly, names) -> str:
    """Canonical text form; parse_poly(render_poly(f)) == f."""
    if f.is_zero():
        return "0"
    parts = []
    for e, c in f.terms:  # already sorted graded-lex descending
        factors = []
        for i, k in enumerate(e):
            if k == 0:
                continue
            factors.append(names[i] if k == 1 else f"{names[i]}^{k}")
        neg = c < 0
        mag = -c if neg else c
        body = "*".join(factors)
        if not factors:
            body = format_coeff(mag)
        elif mag != 1:
            body = f"{format_coeff(mag)}*{body}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)
