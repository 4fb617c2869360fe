"""Multivariate polynomials with exact rational or float coefficients.

A Poly is a mapping from exponent multi-indices (tuples of length nvars) to
coefficients. Coefficients are exact or floats. An exact coefficient is an
int when its value is an integer and a fractions.Fraction of denominator > 1
otherwise (see exact_scalar), so integral arithmetic never pays the gcd of a
Fraction. Terms with zero coefficient are dropped, so the zero polynomial has
an empty term dict. Term order, wherever terms are listed, is graded
lexicographic: by total degree, then by the exponent tuple.

The public constructor validates its input: nvars and every exponent must be
non-negative integers, every multi-index must have length nvars. Arithmetic
inside this module builds term dicts that already satisfy those rules and
hold no zero coefficient, and hands them to ``Poly(nvars, terms,
_clean=True)``, which stores them unchecked.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .arith import tolist

FLOW_STEPS = 256     # Runge-Kutta steps of one float_flow call


def exact_scalar(c):
    """c in the exact coefficient domain, or None when c is a float.

    The domain holds an int for an integral value (a bool becomes its int)
    and a Fraction of denominator > 1 for any other rational. This is the
    one place that tells exact coefficients from floats; TypeError for any
    other type.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, float):
        return None
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def _coerce(c):
    """c as a coefficient: exact ones in their domain, floats as they are."""
    x = exact_scalar(c)
    return c if x is None else x


def _count(x, what):
    """x as a non-negative int; ValueError for a bool, float, string or
    negative number."""
    if type(x) is int and x >= 0:
        return x
    try:
        n = operator.index(x)
    except TypeError:
        n = -1
    if n < 0 or isinstance(x, bool):
        raise ValueError(f"{what} must be a non-negative integer, got {x!r}")
    return n


class Poly:
    """Polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None, *, _clean=False):
        if _clean:
            # trusted: a fresh dict of valid multi-indices, no zero terms
            self.nvars = nvars
            self.terms = terms
            return
        self.nvars = nvars = _count(nvars, "nvars")
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(_count(e, "exponent") for e in exps)
            if len(exps) != nvars:
                raise ValueError(
                    f"multi-index length {len(exps)} != nvars {nvars}")
            c = _coerce(c)
            if c:
                prev = clean.get(exps)
                c = c if prev is None else _coerce(prev + c)
                if c:
                    clean[exps] = c
                elif exps in clean:
                    del clean[exps]
        self.terms = clean

    # --- constructors ---------------------------------------------------

    @staticmethod
    def zero(nvars):
        return Poly(nvars)

    @staticmethod
    def constant(nvars, c):
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars, i):
        exps = [0] * nvars
        exps[i] = 1
        return Poly(nvars, {tuple(exps): 1})

    # --- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_exact(self):
        return all(exact_scalar(c) is not None for c in self.terms.values())

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def variables_used(self):
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return used

    def sorted_terms(self):
        """Terms in graded-lex order as (exponents, coefficient) pairs."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    # --- arithmetic -------------------------------------------------------

    def _check_compat(self, other):
        if not isinstance(other, Poly):
            raise TypeError("expected Poly")
        if self.nvars != other.nvars:
            raise ValueError("nvars mismatch")

    def __add__(self, other):
        self._check_compat(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms)
        return Poly(self.nvars, _nonzero(terms), _clean=True)

    def __sub__(self, other):
        self._check_compat(other)
        terms = dict(self.terms)
        get = terms.get
        for e, c in other.terms.items():
            prev = get(e)
            terms[e] = -c if prev is None else prev - c
        return Poly(self.nvars, _nonzero(terms), _clean=True)

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()},
                    _clean=True)

    def scale(self, c):
        c = _coerce(c)
        if not c:
            return Poly(self.nvars, {}, _clean=True)
        # a float product can underflow to zero
        return Poly(self.nvars, _nonzero({e: c * v for e, v in
                                          self.terms.items()}), _clean=True)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_compat(other)
        terms = {}
        get = terms.get
        add = operator.add
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                prev = get(e)
                terms[e] = c1 * c2 if prev is None else prev + c1 * c2
        return Poly(self.nvars, _nonzero(terms), _clean=True)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = []
        for exps, c in self.sorted_terms():
            mono = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                            for i, e in enumerate(exps) if e)
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(parts) + ")"

    # --- calculus ----------------------------------------------------------

    def diff(self, i):
        """Partial derivative with respect to variable i."""
        terms = {}
        for exps, c in self.terms.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            terms[tuple(new)] = _coerce(c * exps[i])
        return Poly(self.nvars, terms, _clean=True)

    def eval(self, point):
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        total = 0
        for exps, c in self.terms.items():
            v = c
            for x, e in zip(point, exps):
                if e:
                    v = v * x ** e
            total = total + v
        return total

    def compose(self, substitutions):
        """Substitute substitutions[i] (a Poly) for variable i.

        All substituted polynomials must share a common nvars, which becomes
        the nvars of the result. When every substitution is a monomial with
        coefficient 1 the exponents are remapped without multiplying;
        otherwise each term is expanded as c * s_0^e_0 * s_1^e_1 * ... in
        that order, with the powers of each s_i cached.
        """
        if len(substitutions) != self.nvars:
            raise ValueError("need one substitution per variable")
        if not substitutions:
            # 0-variable polynomial: only a constant term survives
            return Poly(0, dict(self.terms), _clean=True)
        m = substitutions[0].nvars
        for p in substitutions:
            if p.nvars != m:
                raise ValueError("substitutions must share nvars")
        targets = self._unit_monomials(substitutions)
        if targets is not None:
            return self._remap(m, targets)
        powers = [{0: Poly.constant(m, 1)} for _ in range(self.nvars)]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * substitutions[i]
            return cache[e]

        terms = {}
        for exps, c in self.terms.items():
            term = Poly(m, {(0,) * m: c}, _clean=True)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            _accumulate(terms, term.terms)
        return Poly(m, _nonzero(terms), _clean=True)

    def _unit_monomials(self, substitutions):
        """The exponent tuples of the substitutions if each is one monomial
        with coefficient 1 that leaves this Poly's coefficients as they are,
        else None.

        A float 1.0 would turn a Fraction coefficient into a float, so it
        qualifies only when every coefficient is a float already.
        """
        targets = []
        float_one = False
        for p in substitutions:
            if len(p.terms) != 1:
                return None
            (e, c), = p.terms.items()
            if c != 1:
                return None
            float_one = float_one or exact_scalar(c) is None
            targets.append(e)
        if float_one and any(exact_scalar(c) is not None
                             for c in self.terms.values()):
            return None
        return targets

    def _remap(self, m, targets):
        """This Poly with variable i replaced by the monomial x^targets[i],
        in m variables: each term's exponents move, its coefficient stays."""
        supports = [[(j, a) for j, a in enumerate(t) if a] for t in targets]
        terms = {}
        get = terms.get
        for exps, c in self.terms.items():
            new = [0] * m
            for e, support in zip(exps, supports):
                if e:
                    for j, a in support:
                        new[j] += e * a
            key = tuple(new)
            prev = get(key)
            terms[key] = c if prev is None else prev + c
        if len(terms) < len(self.terms):     # terms merged, some may cancel
            terms = _nonzero(terms)
        return Poly(m, terms, _clean=True)

    # --- structure ------------------------------------------------------

    def homogeneous_part(self, d):
        return Poly(self.nvars,
                    {e: c for e, c in self.terms.items() if sum(e) == d},
                    _clean=True)

    def truncate(self, maxdeg):
        return Poly(self.nvars,
                    {e: c for e, c in self.terms.items() if sum(e) <= maxdeg},
                    _clean=True)

    def embed(self, new_nvars, var_map):
        """Relabel variables: old variable i becomes var_map[i] among new_nvars."""
        if len(var_map) != self.nvars:
            raise ValueError("need one target variable per variable")
        targets = []
        for j in var_map:
            t = [0] * new_nvars
            t[j] = 1
            targets.append(t)
        return self._remap(new_nvars, targets)

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0)

    def to_float(self):
        # a tiny Fraction can round to 0.0
        return Poly(self.nvars,
                    _nonzero({e: float(c) for e, c in self.terms.items()}),
                    _clean=True)


def _accumulate(terms, more):
    """Add the terms of `more` into the dict `terms` in place; a cancelled
    term stays in `terms` with coefficient zero."""
    get = terms.get
    for e, c in more.items():
        prev = get(e)
        terms[e] = c if prev is None else prev + c


def _nonzero(terms):
    """terms without its zero coefficients, each in its domain: a sum or
    product of Fractions can be integral."""
    return {e: c if type(c) is int else _coerce(c)
            for e, c in terms.items() if c}


def linear_forms(M, nvars):
    """The Polys sum_j M[i][j] x_j, one per row of M, in nvars variables.

    M is an exact or float matrix with at most nvars columns; zero entries
    are skipped.
    """
    out = []
    for row in tolist(M):
        terms = {}
        for j, c in enumerate(row):
            if c != 0:
                e = [0] * nvars
                e[j] = 1
                terms[tuple(e)] = c
        out.append(Poly(nvars, terms))
    return out


def substitute_linear(polys, M, n_src, param_dim=0):
    """p(M x, lambda) for each p in polys.

    Each p is a Poly in rows(M) + param_dim variables; the results are in
    the n_src + param_dim variables (x, lambda), also when M has no rows.
    """
    n = n_src + param_dim
    subs = linear_forms(M, n) + [Poly.variable(n, n_src + l)
                                 for l in range(param_dim)]
    if not subs:
        return [Poly.constant(n, p.terms.get((), 0)) for p in polys]
    return [p.compose(subs) for p in polys]


def combine_rows(M, polys, nvars):
    """The Polys sum_j M[i][j] polys[j], one per row of M.

    Terms are added in ascending j and zero entries are skipped, so float
    results do not depend on the matrix storage.
    """
    out = []
    for row in tolist(M):
        terms = {}
        for c, p in zip(row, polys):
            if c != 0:
                if p.nvars != nvars:
                    raise ValueError("nvars mismatch")
                # an exact 1 leaves every coefficient as it is
                one = exact_scalar(c) == 1
                _accumulate(terms, p.terms if one else p.scale(c).terms)
        out.append(Poly(nvars, _nonzero(terms), _clean=True))
    return out


def change_coordinates(polys, M, Minv, param_dim=0):
    """The field z |-> M^{-1} F(M z, lambda) of the Polys F in (x, lambda):
    F written in the coordinates z with x = M z."""
    n = len(polys)
    return combine_rows(Minv, substitute_linear(polys, M, n, param_dim),
                        n + param_dim)


def float_flow(field, x0, time):
    """The point that x' = field(x) reaches from x0 after `time`, integrated
    in floats by FLOW_STEPS steps of the classical fourth-order Runge-Kutta
    rule."""
    field = [p.to_float() for p in field]

    def rate(x):
        return np.array([p.eval(x.tolist()) for p in field])

    h, x = time / FLOW_STEPS, np.array(x0, dtype=float)
    for _ in range(FLOW_STEPS):
        k1 = rate(x)
        k2 = rate(x + h / 2 * k1)
        k3 = rate(x + h / 2 * k2)
        k4 = rate(x + h * k3)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return x


def monomial_exponents(nvars, degree):
    """All exponent multi-indices of the given total degree, graded-lex order."""
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []
    for bars in itertools.combinations(range(degree + nvars - 1), nvars - 1):
        exps = []
        prev = -1
        for b in bars:
            exps.append(b - prev - 1)
            prev = b
        exps.append(degree + nvars - 1 - prev - 1)
        out.append(tuple(exps))
    return sorted(out)


def count_monomials(nvars, degree):
    return math.comb(nvars + degree - 1, degree)
