"""Multivariate polynomials with exact rational or float coefficients.

A Poly is a mapping from exponent multi-indices (tuples of length nvars) to
coefficients. Coefficients are either fractions.Fraction (exact mode) or
floats; integers are normalized to Fraction. Terms with zero coefficient are
dropped, so the zero polynomial has an empty term dict. Term order, wherever
terms are listed, is graded lexicographic: by total degree, then by the
exponent tuple.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .arith import tolist


def _coerce(c):
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if isinstance(c, float):
        return c
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class Poly:
    """Polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars:
                raise ValueError(
                    f"multi-index length {len(exps)} != nvars {self.nvars}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = _coerce(c)
            if c != 0:
                prev = clean.get(exps)
                c = c if prev is None else prev + c
                if c != 0:
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

    @staticmethod
    def monomial(nvars, exps, c=1):
        return Poly(nvars, {tuple(exps): c})

    # --- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_exact(self):
        return all(isinstance(c, Fraction) for c in self.terms.values())

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
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return Poly(self.nvars, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, c):
        c = _coerce(c)
        return Poly(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return self.scale(other)
        self._check_compat(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.nvars, terms)

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
            terms[tuple(new)] = c * exps[i]
        return Poly(self.nvars, terms)

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
        the nvars of the result.
        """
        if len(substitutions) != self.nvars:
            raise ValueError("need one substitution per variable")
        if not substitutions:
            # 0-variable polynomial: only a constant term survives
            return Poly(0, dict(self.terms))
        m = substitutions[0].nvars
        for p in substitutions:
            if p.nvars != m:
                raise ValueError("substitutions must share nvars")
        result = Poly.zero(m)
        powers = [{0: Poly.constant(m, 1)} for _ in range(self.nvars)]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * substitutions[i]
            return cache[e]

        for exps, c in self.terms.items():
            term = Poly.constant(m, c)
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            result = result + term
        return result

    # --- structure ------------------------------------------------------

    def homogeneous_part(self, d):
        return Poly(self.nvars,
                    {e: c for e, c in self.terms.items() if sum(e) == d})

    def truncate(self, maxdeg):
        return Poly(self.nvars,
                    {e: c for e, c in self.terms.items() if sum(e) <= maxdeg})

    def embed(self, new_nvars, var_map):
        """Relabel variables: old variable i becomes var_map[i] among new_nvars."""
        terms = {}
        for exps, c in self.terms.items():
            new = [0] * new_nvars
            for i, e in enumerate(exps):
                if e:
                    new[var_map[i]] += e
            key = tuple(new)
            terms[key] = terms.get(key, 0) + c
        return Poly(new_nvars, terms)

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0)

    def to_float(self):
        return Poly(self.nvars,
                    {e: float(c) for e, c in self.terms.items()})


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
        acc = Poly.zero(nvars)
        for c, p in zip(row, polys):
            if c != 0:
                acc = acc + p.scale(c)
        out.append(acc)
    return out


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
