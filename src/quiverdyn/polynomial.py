"""Multivariate polynomials with exact rational or float coefficients.

A Poly is a mapping from exponent multi-indices (tuples of length nvars) to
coefficients. Terms with zero coefficient are dropped, so the zero
polynomial has no terms. Term order, wherever terms are listed, is graded
lexicographic: by total degree, then by the exponent tuple.

An exact Poly is stored as integer numerators over one denominator: ``num``
maps each multi-index to a nonzero int and ``den`` is an int >= 1 with
gcd(den, all numerators) = 1, so two exact Polys are equal exactly when
their (den, num) are. Every kernel of this module runs on those ints and
finishes a result with one gcd pass, so no Fraction is built, added or
multiplied: a product multiplies numerators and denominators, a sum brings
both to the lcm of their denominators first (the sparse integer kernel of
Monagan and Pearce). A Poly with a float coefficient has den None and keeps
its coefficients in ``num`` as they are, and a kernel with a float operand
does the arithmetic of Python's numeric tower on the coefficients, where an
exact one meets a float as float(c). Each kernel has one loop; the
representation decides only the operands it reads and how its result is
finished. With the integer kernel the exact-closure benchmark workload runs
1.34x as many operations per second as with Fraction coefficients (221.6
against 296.9, medians of 10 alternating pairs, ``BENCH_common_den.json``).

``terms`` is the public view of the coefficients, for code outside the
kernel: an exact coefficient is an int when its value is an integer and a
fractions.Fraction of denominator > 1 otherwise (see exact_scalar). For
den 1 the view is ``num`` itself; for den > 1 it is built on first read.

The public constructor validates its input: nvars and every exponent must be
non-negative integers, every multi-index must have length nvars. Arithmetic
inside this module builds numerator dicts that already satisfy those rules
and the canonical form, and hands them to ``Poly(nvars, num, _clean=True,
_den=den)``, which stores them unchecked.
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


def _ratio(n, d):
    """n / d in the exact coefficient domain."""
    return Fraction(n, d) if n % d else n // d


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

    __slots__ = ("nvars", "num", "den", "_terms")

    def __init__(self, nvars, terms=None, *, _clean=False, _den=1):
        if _clean:
            # trusted: a fresh dict of valid multi-indices and nonzero
            # numerators over _den in canonical form, or with _den None the
            # coefficients of a Poly with a float coefficient
            self.nvars = nvars
            self.num = terms
            self.den = _den
            self._terms = terms if _den == 1 or _den is None else None
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
        self.num, self.den = _split(clean)
        self._terms = clean

    @property
    def terms(self):
        """The coefficients by multi-index, exact ones in their domain."""
        t = self._terms
        if t is None:
            d = self.den
            t = self._terms = {e: _ratio(n, d) for e, n in self.num.items()}
        return t

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
        return not self.num

    def is_exact(self):
        return self.den is not None

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.num:
            return -1
        return max(sum(e) for e in self.num)

    def variables_used(self):
        used = set()
        for exps in self.num:
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
        a, b, den = _aligned(self, other)
        terms = dict(a)
        _accumulate(terms, b)
        return _finish(self.nvars, terms, den)

    def __sub__(self, other):
        self._check_compat(other)
        a, b, den = _aligned(self, other)
        terms = dict(a)
        get = terms.get
        for e, c in b.items():
            prev = get(e)
            terms[e] = -c if prev is None else prev - c
        return _finish(self.nvars, terms, den)

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.num.items()},
                    _clean=True, _den=self.den)

    def scale(self, c):
        x = exact_scalar(c)
        if not c:
            return Poly(self.nvars, {}, _clean=True)
        if x is None or self.den is None:
            # a float product can underflow to zero
            k, src, den = _coerce(c), self.terms, None
        else:
            k, src, den = x.numerator, self.num, self.den * x.denominator
        return _finish(self.nvars, {e: k * v for e, v in src.items()}, den)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check_compat(other)
        if self.den is None or other.den is None:
            a, b, den = self.terms, other.terms, None
        else:
            a, b, den = self.num, other.num, self.den * other.den
        terms = {}
        get = terms.get
        add = operator.add
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                prev = get(e)
                terms[e] = c1 * c2 if prev is None else prev + c1 * c2
        return _finish(self.nvars, terms, den)

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
        if not isinstance(other, Poly) or self.nvars != other.nvars:
            return False
        if self.den is None or other.den is None:
            return self.terms == other.terms
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # from the terms view, so that an exact Poly hashes as an equal
        # float one
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.num:
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
        for exps, c in self.num.items():
            if exps[i] == 0:
                continue
            new = list(exps)
            new[i] -= 1
            terms[tuple(new)] = c * exps[i]
        return _finish(self.nvars, terms, self.den)

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
        that order, with the powers of each s_i cached. When this Poly and
        every substitution are exact, c is the term's numerator and the sum
        is divided by den once, at the end.
        """
        if len(substitutions) != self.nvars:
            raise ValueError("need one substitution per variable")
        if not substitutions:
            # 0-variable polynomial: only a constant term survives
            return Poly(0, dict(self.num), _clean=True, _den=self.den)
        m = substitutions[0].nvars
        for p in substitutions:
            if p.nvars != m:
                raise ValueError("substitutions must share nvars")
        targets = self._unit_monomials(substitutions)
        if targets is not None:
            return self._remap(m, targets)
        zero = (0,) * m
        one = Poly(m, {zero: 1}, _clean=True)
        powers = [{0: one} for _ in range(self.nvars)]

        def power(i, e):
            cache = powers[i]
            if e not in cache:
                cache[e] = power(i, e - 1) * substitutions[i]
            return cache[e]

        exact = self.den is not None and all(p.den is not None
                                             for p in substitutions)
        terms, den = {}, 1
        for exps, c in (self.num if exact else self.terms).items():
            term = (Poly(m, {zero: c}, _clean=True) if exact
                    else _poly(m, {zero: c}))
            for i, e in enumerate(exps):
                if e:
                    term = term * power(i, e)
            den = _add_into(terms, den, term)
        return _finish(m, terms, den * self.den if exact else den)

    def _unit_monomials(self, substitutions):
        """The exponent tuples of the substitutions if each is one monomial
        with coefficient 1 that leaves this Poly's coefficients as they are,
        else None.

        A float 1.0 would turn an exact coefficient into a float, so it
        qualifies only when every coefficient is a float already.
        """
        targets = []
        float_one = False
        for p in substitutions:
            if len(p.num) != 1 or p.den not in (1, None):
                return None
            (e, c), = p.num.items()
            if c != 1:
                return None
            float_one = float_one or p.den is None
            targets.append(e)
        if float_one and any(exact_scalar(c) is not None
                             for c in self.num.values()):
            return None
        return targets

    def _remap(self, m, targets):
        """This Poly with variable i replaced by the monomial x^targets[i],
        in m variables: each term's exponents move, its coefficient stays."""
        supports = [[(j, a) for j, a in enumerate(t) if a] for t in targets]
        terms = {}
        get = terms.get
        for exps, c in self.num.items():
            new = [0] * m
            for e, support in zip(exps, supports):
                if e:
                    for j, a in support:
                        new[j] += e * a
            key = tuple(new)
            prev = get(key)
            terms[key] = c if prev is None else prev + c
        if len(terms) < len(self.num):     # terms merged, some may cancel
            return _finish(m, terms, self.den)
        return Poly(m, terms, _clean=True, _den=self.den)

    # --- structure ------------------------------------------------------

    def homogeneous_part(self, d):
        return _finish(self.nvars, {e: c for e, c in self.num.items()
                                    if sum(e) == d}, self.den)

    def truncate(self, maxdeg):
        return _finish(self.nvars, {e: c for e, c in self.num.items()
                                    if sum(e) <= maxdeg}, self.den)

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
        m = max(map(abs, self.num.values()), default=0)
        return m if self.den is None else _ratio(m, self.den)

    def to_float(self):
        # n / den is the correctly rounded float(n/den); a tiny coefficient
        # can round to 0.0, and _poly drops it
        d = self.den
        if d is None:
            return _poly(self.nvars, {e: float(c) for e, c in
                                      self.num.items()})
        return _poly(self.nvars, {e: n / d for e, n in self.num.items()})


def _split(coeffs):
    """(num, den) of a dict of nonzero coefficients in their domains: int
    numerators over the lcm of the denominators, which is the canonical
    form, or (coeffs, None) when a coefficient is a float."""
    dens = []
    for c in coeffs.values():
        x = exact_scalar(c)
        if x is None:
            return coeffs, None
        dens.append(x.denominator)
    den = math.lcm(*dens)
    if den == 1:
        return coeffs, 1
    return {e: c.numerator * (den // c.denominator)
            for e, c in coeffs.items()}, den


def _poly(nvars, coeffs):
    """The Poly of a dict of exact or float coefficients on valid
    multi-indices; zero coefficients are dropped."""
    num, den = _split({e: _coerce(c) for e, c in coeffs.items() if c})
    return Poly(nvars, num, _clean=True, _den=den)


def _finish(nvars, terms, den):
    """The Poly a kernel loop leaves in terms: int numerators over den, or
    exact and float coefficients when den is None. Zero terms are dropped,
    and numerators and den are divided by their gcd."""
    if den is None:
        return _poly(nvars, terms)
    if 0 in terms.values():
        terms = {e: n for e, n in terms.items() if n}
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {e: n // g for e, n in terms.items()}
    return Poly(nvars, terms, _clean=True, _den=den)


def _rescaled(num, k):
    """num with every numerator times k."""
    return num if k == 1 else {e: n * k for e, n in num.items()}


def _aligned(p, q):
    """The coefficient dicts a sum of p and q runs on and the den of its
    result: the numerators of exact p and q over the lcm of their dens, or
    their terms views and None."""
    dp, dq = p.den, q.den
    if dp is None or dq is None:
        return p.terms, q.terms, None
    if dp == dq:
        return p.num, q.num, dp
    den = math.lcm(dp, dq)
    return _rescaled(p.num, den // dp), _rescaled(q.num, den // dq), den


def _accumulate(terms, more):
    """Add the terms of `more` into the dict `terms` in place; a cancelled
    term stays in `terms` with coefficient zero."""
    get = terms.get
    for e, c in more.items():
        prev = get(e)
        terms[e] = c if prev is None else prev + c


def _add_into(terms, den, p):
    """Add the Poly p into the running sum `terms` over den in place, and
    return the sum's new den. An exact sum holds numerators over the lcm of
    its addends' dens; once an addend is not exact the sum holds
    coefficients and its den is None."""
    if den is not None and p.den is not None:
        lcm = den if p.den == den else math.lcm(den, p.den)
        if lcm != den:
            k = lcm // den
            for e in terms:
                terms[e] *= k
        _accumulate(terms, _rescaled(p.num, lcm // p.den))
        return lcm
    if den is not None:
        for e, n in terms.items():
            terms[e] = _ratio(n, den)
    _accumulate(terms, p.terms)
    return None


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
        out.append(_poly(nvars, terms))
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
        terms, den = {}, 1
        for c, p in zip(row, polys):
            if c != 0:
                if p.nvars != nvars:
                    raise ValueError("nvars mismatch")
                # an exact 1 leaves every coefficient as it is
                one = exact_scalar(c) == 1
                den = _add_into(terms, den, p if one else p.scale(c))
        out.append(_finish(nvars, terms, den))
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
