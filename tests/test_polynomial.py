"""Polynomial arithmetic against evaluation, calculus, a naive expansion and
sympy."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import in_exact_domain
from quiverdyn.polyfield import hom_basis
from quiverdyn.polynomial import (Poly, combine_rows, count_monomials,
                                  exact_scalar, monomial_exponents,
                                  substitute_linear)


def polys(nvars=2, max_degree=3):
    exps = st.tuples(*([st.integers(0, max_degree)] * nvars)).filter(
        lambda e: sum(e) <= max_degree)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda t: Poly(nvars, t))


points = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    min_size=2, max_size=2)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), points)
def test_ring_operations_match_evaluation(p, q, x):
    assert (p + q).eval(x) == p.eval(x) + q.eval(x)
    assert (p - q).eval(x) == p.eval(x) - q.eval(x)
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_leibniz_rule(p, q):
    for i in range(2):
        lhs = (p * q).diff(i)
        rhs = p.diff(i) * q + p * q.diff(i)
        assert lhs.terms == rhs.terms


@settings(max_examples=40, deadline=None)
@given(polys(), points)
def test_compose_with_variables_is_identity(p, x):
    subs = [Poly.variable(2, 0), Poly.variable(2, 1)]
    assert p.compose(subs).terms == p.terms
    assert p.compose(subs).eval(x) == p.eval(x)


@settings(max_examples=40, deadline=None)
@given(polys())
def test_homogeneous_parts_sum_to_polynomial(p):
    total = Poly.zero(2)
    for d in range(p.degree() + 1 if p.terms else 1):
        total = total + p.homogeneous_part(d)
    assert total.terms == p.terms


def test_embed_relabels_variables():
    p = Poly(2, {(2, 1): Fraction(3)})  # 3 x^2 y
    q = p.embed(4, [3, 1])              # x -> v3, y -> v1
    assert q.terms == {(0, 1, 0, 2): Fraction(3)}


def test_truncate_drops_high_degrees():
    p = Poly(1, {(1,): 1, (4,): 2})
    assert p.truncate(3).terms == {(1,): Fraction(1)}


def test_monomial_enumeration_is_graded_lex_and_counted():
    exps = monomial_exponents(2, 2)
    assert list(exps) == [(0, 2), (1, 1), (2, 0)]
    # stars and bars: C(n + d - 1, d)
    assert count_monomials(3, 2) == 6
    assert len(list(monomial_exponents(3, 2))) == 6


def test_mixed_exactness_detected():
    p = Poly(1, {(1,): 0.5})
    assert not p.is_exact()
    assert Poly(1, {(1,): Fraction(1, 2)}).is_exact()


def test_invalid_terms_rejected():
    with pytest.raises(ValueError):
        Poly(2, {(1,): 1})
    with pytest.raises(ValueError):
        Poly(1, {(-1,): 1})
    with pytest.raises(ValueError):
        Poly(1, {(1.5,): 1})


# --- compose against a naive expansion ----------------------------------------

def naive_compose(p, subs, m):
    """sum_c c * prod_i subs[i]^e_i on plain term dicts: every power is
    multiplied out factor by factor, nothing is cached or remapped."""
    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    total = {}
    for exps, c in p.terms.items():
        term = {(0,) * m: c}
        for s, e in zip(subs, exps):
            for _ in range(e):
                term = mul(term, s.terms)
        for e, v in term.items():
            total[e] = total.get(e, 0) + v
    return {e: c for e, c in total.items() if c != 0}


def unit_monomials(nvars, m):
    """Substitutions x_i -> a monomial with coefficient 1 in m variables; the
    same target variable may repeat, and the monomial may be 1."""
    mono = st.tuples(*([st.integers(0, 2)] * m))
    return st.lists(mono, min_size=nvars, max_size=nvars).map(
        lambda es: [Poly(m, {e: 1}) for e in es])


def general_substitutions(nvars, m):
    """Arbitrary substitutions, at least one of which is not a monomial with
    coefficient 1."""
    return st.lists(polys(m, 2), min_size=nvars, max_size=nvars).filter(
        lambda subs: any(len(s.terms) != 1 or 1 not in s.terms.values()
                         for s in subs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(
    st.just(m), polys(2, 3), unit_monomials(2, m))))
def test_compose_by_exponent_remap_matches_expansion(case):
    m, p, subs = case
    assert p.compose(subs).terms == naive_compose(p, subs, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3).flatmap(lambda m: st.tuples(
    st.just(m), polys(2, 3), general_substitutions(2, m))))
def test_compose_by_multiplication_matches_expansion(case):
    m, p, subs = case
    assert p.compose(subs).terms == naive_compose(p, subs, m)


def test_compose_matches_sympy_expand():
    x, y, u, v, w = sympy.symbols("x y u v w")
    p = Poly(2, {(2, 1): Fraction(3), (1, 0): Fraction(-1, 2),
                 (0, 0): Fraction(2), (0, 3): Fraction(5, 7)})
    s0 = Poly(3, {(1, 0, 0): Fraction(1), (0, 1, 1): Fraction(-2, 3)})
    s1 = Poly(3, {(0, 0, 2): Fraction(4), (0, 0, 0): Fraction(1, 5)})
    to_sympy = lambda q, xs: sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(z ** e for z, e in zip(xs, exps)))
        for exps, c in q.terms.items())
    want = sympy.Poly(sympy.expand(to_sympy(p, (x, y)).subs(
        {x: to_sympy(s0, (u, v, w)), y: to_sympy(s1, (u, v, w))},
        simultaneous=True)), u, v, w)
    got = p.compose([s0, s1]).terms
    assert got == {e: Fraction(int(c.p), int(c.q))
                   for e, c in want.as_dict().items()}


def test_float_unit_substitution_keeps_general_coefficient_type():
    # a float 1.0 multiplies an exact coefficient into a float, and so does
    # the monomial fast path
    p = Poly(1, {(1,): Fraction(1, 3)})
    q = p.compose([Poly(1, {(1,): 1.0})])
    assert q.terms == {(1,): 1 / 3} and isinstance(q.terms[(1,)], float)


# --- every result is a valid Poly ---------------------------------------------

def assert_valid(q, nvars):
    assert q.nvars == nvars
    for e, c in q.terms.items():
        assert type(e) is tuple and len(e) == nvars
        assert all(type(k) is int and k >= 0 for k in e)
        assert in_exact_domain(c) or type(c) is float
        assert c != 0


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.fractions(min_value=-2, max_value=2,
                                      max_denominator=3),
       st.lists(st.integers(0, 3), min_size=2, max_size=2))
def test_results_hold_no_zero_and_no_malformed_term(p, q, c, var_map):
    for r in (p + q, p - q, p - p, -p, p * q, p * q - q * p, p.scale(c),
              p.scale(0), p.diff(0), p.diff(1)):
        assert_valid(r, 2)
    assert_valid(p.embed(4, var_map), 4)
    assert_valid(p.compose([q, q]), 2)
    assert_valid(p.compose([Poly.variable(3, var_map[0] % 3),
                            Poly.variable(3, var_map[1] % 3)]), 3)


def test_merged_terms_cancel():
    p = Poly(2, {(1, 0): 1, (0, 1): -1})       # x - y
    x = Poly.variable(1, 0)
    assert p.compose([x, x]).terms == {}
    assert p.embed(1, [0, 0]).terms == {}
    assert p.compose([x, x.scale(2)]).terms == {(1,): Fraction(-1)}


def test_float_underflow_drops_terms():
    p = Poly(1, {(1,): 1e-200, (0,): 1.0})
    assert p.scale(1e-200).terms == {(0,): 1e-200}
    assert (p * p).terms == {(0,): 1.0, (1,): 2e-200}
    assert Poly(1, {(1,): Fraction(1, 10 ** 400)}).to_float().is_zero()


# --- the exact coefficient domain ---------------------------------------------

# ints, bools and Fractions, integral ones such as Fraction(2) included
scalars = st.one_of(st.integers(-4, 4), st.booleans(),
                    st.fractions(min_value=-4, max_value=4, max_denominator=4))


def mixed_polys(nvars=2, max_degree=3):
    exps = st.tuples(*([st.integers(0, max_degree)] * nvars)).filter(
        lambda e: sum(e) <= max_degree)
    return st.dictionaries(exps, scalars, max_size=5).map(
        lambda t: Poly(nvars, t))


def plain(p):
    """The terms of p with every coefficient a Fraction."""
    return {e: Fraction(c) for e, c in p.terms.items()}


def plain_add(*dicts):
    out = {}
    for d in dicts:
        for e, c in d.items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def plain_scale(d, c):
    return {e: Fraction(c) * v for e, v in d.items() if c * v}


def plain_mul(a, b):
    return plain_add(*({tuple(x + y for x, y in zip(e1, e2)): c1 * c2}
                       for e1, c1 in a.items() for e2, c2 in b.items()))


def plain_compose(d, subs, m):
    """sum_c c * prod_i subs[i]^e_i, multiplied out on Fraction dicts."""
    total = []
    for exps, c in d.items():
        term = {(0,) * m: c}
        for s, e in zip(subs, exps):
            for _ in range(e):
                term = plain_mul(term, s)
        total.append(term)
    return plain_add(*total)


def unit(m, j):
    return {tuple(int(i == j) for i in range(m)): Fraction(1)}


@settings(max_examples=80, deadline=None)
@given(mixed_polys(), mixed_polys(), scalars,
       st.lists(st.lists(st.fractions(min_value=-2, max_value=2,
                                      max_denominator=2),
                         min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(st.integers(0, 2), min_size=2, max_size=2),
       st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=2),
                min_size=6, max_size=6))
def test_exact_results_stay_in_the_coefficient_domain(p, q, c, M, var_map,
                                                      vec):
    P, Q = plain(p), plain(q)
    M = tuple(map(tuple, M))
    forms = [plain_add(*(plain_scale(unit(2, j), x)
                         for j, x in enumerate(row))) for row in M]
    basis = hom_basis(2, 1)      # quadratic vector fields on R^2: 6 elements
    pairs = [
        (p + q, plain_add(P, Q)),
        (p - q, plain_add(P, plain_scale(Q, -1))),
        (p * q, plain_mul(P, Q)),
        (p.scale(c), plain_scale(P, c)),
        (p * c, plain_scale(P, c)),
        (p.diff(0), {tuple(k - (i == 0) for i, k in enumerate(e)): v * e[0]
                     for e, v in P.items() if e[0]}),
        (p.compose([q, p]), plain_compose(P, [Q, P], 2)),
        (p.embed(3, var_map), plain_compose(P, [unit(3, j) for j in var_map],
                                            3)),
    ]
    pairs += zip(combine_rows(M, [p, q], 2),
                 [plain_add(plain_scale(P, a), plain_scale(Q, b))
                  for a, b in M])
    pairs += zip(substitute_linear([p, q], M, 2),
                 [plain_compose(D, forms, 2) for D in (P, Q)])
    pairs += zip(basis.from_coords(vec),
                 [{e: x for (j, e), x in zip(basis.elements, vec)
                   if j == i and x} for i in range(2)])
    for got, want in pairs:
        assert all(in_exact_domain(v) for v in got.terms.values())
        assert got.terms == want and got.is_exact()


def test_exact_scalar_tells_the_domain_from_floats():
    assert exact_scalar(Fraction(6, 3)) == 2
    assert type(exact_scalar(Fraction(6, 3))) is int
    assert exact_scalar(Fraction(1, 2)) == Fraction(1, 2)
    assert type(exact_scalar(True)) is int
    assert exact_scalar(0.5) is None
    with pytest.raises(TypeError):
        exact_scalar("1")


# --- integer numerators over one denominator ----------------------------------

def rational_polys(nvars=2, max_degree=3):
    """Exact Polys whose coefficients have mixed denominators."""
    exps = st.tuples(*([st.integers(0, max_degree)] * nvars)).filter(
        lambda e: sum(e) <= max_degree)
    coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    return st.dictionaries(exps, coeffs, max_size=5).map(
        lambda t: Poly(nvars, t))


def assert_canonical(p):
    """den >= 1, nonzero int numerators, gcd(den, numerators) = 1, and the
    terms view in the exact domain, equal to numerator / den."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(n) is int and n != 0 for n in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert all(in_exact_domain(c) for c in p.terms.values())
    assert p.terms == {e: Fraction(n, p.den) for e, n in p.num.items()}


@settings(max_examples=80, deadline=None)
@given(rational_polys(), rational_polys(),
       st.fractions(min_value=-3, max_value=3, max_denominator=6),
       st.lists(st.integers(0, 2), min_size=2, max_size=2),
       st.lists(st.lists(st.fractions(min_value=-2, max_value=2,
                                      max_denominator=3),
                         min_size=2, max_size=2), min_size=2, max_size=2))
def test_every_exact_kernel_result_is_canonical(p, q, c, var_map, M):
    P, Q = plain(p), plain(q)
    results = [
        (p + q, plain_add(P, Q)),
        (p - q, plain_add(P, plain_scale(Q, -1))),
        (p - p, {}),
        (-p, plain_scale(P, -1)),
        (p * q, plain_mul(P, Q)),
        (p.scale(c), plain_scale(P, c)),
        (p ** 2, plain_mul(P, P)),
        (p.diff(1), {tuple(k - (i == 1) for i, k in enumerate(e)): v * e[1]
                     for e, v in P.items() if e[1]}),
        (p.compose([q, p]), plain_compose(P, [Q, P], 2)),
        (p.compose([q.scale(0), Poly.constant(2, c)]),
         plain_compose(P, [{}, plain_scale({(0, 0): 1}, c)], 2)),
        (p.embed(3, var_map),
         plain_compose(P, [unit(3, j) for j in var_map], 3)),
        (p.embed(1, [0, 0]), plain_compose(P, [unit(1, 0)] * 2, 1)),
        (p.truncate(1), {e: v for e, v in P.items() if sum(e) <= 1}),
        (p.homogeneous_part(2), {e: v for e, v in P.items() if sum(e) == 2}),
    ]
    results += zip(combine_rows(M, [p, q], 2),
                   [plain_add(plain_scale(P, a), plain_scale(Q, b))
                    for a, b in M])
    for got, want in results:
        assert_canonical(got)
        assert got.terms == want


@settings(max_examples=60, deadline=None)
@given(rational_polys(), rational_polys(),
       st.fractions(min_value=1, max_value=4, max_denominator=4))
def test_equal_values_by_any_route_compare_and_hash_equal(p, q, c):
    x, y, z = (Poly.variable(3, i) for i in range(3))
    routes = [
        Poly(2, plain(p)),                                # constructor
        (p + q) - q,                                      # arithmetic
        p * Poly.constant(2, 1),
        p.scale(c).scale(1 / c),
        p.compose([Poly.variable(2, 0), Poly.variable(2, 1)]),   # remap
        p.compose([Poly.variable(2, 0) + q - q,
                   Poly.variable(2, 1)]),                 # expansion
        p.embed(3, [2, 0]).compose([y, z, x]).embed(2, [0, 1, 0])
        .compose([Poly.variable(2, 0), Poly.variable(2, 1)]),
    ]
    for r in routes:
        assert r == p and hash(r) == hash(p)
    assert p + Poly.constant(2, Fraction(1, 7)) != p
    # a float Poly of the same values is equal too, and hashes alike
    if all(float(v) == v for v in plain(p).values()):
        f = p.to_float()
        assert f == p and hash(f) == hash(p)


floats = st.floats(min_value=-4, max_value=4, allow_nan=False,
                   allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(rational_polys(), st.lists(floats, min_size=2, max_size=2),
       st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       floats.filter(bool), max_size=4))
def test_float_results_are_those_of_float_coefficients(p, x, f_terms):
    # each exact coefficient c enters a float computation as float(c)
    P = {e: float(c) for e, c in plain(p).items()}
    bits = lambda d: {e: v.hex() for e, v in d.items()}
    assert bits(p.to_float().terms) == bits({e: v for e, v in P.items()
                                              if v})
    want_eval = 0
    for e, v in P.items():
        t = v
        for xi, k in zip(x, e):
            if k:
                t = t * xi ** k
        want_eval = want_eval + t
    assert float(p.eval(x)).hex() == float(want_eval).hex()
    f = Poly(2, f_terms)
    for a, b, got in ((P, f.terms, p * f), (f.terms, P, f * p)):
        want = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1[0] + e2[0], e1[1] + e2[1])
                want[e] = c1 * c2 if e not in want else want[e] + c1 * c2
        assert bits(got.terms) == bits({e: v for e, v in want.items() if v})


def test_exact_kernels_build_no_fraction(monkeypatch):
    # dyadic coefficients, as the symmetrised response families have
    p = Poly(2, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 4), (2, 1): 1,
                 (0, 3): Fraction(-5, 8)})
    q = Poly(2, {(1, 1): Fraction(-1, 8), (0, 0): 2, (1, 0): Fraction(1, 2)})
    subs = [Poly(3, {(1, 0, 0): Fraction(1, 2), (0, 1, 1): 1}),
            Poly(3, {(0, 0, 2): Fraction(3, 2), (0, 1, 0): -1})]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    results = [p * q, p + q, p - q, p.diff(0), p.diff(1), p.compose(subs),
               p.embed(3, [2, 0]), q.compose([subs[1], subs[0]])]
    assert built == []
    for r in results:
        fractional = sum(1 for n in r.num.values() if n % r.den)
        assert fractional
        del built[:]
        r.terms
        r.terms
        assert len(built) == fractional
