"""Exact rational linear algebra against numpy oracles."""

import random
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import time_limit

from quiverdyn import arith, exactlin
from quiverdyn.errors import SolveFailed


def random_matrix(rng, m, n, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
            for _ in range(m)]


def test_rank_matches_numpy_on_random_matrices():
    rng = random.Random(0)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        expected = np.linalg.matrix_rank(np.array(A, dtype=float))
        assert len(exactlin.rref(A)[1]) == expected


def test_nullspace_vectors_are_killed_and_span_full_kernel():
    rng = random.Random(1)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        ker = exactlin.nullspace(A)
        for v in ker:
            assert all(x == 0 for x in exactlin.matvec(A, list(v)))
        assert len(ker) == n - len(exactlin.rref(A)[1])


def test_solve_recovers_planted_solution_and_detects_inconsistency():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = random_matrix(rng, n, n)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = exactlin.matvec(A, x)
        if len(exactlin.rref(A)[1]) == n:
            assert exactlin.solve(A, b) == x
        else:               # consistent, but x is one of many solutions
            with pytest.raises(SolveFailed):
                exactlin.solve(A, b)
    with pytest.raises(SolveFailed):
        exactlin.solve([[Fraction(1)], [Fraction(1)]],
                       [Fraction(0), Fraction(1)])


def test_inverse_roundtrip():
    A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    Ainv = exactlin.inverse(A)
    assert exactlin.matmul(A, Ainv) == exactlin.identity(2)


def test_charpoly_matches_numpy_coefficients():
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = random_matrix(rng, n, n, lo=-3, hi=3)
        p = exactlin.charpoly(A)  # ascending coefficients, monic
        ref = np.poly(np.array(A, dtype=float))  # descending, monic
        assert len(p) == n + 1
        assert p[-1] == 1
        for k in range(n + 1):
            assert float(p[k]) == pytest.approx(ref[n - k], abs=1e-6)


def test_cayley_hamilton():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 4)
        A = random_matrix(rng, n, n)
        p = exactlin.charpoly(A)
        assert arith.EXACT.max_abs(exactlin.eval_matrix_poly(p, A)) == 0


def test_univariate_helpers():
    # (t - 1)(t - 2) = t^2 - 3t + 2, ascending: [2, -3, 1]
    p = [Fraction(2), Fraction(-3), Fraction(1)]
    assert exactlin.divide_out(p, [Fraction(-1), Fraction(1)]) == (
        1, [Fraction(-2), Fraction(1)])
    roots, cofactor = exactlin.rational_roots(p)
    assert roots == [(Fraction(1), 1), (Fraction(2), 1)]
    assert exactlin.poly_degree(cofactor) == 0
    # squarefree part of (t - 1)^2
    sq = exactlin.poly_squarefree_part([Fraction(1), Fraction(-2),
                                        Fraction(1)])
    assert sq == [Fraction(-1), Fraction(1)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_rref_is_projection_invariant(rows):
    A = [[Fraction(x) for x in row] for row in rows]
    R, pivots = exactlin.rref(A)
    # rref of an rref is itself
    R2, pivots2 = exactlin.rref(R)
    assert R == R2 and pivots == pivots2


# --- oracle checks against sympy ----------------------------------------------

# small numerators over denominators from 1 to primes above 10**6
rationals = st.builds(Fraction, st.integers(-9, 9),
                      st.sampled_from([1, 1, 1, 2, 3, 7, 1000003, 10 ** 7 + 19]))


@st.composite
def rational_matrices(draw, m, n):
    """An m x n rational matrix: dense random, or a product through an
    inner dimension r <= min(m, n), so rank 0 and rank-deficient matrices
    are frequent."""
    if draw(st.booleans()):
        return [[draw(rationals) for _ in range(n)] for _ in range(m)]
    r = draw(st.integers(0, min(m, n)))
    L = [[draw(rationals) for _ in range(r)] for _ in range(m)]
    R = [[draw(rationals) for _ in range(n)] for _ in range(r)]
    return [[sum((L[i][k] * R[k][j] for k in range(r)), Fraction(0))
             for j in range(n)] for i in range(m)]


@st.composite
def shaped_matrices(draw):
    """(A, m, n) with 0 <= m, n <= 5; a matrix with no rows has no columns
    either, since a list of rows cannot carry a column count."""
    m = draw(st.integers(0, 5))
    n = draw(st.integers(0, 5)) if m else 0
    return draw(rational_matrices(m, n)), m, n


def to_sympy(A, m, n):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix(m, n, [sympy.Rational(x.numerator, x.denominator)
                               for row in A for x in row])


def from_sympy(M):
    return [[Fraction(int(x.p), int(x.q)) for x in M.row(i)]
            for i in range(M.rows)]


def all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@settings(max_examples=60, deadline=None)
@given(shaped_matrices(), st.data())
def test_matmul_matches_sympy(shaped, data):
    A, m, k = shaped
    n = data.draw(st.integers(0, 5)) if k else 0
    B = data.draw(rational_matrices(k, n))
    got = exactlin.matmul(A, B)
    assert got == from_sympy(to_sympy(A, m, k) * to_sympy(B, k, n))
    assert all_fractions(got)


@settings(max_examples=60, deadline=None)
@given(shaped_matrices())
def test_rref_and_nullspace_match_sympy(shaped):
    A, m, n = shaped
    R, pivots = exactlin.rref(A)
    R_ref, pivots_ref = to_sympy(A, m, n).rref()
    assert (R, pivots) == (from_sympy(R_ref), list(pivots_ref))
    assert all_fractions(R)
    ker = exactlin.nullspace(A)
    assert ker == [[row[0] for row in from_sympy(v)]
                   for v in to_sympy(A, m, n).nullspace()]
    assert all_fractions(ker)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(rational_matrices(n, n), st.just(n))))
def test_inverse_matches_sympy(square):
    A, n = square
    M = to_sympy(A, n, n)
    if M.det() == 0:
        with pytest.raises(SolveFailed):
            exactlin.inverse(A)
    else:
        got = exactlin.inverse(A)
        assert got == from_sympy(M.inv())
        assert all_fractions(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3), st.data())
def test_solve_matrix_matches_sympy(m, n, k, data):
    A = data.draw(rational_matrices(m, n))
    if data.draw(st.booleans()):        # consistent by construction
        X = data.draw(rational_matrices(n, k))
        B = exactlin.matmul(A, X)
    else:
        B = data.draw(rational_matrices(m, k))
    try:
        sol, params = to_sympy(A, m, n).gauss_jordan_solve(to_sympy(B, m, k))
    except ValueError:                  # sympy: no solution
        params = None
    if params is None or len(params):   # no solution, or not a unique one
        with pytest.raises(SolveFailed):
            exactlin.solve_matrix(A, B)
        return
    got = exactlin.solve_matrix(A, B)
    assert got == from_sympy(sol)
    assert all_fractions(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.tuples(rational_matrices(n, n), st.just(n))),
       st.lists(rationals, max_size=4))
def test_charpoly_and_matrix_poly_match_sympy(square, p):
    sympy = pytest.importorskip("sympy")
    A, n = square
    M = to_sympy(A, n, n)
    coeffs = M.charpoly().all_coeffs()[::-1]
    assert exactlin.charpoly(A) == [Fraction(int(c.p), int(c.q))
                                    for c in coeffs]
    ref = sympy.zeros(n, n)
    for k, c in enumerate(p):
        ref += sympy.Rational(c.numerator, c.denominator) * M ** k
    got = exactlin.eval_matrix_poly(p, A)
    assert got == from_sympy(ref)
    assert all_fractions(got)


def test_empty_inner_dimension_gives_fraction_zeros():
    assert exactlin.matvec([[], []], []) == [0, 0]
    assert all_fractions([exactlin.matvec([[]], [])])
    assert exactlin.matmul([[], []], []) == [[], []]
    assert exactlin.eval_matrix_poly([], [[Fraction(1)]]) == [[0]]
    assert all_fractions(exactlin.eval_matrix_poly([], [[Fraction(1)]]))


def test_solve_matrix_raises_when_any_column_is_inconsistent():
    A = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)],
         [Fraction(2), Fraction(1)]]
    good = [Fraction(1), Fraction(3), Fraction(4)]
    bad = [Fraction(1), Fraction(3), Fraction(5)]
    assert exactlin.solve_matrix(A, [[g] for g in good]) == [[1], [2]]
    with pytest.raises(SolveFailed, match="inconsistent linear system"):
        exactlin.solve_matrix(A, [[g, b] for g, b in zip(good, bad)])
    # a rank-1 matrix has no unique solution, even for a consistent column
    singular = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    with pytest.raises(SolveFailed, match="rank 1 < 2"):
        exactlin.solve_matrix(singular, [[Fraction(1)], [Fraction(2)]])


@pytest.mark.parametrize("func", [
    exactlin.inverse, exactlin.charpoly,
    lambda A: exactlin.eval_matrix_poly([Fraction(1), Fraction(1)], A)])
def test_non_square_matrix_rejected(func):
    A = [[Fraction(1), Fraction(0), Fraction(2)],
         [Fraction(0), Fraction(1), Fraction(3)]]
    with pytest.raises(ValueError, match="not square"):
        func(A)


# --- factoring characteristic polynomials over Q -----------------------------

def _diag(*values):
    n = len(values)
    return [[Fraction(values[i]) if i == j else Fraction(0)
             for j in range(n)] for i in range(n)]


def _monic_fractions(factor):
    coeffs = [Fraction(int(c.p), int(c.q))
              for c in reversed(factor.all_coeffs())]
    return tuple(c / coeffs[-1] for c in coeffs)


@st.composite
def planted_matrices(draw):
    """A rational matrix U B U^-1 with B block diagonal: rational
    eigenvalues, Jordan blocks, complex pairs, any quadratic (irreducible or
    not) and dense 3x3 blocks, each block possibly repeated and possibly
    shifted into a cluster near +-1e12; rational eigenvalues may have
    denominators above 10**6; U is a unimodular integer matrix."""
    q = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    eigenvalue = q | st.builds(Fraction, st.integers(-5, 5),
                               st.sampled_from([1234567, 10 ** 7]))
    far = draw(st.sampled_from([10 ** 12, -10 ** 12]))
    size = draw(st.integers(1, 6))
    blocks = []
    while sum(len(b) for b in blocks) < size:
        kind = draw(st.sampled_from(["root", "jordan", "pair", "quad",
                                     "dense"]))
        if kind == "root":
            block = [[draw(eigenvalue)]]
        elif kind == "jordan":
            r = draw(eigenvalue)
            block = [[r, Fraction(1)], [Fraction(0), r]]
        elif kind == "pair":
            a, b = draw(q), draw(q.filter(lambda x: x != 0))
            block = [[a, -b], [b, a]]
        elif kind == "quad":
            block = [[Fraction(0), -draw(q)], [Fraction(1), -draw(q)]]
        else:
            block = [[Fraction(draw(st.integers(-3, 3))) for _ in range(3)]
                     for _ in range(3)]
        shift = draw(st.sampled_from([0, far]))
        block = [[x + shift * (i == j) for j, x in enumerate(row)]
                 for i, row in enumerate(block)]
        blocks += [block] * draw(st.integers(1, 2))
    n = sum(len(b) for b in blocks)
    B = exactlin.zeros(n, n)
    k = 0
    for block in blocks:
        for i, row in enumerate(block):
            B[k + i][k:k + len(row)] = row
        k += len(block)
    lower, upper = exactlin.identity(n), exactlin.identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(draw(st.integers(-2, 2)))
            upper[j][i] = Fraction(draw(st.integers(-2, 2)))
    U = exactlin.matmul(lower, upper)
    return exactlin.matmul(exactlin.matmul(U, B), exactlin.inverse(U))


@settings(max_examples=60, deadline=None)
@given(planted_matrices())
def test_rational_factors_match_sympy(A):
    sympy = pytest.importorskip("sympy")
    p = exactlin.charpoly(A)
    t = sympy.Symbol("t")
    _, expected = sympy.factor_list(
        sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                    for c in reversed(p)], t, domain="QQ"))
    low = {_monic_fractions(f): m for f, m in expected if f.degree() <= 2}
    rest = [Fraction(1)]
    for f, m in expected:
        if f.degree() > 2:
            for _ in range(m):
                rest = exactlin.poly_mul(rest, list(_monic_fractions(f)))
    factors, cofactor = exactlin.rational_factors(p)
    assert {tuple(f): m for f, m in factors} == low
    assert cofactor == rest
    roots, cofactor = exactlin.rational_roots(p)
    assert roots == sorted((-f[0], m) for f, m in low.items() if len(f) == 2)
    for f, m in low.items():
        if len(f) == 3:
            for _ in range(m):
                rest = exactlin.poly_mul(rest, list(f))
    assert cofactor == rest


@pytest.mark.parametrize("values", [(10 ** 12, 10 ** 12 + 2),
                                    (0, 10 ** 12, 10 ** 12 + 2)])
def test_rational_roots_of_large_cluster_in_bounded_time(values):
    with time_limit(1.0):
        roots, cofactor = exactlin.rational_roots(
            exactlin.charpoly(_diag(*values)))
    assert roots == [(Fraction(v), 1) for v in values]
    assert cofactor == [Fraction(1)]


def test_rational_roots_with_denominators_above_a_million():
    # every rational root lies in Z/D for D the lcm of the denominators of
    # the monic polynomial, however large D is
    d = 1234567
    roots, cofactor = exactlin.rational_roots(
        exactlin.charpoly(_diag(Fraction(1, d), Fraction(2, d))))
    assert roots == [(Fraction(1, d), 1), (Fraction(2, d), 1)]
    assert cofactor == [Fraction(1)]


def test_quadratic_factors_with_denominators_above_a_million():
    first = [Fraction(1, 10 ** 7), Fraction(0), Fraction(1)]
    second = [Fraction(4, 10 ** 7), Fraction(0), Fraction(1)]
    factors, cofactor = exactlin.rational_factors(
        exactlin.poly_mul(first, second))
    assert sorted(factors) == sorted([(first, 1), (second, 1)])
    assert cofactor == [Fraction(1)]


def test_rational_factors_of_a_dense_20x20_matrix_in_bounded_time():
    rng = random.Random(20)
    A = random_matrix(rng, 20, 20, lo=-5, hi=5)
    p = exactlin.charpoly(A)
    with time_limit(2.0):
        factors, cofactor = exactlin.rational_factors(p)
    rest = cofactor
    for f, m in factors:
        rest = exactlin.poly_mul(rest, reduce(exactlin.poly_mul, [f] * m))
    assert rest == p


# --- gcd, squarefree part and divide_out against sympy -----------------------

coefficients = st.integers(-9, 9) | st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([2, 1234567, 10 ** 7]))
scalars = coefficients.filter(lambda c: c != 0)


@st.composite
def factor_lists(draw):
    """Nonzero polynomials of degree 1 to 3 with any rational leading
    coefficient, negative ones included."""
    return (draw(st.lists(coefficients, min_size=1, max_size=3))
            + [draw(scalars)])


def _product(factors, scalar=1):
    return reduce(exactlin.poly_mul, factors, [Fraction(scalar)])


def _sympy_poly(p):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p)], sympy.Symbol("t"),
                      domain="QQ")


def _from_sympy(f):
    return exactlin.poly_trim(Fraction(int(c.p), int(c.q))
                              for c in reversed(f.all_coeffs()))


def _monic(p):
    return [c / p[-1] for c in p]


@settings(max_examples=60, deadline=None)
@given(st.lists(factor_lists(), max_size=2),
       st.lists(factor_lists(), max_size=2),
       st.lists(factor_lists(), max_size=2), scalars, scalars)
def test_poly_gcd_matches_sympy(shared, left, right, a, b):
    p, q = _product(shared + left, a), _product(shared + right, b)
    want = _monic(_from_sympy(_sympy_poly(p).gcd(_sympy_poly(q))))
    assert exactlin.poly_gcd(p, q) == want
    assert exactlin.poly_gcd(q, p) == want


def test_poly_gcd_edge_cases():
    assert exactlin.poly_gcd([], []) == []
    assert exactlin.poly_gcd([1], []) == [1]
    # coprime inputs, one of them not monic, have the constant gcd 1
    assert exactlin.poly_gcd([Fraction(1, 10 ** 7), Fraction(-3)],
                             [-1, 0, 1]) == [1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(factor_lists(), st.integers(1, 3)), min_size=1,
                max_size=3), scalars)
def test_poly_squarefree_part_matches_sympy(factors, a):
    p = _product([f for f, m in factors for _ in range(m)], a)
    want = _monic(_from_sympy(_sympy_poly(p).sqf_part()))
    assert exactlin.poly_squarefree_part(p) == want


@settings(max_examples=60, deadline=None)
@given(factor_lists(), st.integers(0, 3), st.lists(factor_lists(),
                                                   max_size=2), scalars)
def test_divide_out_matches_sympy(f, m, others, a):
    p = _product([f] * m + others, a)
    P, F, want_m = _sympy_poly(p), _sympy_poly(f), 0
    quo, rem = P.div(F)
    while rem.is_zero:
        P, want_m = quo, want_m + 1
        quo, rem = P.div(F)
    assert exactlin.divide_out(p, f) == (want_m, _from_sympy(P))
