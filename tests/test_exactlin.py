"""Exact rational linear algebra against numpy oracles."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverdyn import exactlin
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
        assert exactlin.rank(A) == expected


def test_nullspace_vectors_are_killed_and_span_full_kernel():
    rng = random.Random(1)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        A = random_matrix(rng, m, n)
        ker = exactlin.nullspace(A)
        for v in ker:
            assert all(x == 0 for x in exactlin.matvec(A, list(v)))
        assert len(ker) == n - exactlin.rank(A)


def test_solve_recovers_planted_solution_and_detects_inconsistency():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = random_matrix(rng, n, n)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = exactlin.matvec(A, x)
        got = exactlin.solve(A, b)
        assert exactlin.matvec(A, got) == b
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
        assert exactlin.is_zero_matrix(exactlin.eval_matrix_poly(p, A))


def test_univariate_helpers():
    # (t - 1)(t - 2) = t^2 - 3t + 2, ascending: [2, -3, 1]
    p = [Fraction(2), Fraction(-3), Fraction(1)]
    q, r = exactlin.poly_divmod(p, [Fraction(-1), Fraction(1)])
    assert exactlin.poly_trim(r) == []
    assert q == [Fraction(-2), Fraction(1)]
    roots, cofactor = exactlin.rational_roots(p)
    assert roots == [(Fraction(1), 1), (Fraction(2), 1)]
    assert exactlin.poly_degree(cofactor) == 0
    # squarefree part of (t - 1)^2
    sq = exactlin.poly_squarefree_part([Fraction(1), Fraction(-2),
                                        Fraction(1)])
    assert exactlin.poly_trim(sq)[-1] != 0
    assert exactlin.poly_eval(sq, Fraction(1)) == 0
    assert exactlin.poly_degree(sq) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_rref_is_projection_invariant(rows):
    A = [[Fraction(x) for x in row] for row in rows]
    R, pivots = exactlin.rref(A)
    # rref of an rref is itself
    R2, pivots2 = exactlin.rref(R)
    assert R == R2 and pivots == pivots2
