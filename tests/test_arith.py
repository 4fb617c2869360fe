"""Image/kernel bases, solves and adapted coordinates, exact and float."""

import inspect
import random
from fractions import Fraction

import numpy as np
import pytest

from quiverdyn import arith, exactlin
from quiverdyn.errors import RankAmbiguous, SolveFailed
from quiverdyn.quiver import selection_matrix


def random_matrix(rng, m, n, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
            for _ in range(m)]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_image_kernel_spans_products(mode):
    rng = random.Random(2)
    ar = arith.of(mode)
    for _ in range(40):
        # rank at most r, and often below min(m, n)
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        r = rng.randint(0, min(m, n))
        A = exactlin.matmul(random_matrix(rng, m, r),
                            random_matrix(rng, r, n)) if r else \
            random_matrix(rng, m, n, 0, 0)
        im, ker = ar.image_kernel(ar.freeze(A))
        assert len(im) == len(exactlin.rref(A)[1])
        assert len(im) + len(ker) == n
        # the kernel is in the normal form of exactlin.nullspace
        assert ar.passes(ar.max_abs(ar.sub(
            ar.columns(ker, n), ar.columns(exactlin.nullspace(A), n))), 1e-9)
        # every column of A lies in the image span, every kernel vector
        # is killed by A
        B = ar.columns(im, m)
        for j in range(n):
            col = ar.vector([A[i][j] for i in range(m)])
            if im:
                x = ar.solve_vector(B, col)
                assert ar.passes(ar.max_abs(ar.sub(ar.matvec(B, x), col)),
                                 1e-9)
            else:
                assert ar.max_abs(col) == 0
        for v in ker:
            assert ar.passes(ar.max_abs(ar.matvec(ar.freeze(A), v)), 1e-9)


def test_float_image_kernel_rejects_rank_near_threshold():
    with pytest.raises(RankAmbiguous):
        arith.FLOAT.image_kernel(np.diag([1.0, 1e-10]))


def test_float_image_kernel_judges_free_columns_by_the_rank_rule():
    # the last kernel row has norm 1.2e-10, inside the ambiguity band; the
    # two rows above it add only 0.85e-10 each, so no choice of free
    # columns is decided by the rank rule
    a = -8.5e-11
    with pytest.raises(RankAmbiguous):
        arith.FLOAT.image_kernel(np.array([[a, a, 1.0]]))


@pytest.mark.parametrize("least, trusted", [(15e-10, False), (40e-10, True)])
def test_float_kernel_rows_are_judged_at_the_kernel_accuracy(least, trusted):
    # A has the kernel (1, 1, 1, 1) and least kept singular value `least`
    # above t = 1e-10, so the kernel is known to t / least. Its last row,
    # 0.5, is trusted only above 10 t / least: at 15 t the normal form
    # could be off by more than a tenth, and image_kernel says so
    V = np.array([[1, -1, 0, 0], [1, 1, -2, 0], [1, 1, 1, -3]], dtype=float)
    A = np.diag([1.0, 0.5, least]) @ (V / np.linalg.norm(V, axis=1)[:, None])
    if not trusted:
        with pytest.raises(RankAmbiguous):
            arith.FLOAT.image_kernel(A)
        return
    im, ker = arith.FLOAT.image_kernel(A)
    assert len(im) == 3
    assert np.allclose(ker, [[1.0, 1.0, 1.0, 1.0]], rtol=0, atol=1e-12)


@pytest.mark.parametrize("small, unique", [(1e-12, False), (1e-8, True)])
def test_float_solve_judges_uniqueness_by_the_rank_rule(small, unique):
    # lstsq's own eps-level rank counts both singular values; the rank rule
    # counts 1e-12 out, as image_kernel does, and 1e-8 in
    A, b = np.diag([1.0, small]), np.array([1.0, small])
    assert np.linalg.lstsq(A, b, rcond=None)[2] == 2
    assert len(arith.FLOAT.image_kernel(A)[1]) == (0 if unique else 1)
    for solve in (arith.FLOAT.solve, arith.FLOAT.solve_vector):
        if unique:
            assert np.array_equal(solve(A, b),
                                  np.linalg.lstsq(A, b, rcond=None)[0])
        else:
            with pytest.raises(SolveFailed):
                solve(A, b)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_solve_requires_a_unique_solution(mode):
    # consistent but rank-deficient: both arithmetics refuse to pick one
    ar = arith.of(mode)
    A = ar.freeze([[1, 1], [2, 2]])
    with pytest.raises(SolveFailed):
        ar.solve_vector(A, [1, 2])
    with pytest.raises(SolveFailed):
        ar.solve(A, ar.freeze([[1], [2]]))
    x = ar.solve_vector(ar.freeze([[1, 1], [0, 2]]), [3, 4])
    assert ar.passes(ar.max_abs(ar.sub(x, [1, 2])), 1e-12)


def test_both_arithmetics_define_one_interface():
    def interface(cls):
        return {name: (list(inspect.signature(value).parameters)
                       if callable(value) else None)
                for name, value in vars(cls).items()
                if not name.startswith("_")}

    assert interface(arith.ExactArith) == interface(arith.FloatArith)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_projector_is_oblique_projection(mode):
    # the coordinates M = [B_on | B_along] adapted to two complementary
    # subspaces and M^{-1} give the projector onto one along the other
    ar = arith.of(mode)
    B_on = ar.freeze([[1], [1], [0]])
    B_along = ar.freeze([[1, 0], [0, 0], [0, 1]])
    M = ar.hstack([B_on, B_along], 3)
    Minv = ar.inverse(M)
    assert ar.max_abs(ar.sub(M, ar.freeze([[1, 1, 0], [1, 0, 0],
                                           [0, 0, 1]]))) == 0
    assert ar.max_abs(ar.sub(ar.matmul(M, Minv, 3), ar.identity(3))) == 0
    P = ar.matmul(B_on, Minv[:1], 3)
    assert ar.max_abs(ar.sub(ar.matmul(P, P, 3), P)) == 0
    assert ar.max_abs(ar.sub(ar.matmul(P, B_on, 1), B_on)) == 0
    assert ar.max_abs(ar.matmul(P, B_along, 2)) == 0
    # subspaces that meet give no coordinates
    with pytest.raises(SolveFailed):
        ar.inverse(ar.hstack([B_on, ar.freeze([[1, 0], [1, 0], [0, 1]])], 3))


def test_exact_freeze_passes_frozen_rows_through():
    # selection matrices are built frozen, so freezing them copies nothing;
    # any other row is converted entry by entry
    S = selection_matrix([2, 0], 3)
    assert all(a is b for a, b in zip(arith.EXACT.freeze(S), S))
    mixed = arith.EXACT.freeze([(Fraction(1), 2), [3, Fraction(1, 2)]])
    assert mixed == ((1, 2), (3, Fraction(1, 2)))
    assert {type(x) for row in mixed for x in row} == {Fraction}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_product_over_a_zero_inner_dimension_keeps_its_columns(mode):
    ar = arith.of(mode)
    got = ar.matmul(ar.zeros(2, 0), ar.zeros(0, 3), 3)
    assert arith.matrix_shape(got) == (2, 3)
    assert ar.max_abs(got) == 0
