"""Image/kernel bases, solves and adapted coordinates, exact and float."""

import random
from fractions import Fraction

import numpy as np
import pytest

from quiverdyn import arith, exactlin
from quiverdyn.errors import RankAmbiguous, SolveFailed


def random_matrix(rng, m, n, lo=-4, hi=4):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(n)]
            for _ in range(m)]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_image_kernel_spans_products(mode):
    rng = random.Random(2)
    ar = arith.of(mode)
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = random_matrix(rng, m, n)
        im, ker = ar.image_kernel(ar.freeze(A), 1e-10)
        assert len(im) == len(exactlin.rref(A)[1])
        assert len(im) + len(ker) == n
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
        arith.FLOAT.image_kernel(np.diag([1.0, 1e-10]), 1e-10)


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
    assert ar.max_abs(ar.sub(ar.matmul(M, Minv), ar.identity(3))) == 0
    P = ar.matmul(B_on, Minv[:1])
    assert ar.max_abs(ar.sub(ar.matmul(P, P), P)) == 0
    assert ar.max_abs(ar.sub(ar.matmul(P, B_on), B_on)) == 0
    assert ar.max_abs(ar.matmul(P, B_along)) == 0
    # subspaces that meet give no coordinates
    with pytest.raises(SolveFailed):
        ar.inverse(ar.hstack([B_on, ar.freeze([[1, 0], [1, 0], [0, 1]])], 3))
