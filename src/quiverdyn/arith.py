"""Exact and float matrix arithmetic behind one interface.

A matrix is stored either exactly, as a tuple of rows of Fraction entries,
or in floats, as a numpy array. Each representation picks one of the two
implementations below from its mode string, and the algorithms that are
the same in both arithmetics are written once against that interface:
build, combine and invert matrices, evaluate a polynomial at a matrix,
solve a linear system, split off the image and kernel of a matrix, and
decide whether a residual passes.

A solve returns the unique X with A X = B or raises SolveFailed, which
each caller maps to the error it documents: exactly by one elimination of
[A | B], in floats by least squares, accepted when A has full column rank
by the rank rule and the residual is within the caller's tolerance
(default SOLVE_RTOL relative to the right-hand side). The float rank
rule: with t = RANK_THRESHOLD * max(1, largest singular value), a
singular value above 10 t counts, one below t / 10 does not, and one
between makes image_kernel raise RankAmbiguous. Image and kernel come
from one rref in exact arithmetic and from an SVD in floats; both give
the kernel in exactlin.nullspace's normal form, one vector per free
column, 1 there and 0 at the other free columns.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exactlin
from .errors import RankAmbiguous, SolveFailed

# a float solve passes when its largest residual is at most this fraction
# of max(1, largest right-hand side entry), unless the caller gives a tol
SOLVE_RTOL = 1e-10
RANK_THRESHOLD = 1e-10


def as_float_matrix(matrix):
    """Convert an exact or float matrix to a two-dimensional numpy array."""
    if isinstance(matrix, np.ndarray):
        return np.asarray(matrix, dtype=float)
    return np.array([[float(x) for x in row] for row in matrix],
                    dtype=float).reshape(matrix_shape(matrix))


def matrix_shape(matrix):
    if isinstance(matrix, np.ndarray):
        return matrix.shape
    return (len(matrix), len(matrix[0]) if len(matrix) else 0)


def tolist(values):
    """Matrix or vector entries as nested Python sequences of scalars."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _fraction(x):
    """x as a Fraction; one that already is passes through unchanged."""
    return x if type(x) is Fraction else Fraction(x)


def _frozen_row(row):
    """row as a tuple of Fractions; one that already is passes through."""
    if type(row) is tuple and {*map(type, row)} <= {Fraction}:
        return row
    return tuple(map(_fraction, row))


def _rank_threshold(s):
    """The float rank threshold for singular values s, largest first."""
    return RANK_THRESHOLD * max(s[0] if s.size else 0.0, 1.0)


def _rank(s, thr):
    """The rank of singular values s at threshold thr, or RankAmbiguous."""
    if any(0.1 * thr < x < 10 * thr for x in s):
        raise RankAmbiguous(f"singular values {s} near the threshold {thr}")
    return int(np.sum(s > thr))


def _entries(values):
    for x in values:
        if isinstance(x, (list, tuple)):
            yield from x
        else:
            yield x


class ExactArith:
    """Rational matrices as tuples of Fraction rows; vectors as lists."""

    mode = "exact"
    zero = Fraction(0)

    def freeze(self, matrix):
        return tuple(map(_frozen_row, matrix))

    def vector(self, values):
        return list(map(_fraction, values))

    def zeros(self, m, n):
        return tuple((Fraction(0),) * n for _ in range(m))

    def identity(self, n):
        return self.freeze(exactlin.identity(n))

    def hstack(self, blocks, nrows):
        """The column blocks side by side (each block has nrows rows)."""
        return tuple(tuple(x for B in blocks for x in B[i])
                     for i in range(nrows))

    def columns(self, vectors, nrows):
        """The matrix whose columns are the given vectors."""
        return tuple(tuple(_fraction(v[i]) for v in vectors)
                     for i in range(nrows))

    def matmul(self, A, B, ncols):
        """A B, with ncols columns: a B without rows does not carry them."""
        if not len(A) or not len(B):
            return self.zeros(len(A), ncols)
        return tuple(map(tuple, exactlin.matmul(A, B)))

    def matvec(self, A, x):
        return exactlin.matvec(A, x)

    def sub(self, A, B):
        if A and isinstance(A[0], (list, tuple)):
            return tuple(tuple(a - b for a, b in zip(ra, rb))
                         for ra, rb in zip(A, B))
        return [a - b for a, b in zip(A, B)]

    def inverse(self, A):
        return tuple(map(tuple, exactlin.inverse(A))) if len(A) else ()

    def solve(self, A, B, tol=None):
        """The unique X with A X = B, or SolveFailed; tol is unused."""
        return tuple(map(tuple, exactlin.solve_matrix(A, B)))

    def solve_vector(self, A, b, tol=None):
        """The one-column case of solve, as a list."""
        return exactlin.solve(A, self.vector(b))

    def image_kernel(self, A):
        """Bases of the column space (the pivot columns of A) and of the
        kernel (in the normal form), from one rref."""
        R, pivots = exactlin.rref(A)
        cols = list(zip(*A))
        return ([list(cols[c]) for c in pivots],
                exactlin.rref_nullspace(R, pivots, len(cols)))

    def matrix_poly(self, p, A):
        """p(A) for coefficients p in increasing degree."""
        return tuple(map(tuple, exactlin.eval_matrix_poly(p, A)))

    def max_abs(self, values):
        return max((abs(x) for x in _entries(values)), default=Fraction(0))

    def passes(self, residual, tol):
        return residual == 0


class FloatArith:
    """Float matrices and vectors as numpy arrays; checks use a tolerance."""

    mode = "float"
    zero = 0.0

    def freeze(self, matrix):
        return np.array(as_float_matrix(matrix), dtype=float)

    def vector(self, values):
        return np.array([float(c) for c in values])

    def zeros(self, m, n):
        return np.zeros((m, n))

    def identity(self, n):
        return np.eye(n)

    def hstack(self, blocks, nrows):
        """The column blocks side by side (each block has nrows rows)."""
        if not blocks:
            return np.zeros((nrows, 0))
        return np.hstack([as_float_matrix(B).reshape(nrows, matrix_shape(B)[1])
                          for B in blocks])

    def columns(self, vectors, nrows):
        """The matrix whose columns are the given vectors."""
        if not vectors:
            return np.zeros((nrows, 0))
        return np.column_stack([np.asarray(v, dtype=float) for v in vectors])

    def matmul(self, A, B, ncols):
        """A B, with ncols columns: a B without rows does not carry them."""
        A, B = as_float_matrix(A), as_float_matrix(B)
        return A @ (B if B.size else B.reshape(A.shape[1], ncols))

    def matvec(self, A, x):
        return as_float_matrix(A) @ x

    def sub(self, A, B):
        return np.asarray(A, dtype=float) - np.asarray(B, dtype=float)

    def inverse(self, A):
        A = as_float_matrix(A)
        if not A.size:
            return A
        try:
            return np.linalg.inv(A)
        except np.linalg.LinAlgError:
            raise SolveFailed("matrix is singular")

    def solve(self, A, B, tol=None):
        """The least-squares X, if A has full column rank by the rank rule
        and max |A X - B| <= tol (SOLVE_RTOL * max(1, max |B|) if None)."""
        A = as_float_matrix(A)
        B = np.asarray(B, dtype=float)
        if tol is None:
            tol = SOLVE_RTOL * max(1.0, self.max_abs(B))
        X, _, _, s = np.linalg.lstsq(A, B, rcond=None)
        rank = int(np.sum(s > 10 * _rank_threshold(s)))
        if rank < A.shape[1]:
            raise SolveFailed(f"matrix has rank {rank} < {A.shape[1]} columns")
        residual = self.max_abs(A @ X - B)
        if residual > tol:
            raise SolveFailed(f"residual {residual:.2e}")
        return X

    def solve_vector(self, A, b, tol=None):
        """The one-column case of solve."""
        return self.solve(A, b, tol)

    def image_kernel(self, A):
        """An orthonormal basis of the column space and the kernel in the
        normal form, from the SVD split where the rank rule puts the rank,
        or RankAmbiguous. The free columns are the rows of the SVD kernel K
        that raise its rank by the rank rule at K's accuracy, the threshold
        over the least kept singular value, taken from the last one up
        (RankAmbiguous if too few): the non-pivot columns of rref(A)
        whenever the rank rule agrees with exact zero tests. A row of size
        x needs a least kept singular value above 10 t / x: nearer, the
        normal form may be off by a tenth, and RankAmbiguous is raised."""
        U, s, Vt = np.linalg.svd(as_float_matrix(A))
        thr = _rank_threshold(s)
        r = _rank(s, thr)
        K, free, acc = Vt[r:].T, [], thr / (s[r - 1] if r else 1.0)
        for i in reversed(range(len(K))):
            if len(free) < K.shape[1] and _rank(np.linalg.svd(
                    K[[i] + free], compute_uv=False), acc) > len(free):
                free.insert(0, i)
        if len(free) < K.shape[1]:
            raise RankAmbiguous(f"{len(free)} free columns, not {K.shape[1]}")
        N = np.linalg.solve(K[free].T, K.T)
        N[:, free] = np.eye(len(free))
        return [U[:, i].copy() for i in range(r)], list(N)

    def matrix_poly(self, p, A):
        """p(A) for coefficients p in increasing degree, by Horner's rule."""
        A = as_float_matrix(A)
        H = np.zeros_like(A)
        for c in reversed(p):
            H = H @ A + float(c) * np.eye(len(A))
        return H

    def max_abs(self, values):
        values = np.asarray(values, dtype=float)
        return float(np.max(np.abs(values))) if values.size else 0.0

    def passes(self, residual, tol):
        return float(residual) <= tol


EXACT = ExactArith()
FLOAT = FloatArith()


def of(mode):
    """The arithmetic for a mode string, "exact" or "float"."""
    if mode == "exact":
        return EXACT
    if mode == "float":
        return FLOAT
    raise ValueError("mode must be 'exact' or 'float'")


def joint(*modes):
    """Exact arithmetic when every input is exact, float otherwise."""
    return EXACT if all(m == "exact" for m in modes) else FLOAT


def of_matrix(matrix):
    """The arithmetic a matrix is stored in."""
    return FLOAT if isinstance(matrix, np.ndarray) else EXACT
