"""Graded spaces of homogeneous polynomial maps and the homological operator.

Grade k holds the polynomial maps R^n -> R^m whose components are
homogeneous of degree k+1 (so grade 0 is linear); vector fields are the
case m = n. The module provides the canonical monomial basis of each
grade, the one builder of the homological operator psi |-> B psi - D psi . A x
that both reductions solve with (A = B = L gives ad_L, G |-> [L x, G], for
normal forms; (A_c, A_h) gives the center-manifold invariance operator),
the normal-form homological equation solved by one square system against
the image and kernel of ad_{L^S}, and the truncated Lie-transform
pushforward exp(ad_G).

Everything operates on a single vector space; the per-vertex assembly into
quiver tuples happens in the reduction modules.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import arith
from .errors import RankAmbiguous, SizeOverflow, SolveFailed
from .polynomial import Poly, exact_scalar, monomial_exponents
from .tuples import bracket_polys

SIZE_CAP = 20000


@dataclass(frozen=True)
class HomBasis:
    """Canonical basis of the grade-k homogeneous maps R^n -> R^m.

    Elements are monomial-times-unit-vector maps x^e e_j, ordered first by
    output index j, then by exponent tuple in graded lexicographic order.
    """
    n: int
    m: int
    k: int
    elements: tuple  # of (output index, exponent tuple)

    @property
    def size(self):
        return len(self.elements)

    @cached_property
    def index(self):
        """The position of each element."""
        return {elem: i for i, elem in enumerate(self.elements)}

    def coords(self, polys, ar):
        """Coefficient vector of a map in this basis, in the arithmetic ar
        (see quiverdyn.arith); ValueError for a term outside the grade
        (wrong degree or extra variables)."""
        vec = [ar.zero] * self.size
        for j, p in enumerate(polys):
            for e, c in p.terms.items():
                i = self.index.get((j, e))
                if i is None:
                    raise ValueError(
                        f"term {e} in output {j} is not grade {self.k}")
                vec[i] = c
        return ar.vector(vec)

    def from_coords(self, vec):
        """The map with the given coefficient vector."""
        polys = [dict() for _ in range(self.m)]
        for (j, e), c in zip(self.elements, vec):
            x = exact_scalar(c)
            c = float(c) if x is None else x
            if c != 0:
                polys[j][e] = c
        return [Poly(self.n, terms) for terms in polys]


def hom_basis(n, k, m=None):
    """The canonical grade-k basis of maps R^n -> R^m (m = n, vector
    fields, when not given); size m * C(n+k, k+1)."""
    m = n if m is None else m
    if min(n, m) < 1 or k < 0:
        raise ValueError("need n, m >= 1 and k >= 0")
    monos = monomial_exponents(n, k + 1)
    if m * len(monos) > SIZE_CAP:
        raise SizeOverflow(
            f"grade-{k} basis of maps R^{n} -> R^{m} has {m * len(monos)} "
            f"elements (> cap {SIZE_CAP})")
    elements = tuple((j, e) for j in range(m) for e in monos)
    return HomBasis(n, m, k, elements)


@dataclass
class AdMatrix:
    """Matrix of a homological operator on a grade, in HomBasis
    coordinates."""
    basis: HomBasis
    matrix: object  # exact tuple of rows or numpy array


def homological_operator(A, B, k):
    """The matrix of psi |-> B psi - D psi . A x on the grade-k maps
    R^n -> R^m, for A (n x n) and B (m x m) stored in one arithmetic.

    The column of x^e e_i is B[:, i] x^e minus the terms
    e_j A[j][l] x^(e - e_j + e_l) e_i over j and l, filled in directly
    from the entries of A and B.
    """
    ar = arith.of_matrix(A)
    n, m = arith.matrix_shape(A)[0], arith.matrix_shape(B)[0]
    basis = hom_basis(n, k, m)
    index = basis.index
    A, B = arith.tolist(A), arith.tolist(B)
    T = [[0] * basis.size for _ in range(basis.size)]
    for col, (i, e) in enumerate(basis.elements):
        for r in range(m):
            if B[r][i]:
                T[index[r, e]][col] += B[r][i]
        for j in range(n):
            if not e[j]:
                continue
            for l in range(n):
                if A[j][l]:
                    f = list(e)
                    f[j] -= 1
                    f[l] += 1
                    T[index[i, tuple(f)]][col] -= e[j] * A[j][l]
    return AdMatrix(basis, ar.freeze(T))


def _matrix_key(L):
    if isinstance(L, np.ndarray):
        return ("float", L.shape, L.tobytes())
    return ("exact", arith.EXACT.freeze(L))


# the ad matrices of the most recently used (L, grade) pairs, oldest first
AD_CACHE_SIZE = 256
_AD_CACHE = OrderedDict()


def ad_operator_matrix(L, k):
    """The matrix of ad_{L x}: G |-> [L x, G] = L G - DG . L x on grade k,
    the homological operator at A = B = L. Cached by matrix content, least
    recently used first out once AD_CACHE_SIZE matrices are held."""
    key = (_matrix_key(L), k)
    if key in _AD_CACHE:
        _AD_CACHE.move_to_end(key)
        return _AD_CACHE[key]
    out = homological_operator(L, L, k)
    _AD_CACHE[key] = out
    if len(_AD_CACHE) > AD_CACHE_SIZE:
        _AD_CACHE.popitem(last=False)
    return out


def solve_homological(L, LS, Fk, k):
    """Split F^k = ad_L(G) + R with G in im ad_{L^S} and R in ker ad_{L^S}.

    Fk is a vector field (list of Polys) homogeneous of grade k. With
    bases B_im and B_ker of the image and kernel of ad_{L^S}, one square
    solve [ad_L B_im | B_ker] (y, z) = f gives G = B_im y and
    R = B_ker z. For L^S semisimple and commuting with L, L - L^S
    nilpotent, the system has a unique solution; a solve that finds none
    raises RankAmbiguous, as does a float singular value of ad_{L^S} near
    the rank threshold. Returns (G, R) as lists of Polys.
    """
    adL = ad_operator_matrix(L, k)
    basis, N = adL.basis, adL.basis.size
    ar = arith.of_matrix(adL.matrix)
    im, ker = ar.image_kernel(ad_operator_matrix(LS, k).matrix)
    Bim = ar.columns(im, N)
    f = basis.coords(Fk, ar)
    Bker = ar.columns(ker, N)
    K = ar.hstack([ar.matmul(adL.matrix, Bim, len(im)), Bker], N)
    try:
        yz = ar.solve_vector(K, f)
    except SolveFailed:
        raise RankAmbiguous("[ad_L B_im | B_ker] is singular; is L^S "
                            "the semisimple part of L?") from None
    g = ar.matvec(Bim, yz[:len(im)])
    rem = ar.matvec(Bker, yz[len(im):])
    return basis.from_coords(list(g)), basis.from_coords(list(rem))


def lie_transform(F, G, k, r):
    """Truncated pushforward exp(ad_G) F of a vector field.

    F is a list of Polys (mixed degrees up to r+1); G is homogeneous of
    grade k >= 1. The series terminates within the truncation because each
    bracket with G raises the grade by k; output is truncated at polynomial
    degree r+1.
    """
    if k < 1:
        raise ValueError("generator grade must be >= 1")
    n = len(F)
    maxdeg = r + 1
    total = [p.truncate(maxdeg) for p in F]
    term = list(F)
    for i in range(1, r // k + 1):
        term = [p.truncate(maxdeg) for p in bracket_polys(G, term, n, n)]
        if all(p.is_zero() for p in term):
            break
        # an exact 1/i! scales a float coefficient by the float 1/i!
        coeff = Fraction(1, math.factorial(i))
        total = [t + p.scale(coeff) for t, p in zip(total, term)]
    return total


def grade_part(polys, k):
    """The grade-k (degree k+1) homogeneous part of a vector field."""
    return [p.homogeneous_part(k + 1) for p in polys]
