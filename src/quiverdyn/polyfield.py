"""Graded spaces of homogeneous polynomial vector fields on R^n.

Grade k holds the vector fields whose components are homogeneous of
polynomial degree k+1 (so grade 0 is linear). The module provides the
canonical monomial basis of each grade, the matrix of the adjoint operator
G |-> [L x, G] in that basis, the image/kernel splitting of ad_{L^S} used by
the normal-form homological equation, its solver, and the truncated
Lie-transform pushforward exp(ad_G).

Everything operates on a single vector space; the per-vertex assembly into
quiver tuples happens in the normal-form module.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from .errors import RankAmbiguous, SizeOverflow, SolveFailed
from .polynomial import Poly, linear_forms, monomial_exponents
from .tuples import bracket_polys

SIZE_CAP = 20000
RANK_THRESHOLD = 1e-10


@dataclass(frozen=True)
class HomBasis:
    """Canonical basis of the grade-k homogeneous vector fields on R^n.

    Elements are monomial-times-unit-vector fields x^m e_j, ordered first by
    output index j, then by exponent tuple in graded lexicographic order.
    """
    n: int
    k: int
    elements: tuple  # of (output index, exponent tuple)

    @property
    def size(self):
        return len(self.elements)

    def field(self, index):
        """The basis vector field at `index` as a list of Polys."""
        j, m = self.elements[index]
        polys = [Poly.zero(self.n) for _ in range(self.n)]
        polys[j] = Poly.monomial(self.n, m)
        return polys

    def coords(self, polys, ar, strict=True):
        """Coefficient vector of a vector field in this basis, in the
        arithmetic ar (see quiverdyn.arith).

        With strict=True, raises ValueError if the field has terms outside
        the grade (wrong degree or extra variables).
        """
        index = {elem: i for i, elem in enumerate(self.elements)}
        vec = [ar.zero] * self.size
        for j, p in enumerate(polys):
            for e, c in p.terms.items():
                key = (j, tuple(e))
                if key not in index:
                    if strict:
                        raise ValueError(
                            f"term {e} in output {j} is not grade {self.k}")
                    continue
                vec[index[key]] = c
        return ar.vector(vec)

    def from_coords(self, vec):
        """The vector field with the given coefficient vector."""
        polys = [dict() for _ in range(self.n)]
        for (j, m), c in zip(self.elements, vec):
            c = c if isinstance(c, Fraction) else float(c)
            if c != 0:
                polys[j][m] = c
        return [Poly(self.n, terms) for terms in polys]


def hom_basis(n, k):
    """The canonical grade-k basis; size n * C(n+k, k+1)."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    monos = monomial_exponents(n, k + 1)
    if n * len(monos) > SIZE_CAP:
        raise SizeOverflow(
            f"grade-{k} basis on R^{n} has {n * len(monos)} elements "
            f"(> cap {SIZE_CAP})")
    elements = tuple((j, m) for j in range(n) for m in monos)
    return HomBasis(n, k, elements)


@dataclass
class AdMatrix:
    """Matrix of G |-> [L x, G] on a grade, in HomBasis coordinates."""
    basis: HomBasis
    matrix: object  # exact list-of-rows or numpy array
    L: object


def _matrix_key(L):
    if isinstance(L, np.ndarray):
        return ("float", L.shape, L.tobytes())
    return ("exact", tuple(tuple(Fraction(x) for x in row) for row in L))


# the ad matrices of the most recently used (L, grade) pairs, oldest first
AD_CACHE_SIZE = 256
_AD_CACHE = OrderedDict()


def ad_operator_matrix(L, k):
    """The matrix of ad_{L x} restricted to grade k (columns = images of
    basis fields). Cached by matrix content, least recently used first
    out once AD_CACHE_SIZE matrices are held."""
    n = arith.matrix_shape(L)[0]
    key = (_matrix_key(L), k)
    if key in _AD_CACHE:
        _AD_CACHE.move_to_end(key)
        return _AD_CACHE[key]
    basis = hom_basis(n, k)
    ar = arith.of_matrix(L)
    Lx = linear_forms(L, n)
    cols = [basis.coords(bracket_polys(Lx, basis.field(idx), n, n), ar)
            for idx in range(basis.size)]
    out = AdMatrix(basis, ar.columns(cols, basis.size), L)
    _AD_CACHE[key] = out
    if len(_AD_CACHE) > AD_CACHE_SIZE:
        _AD_CACHE.popitem(last=False)
    return out


@dataclass
class ImKerSplit:
    """Complementary image/kernel pair of ad_{L^S} on one grade."""
    basis: HomBasis
    im_vectors: list    # coefficient vectors spanning im ad_{L^S}
    ker_vectors: list   # coefficient vectors spanning ker ad_{L^S}
    proj_im: object     # projector onto im along ker, in basis coords


def im_ker_split_adLS(LS, k, tol=RANK_THRESHOLD):
    """im/ker of ad_{L^S} on grade k, with the oblique projector onto im.

    Requires L^S semisimple, so that the two subspaces are complementary;
    a failure raises RankAmbiguous, as does a float singular value near
    the rank threshold.
    """
    ad = ad_operator_matrix(LS, k)
    ar = arith.of_matrix(ad.matrix)
    N = ad.basis.size
    im, ker = ar.image_kernel(ad.matrix, tol)
    try:
        _, _, P = arith.adapted_coordinates(ar.columns(im, N),
                                            ar.columns(ker, N))
    except SolveFailed:
        raise RankAmbiguous(
            "image and kernel of ad_{L^S} are not complementary; "
            "is L^S semisimple?")
    return ImKerSplit(ad.basis, im, ker, P)


def solve_homological(L, LS, Fk, k, tol=RANK_THRESHOLD):
    """Solve ad_L(G) = proj_im(F) for the unique G in im ad_{L^S}.

    Fk is a vector field (list of Polys) homogeneous of grade k. Returns
    (G, remainder) with remainder = Fk - ad_L(G) lying in ker ad_{L^S}.
    """
    split = im_ker_split_adLS(LS, k, tol)
    basis = split.basis
    adL = ad_operator_matrix(L, k)
    ar = arith.of_matrix(adL.matrix)
    f = basis.coords(Fk, ar)
    fi = ar.matvec(split.proj_im, f)
    if split.im_vectors:
        Bim = ar.columns(split.im_vectors, basis.size)
        try:
            y = ar.solve_vector(ar.matmul(adL.matrix, Bim), fi)
        except SolveFailed as exc:
            raise SolveFailed(f"restricted homological system: {exc}")
        g = ar.matvec(Bim, y)
    else:
        g = ar.vector([0] * basis.size)
    rem = ar.sub(f, ar.matvec(adL.matrix, g))
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
