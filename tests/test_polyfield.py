"""Graded spaces of homogeneous vector fields and the homological equation."""

import math
import random
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import madd
from quiverdyn import arith, exactlin, polyfield
from quiverdyn.errors import RankAmbiguous, SizeOverflow
from quiverdyn.polyfield import (ad_operator_matrix, grade_part, hom_basis,
                                 homological_operator, lie_transform,
                                 solve_homological)
from quiverdyn.polynomial import Poly, combine_rows, linear_forms
from quiverdyn.quiver import Quiver, QuiverRepresentation
from quiverdyn.spectral import EndomorphismTuple, sn_decomposition
from quiverdyn.tuples import bracket_polys


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_hom_basis_dimension_formula():
    for n in (1, 2, 3):
        for k in (0, 1, 2, 3):
            b = hom_basis(n, k)
            assert b.size == n * math.comb(n + k, k + 1)


def test_hom_basis_coords_roundtrip():
    b = hom_basis(2, 1)
    rng = random.Random(0)
    vec = [Fraction(rng.randint(-3, 3)) for _ in range(b.size)]
    polys = b.from_coords(vec)
    assert b.coords(polys, arith.EXACT) == vec


def test_size_cap():
    with pytest.raises(SizeOverflow):
        hom_basis(10, 8)


def unit_field(basis, idx):
    """The basis element at idx as a list of Polys."""
    return basis.from_coords([Fraction(int(i == idx))
                              for i in range(basis.size)])


def test_ad_matrix_columns_are_bracket_images():
    L = frac_matrix([[1, 0], [0, -1]])
    ad = ad_operator_matrix(L, 2)
    b = ad.basis
    Lx = [Poly(2, {(1, 0): 1}), Poly(2, {(0, 1): -1})]
    for idx in range(b.size):
        G = unit_field(b, idx)
        expected = b.coords(bracket_polys(Lx, G, 2, 2), arith.EXACT)
        got = [ad.matrix[i][idx] for i in range(b.size)]
        assert got == expected


def test_ad_matrix_is_cached():
    L = frac_matrix([[2, 0], [0, 3]])
    assert ad_operator_matrix(L, 1) is ad_operator_matrix(
        frac_matrix([[2, 0], [0, 3]]), 1)


def test_ad_cache_evicts_the_least_recently_used(monkeypatch):
    monkeypatch.setattr(polyfield, "_AD_CACHE", OrderedDict())
    size = polyfield.AD_CACHE_SIZE
    first = ad_operator_matrix([[Fraction(0)]], 0)
    for i in range(1, size):
        ad_operator_matrix([[Fraction(i)]], 0)
    # a hit makes L = 0 the most recent entry, so L = 1 is evicted next
    assert ad_operator_matrix([[Fraction(0)]], 0) is first
    ad_operator_matrix([[Fraction(size)]], 0)
    assert len(polyfield._AD_CACHE) == size
    assert ad_operator_matrix([[Fraction(0)]], 0) is first
    assert (polyfield._matrix_key([[Fraction(1)]]), 0) \
        not in polyfield._AD_CACHE


def test_coords_take_the_callers_arithmetic():
    # a vanishing float field gets float zeros, not exact ones
    b = hom_basis(2, 1)
    zero = [Poly.zero(2), Poly.zero(2)]
    vec = b.coords(zero, arith.FLOAT)
    assert isinstance(vec, np.ndarray) and vec.dtype == np.float64
    assert not vec.any()
    assert b.coords(zero, arith.EXACT) == [Fraction(0)] * b.size


def poly_operator_columns(A, B, k, ar):
    """Columns of psi |-> B psi - D psi . A x, each the image of one basis
    map built and differentiated as Polys."""
    n = len(A)
    basis = hom_basis(n, k, len(B))
    lin = linear_forms(A, n)
    cols = []
    for idx in range(basis.size):
        psi = unit_field(basis, idx)
        img = combine_rows(B, psi, n)
        for r in range(len(B)):
            for j in range(n):
                img[r] = img[r] - psi[r].diff(j) * lin[j]
        cols.append(basis.coords(img, ar))
    return cols


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("n, m", [(1, 2), (2, 1), (2, 3), (3, 2)])
def test_homological_operator_matches_poly_images(mode, n, m):
    ar = arith.of(mode)
    rng = random.Random(10 * n + m)
    for k in (0, 1, 2):
        A = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
              for _ in range(n)] for _ in range(n)]
        B = [[Fraction(rng.randint(-3, 3)) for _ in range(m)]
             for _ in range(m)]
        if mode == "float":
            A = [[float(x) for x in row] for row in A]
            B = [[float(x) for x in row] for row in B]
        op = homological_operator(ar.freeze(A), ar.freeze(B), k)
        assert op.basis == hom_basis(n, k, m)
        expected = ar.columns(poly_operator_columns(A, B, k, ar),
                              op.basis.size)
        if mode == "exact":
            assert op.matrix == expected
        else:
            assert np.allclose(op.matrix, expected, rtol=0, atol=1e-12)


def test_solve_homological_leaves_the_cubic_resonances():
    # L = diag(1, -1): at grade 2 the eigenvalue combinations vanish only
    # for x^2 y d/dx and x y^2 d/dy, so the remainder holds exactly those
    L = frac_matrix([[1, 0], [0, -1]])
    b = hom_basis(2, 2)
    rng = random.Random(4)
    F = b.from_coords([Fraction(rng.randint(1, 3)) for _ in range(b.size)])
    G, R = solve_homological(L, L, F, 2)
    assert [p.terms for p in R] == [{(2, 1): F[0].terms[(2, 1)]},
                                    {(1, 2): F[1].terms[(1, 2)]}]
    # the generator lies in the image, which holds no resonant term
    assert (2, 1) not in G[0].terms and (1, 2) not in G[1].terms


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_solve_homological_rejects_nilpotent_LS(mode):
    # ad of a nilpotent L^S has image and kernel that meet, so the system
    # is singular whatever the right-hand side, the zero field included
    LS = frac_matrix([[0, 1], [0, 0]])
    if mode == "float":
        LS = np.array(LS, dtype=float)
    zero = [Poly.zero(2), Poly.zero(2)]
    if mode == "float":
        zero = [p.to_float() for p in zero]
    with pytest.raises(RankAmbiguous):
        solve_homological(LS, LS, zero, 1)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_solve_homological_eliminates_twice(mode, monkeypatch):
    # the image and kernel of ad_{L^S}, then one solve of K that also
    # proves K nonsingular: in exact mode two rrefs, in float mode one SVD
    # split and no separate check of K
    calls = []

    def counted(func):
        def wrapper(*args):
            calls.append(func.__name__)
            return func(*args)
        return wrapper

    monkeypatch.setattr(exactlin, "rref", counted(exactlin.rref))
    monkeypatch.setattr(arith.FloatArith, "image_kernel",
                        counted(arith.FloatArith.image_kernel))
    L = frac_matrix([[1, 0], [0, -1]])
    b = hom_basis(2, 2)
    F = b.from_coords([Fraction(x % 5 - 2) for x in range(b.size)])
    if mode == "float":
        L, F = np.array(L, dtype=float), [p.to_float() for p in F]
    solve_homological(L, L, F, 2)
    assert calls == (["rref", "rref"] if mode == "exact"
                     else ["image_kernel"])


@st.composite
def jordan_matrices(draw):
    """A 2x2 or 3x3 rational matrix U J U^-1 with J holding a Jordan block
    (so its nilpotent part is nonzero) and U unimodular."""
    d = draw(st.integers(2, 3))
    size = draw(st.integers(2, d))
    eig = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
           for _ in range(2)]
    J = exactlin.zeros(d, d)
    for i in range(d):
        J[i][i] = eig[0] if i < size else eig[1]
        if i + 1 < size:
            J[i][i + 1] = Fraction(1)
    lower, upper = exactlin.identity(d), exactlin.identity(d)
    for i in range(d):
        for j in range(i):
            lower[i][j] = Fraction(draw(st.integers(-2, 2)))
            upper[j][i] = Fraction(draw(st.integers(-2, 2)))
    U = exactlin.matmul(lower, upper)
    return exactlin.matmul(exactlin.matmul(U, J), exactlin.inverse(U))


@settings(max_examples=40, deadline=None)
@given(jordan_matrices(), st.integers(1, 2), st.data())
def test_solve_homological_splits_with_a_nilpotent_part(L, k, data):
    ar = arith.EXACT
    L = ar.freeze(L)
    rep = QuiverRepresentation(Quiver(["v"], []), {"v": len(L)}, {})
    LS, LN = sn_decomposition(EndomorphismTuple(rep, {"v": L}))
    LS = LS.matrices["v"]
    assert arith.EXACT.max_abs(LN.matrices["v"]) != 0
    b = hom_basis(len(L), k)
    F = b.from_coords([Fraction(data.draw(st.integers(-3, 3)))
                       for _ in range(b.size)])
    G, R = solve_homological(L, LS, F, k)
    adL = ad_operator_matrix(L, k).matrix
    adS = ad_operator_matrix(LS, k).matrix
    f, g, r = (b.coords(x, ar) for x in (F, G, R))
    assert f == [x + y for x, y in zip(exactlin.matvec(adL, g), r)]
    assert all(x == 0 for x in exactlin.matvec(adS, r))
    # g lies in im ad_S: appending it as a column leaves the rank unchanged
    assert len(exactlin.rref(adS)[1]) == len(exactlin.rref(
        [list(row) + [x] for row, x in zip(adS, g)])[1])


def test_solve_homological_reconstructs_field():
    L = frac_matrix([[1, 0], [0, -1]])
    rng = random.Random(1)
    b = hom_basis(2, 2)
    F = b.from_coords([Fraction(rng.randint(-3, 3)) for _ in range(b.size)])
    G, R = solve_homological(L, L, F, 2)
    Lx = [Poly(2, {(1, 0): 1}), Poly(2, {(0, 1): -1})]
    adG = bracket_polys(Lx, G, 2, 2)
    for f, a, r in zip(F, adG, R):
        assert (f - a - r).terms == {}
    # remainder lies in ker ad_L: bracketing with L x kills it
    adR = bracket_polys(Lx, R, 2, 2)
    assert all(p.terms == {} for p in adR)


def test_solve_homological_float_matches_exact():
    L = frac_matrix([[1, 0], [0, -2]])
    b = hom_basis(2, 1)
    rng = random.Random(2)
    vec = [Fraction(rng.randint(-3, 3)) for _ in range(b.size)]
    F = b.from_coords(vec)
    G_e, R_e = solve_homological(L, L, F, 1)
    Lf = np.array([[1.0, 0.0], [0.0, -2.0]])
    Ff = [p.to_float() for p in F]
    G_f, R_f = solve_homological(Lf, Lf, Ff, 1)
    for pe, pf in zip(G_e, G_f):
        for e, c in pe.terms.items():
            assert float(c) == pytest.approx(pf.terms.get(e, 0.0), abs=1e-9)


def test_lie_transform_of_linear_generator_is_conjugation():
    # G = A x with A nilpotent: exp(ad_G) L x = e^{-A} L e^{A} x ... on the
    # linear grade the series is the matrix commutator series, check degree 1
    A = frac_matrix([[0, 1], [0, 0]])
    L = frac_matrix([[1, 0], [0, 2]])
    n = 2
    Gx = [Poly(2, {(0, 1): 1}), Poly.zero(2)]           # (y, 0) = A x
    Lx = [Poly(2, {(1, 0): 1}), Poly(2, {(0, 1): 2})]   # L x
    out = lie_transform(Lx, Gx, 1, 3)
    # oracle: sum_i ad_A^i(L)/i! where the bracket of the linear fields
    # A x and M x is (A M - M A) x
    M = [row[:] for row in L]
    total = [row[:] for row in L]
    fact = 1
    for i in range(1, 5):
        M = arith.EXACT.sub(exactlin.matmul(A, M), exactlin.matmul(M, A))
        fact *= i
        total = madd(total, [[x / fact for x in row] for row in M])
        if arith.EXACT.max_abs(M) == 0:
            break
    expected = total
    for i in range(n):
        for j in range(n):
            e = [0] * n
            e[j] = 1
            assert out[i].terms.get(tuple(e), Fraction(0)) == expected[i][j]


def test_grade_part_extracts_homogeneous_component():
    p = Poly(2, {(1, 0): 1, (2, 0): 2, (1, 2): 3})
    parts = grade_part([p, Poly.zero(2)], 2)
    assert parts[0].terms == {(1, 2): Fraction(3)}
