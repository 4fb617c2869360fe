"""Endomorphisms, joint spectra, invariant splittings, S-N decomposition."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import NON_SEMISIMPLE, madd, mat_pow
from test_casestudy import CASE1
from test_lsreduction import case_study_tuple
from quiverdyn import arith, exactlin
from quiverdyn.errors import AxisAmbiguous, ClusterSplit, RankAmbiguous
from quiverdyn.quiver import Quiver, QuiverRepresentation, Subrepresentation
from quiverdyn.spectral import (EndomorphismTuple, center_hyperbolic_split,
                                check_endomorphism,
                                generalized_eigenspace_subrep, joint_spectrum,
                                kernel_image_split, sn_decomposition)


def one_vertex_rep(n, mode="exact"):
    q = Quiver(["v"], [("id", "v", "v")])
    if mode == "exact":
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    else:
        eye = np.eye(n)
    return QuiverRepresentation(q, {"v": n}, {"id": eye}, mode=mode)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def mode_matrix(rows, mode):
    """Exact rows as Fractions, or the same entries as a float array."""
    if mode == "exact":
        return frac_matrix(rows)
    return np.array(rows, dtype=float).reshape(len(rows), -1)


def as_array(M):
    return np.array([[float(x) for x in row] for row in M]).reshape(
        len(M), -1) if not isinstance(M, np.ndarray) else M


def block_fixture(mode="exact"):
    """5x5 block diagonal: rotation (eigenvalues +-i), Jordan block at 3,
    and the scalar -2."""
    L5 = mode_matrix([
        [0, -1, 0, 0, 0],
        [1, 0, 0, 0, 0],
        [0, 0, 3, 1, 0],
        [0, 0, 0, 3, 0],
        [0, 0, 0, 0, -2]], mode)
    rep = one_vertex_rep(5, mode)
    return rep, EndomorphismTuple(rep, {"v": L5})


def test_endomorphism_check_accepts_and_rejects(mode="exact"):
    q = Quiver(["big", "small"], [("p", "big", "small")])
    rep = QuiverRepresentation(q, {"big": 2, "small": 1},
                               {"p": mode_matrix([[1, 0]], mode)}, mode=mode)
    good = EndomorphismTuple(rep, {"big": mode_matrix([[2, 0], [1, -1]], mode),
                                   "small": mode_matrix([[2]], mode)})
    bad = EndomorphismTuple(rep, {"big": mode_matrix([[2, 1], [1, -1]], mode),
                                  "small": mode_matrix([[2]], mode)})
    assert check_endomorphism(rep, good).passed
    report = check_endomorphism(rep, bad)
    assert not report.passed
    assert report.mode == mode and report.per_arrow["p"] == 1


def test_endomorphism_check_accepts_and_rejects_float():
    test_endomorphism_check_accepts_and_rejects("float")


def test_joint_spectrum_exact_clusters():
    rep, L = block_fixture()
    clusters = joint_spectrum(L)
    mults = {str(c.value): c.multiplicity["v"] for c in clusters}
    assert len(clusters) == 3
    assert mults[str(Fraction(3))] == 2
    assert mults[str(Fraction(-2))] == 1
    pair = [c for c in clusters if c.is_pair]
    assert len(pair) == 1 and pair[0].multiplicity["v"] == 1


def test_joint_spectrum_shares_factors_across_vertices():
    # the eigenvalue a is proven alone at "small" and inside {a, b} at
    # "big"; the clusters must still be coprime, each counted at both
    # vertices, and their eigenspaces invariant under the arrow
    a, b = Fraction(1, 1234567), Fraction(2, 1234567)
    q = Quiver(["big", "small"], [("p", "big", "small")])
    rep = QuiverRepresentation(q, {"big": 2, "small": 1},
                               {"p": frac_matrix([[1, 0]])})
    L = EndomorphismTuple(rep, {"big": [[a, Fraction(0)], [Fraction(0), b]],
                                "small": [[a]]})
    clusters = joint_spectrum(L)
    assert [(c.value, c.multiplicity) for c in clusters] == [
        (a, {"big": 1, "small": 1}), (b, {"big": 1, "small": 0})]
    for c in clusters:
        sub = generalized_eigenspace_subrep(rep, L, c)
        assert sub.subdim == c.multiplicity
    assert kernel_image_split(rep, L).selected.subdim == {"big": 0,
                                                          "small": 0}


def test_generalized_eigenspace_dimensions(mode="exact"):
    rep, L = block_fixture(mode)
    clusters = joint_spectrum(L)
    assert len(clusters) == 3
    for c in clusters:
        sub = generalized_eigenspace_subrep(rep, L, c)
        expected = c.multiplicity["v"] * (2 if c.is_pair else 1)
        assert sub.subdim["v"] == expected


def test_generalized_eigenspace_dimensions_float():
    test_generalized_eigenspace_dimensions("float")


def test_generalized_kernel_of_nilpotent_block():
    rep = one_vertex_rep(2)
    L = EndomorphismTuple(rep, {"v": frac_matrix([[0, 1], [0, 0]])})
    clusters = joint_spectrum(L)
    assert len(clusters) == 1 and clusters[0].value == 0
    sub = generalized_eigenspace_subrep(rep, L, clusters[0])
    assert sub.subdim["v"] == 2


def split_projectors(split, v):
    """(P_sel, P_rest) = (M[:, :k] M^{-1}[:k], M[:, k:] M^{-1}[k:]) from
    the adapted coordinates M of a split, k the selected dimension, as
    float arrays."""
    k = split.selected.subdim[v]
    M, Minv = as_array(split.basis[v]), as_array(split.basis_inv[v])
    return M[:, :k] @ Minv[:k], M[:, k:] @ Minv[k:]


def test_center_hyperbolic_split(mode="exact"):
    rep, L = block_fixture(mode)
    split = center_hyperbolic_split(rep, L)
    assert split.selected.subdim["v"] == 2          # the +-i pair
    assert split.rest.subdim["v"] == 3
    Pc, Ph = split_projectors(split, "v")
    assert np.allclose(Pc + Ph, np.eye(5))
    assert np.allclose(Pc @ Pc, Pc)
    # the projector does not depend on the bases, so both modes agree
    exact = center_hyperbolic_split(*block_fixture("exact"))
    assert np.allclose(Pc, split_projectors(exact, "v")[0], rtol=0,
                       atol=1e-9)


def test_center_hyperbolic_split_float():
    test_center_hyperbolic_split("float")


def test_center_split_of_irrational_real_pair(mode="exact"):
    # t^2 - 2 (eigenvalues +-sqrt 2) is hyperbolic; t^2 + 2 (+-i sqrt 2)
    # lies on the axis; both modes classify both alike
    rep = one_vertex_rep(2, mode)
    for q, center_dim in ((2, 0), (-2, 2)):
        L = EndomorphismTuple(rep, {"v": mode_matrix([[0, q], [1, 0]], mode)})
        split = center_hyperbolic_split(rep, L)
        assert (split.selected.subdim["v"], split.rest.subdim["v"]) == \
            (center_dim, 2 - center_dim)


def test_center_split_of_irrational_real_pair_float():
    test_center_split_of_irrational_real_pair("float")


def test_kernel_image_split(mode="exact"):
    rep = one_vertex_rep(3, mode)
    L = EndomorphismTuple(rep, {"v": mode_matrix([[0, 0, 0],
                                                  [0, 1, 0],
                                                  [0, 0, -1]], mode)})
    split = kernel_image_split(rep, L)
    assert split.selected.subdim["v"] == 1
    assert split.rest.subdim["v"] == 2
    Pk = split_projectors(split, "v")[0]
    assert np.allclose(Pk, np.diag([1, 0, 0]), rtol=0, atol=1e-9)


def test_kernel_image_split_float():
    test_kernel_image_split("float")


def first_columns(M, k):
    return M[:, :k] if isinstance(M, np.ndarray) else \
        tuple(row[:k] for row in M)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("split_fn, k", [(kernel_image_split, 2),
                                         (center_hyperbolic_split, 4)])
def test_split_keeps_its_adapted_coordinates(mode, split_fn, k):
    def split_in(mode):
        # a nilpotent Jordan block at 0, a rotation (+-i) and the scalar -2
        rep = one_vertex_rep(5, mode)
        return split_fn(rep, EndomorphismTuple(rep, {"v": mode_matrix(
            [[0, 1, 0, 0, 0],
             [0, 0, 0, 0, 0],
             [0, 0, 0, -1, 0],
             [0, 0, 1, 0, 0],
             [0, 0, 0, 0, -2]], mode)}))

    split = split_in(mode)
    sel, rest = split.selected, split.rest
    M, Minv = split.basis["v"], split.basis_inv["v"]
    ar = arith.of(mode)
    assert arith.of_matrix(M) is ar and sel.subdim["v"] == k
    assert ar.max_abs(ar.sub(
        M, ar.hstack([sel.basis["v"], rest.basis["v"]], 5))) == 0
    assert ar.passes(ar.max_abs(ar.sub(ar.matmul(M, Minv, 5),
                                       ar.identity(5))), 1e-12)
    # the projector onto the selected part along the rest does not depend
    # on the bases, so both modes give the exact one
    P = ar.matmul(first_columns(M, k), Minv[:k], 5)
    assert ar.passes(ar.max_abs(ar.sub(ar.matmul(P, sel.basis["v"], k),
                                       sel.basis["v"])), 1e-12)
    assert ar.passes(ar.max_abs(ar.matmul(P, rest.basis["v"], 5 - k)),
                     1e-12)
    exact = split_projectors(split_in("exact"), "v")[0]
    assert np.allclose(as_array(P), exact, rtol=0, atol=1e-9)


def test_kernel_split_builds_each_side_once(monkeypatch):
    F = case_study_tuple(CASE1)
    calls = []
    from_bases = Subrepresentation.from_bases

    def counted(*args):
        calls.append(args)
        return from_bases(*args)

    monkeypatch.setattr(Subrepresentation, "from_bases",
                        staticmethod(counted))
    kernel_image_split(F.representation,
                       EndomorphismTuple.from_linearization(F))
    assert len(calls) == 2


def test_sn_decomposition_exact_axioms():
    rep, L = block_fixture()
    S, N = sn_decomposition(L)
    Ls, Ss, Ns = L.matrices["v"], S.matrices["v"], N.matrices["v"]
    Ls = frac_matrix(Ls)
    Ss = frac_matrix(Ss)
    Ns = frac_matrix(Ns)
    # decomposition and commutation
    assert madd(Ss, Ns) == Ls
    assert exactlin.matmul(Ss, Ns) == exactlin.matmul(Ns, Ss)
    # nilpotency
    assert arith.EXACT.max_abs(mat_pow(Ns, 5)) == 0
    # semisimplicity: squarefree part of the charpoly annihilates S
    sq = exactlin.poly_squarefree_part(exactlin.charpoly(Ls))
    assert arith.EXACT.max_abs(exactlin.eval_matrix_poly(sq, Ss)) == 0
    # both parts are endomorphisms
    assert check_endomorphism(rep, S).passed
    assert check_endomorphism(rep, N).passed


def test_sn_decomposition_float_matches_exact():
    rng = random.Random(0)
    for _ in range(10):
        n = rng.randint(2, 4)
        lam = rng.sample([-3, -2, -1, 1, 2, 3], n)  # distinct, diagonalizable
        A = [[Fraction(lam[i]) if i == j
              else (Fraction(rng.randint(-2, 2)) if i > j else Fraction(0))
              for j in range(n)] for i in range(n)]
        rep_e = one_vertex_rep(n)
        S_e, N_e = sn_decomposition(EndomorphismTuple(rep_e, {"v": A}))
        rep_f = one_vertex_rep(n, mode="float")
        Af = np.array([[float(x) for x in row] for row in A])
        S_f, N_f = sn_decomposition(EndomorphismTuple(rep_f, {"v": Af}))
        Se = np.array([[float(x) for x in row] for row in S_e.matrices["v"]])
        assert np.allclose(Se, np.asarray(S_f.matrices["v"]), atol=1e-7)


def test_axis_ambiguous_near_imaginary_axis():
    rep = one_vertex_rep(1, mode="float")
    L = EndomorphismTuple(rep, {"v": np.array([[3e-8]])})
    with pytest.raises(AxisAmbiguous):
        center_hyperbolic_split(rep, L)


def test_exact_spectrum_repeated_complex_pair():
    # charpoly (t^2 + 2t + 10)^2: the double pair must stay one cluster of
    # multiplicity 2, not split by numeric root perturbation
    rep = one_vertex_rep(4)
    A = frac_matrix([[-1, -3, 1, 0],
                     [3, -1, 0, 1],
                     [0, 0, -1, -3],
                     [0, 0, 3, -1]])
    clusters = joint_spectrum(EndomorphismTuple(rep, {"v": A}))
    assert len(clusters) == 1
    c = clusters[0]
    assert c.is_pair and c.multiplicity["v"] == 2
    assert c.factor == [Fraction(10), Fraction(2), Fraction(1)]
    sub = generalized_eigenspace_subrep(rep, EndomorphismTuple(rep, {"v": A}),
                                        c)
    assert sub.subdim["v"] == 4


def test_float_spectrum_conjugate_pairs():
    rep = one_vertex_rep(2, mode="float")
    L = EndomorphismTuple(rep, {"v": np.array([[1.0, -2.0], [2.0, 1.0]])})
    clusters = joint_spectrum(L)
    assert len(clusters) == 1 and clusters[0].is_pair
    assert complex(clusters[0].value).real == pytest.approx(1.0)
    assert abs(complex(clusters[0].value).imag) == pytest.approx(2.0)


@st.composite
def diagonalizable(draw):
    """Exact U D U^-1 of dimension 2 to 5: D holds one block per real part,
    a scalar block (once or twice) or a rotation block a +- b i, and U is
    a product of unit lower and upper triangular integer matrices."""
    blocks = []
    for a in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3,
                           unique=True)):
        b = draw(st.integers(0, 2))
        blocks += [[[a, -b], [b, a]]] if b else [[[a]]] * draw(
            st.integers(1, 2))
    n = sum(len(B) for B in blocks)
    assume(2 <= n <= 5)
    D = exactlin.zeros(n, n)
    k = 0
    for B in blocks:
        for i, row in enumerate(B):
            D[k + i][k:k + len(B)] = map(Fraction, row)
        k += len(B)
    entries = st.integers(-2, 2)
    lo = [[Fraction(1 if i == j else draw(entries) if i > j else 0)
           for j in range(n)] for i in range(n)]
    up = [[Fraction(1 if i == j else draw(entries) if i < j else 0)
           for j in range(n)] for i in range(n)]
    U = exactlin.matmul(lo, up)
    return exactlin.matmul(exactlin.matmul(U, D), exactlin.inverse(U))


@settings(max_examples=60, deadline=None)
@given(diagonalizable())
# the float centre of 2 +- i is off by 1e-11, so the kernel rows that are
# exactly 0 carry noise of 1e-11: they are judged at the kernel's accuracy
@example(frac_matrix([[194, -95, 90, -20, -40], [497, -244, 234, -52, -104],
                      [171, -85, 85, -18, -38], [20, -10, 10, -2, -5],
                      [116, -58, 58, -11, -26]]))
# the float centre of 1 +- i is off by 2.5e-12, which moves an entry of
# -22 by 1.2e-9: within 1e-9 relative to max(1, |x|), not absolute
@example(frac_matrix([[4, 34, 14, 4, -4], [-10, -81, -35, -10, 10],
                      [18, 179, 77, 22, -20], [19, 100, 43, 13, -16],
                      [3, 88, 36, 11, -7]]))
# U D U^-1 with eigenvalues 1 and 1 +- 2i, U = [[1,1,0],[0,1,1],[1,0,1]]:
# the float pair's real part is 0.9999999999999991, so only the tie band
# keeps the real cluster first in float mode, as it is in exact mode
@example(frac_matrix([[2, -1, -1], [2, 1, -2], [1, 1, 0]]))
# a Jordan block at -2: float eigvals gives -2 +- 1.4e-8, within the band
# of one eigenvalue, so float mode finds the one cluster exact mode proves
@example(frac_matrix(NON_SEMISIMPLE["jordan-pair"]))
def test_float_split_basis_is_the_exact_basis(A):
    # both arithmetics take the kernel of f(L)^m in one normal form and
    # order the clusters alike, so the bases agree, not only the
    # projectors, at the float rule of the goldens
    for split_fn in (kernel_image_split, center_hyperbolic_split):
        bases = []
        for mode in ("exact", "float"):
            rep = one_vertex_rep(len(A), mode)
            L = EndomorphismTuple(rep, {"v": mode_matrix(A, mode)})
            bases.append(as_array(split_fn(rep, L).basis["v"]))
        assert np.all(np.abs(bases[1] - bases[0])
                      <= 1e-9 * np.maximum(1.0, np.abs(bases[0])))


@pytest.mark.parametrize("split_fn", [kernel_image_split,
                                      center_hyperbolic_split])
def test_float_split_of_jordan_pair_raises_cluster_split(split_fn):
    # a Jordan block at -2 with off-diagonal 1000, conjugated by
    # [[1, 1], [1, 2]]: eigvals gives -2 +- 6.7e-7 i, a conjugate pair too
    # close to be two roots and too far apart to be one real root
    rep = one_vertex_rep(2, "float")
    A = np.array([[-1002.0, 1000.0], [-1000.0, 998.0]])
    with pytest.raises(ClusterSplit):
        split_fn(rep, EndomorphismTuple(rep, {"v": A}))


@pytest.mark.parametrize("split_fn", [kernel_image_split,
                                      center_hyperbolic_split])
def test_float_split_with_ambiguous_free_columns_raises_rank_ambiguous(
        split_fn):
    # L^2 = L with eigenvalues 0, 0, 1: the kernel of L^2 has free columns
    # the rank rule cannot decide, so the split names that, not a LinAlgError
    a = -8.5e-11
    rep = one_vertex_rep(3, "float")
    L = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [a, a, 1.0]])
    with pytest.raises(RankAmbiguous):
        split_fn(rep, EndomorphismTuple(rep, {"v": L}))


def test_float_sn_groups_eigenvalues_in_the_split_band():
    # 1e-5 apart: two clusters, so the float S is L and N is 0, as exactly;
    # 5e-7 apart: inside (10, 100] EPS_EIG, too close to tell
    rep = one_vertex_rep(2, "float")
    L = EndomorphismTuple(rep, {"v": np.diag([1.0, 1.0 + 1e-5])})
    assert len(joint_spectrum(L)) == 2
    assert not np.any(sn_decomposition(L)[1].matrices["v"])
    with pytest.raises(ClusterSplit):
        sn_decomposition(EndomorphismTuple(
            rep, {"v": np.diag([1.0, 1.0 + 5e-7])}))


@pytest.mark.parametrize("run", [
    lambda rep, L: joint_spectrum(L), kernel_image_split,
    center_hyperbolic_split], ids=["spectrum", "kernel", "center"])
def test_float_roots_in_the_band_raise_cluster_split(run):
    # 5e-7 apart is 50 EPS_EIG: neither one eigenvalue nor two
    rep = one_vertex_rep(2, "float")
    with pytest.raises(ClusterSplit):
        run(rep, EndomorphismTuple(rep, {"v": np.diag([1.0, 1.0 + 5e-7])}))


def test_float_root_in_the_band_of_its_conjugate_raises_cluster_split():
    # 1 +- 1e-7 i: 2 |Im w| is 20 EPS_EIG, so the root is neither real nor
    # one of a conjugate pair
    rep = one_vertex_rep(2, "float")
    L = EndomorphismTuple(rep, {"v": np.array([[1.0, -1e-7], [1e-7, 1.0]])})
    with pytest.raises(ClusterSplit):
        joint_spectrum(L)


@pytest.mark.parametrize("name", NON_SEMISIMPLE)
def test_float_sn_of_non_semisimple_matrix_matches_exact(name):
    # one Newton iteration in both arithmetics, so a Jordan block needs no
    # eigenbasis: float S and N are the exact ones at the goldens' rule
    A = NON_SEMISIMPLE[name]
    parts = []
    for mode in ("exact", "float"):
        rep = one_vertex_rep(len(A), mode)
        L = EndomorphismTuple(rep, {"v": mode_matrix(A, mode)})
        parts.append([as_array(T.matrices["v"]) for T in sn_decomposition(L)])
    for exact, flt in zip(*parts):
        assert np.all(np.abs(flt - exact)
                      <= 1e-9 * np.maximum(1.0, np.abs(exact)))
