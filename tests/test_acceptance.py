"""Acceptance suite: nine end-to-end criteria with stated tolerances.

Each passing criterion contributes one ``ACCEPTANCE n: PASS`` line to the
terminal summary; a failing criterion shows up as a failed test.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import conftest
from helpers import (cm_feedforward_tuple, feedforward_chain_network,
                     feedforward_pair_network, hopf_tuple, madd, mat_pow,
                     monoid_maps,
                     random_poly, random_response_family,
                     single_vertex_tuple, two_type_network)
from quiverdyn import arith, exactlin
from quiverdyn.builders import (build_quoq, build_subq, induce_on_quotients,
                                induce_on_subnetworks)
from quiverdyn.casestudy import casestudy_s10
from quiverdyn.centermanifold import (check_cm_equivariance, cm_taylor,
                                      flow_consistency)
from quiverdyn.normalform import normal_form, verify_normal_form
from quiverdyn.polyfield import ad_operator_matrix
from quiverdyn.polynomial import Poly
from quiverdyn.quiver import Quiver, QuiverRepresentation
from quiverdyn.spectral import (EndomorphismTuple, check_endomorphism,
                                generalized_eigenspace_subrep, joint_spectrum,
                                sn_decomposition)
from quiverdyn.tuples import (PolyMap, PolyMapTuple, bracket_tuple,
                              check_equivariance, compose_tuple)

CASE1 = ("f(x,y) = lambda*x - x^2 + y", "g(y,x) = -y + x", "a=0")
CASE2 = ("f(x,y) = -x + y", "g(y,x) = x + lambda*y - y^2", "b=0")
CASE3 = ("f(x,y) = -x + y + lambda - x^2", "g(y,x) = -y + x", "ab-cd=0")


def announce(n, t0):
    line = f"ACCEPTANCE {n}: PASS ({time.perf_counter() - t0:.2f}s)"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


def selection(rows, ncols):
    return tuple(tuple(Fraction(int(j == r)) for j in range(ncols))
                 for r in rows)


# --- criterion 1: quiver of subnetworks of the five-cell chain network ------

def test_criterion_1_subnetwork_quiver():
    t0 = time.perf_counter()
    quiver, rep, subsets = build_subq(feedforward_chain_network())
    assert len(quiver.vertices) == 5
    assert len(quiver.arrows) == 15
    assert set(subsets.values()) == {
        ("1",), ("1", "2"), ("1", "2", "3"), ("1", "2", "3", "4"),
        ("1", "2", "3", "4", "5")}
    # the eight displayed generator maps, as exact 0/1 row selections
    expected = {
        "1+2+3+4+5>1+2+3+4": selection([0, 1, 2, 3], 5),
        "1+2+3+4+5>1+2+3": selection([0, 1, 2], 5),
        "1+2+3+4+5>1+2": selection([0, 1], 5),
        "1+2+3+4>1+2+3": selection([0, 1, 2], 4),
        "1+2+3>1+2": selection([0, 1], 3),
        "1+2+3+4>1": selection([0], 4),
        "1+2+3>1": selection([0], 3),
        "1+2>1": selection([0], 2),
    }
    for arrow, want in expected.items():
        got = tuple(tuple(row) for row in rep.arrow_matrix[arrow])
        assert got == want, f"arrow {arrow}: {got} != {want}"
        assert all(x in (0, 1) for row in got for x in row)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s >= 1s"
    announce(1, t0)


# --- criterion 2: quiver of quotients of the two-type network ---------------

def test_criterion_2_quotient_quiver():
    t0 = time.perf_counter()
    quiver, rep, catalog, _ = build_quoq(two_type_network())
    assert len(quiver.vertices) == 6
    partitions = {}
    for i, witness in enumerate(catalog.witnesses):
        classes = {}
        for node, cls in witness.items():
            classes.setdefault(cls, []).append(node)
        partitions[f"q{i + 1:02d}"] = frozenset(
            frozenset(v) for v in classes.values())

    def P(*groups):
        return frozenset(frozenset(g) for g in groups)

    # identify the six quotients by their partitions
    label = {partitions[q]: q for q in partitions}
    N1 = label[P({"1"}, {"2"}, {"3"}, {"4"}, {"5"})]
    N2 = label[P({"1", "2"}, {"3"}, {"4"}, {"5"})]
    N3 = label[P({"1", "3"}, {"2"}, {"4"}, {"5"})]
    N4 = label[P({"1", "2", "3"}, {"4"}, {"5"})]
    N5 = label[P({"1", "3"}, {"2"}, {"4", "5"})]
    N6 = label[P({"1", "2", "3"}, {"4", "5"})]

    # the twelve displayed lifting maps: (source, target, row pattern) where
    # row i selects which source-class coordinate feeds original node i+1
    listed = [
        (N6, N1, [0, 0, 0, 1, 1]),
        (N2, N1, [0, 0, 1, 2, 3]),
        (N6, N2, [0, 0, 1, 1]),
        (N4, N2, [0, 0, 1, 2]),
        (N4, N1, [0, 0, 0, 1, 2]),
        (N6, N4, [0, 1, 1]),
        (N3, N1, [0, 1, 0, 2, 3]),
        (N4, N3, [0, 0, 1, 2]),
        (N6, N3, [0, 0, 1, 1]),
        (N5, N3, [0, 1, 2, 2]),
        (N5, N1, [0, 1, 0, 2, 2]),
        (N6, N5, [0, 0, 1]),
    ]
    for src, dst, rows in listed:
        want = selection(rows, rep.dim[src])
        candidates = [
            tuple(tuple(r) for r in rep.arrow_matrix[a])
            for a, s, t in quiver.arrows if s == src and t == dst]
        assert want in candidates, \
            f"lifting map {src}->{dst} pattern {rows} not found"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.2f}s >= 5s"
    announce(2, t0)


# --- criterion 3: equivariance closed under composition and bracket ---------

def test_criterion_3_composition_and_bracket_equivariance():
    t0 = time.perf_counter()
    networks = [(feedforward_pair_network(), induce_on_subnetworks),
                (feedforward_chain_network(), induce_on_subnetworks),
                (two_type_network(), induce_on_quotients)]
    for seed in range(50):
        N, induce = networks[seed % 3]
        F = induce(N, random_response_family(N, seed=seed, max_degree=3))
        G = induce(N, random_response_family(N, seed=seed + 1000,
                                             max_degree=3))
        for T in (F, G):
            rep = check_equivariance(T, mode="exact")
            assert rep.passed and rep.max_residual() == 0, f"seed {seed}"
        # degree-3 compositions reach degree 9: rebuild with a larger cap
        F9 = PolyMapTuple(F.representation, F.components, F.param_dim, 9)
        G9 = PolyMapTuple(G.representation, G.components, G.param_dim, 9)
        comp = check_equivariance(compose_tuple(F9, G9), mode="exact")
        assert comp.passed and comp.max_residual() == 0, f"seed {seed}"
        br = check_equivariance(bracket_tuple(F, G), mode="exact")
        assert br.passed and br.max_residual() == 0, f"seed {seed}"
    announce(3, t0)


# --- criterion 4: spectral subrepresentations and S-N decomposition ---------

def planted_triangular_endo(seed):
    """Lower-triangular matrices on the subnetwork-quiver representation:
    leading principal blocks automatically intertwine the selections."""
    _, rep, _ = build_subq(feedforward_chain_network())
    rng = random.Random(seed)
    eigs = [Fraction(rng.choice([-2, -1, 1, 3])) for _ in range(5)]
    if rng.random() < 0.8:          # plant a repeated eigenvalue
        eigs[rng.randrange(4) + 1] = eigs[0]
    L5 = [[eigs[i] if i == j
           else (Fraction(rng.randint(-2, 2)) if i > j else Fraction(0))
           for j in range(5)] for i in range(5)]
    mats = {}
    for v in rep.quiver.vertices:
        d = rep.dim[v]
        mats[v] = [row[:d] for row in L5[:d]]
    return rep, EndomorphismTuple(rep, mats)


def planted_rotation_endo(seed):
    """Two-vertex quiver, dims (4, 2), arrow selecting the last two
    coordinates; the big matrix stacks two equal rotation blocks with a
    coupling block, planting a complex Jordan structure."""
    rng = random.Random(seed)
    q = Quiver(["big", "small"], [("p", "big", "small")])
    R = [[Fraction(int(j == i + 2)) for j in range(4)] for i in range(2)]
    a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(1, 3))
    rot = [[a, -b], [b, a]]
    C = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
    big = [[rot[0][0], rot[0][1], C[0][0], C[0][1]],
           [rot[1][0], rot[1][1], C[1][0], C[1][1]],
           [0, 0, rot[0][0], rot[0][1]],
           [0, 0, rot[1][0], rot[1][1]]]
    big = [[Fraction(x) for x in row] for row in big]
    rep = QuiverRepresentation(q, {"big": 4, "small": 2}, {"p": R},
                               mode="exact")
    return rep, EndomorphismTuple(
        rep, {"big": big, "small": [[Fraction(x) for x in r] for r in rot]})


def test_criterion_4_spectral_subreps_and_sn():
    t0 = time.perf_counter()
    for seed in range(50):
        rep, L = planted_triangular_endo(seed) if seed % 2 == 0 \
            else planted_rotation_endo(seed)
        # every generalized eigenspace basis is carried into the target
        # column space by every arrow
        for cluster in joint_spectrum(L):
            sub = generalized_eigenspace_subrep(rep, L, cluster)
            for arrow, s, t in rep.quiver.arrows:
                Bs = np.array([[float(x) for x in row]
                               for row in sub.basis[s]])
                Bt = np.array([[float(x) for x in row]
                               for row in sub.basis[t]])
                Ra = np.array([[float(x) for x in row]
                               for row in rep.arrow_matrix[arrow]])
                if Bs.size == 0:
                    continue
                img = Ra @ Bs
                if Bt.size == 0:
                    resid = float(np.max(np.abs(img), initial=0.0))
                else:
                    sol, *_ = np.linalg.lstsq(Bt, img, rcond=None)
                    resid = float(np.max(np.abs(Bt @ sol - img),
                                         initial=0.0))
                assert resid <= 1e-8, f"seed {seed} arrow {arrow}"
        # the four defining axioms of the semisimple-nilpotent split
        S, N = sn_decomposition(L)
        for v in rep.quiver.vertices:
            Lv = [[Fraction(x) for x in row] for row in L.matrices[v]]
            Sv = [[Fraction(x) for x in row] for row in S.matrices[v]]
            Nv = [[Fraction(x) for x in row] for row in N.matrices[v]]
            assert madd(Sv, Nv) == Lv
            assert exactlin.matmul(Sv, Nv) == exactlin.matmul(Nv, Sv)
            assert arith.EXACT.max_abs(mat_pow(Nv, len(Nv))) == 0
            sq = exactlin.poly_squarefree_part(exactlin.charpoly(Lv))
            assert arith.EXACT.max_abs(
                exactlin.eval_matrix_poly(sq, Sv)) == 0
        assert check_endomorphism(rep, S).passed
        assert check_endomorphism(rep, N).passed
    announce(4, t0)


# --- criterion 5: reduction of the two-parameter-free Case 1 fixture --------

def test_criterion_5_case1_reduction_and_branches():
    t0 = time.perf_counter()
    rpt = casestudy_s10(*CASE1)
    assert rpt.reduced_equivariance_residual <= 1e-8
    assert rpt.decoupled is True          # cross-derivatives <= 1e-8
    assert len(rpt.branches) == 4
    exps = sorted(tuple(b.exponents) for b in rpt.branches)
    assert exps == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for b in rpt.branches:
        assert b.r_squared >= 0.999
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 5 took {elapsed:.2f}s >= 30s"
    announce(5, t0)


# --- criterion 6: three-case classification --------------------------------

def same_value(sync, a, b):
    if a in sync["zero_coordinates"] and b in sync["zero_coordinates"]:
        return True
    return any(a in g and b in g for g in sync["equal_groups"])


def test_criterion_6_three_case_classification():
    t0 = time.perf_counter()
    one, zero = ((Fraction(1),),), ((Fraction(0),),)

    r1 = casestudy_s10(*CASE1)
    assert r1.kernel_dims == {"N1": 2, "N2": 1, "N3": 0}
    assert len(r1.branches) == 4

    r2 = casestudy_s10(*CASE2)
    assert r2.kernel_dims == {"N1": 1, "N2": 1, "N3": 1}
    assert r2.restricted_maps == {"a1": one, "a2": zero,
                                  "a3": zero, "a4": one}
    assert len(r2.branches) == 2
    # trivial branch is fully synchronous; the bifurcating branch lies in
    # the synchrony space x3 = x5 (checked from lifted points to 1e-6)
    for sync in r2.synchrony:
        assert same_value(sync, "x3", "x5")
    full = [s for s in r2.synchrony
            if same_value(s, "x1", "x3") and same_value(s, "x1", "x5")
            and same_value(s, "y2", "y4")]
    assert len(full) >= 1

    r3 = casestudy_s10(*CASE3)
    assert r3.kernel_dims == {"N1": 1, "N2": 1, "N3": 1}
    assert all(m == one for m in r3.restricted_maps.values())
    assert r3.identity_restriction
    assert len(r3.branches) == 2
    # both saddle-node branches live in the maximal synchrony space
    for sync in r3.synchrony:
        for u, w in itertools.combinations(
                ("x1", "y2", "x3", "y4", "x5"), 2):
            assert same_value(sync, u, w)
    announce(6, t0)


# --- criterion 7: center-manifold jets --------------------------------------

def test_criterion_7_center_manifold_jets():
    t0 = time.perf_counter()
    F = cm_feedforward_tuple()
    exp = cm_taylor(F, 4)
    phi = exp.vertices["big"].phi[0]
    assert phi.terms == {(2,): Fraction(1), (3,): Fraction(-2),
                         (4,): Fraction(6)}
    # coefficient-level intertwining of both the graph maps and the reduced
    # fields, exact in rational arithmetic
    report = check_cm_equivariance(exp)
    assert report.passed and report.max_residual() == 0
    # flow-consistency error drops by 2^{k+1} +- 25% when the radius halves
    p1 = Poly(2, {(2, 0): 1, (1, 1): 1})
    p2 = Poly(2, {(0, 1): -1, (2, 0): 1})
    mixed = single_vertex_tuple([p1, p2])
    for degree in (2, 3, 4):
        jet = cm_taylor(mixed, degree)
        err1, err2, ratio = flow_consistency(mixed, jet, "v", radius=5e-2)
        assert err2 < err1
        assert ratio == pytest.approx(2.0 ** (degree + 1), rel=0.25)
    announce(7, t0)


# --- criterion 8: normal form of the rotational fixture ---------------------

def test_criterion_8_normal_form():
    t0 = time.perf_counter()
    F = hopf_tuple()
    res = normal_form(F, 3)
    # quadratic grade vanishes entirely
    g1 = res.transformed_grade(1)
    assert all(p.terms == {} for p in g1.components["v"].outputs)
    # cubic grade lies in the 2-D resonant span found by the brute-force
    # null-space oracle on the ad matrix
    LS = [list(row) for row in res.LS.matrices["v"]]
    ad = ad_operator_matrix(LS, 2)
    A = np.array([[float(x) for x in row] for row in ad.matrix])
    _, s, vh = np.linalg.svd(A)
    tol = max(A.shape) * np.finfo(float).eps * s[0]
    null = vh[sum(sv > tol for sv in s):].T
    assert null.shape[1] == 2
    g2 = [p.homogeneous_part(3)
          for p in res.transformed.components["v"].outputs]
    coords = np.array([float(c) for c in
                       ad.basis.coords(g2, arith.of_matrix(ad.matrix))])
    proj = null @ (null.T @ coords)
    assert float(np.max(np.abs(coords - proj), initial=0.0)) <= 1e-10
    # generators and surviving grades equivariant; commutators <= 1e-10
    report = verify_normal_form(res)
    for k in range(1, 4):
        assert report["equivariance"][k]["generator"].passed
        assert report["equivariance"][k]["transformed_grade"].passed
        assert report["commutator"][k] <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 8 took {elapsed:.2f}s >= 10s"
    announce(8, t0)


# --- criterion 9: five-map monoid closure and admissible commutation --------

def test_criterion_9_monoid_closure_and_commutation():
    t0 = time.perf_counter()
    maps = monoid_maps()
    eye = tuple(tuple(Fraction(int(i == j)) for j in range(5))
                for i in range(5))
    assert tuple(tuple(r) for r in maps[0]) == eye
    index = {tuple(tuple(r) for r in m): i for i, m in enumerate(maps)}
    table = {}
    for i, j in itertools.product(range(5), repeat=2):
        prod = tuple(tuple(r) for r in exactlin.matmul(
            [list(r) for r in maps[i]], [list(r) for r in maps[j]]))
        assert prod in index, f"product {i} o {j} leaves the set"
        table[(i, j)] = index[prod]
    # the identity map is a two-sided unit
    assert all(table[(0, j)] == j and table[(j, 0)] == j for j in range(5))

    # a sampled admissible map of the displayed one-response shape commutes
    # exactly with all five maps
    rng = random.Random(0)
    f = random_poly(rng, 3, max_degree=3, n_terms=5)
    wiring = {0: (0, 1, 2), 1: (1, 3, 2), 2: (2, 4, 2),
              3: (3, 3, 2), 4: (4, 3, 2)}
    F = [f.embed(5, list(wiring[i])) for i in range(5)]
    patterns = [(0, 1, 2, 3, 4), (1, 3, 2, 3, 4), (2, 4, 2, 3, 4),
                (3, 3, 2, 3, 4), (4, 3, 2, 3, 4)]
    for sigma in patterns:
        lhs = [F[sigma[i]] for i in range(5)]               # R o F
        rhs = [F[i].embed(5, list(sigma)) for i in range(5)]  # F o R
        for a, b in zip(lhs, rhs):
            assert (a - b).terms == {}
    announce(9, t0)
