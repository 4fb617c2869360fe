"""Lie-transform normal forms: resonant survivors and verification report."""

import random
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest

from helpers import (NON_SEMISIMPLE, feedforward_chain_network, float_copy,
                     hopf_tuple, in_exact_domain, single_vertex_tuple,
                     time_limit)
from quiverdyn import arith, polyfield
from quiverdyn.builders import build_subq
from quiverdyn.errors import DegreeOverflow, NotEquilibrium
from quiverdyn.normalform import normal_form, verify_normal_form
from quiverdyn.polyfield import ad_operator_matrix
from quiverdyn.polynomial import Poly, linear_forms
from quiverdyn.tuples import PolyMap, PolyMapTuple, bracket_polys, linear_part


def resonant_span_residual(LS, polys, k):
    """Distance of a grade-k field to the nullspace of ad_{L^S}.

    Oracle: project the coordinate vector onto the numeric nullspace of the
    ad matrix and measure what is left over.
    """
    ad = ad_operator_matrix(LS, k)
    coords = np.array([float(c) for c in
                       ad.basis.coords(polys, arith.of_matrix(ad.matrix))])
    A = np.array([[float(x) for x in row] for row in ad.matrix])
    _, s, vh = np.linalg.svd(A)
    tol = max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    null = vh[sum(sv > tol for sv in s):].T  # columns span ker A
    if null.size == 0:
        return float(np.linalg.norm(coords))
    proj = null @ (null.T @ coords)
    return float(np.max(np.abs(coords - proj), initial=0.0))


def test_rotational_fixture_kills_quadratic_grade():
    res = normal_form(hopf_tuple(), 3)
    g1 = res.transformed_grade(1)
    assert all(p.terms == {} for p in g1.components["v"].outputs)


def test_rotational_fixture_cubic_grade_is_resonant():
    res = normal_form(hopf_tuple(), 3)
    LS = [list(row) for row in res.LS.matrices["v"]]
    g2 = [p.homogeneous_part(3)
          for p in res.transformed.components["v"].outputs]
    assert resonant_span_residual(LS, g2, 2) <= 1e-10
    # the rotation's cubic resonant space is two-dimensional
    ad = ad_operator_matrix(LS, 2)
    A = np.array([[float(x) for x in row] for row in ad.matrix])
    rank = np.linalg.matrix_rank(A)
    assert ad.basis.size - rank == 2


def test_kernel_residuals_and_commutators_small():
    res = normal_form(hopf_tuple(), 3)
    assert all(r <= 1e-10 for r in res.kernel_residuals.values())
    report = verify_normal_form(res)
    assert all(r <= 1e-10 for r in report["commutator"].values())


def test_kernel_residual_measures_what_the_remainder_replaces(monkeypatch):
    # exactly, the transform's own grade k equals R, so the residual is 0
    assert normal_form(hopf_tuple(), 2).kernel_residuals == {1: 0, 2: 0}
    # a transform that leaves F as it is keeps the nonresonant quadratic
    # terms where R goes, and the residual shows them
    with monkeypatch.context() as m:
        m.setattr(polyfield, "lie_transform",
                  lambda F, G, k, r: [p.truncate(r + 1) for p in F])
        assert normal_form(hopf_tuple(), 2).kernel_residuals[1] > 0
    # so does a generator that is not the solve's G
    solve = polyfield.solve_homological

    def doubled(L, LS, Fk, k):
        G, R = solve(L, LS, Fk, k)
        return [p.scale(2) for p in G], R

    monkeypatch.setattr(polyfield, "solve_homological", doubled)
    assert normal_form(hopf_tuple(), 2).kernel_residuals[1] > 0


def test_verification_report_equivariance_and_conjugacy():
    F = hopf_tuple()
    res = normal_form(F, 3)
    report = verify_normal_form(res, F_original=F)
    for k in range(1, 4):
        assert report["equivariance"][k]["generator"].passed
        assert report["equivariance"][k]["transformed_grade"].passed
    assert report["equivariance"]["full"].passed
    assert report["conjugacy"]["v"] <= 1e-6


def test_exact_hyperbolic_normal_form_keeps_only_resonant_terms():
    # L = diag(1, -1): no quadratic resonances, cubic resonances are exactly
    # x^2 y d/dx and x y^2 d/dy
    p1 = Poly(2, {(1, 0): 1, (2, 0): 1, (0, 2): 1, (2, 1): 3})
    p2 = Poly(2, {(0, 1): -1, (1, 1): 1, (1, 2): 5})
    res = normal_form(single_vertex_tuple([p1, p2]), 2)
    out = res.transformed.components["v"].outputs
    assert out[0].homogeneous_part(2).terms == {}
    assert out[1].homogeneous_part(2).terms == {}
    for j, p in enumerate(out):
        for e in p.homogeneous_part(3).terms:
            assert (j, e) in {(0, (2, 1)), (1, (1, 2))}
    # the planted resonant coefficients survive untouched at grade 2 modulo
    # contributions generated by the quadratic transform; both stay exact:
    # no coefficient is a float
    assert all(in_exact_domain(c) for p in out for c in p.terms.values())
    assert res.kernel_residuals[2] == 0


def resonant_diagonal_tuple():
    """L = diag(0, -1): x' = x^2 + x^3, y' = -y + x^2 + x*y. The brackets
    [Lx, x^k d/dx] vanish, so those ad-matrix columns are exactly zero."""
    p1 = Poly(2, {(2, 0): 1, (3, 0): 1})
    p2 = Poly(2, {(0, 1): -1, (2, 0): 1, (1, 1): 1})
    return single_vertex_tuple([p1, p2])


def test_float_resonant_diagonal_matches_exact():
    F = resonant_diagonal_tuple()
    G = float_copy(F)
    L = linear_part(G)["v"]
    for k in (1, 2):
        assert ad_operator_matrix(L, k).matrix.dtype == np.float64
    exact, flt = normal_form(F, 2), normal_form(G, 2)
    for p, q in zip(exact.transformed.components["v"].outputs,
                    flt.transformed.components["v"].outputs):
        for e in set(p.terms) | set(q.terms):
            assert abs(float(p.terms.get(e, 0)) - q.terms.get(e, 0.0)) <= 1e-9
    assert max(flt.kernel_residuals.values()) <= 1e-9


@pytest.mark.parametrize("name", NON_SEMISIMPLE)
def test_float_normal_form_of_non_semisimple_linearization_matches_exact(
        name):
    # x' = A x + x_i x_{i+1}: the float L^S of a Jordan block is the exact
    # one, so the normal forms agree at the goldens' rule
    A = NON_SEMISIMPLE[name]
    n = len(A)
    polys = []
    for i, row in enumerate(A):
        terms = {tuple(int(k == j) for k in range(n)): c
                 for j, c in enumerate(row) if c}
        terms[tuple(int(k in (i, (i + 1) % n)) for k in range(n))] = 1
        polys.append(Poly(n, terms))
    F = single_vertex_tuple(polys)
    exact, flt = normal_form(F, 2), normal_form(float_copy(F), 2)
    pairs = [(exact.transformed, flt.transformed)] + [
        (exact.generators[k], flt.generators[k]) for k in (1, 2)]
    for e_tuple, f_tuple in pairs:
        for p, q in zip(e_tuple.components["v"].outputs,
                        f_tuple.components["v"].outputs):
            for e in set(p.terms) | set(q.terms):
                want = float(p.terms.get(e, 0))
                assert abs(q.terms.get(e, 0.0) - want) \
                    <= 1e-9 * max(1.0, abs(want))


def test_generators_live_in_image_of_ad():
    # the canonical generator lies in im ad_{L^S}: its coordinate vector is
    # solvable as A z = g, i.e. the least-squares residual vanishes
    res = normal_form(hopf_tuple(), 2)
    LS = [list(row) for row in res.LS.matrices["v"]]
    for k in (1, 2):
        G = res.generators[k].components["v"].outputs
        ad = ad_operator_matrix(LS, k)
        coords = np.array([float(c) for c in
                           ad.basis.coords(G, arith.of_matrix(ad.matrix))])
        A = np.array([[float(x) for x in row] for row in ad.matrix])
        z, *_ = np.linalg.lstsq(A, coords, rcond=None)
        assert float(np.max(np.abs(A @ z - coords), initial=0.0)) <= 1e-9


def test_requires_equilibrium():
    p = Poly(2, {(0, 0): 1, (1, 0): 1})
    q = Poly(2, {(0, 1): -1})
    with pytest.raises(NotEquilibrium):
        normal_form(single_vertex_tuple([p, q]), 2)


def test_grade_above_degree_cap_rejected():
    with pytest.raises(DegreeOverflow):
        normal_form(hopf_tuple(), 8)


def test_parameters_rejected():
    rep = hopf_tuple().representation
    p1 = Poly(3, {(0, 1, 0): -1, (2, 0, 1): 1})
    p2 = Poly(3, {(1, 0, 0): 1})
    G = PolyMapTuple(rep, {"v": PolyMap([p1, p2])}, param_dim=1)
    with pytest.raises(ValueError):
        normal_form(G, 2)


def chain_tuple(seed=0):
    """A tuple on the subnetwork quiver of the five-node feedforward chain.

    Component i depends only on the nodes feeding node i, so the tuple is
    exactly equivariant. The linear part is lower triangular with
    eigenvalues 0, -1, 2, -3, 1 and small off-diagonal couplings; each
    component adds three quadratic or cubic terms. Every vertex is a prefix
    of the nodes, so a vertex of dimension d keeps the first d components.
    """
    deps = {0: (0,), 1: (0, 1), 2: (0, 1, 2), 3: (0, 2, 3), 4: (2, 3, 4)}
    eigs = (0, -1, 2, -3, 1)
    rng = random.Random(seed)
    polys = []
    for i, dep in deps.items():
        terms = {}
        for j in dep:
            e = [0] * 5
            e[j] = 1
            terms[tuple(e)] = eigs[i] if i == j else rng.randint(-2, 2)
        for _ in range(3):
            e = [0] * 5
            for _ in range(rng.randint(2, 3)):
                e[rng.choice(dep)] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.choice((-2, -1, 1, 3))
        polys.append(Poly(5, terms))
    _, rep, subsets = build_subq(feedforward_chain_network())
    assert all(nodes == tuple("12345"[:len(nodes)])
               for nodes in subsets.values())
    comps = {v: PolyMap([Poly(d, {e[:d]: c for e, c in p.terms.items()})
                         for p in polys[:d]], nvars=d)
             for v, d in rep.dim.items()}
    return PolyMapTuple(rep, comps)


def test_five_node_chain_grade_one_in_bounded_time(monkeypatch):
    F = chain_tuple()
    monkeypatch.setattr(polyfield, "_AD_CACHE", OrderedDict())
    with time_limit(3):
        res = normal_form(F, 1)
    assert res.kernel_residuals == {1: 0}
    # the surviving quadratic terms commute with L^S at every vertex
    for v, pm in res.transformed_grade(1).components.items():
        LS = linear_forms(res.LS.matrices[v], pm.nvars)
        br = bracket_polys(LS, pm.outputs, pm.nvars, pm.nvars)
        assert all(p.terms == {} for p in br)
    # a run that finds every ad matrix in the cache gives the same result
    again = normal_form(F, 1)
    for got, want in ((again.transformed, res.transformed),
                      (again.generators[1], res.generators[1])):
        assert {v: [p.terms for p in pm.outputs]
                for v, pm in got.components.items()} == \
               {v: [p.terms for p in pm.outputs]
                for v, pm in want.components.items()}
