"""Lyapunov-Schmidt reduction on hand-solvable bifurcation problems."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import single_vertex_tuple
from test_casestudy import CASE1, CASE2, CASE3
from quiverdyn.casestudy import assemble_case_tuple
from quiverdyn.errors import NewtonDiverged, NotEquilibrium
from quiverdyn.fileio import parse_poly_dsl
from quiverdyn.lsreduction import (FD_STEP, LSReduction, _roots_at, _solve,
                                   check_reduced_equivariance,
                                   find_branches_1param, ls_reduce,
                                   reduced_cross_derivative)
from quiverdyn.polynomial import Poly
from quiverdyn.quiver import Quiver, QuiverRepresentation
from quiverdyn.tuples import PolyMap, PolyMapTuple


def one_param_tuple(polys, n):
    """Single-vertex tuple with one trailing parameter variable."""
    quiver = Quiver(["v"], [("id", "v", "v")])
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rep = QuiverRepresentation(quiver, {"v": n}, {"id": eye}, mode="exact")
    return PolyMapTuple(rep, {"v": PolyMap(polys)}, param_dim=1)


def transcritical_with_slave():
    """x' = lam*x - x^2 + y^2,  y' = -y + x^2 (vars x, y, lam).

    The linearization at the origin is diag(0, -1), so the kernel is the
    x-axis and the image the y-axis. The slave equation -w + u^2 = 0 gives
    phi(u) = u^2 exactly, and the reduced equation is
    f(u, lam) = lam*u - u^2 + u^4.
    """
    p1 = Poly(3, {(1, 0, 1): 1, (2, 0, 0): -1, (0, 2, 0): 1})
    p2 = Poly(3, {(0, 1, 0): -1, (2, 0, 0): 1})
    return one_param_tuple([p1, p2], 2)


def test_requires_equilibrium():
    p = Poly(2, {(0, 0): 1, (1, 0): 1})  # constant term, F(0) != 0
    with pytest.raises(NotEquilibrium):
        ls_reduce(one_param_tuple([p], 1))


def test_kernel_dimension_and_phi_solves_image_equation():
    F = transcritical_with_slave()
    red = ls_reduce(F)
    assert red.kernel_dim("v") == 1
    # phi solves the image-component equation: full F at the lifted point
    # has zero image component; here the kernel is the x-axis and the image
    # the y-axis, so F_y(u, phi(u)) = 0, i.e. phi = u^2 exactly.
    for u in (0.05, -0.03, 0.002):
        w = red.phi("v", np.array([u]), [0.001])
        assert w[0] == pytest.approx(u * u, abs=1e-10)


def test_reduced_equation_matches_hand_elimination():
    F = transcritical_with_slave()
    red = ls_reduce(F)
    # eliminating y = x^2: f(u, lam) = lam*u - u^2 + u^4
    for u, lam in [(0.01, 0.005), (-0.02, 0.003), (0.04, -0.001)]:
        got = red.reduced_eval("v", np.array([u]), [lam])
        assert got[0] == pytest.approx(lam * u - u ** 2 + u ** 4, abs=1e-9)


def test_reduced_equivariance_on_trivial_arrow():
    F = transcritical_with_slave()
    red = ls_reduce(F)
    report = check_reduced_equivariance(red, samples=20)
    assert report.passed


def test_cross_derivative_of_decoupled_system():
    # two independent transcritical problems stacked diagonally
    p1 = Poly(3, {(1, 0, 1): 1, (2, 0, 0): -1})
    p2 = Poly(3, {(0, 1, 1): 1, (0, 2, 0): -1})
    red = ls_reduce(one_param_tuple([p1, p2], 2))
    assert red.kernel_dim("v") == 2
    assert abs(reduced_cross_derivative(red, "v", 0, 1)) <= 1e-8
    assert abs(reduced_cross_derivative(red, "v", 1, 0)) <= 1e-8


def test_transcritical_branches():
    p = Poly(2, {(1, 1): 1, (2, 0): -1})  # x' = lam*x - x^2
    red = ls_reduce(one_param_tuple([p], 1))
    branches = find_branches_1param(red, "v")
    exps = sorted(tuple(b.exponents) for b in branches)
    assert len(branches) == 2
    assert exps == [(0,), (1,)]
    nontrivial = [b for b in branches if b.exponents == [1]
                  or tuple(b.exponents) == (1,)][0]
    assert nontrivial.coefficients[0] == pytest.approx(1.0, rel=1e-3)
    assert nontrivial.r_squared >= 0.999


def test_pitchfork_branches_have_square_root_exponent():
    p = Poly(2, {(1, 1): 1, (3, 0): -1})  # x' = lam*x - x^3
    red = ls_reduce(one_param_tuple([p], 1))
    branches = find_branches_1param(red, "v")
    exps = sorted(tuple(b.exponents) for b in branches)
    assert exps == [(0,), (0.5,), (0.5,)]
    for b in branches:
        if tuple(b.exponents) == (0.5,):
            assert abs(b.coefficients[0]) == pytest.approx(1.0, rel=1e-3)
            assert b.classified


def test_lift_reconstructs_full_state():
    F = transcritical_with_slave()
    red = ls_reduce(F)
    x = red.lift("v", np.array([0.02]), [0.001])
    assert x[0] == pytest.approx(0.02, abs=1e-12)
    assert x[1] == pytest.approx(0.0004, abs=1e-10)


def case_study_reduction(case):
    """The reduction casestudy_s10 builds for one of the three paper cases."""
    f, g = (parse_poly_dsl(text, param_dim=1)[2] for text in case[:2])
    return ls_reduce(assemble_case_tuple(f, g))


def reduction(name):
    if name == "transcritical":
        return ls_reduce(transcritical_with_slave())
    return case_study_reduction({"a=0": CASE1, "b=0": CASE2,
                                 "ab-cd=0": CASE3}[name])


@pytest.mark.parametrize("name", ["transcritical", "a=0", "b=0", "ab-cd=0"])
def test_compiled_field_matches_poly_eval(name):
    red = reduction(name)
    rng = np.random.default_rng(0)
    for vd in red.vertex_data.values():
        for _ in range(20):
            z = rng.uniform(-1.0, 1.0, size=vd.dim + red.param_dim)
            field, jac = vd.evaluator(z)
            want = [(field[i], p) for i, p in enumerate(vd.coord_field)] + [
                (jac[i, j], p) for i, row in enumerate(vd.jacobian)
                for j, p in enumerate(row)]
            for got, p in want:
                ref = p.eval(list(z))
                assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))


def test_reduced_jacobian_matches_closed_form():
    # f(u, lam) = lam*u - u^2 + u^4, so df/du = lam - 2u + 4u^3
    red = ls_reduce(transcritical_with_slave())
    for u, lam in [(0.01, 0.005), (-0.02, 0.003), (0.04, -0.001)]:
        f, J = red.reduced_jacobian("v", np.array([u]), [lam])
        assert f[0] == pytest.approx(lam * u - u ** 2 + u ** 4, abs=1e-12)
        assert J.shape == (1, 1)
        assert J[0, 0] == pytest.approx(lam - 2 * u + 4 * u ** 3, abs=1e-10)


def test_reduced_jacobian_matches_central_differences():
    red = case_study_reduction(CASE1)
    rng = np.random.default_rng(1)
    for v in ("N1", "N2"):
        m = red.kernel_dim(v)
        for _ in range(5):
            u = rng.uniform(-0.01, 0.01, size=m)
            lam = rng.uniform(-0.005, 0.005, size=1)
            f, J = red.reduced_jacobian(v, u, lam)
            assert np.array_equal(f, red.reduced_eval(v, u, lam))
            for j in range(m):
                e = np.zeros(m)
                e[j] = FD_STEP
                fd = (red.reduced_eval(v, u + e, lam)
                      - red.reduced_eval(v, u - e, lam)) / (2 * FD_STEP)
                assert np.max(np.abs(J[:, j] - fd)) <= 1e-6


def test_branch_tracer_evaluates_the_reduced_map_through_reduced_eval(
        monkeypatch):
    # The outer Newton takes f and its Jacobian from reduced_jacobian; each
    # of its phi solves, and each NewtonDiverged, must pass through
    # reduced_eval, the method perfbench/tracing.py wraps.
    calls = {"phi": 0, "reduced_eval": 0, "diverged": 0}
    phi, reduced_eval = LSReduction.phi, LSReduction.reduced_eval

    def counted_phi(self, *args):
        calls["phi"] += 1
        return phi(self, *args)

    def counted_reduced_eval(self, *args):
        calls["reduced_eval"] += 1
        try:
            return reduced_eval(self, *args)
        except NewtonDiverged:
            calls["diverged"] += 1
            raise

    monkeypatch.setattr(LSReduction, "phi", counted_phi)
    monkeypatch.setattr(LSReduction, "reduced_eval", counted_reduced_eval)
    red = ls_reduce(transcritical_with_slave())
    roots = _roots_at(red, "v", 1e-2)
    assert [float(r[0]) for r in roots] == pytest.approx([0.0, 0.010001],
                                                         abs=1e-6)
    assert calls["reduced_eval"] == calls["phi"] > 0
    # seeds beyond the neighbourhood radius fail inside phi
    assert calls["diverged"] > 0

def test_small_solve_matches_numpy():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5):
        A = rng.normal(size=(n, n))
        for b in (rng.normal(size=n), rng.normal(size=(n, 2))):
            assert np.allclose(_solve(A, b), np.linalg.solve(A, b),
                               rtol=1e-12, atol=1e-12)
    assert _solve(np.zeros((0, 0)), np.zeros((0, 2))).shape == (0, 2)
    with pytest.raises(np.linalg.LinAlgError):
        _solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
