"""Lyapunov-Schmidt reduction on hand-solvable bifurcation problems."""

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from helpers import single_vertex_tuple
from test_casestudy import CASE1, CASE2, CASE3
from quiverdyn.casestudy import assemble_case_tuple, casestudy_s10
from quiverdyn.errors import DomainTooSmall, NewtonDiverged, NotEquilibrium
from quiverdyn.fileio import parse_poly_dsl
from quiverdyn.lsreduction import (BRANCH_POINTS, BRANCH_WINDOW,
                                   CLOSING_STEPS, CONVERGED, LEFT_RADIUS,
                                   NEWTON_MAX_ITER, NEWTON_TOL,
                                   NO_CONVERGENCE, SINGULAR,
                                   CompiledField, LSReduction,
                                   VertexReduction, _distinct_roots,
                                   _lane_solve, _seed_grid,
                                   check_reduced_equivariance,
                                   find_branches_1param, ls_reduce)
from quiverdyn.polynomial import Poly, combine_rows, substitute_linear
from quiverdyn.quiver import Quiver, QuiverRepresentation
from quiverdyn.spectral import EndomorphismTuple, kernel_image_split
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
    # the kernel block of the field's Jacobian at the origin is D_u f(0; 0)
    _, J = red.vertex_data["v"].evaluator(np.zeros(3))
    assert J[0, 1] == 0.0 and J[1, 0] == 0.0


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


def case_study_tuple(case):
    """The tuple casestudy_s10 reduces for one of the three paper cases."""
    f, g = (parse_poly_dsl(text, param_dim=1)[2] for text in case[:2])
    return assemble_case_tuple(f, g)


def case_study_reduction(case):
    """The reduction casestudy_s10 builds for one of the three paper cases."""
    return ls_reduce(case_study_tuple(case))


def reduced_tuple(name):
    if name == "transcritical":
        return transcritical_with_slave()
    return case_study_tuple({"a=0": CASE1, "b=0": CASE2,
                             "ab-cd=0": CASE3}[name])


def reduction(name):
    return ls_reduce(reduced_tuple(name))


@pytest.mark.parametrize("name", ["transcritical", "a=0", "b=0", "ab-cd=0"])
def test_compiled_field_matches_poly_eval(name):
    # the field z |-> M^{-1} F(M z, lam) in the float image of the split's
    # coordinates, and its Jacobian, against Poly.eval
    F = reduced_tuple(name)
    red = ls_reduce(F)
    split = kernel_image_split(F.representation,
                               EndomorphismTuple.from_linearization(F))
    rng = np.random.default_rng(0)
    for v, vd in red.vertex_data.items():
        d, n = vd.dim, vd.dim + red.param_dim
        M = np.array(split.basis[v], dtype=float).reshape(d, d)
        Minv = np.array(split.basis_inv[v], dtype=float).reshape(d, d)
        assert np.array_equal(vd.basis, M)
        polys = [p.to_float() for p in F.components[v].outputs]
        field_polys = combine_rows(
            Minv, substitute_linear(polys, M, d, red.param_dim), n)
        jac_polys = [[p.diff(j) for j in range(d)] for p in field_polys]
        for _ in range(20):
            z = rng.uniform(-1.0, 1.0, size=n)
            field, jac = vd.evaluator(z)
            want = [(field[i], p) for i, p in enumerate(field_polys)] + [
                (jac[i, j], p) for i, row in enumerate(jac_polys)
                for j, p in enumerate(row)]
            for got, p in want:
                ref = p.eval(list(z))
                assert abs(got - ref) <= 1e-14 * max(1.0, abs(ref))


def repeated_product(e, z):
    """The monomial z^e as Python floats: each power a chain of products
    from 1, multiplied in variable order."""
    value = 1.0
    for zj, k in zip(z, e):
        power = 1.0
        for _ in range(k):
            power *= zj
        value *= power
    return value


def term_by_term(p, z):
    """p at the point z as Python floats: from 0.0, each term's
    coefficient times repeated_product, added in ascending monomial order."""
    total = 0.0
    for e in sorted(p.terms):
        total += p.terms[e] * repeated_product(e, z)
    return total


def test_compiled_field_is_bit_exact_and_lane_independent():
    # vars x, y and the parameter lam. The rows hold several terms with
    # random coefficients, so adding them in another order changes bits; a
    # constant term, and Jacobian entries with no term (d/dy of a component
    # free of y) and with one
    rng = np.random.default_rng(5)

    def poly(*exps):
        return Poly(3, {e: rng.uniform(-3.0, 3.0) for e in exps})

    field = [poly((3, 0, 1), (2, 0, 0), (1, 0, 1), (0, 0, 1), (0, 0, 0),
                  (1, 0, 0)),
             poly((2, 2, 0), (0, 3, 0), (1, 1, 1), (0, 1, 0), (4, 0, 0))]
    rows = field + [p.diff(j) for p in field for j in range(2)]
    assert [len(p.terms) for p in rows[2:]] == [4, 0, 3, 4]
    ev = CompiledField(field, 3)
    Z = rng.uniform(-2.0, 2.0, size=(300, 6))[:, ::2]   # a strided view
    vals, jac = ev(Z)
    assert vals.shape == (300, 2) and jac.shape == (300, 2, 2)
    for i, z in enumerate(Z.tolist()):
        got = list(vals[i]) + list(jac[i].ravel())
        assert got == [term_by_term(p, z) for p in rows]
    for i in range(len(Z)):
        for lane_vals, lane_jac in (ev(Z[i]), [a[0] for a in ev(Z[i:i + 1])]):
            assert np.array_equal(lane_vals, vals[i])
            assert np.array_equal(lane_jac, jac[i])
    every_third = ev(Z[::3])
    assert np.array_equal(every_third[0], vals[::3])
    assert np.array_equal(every_third[1], jac[::3])
    grid = ev(Z.reshape(10, 30, 3))
    assert np.array_equal(grid[0], vals.reshape(10, 30, 2))
    assert np.array_equal(grid[1], jac.reshape(10, 30, 2, 2))


def seed_lanes(red, v, lams):
    """The branch tracer's lanes: every seed of the grid at every lam."""
    scales = np.array([5.0 * math.sqrt(lam) for lam in lams])
    seeds = [_seed_grid(red.kernel_dim(v), sc) for sc in scales]
    n = len(seeds[0])
    return (np.vstack(seeds), np.repeat(lams, n)[:, None],
            np.repeat(scales, n))


def whole_field_newton(red, v, u0, lam, scale):
    """The branch tracer's Newton from every lane (u0[i], 0; lam[i]): the
    last u of every lane and the converged mask."""
    vd = red.vertex_data[v]
    m, d = vd.ker_dim, vd.dim
    z = np.hstack([u0, np.zeros((len(u0), d - m)), lam])
    z, _, status = vd.newton(z, 0, scale, CLOSING_STEPS)
    return z[:, :m], status == CONVERGED


def test_transcritical_roots_from_seed_lanes():
    # radius 1.5e-3 keeps the root (0.010001, 0.010001^2) inside it, but
    # the first step from the four far seeds puts w outside it
    red = ls_reduce(transcritical_with_slave(), radius=1.5e-3)
    u0, lam, scale = seed_lanes(red, "v", np.array([1e-2]))
    u, converged = whole_field_newton(red, "v", u0, lam, scale)
    roots = _distinct_roots(u, converged, scale[0])
    assert [float(r[0]) for r in roots] == pytest.approx([0.0, 0.010001],
                                                         abs=1e-6)
    far = np.abs(u0[:, 0]) > 0.33
    assert far.sum() == 4 and converged.tolist() == (~far).tolist()
    F, J = red.vertex_data["v"].evaluator(np.hstack([u0, 0 * u0, lam]))
    step = np.linalg.solve(J, F[:, :, None])[:, :, 0]
    assert (np.abs(step[:, 0]) <= 10 * scale).all()
    assert (np.abs(step[far, 1]) > 1.5e-3).all()
    # no branch root of the whole field has w = u^2 beyond a radius of 1e-5
    red = ls_reduce(transcritical_with_slave(), radius=1e-5)
    u, converged = whole_field_newton(red, "v", u0, lam, scale)
    assert converged.tolist() == (u0[:, 0] == 0).tolist()


def test_phi_fails_beyond_the_radius():
    # seeds beyond phi's neighbourhood radius (phi = u^2 > 0.1) fail in phi
    red = ls_reduce(transcritical_with_slave())
    u0, lam, _ = seed_lanes(red, "v", np.array([1e-2]))
    far = np.abs(u0[:, 0]) > 0.33
    status = red.reduced_lanes("v", u0, lam)[2]
    assert (status[far] == LEFT_RADIUS).all()
    assert (status[~far] == CONVERGED).all()
    with pytest.raises(NewtonDiverged, match="left the neighbourhood radius"):
        red.phi("v", u0[far][0], lam[0])


@pytest.mark.parametrize("name", ["transcritical", "a=0", "b=0", "ab-cd=0"])
def test_each_seed_lane_solves_as_it_would_alone(name):
    red = reduction(name)
    v = "v" if name == "transcritical" else "N1"
    lams = np.geomspace(*BRANCH_WINDOW, BRANCH_POINTS)[::-1]
    u0, lam, scale = seed_lanes(red, v, lams)
    u, converged = whole_field_newton(red, v, u0, lam, scale)
    assert converged.any()
    for i in range(len(u0)):
        ui, ci = whole_field_newton(red, v, u0[i:i + 1], lam[i:i + 1],
                                    scale[i:i + 1])
        assert np.array_equal(ui[0], u[i]) and ci[0] == converged[i]


def newton_one_seed_at_a_time(red, v, u0, lam, scale, first, closing):
    """Newton on the rows first..d-1 of the field in the coordinates
    first..d-1 from each lane (u0[i], 0; lam), by a plain loop of evaluator
    calls and np.linalg.solve: per lane, the last point, the field where it
    was last evaluated, and the outcome."""
    vd = red.vertex_data[v]
    m, d = vd.ker_dim, vd.dim
    out = []
    for seed in u0:
        z = np.concatenate([seed, np.zeros(d - m), [lam]])
        status, closed = NO_CONVERGENCE, 0
        for it in range(NEWTON_MAX_ITER + closing + 1):
            F, J = vd.evaluator(z)
            if np.max(np.abs(F[first:]), initial=0.0) <= NEWTON_TOL:
                status = CONVERGED
            conv = status == CONVERGED
            if closed == closing if conv else it == NEWTON_MAX_ITER:
                break
            step = np.zeros(d)
            try:
                step[first:] = np.linalg.solve(J[first:, first:], F[first:])
            except np.linalg.LinAlgError:
                status = status if conv else SINGULAR
                break
            new = z.copy()
            new[:d] -= step
            if not (np.max(np.abs(step[:m]), initial=0.0) <= 10 * scale
                    and np.max(np.abs(new[m:d]), initial=0.0) <= vd.radius):
                status = status if conv else LEFT_RADIUS
                break
            z = new
            closed += conv
            if conv and closed == closing:
                break
        out.append((z, F, status))
    return out


@pytest.mark.parametrize("name", ["transcritical", "a=0", "b=0", "ab-cd=0"])
def test_seed_lanes_match_the_one_seed_loop(name):
    # the branch tracer's lanes and phi's lanes from the same seeds,
    # statuses included; at lam = 1e-2 the far seeds put phi beyond the
    # radius (transcritical, b=0), and one seed of ab-cd=0 meets a singular
    # image block
    red = reduction(name)
    v = "v" if name == "transcritical" else "N1"
    m, d = red.kernel_dim(v), red.vertex_data[v].dim
    failed = set()
    for lam in (1e-2, 1e-4):
        u0, lams, scale = seed_lanes(red, v, np.array([lam]))
        u, converged = whole_field_newton(red, v, u0, lams, scale)
        want = newton_one_seed_at_a_time(red, v, u0, lam, scale[0], 0,
                                         CLOSING_STEPS)
        assert [st == CONVERGED for _, _, st in want] == converged.tolist()
        for (z, _, _), got in zip(want, u):
            assert np.array_equal(z[:m], got)
        w, f, status = red.reduced_lanes(v, u0, lams)
        want = newton_one_seed_at_a_time(red, v, u0, lam, 0.0, m, 0)
        assert [st for _, _, st in want] == status.tolist()
        for (z, F, _), wi, fi in zip(want, w, f):
            assert np.array_equal(z[m:d], wi) and np.array_equal(F[:m], fi)
        failed |= set(status.tolist()) - {CONVERGED}
    assert failed == {"transcritical": {LEFT_RADIUS}, "a=0": set(),
                      "b=0": {LEFT_RADIUS}, "ab-cd=0": {SINGULAR}}[name]


# (exponents, coefficients) of every branch at N1, whose zeros are exactly
# u_i in {0, lam} (a=0), u in {0, lam} (b=0) and u = +-sqrt(lam) (ab-cd=0)
EXACT_BRANCHES = {
    "a=0": [([0, 0], [0, 0]), ([0, 1], [0, 1]), ([1, 0], [1, 0]),
            ([1, 1], [1, 1])],
    "b=0": [([0], [0]), ([1], [1])],
    "ab-cd=0": [([0.5], [-1]), ([0.5], [1])],
}


@pytest.mark.parametrize("name", sorted(EXACT_BRANCHES))
def test_paper_case_branches_are_exact(name):
    branches = find_branches_1param(reduction(name), "N1")
    assert [b.exponents for b in branches] == \
        [e for e, _ in EXACT_BRANCHES[name]]
    for b, (_, want) in zip(branches, EXACT_BRANCHES[name]):
        assert np.max(np.abs(np.subtract(b.coefficients, want))) <= 1e-12


def test_transcritical_roots_match_mpmath():
    # the nontrivial root of lam*u - u^2 + u^4 near u = lam, in 50 digits
    branches = find_branches_1param(ls_reduce(transcritical_with_slave()),
                                    "v")
    (b,) = [b for b in branches if b.exponents == [1]]
    assert len(b.points) == BRANCH_POINTS
    with mpmath.workdps(50):
        for lam, root in b.points:
            lam = mpmath.mpf(lam)
            want = float(mpmath.findroot(
                lambda u: lam * u - u ** 2 + u ** 4, lam))
            assert abs(root[0] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3])
def test_branch_tracer_solves_the_whole_field(case, monkeypatch):
    # one lockstep Newton with one evaluator call per step, and no phi
    # solve; the synchrony lift still calls phi once per branch
    calls = {"evaluator": 0, "newton": 0, "reduced_lanes": 0, "phi": 0}

    def counted(cls, name, key):
        method = getattr(cls, name)

        def wrapper(*args, **kw):
            calls[key] += 1
            return method(*args, **kw)
        monkeypatch.setattr(cls, name, wrapper)

    counted(CompiledField, "__call__", "evaluator")
    counted(VertexReduction, "newton", "newton")
    counted(LSReduction, "reduced_lanes", "reduced_lanes")
    red = case_study_reduction(case)
    calls["evaluator"] = 0
    assert find_branches_1param(red, "N1")
    assert calls["newton"] == 1 and calls["reduced_lanes"] == 0
    assert 0 < calls["evaluator"] <= NEWTON_MAX_ITER + CLOSING_STEPS
    counted(LSReduction, "phi", "phi")
    report = casestudy_s10(*case)
    assert calls["phi"] >= len(report.branches) > 0


def test_vertex_without_kernel_has_no_roots():
    red = reduction("a=0")
    assert red.kernel_dim("N3") == 0
    assert find_branches_1param(red, "N3") == []


def test_singular_lane_fails_alone():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 5):
        A = rng.normal(size=(4, n, n))
        A[2] = 0.0
        A[2, 0, 0] = 1.0   # exactly singular for n > 1, regular for n = 1
        b = rng.normal(size=(4, n, 2))
        x, ok = _lane_solve(A, b)
        assert ok.tolist() == [True, True, n == 1, True]
        for i in np.flatnonzero(ok):
            assert np.array_equal(x[i], np.linalg.solve(A[i], b[i]))
    x, ok = _lane_solve(np.zeros((3, 0, 0)), np.zeros((3, 0, 2)))
    assert x.shape == (3, 0, 2) and ok.all()


def solve_lane_by_lane(A, b):
    """_lane_solve's oracle: np.linalg.solve on each lane alone, zeros and
    a False mask where it raises."""
    x, ok = np.zeros(b.shape), np.ones(len(A), dtype=bool)
    for i in range(len(A)):
        try:
            x[i] = np.linalg.solve(A[i], b[i])
        except np.linalg.LinAlgError:
            ok[i] = False
    return x, ok


def test_singular_lanes_are_split_off_with_one_more_solve(monkeypatch):
    # the tracer's first stack in case ab-cd=0: the seed u = 0 has an
    # exactly singular whole-field Jacobian at every lam
    red = case_study_reduction(CASE3)
    stacks = []

    def recorded(A, b):
        stacks.append((A.copy(), b.copy()))
        return _lane_solve(A, b)

    monkeypatch.setattr("quiverdyn.lsreduction._lane_solve", recorded)
    find_branches_1param(red, "N1")
    assert (~solve_lane_by_lane(*stacks[0])[1]).sum() >= BRANCH_POINTS
    inputs = stacks[:1]
    # random stacks with zero columns, zero rows and doubled rows
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5):
        A = rng.normal(size=(60, n, n))
        for i in rng.choice(60, 20, replace=False):
            j, k = rng.integers(n, size=2)
            kind = rng.integers(3)
            if kind == 0:
                A[i, :, j] = 0.0
            elif kind == 1:
                A[i, j] = 0.0
            else:
                A[i, j] = A[i, k] * 2.0 if j != k else 0.0
        inputs.append((A, rng.normal(size=(60, n, 1))))
    wants = [solve_lane_by_lane(A, b) for A, b in inputs]
    solve, calls = np.linalg.solve, []

    def counted(A, b):
        calls.append(len(A))
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    for (A, b), (want_x, want_ok) in zip(inputs, wants):
        assert not want_ok.all()
        calls.clear()
        x, ok = _lane_solve(A, b)
        assert len(calls) <= 2
        assert np.array_equal(ok, want_ok)
        assert np.array_equal(x, want_x)


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3])
def test_branch_tracer_raises_no_runtime_warning(case):
    red = case_study_reduction(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert find_branches_1param(red, "N1")


@pytest.mark.parametrize("case", [CASE2, CASE3])
def test_branch_tracer_evaluates_no_empty_batch(case, monkeypatch):
    # the Newton stops when no lane is left: neither the tracer nor phi
    # evaluates an empty batch, even when every lane leaves the radius
    case_red = case_study_reduction(case)
    red = ls_reduce(transcritical_with_slave())
    u0, lam, _ = seed_lanes(red, "v", np.array([1e-2]))
    far = np.abs(u0[:, 0]) > 0.33
    sizes, call = [], CompiledField.__call__

    def counted(self, z):
        sizes.append(len(z))
        return call(self, z)

    monkeypatch.setattr(CompiledField, "__call__", counted)
    assert find_branches_1param(case_red, "N1")
    status = red.reduced_lanes("v", u0[far], lam[far])[2]
    assert (status == LEFT_RADIUS).all()
    assert sizes and min(sizes) > 0


def sampled_defects_one_by_one(red, samples=100, radius=None, seed=0):
    """check_reduced_equivariance's worst residual per arrow, drawn and
    solved one sample at a time through the public reduced_eval."""
    rng = np.random.default_rng(seed)
    if radius is None:
        radius = 0.1 * min(vd.radius for vd in red.vertex_data.values())
    per_arrow = {}
    for a, s, t in red.representation.quiver.arrows:
        C = red.kernel_matrix(a)
        m_s = red.kernel_dim(s)
        worst, r, done = 0.0, radius, 0
        while done < samples:
            u = rng.uniform(-r, r, size=m_s)
            lam = rng.uniform(-r, r, size=red.param_dim)
            try:
                lhs = C @ red.reduced_eval(s, u, lam) if m_s else \
                    np.zeros(red.kernel_dim(t))
                rhs = red.reduced_eval(t, C @ u, lam)
            except NewtonDiverged:
                r *= 0.5
                if r < 1e-6:
                    raise DomainTooSmall(
                        f"arrow {a!r}: no common neighbourhood above 1e-6")
                continue
            worst = max(worst, float(np.max(np.abs(lhs - rhs), initial=0.0)))
            done += 1
        per_arrow[a] = worst
    return per_arrow


def assert_same_defects(red, **kw):
    want = sampled_defects_one_by_one(red, **kw)
    got = check_reduced_equivariance(red, **kw).per_arrow
    assert got.keys() == want.keys()
    for a in want:
        assert abs(got[a] - want[a]) <= 1e-15


@pytest.mark.parametrize("case", [CASE1, CASE2, CASE3])
def test_batched_sampler_matches_one_by_one_on_cases(case):
    assert_same_defects(case_study_reduction(case))


def test_batched_sampler_retries_as_one_by_one(monkeypatch):
    # A slightly wrong arrow matrix makes every sample's residual differ,
    # so the worst one shows which samples were kept. Radius 1 puts most
    # of the first draws outside phi's neighbourhood (phi = u^2 <= 0.1),
    # so the sampler halves it several times.
    red = ls_reduce(transcritical_with_slave())
    monkeypatch.setattr(red, "kernel_matrix", lambda a: np.array([[1.001]]))
    assert_same_defects(red, radius=1.0, seed=3)
    assert sampled_defects_one_by_one(red, radius=1.0, seed=3)["id"] > 1e-9
    # no neighbourhood at all: phi's radius is far below any sample's u^2
    red = ls_reduce(transcritical_with_slave(), radius=1e-14)
    for check in (sampled_defects_one_by_one, check_reduced_equivariance):
        with pytest.raises(DomainTooSmall, match="arrow 'id'"):
            check(red, radius=1.0)
