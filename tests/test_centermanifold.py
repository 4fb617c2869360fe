"""Center-manifold Taylor jets: exact coefficients and flow consistency."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import (cm_coupled_tuple, cm_feedforward_tuple,
                     cm_lost_center_tuple, float_copy, single_vertex_tuple)
from quiverdyn import arith
from quiverdyn.centermanifold import (_add_phi_degree, check_cm_equivariance,
                                      cm_taylor, flow_consistency)
from quiverdyn.errors import IllConditioned, NotEquilibrium, ResonantBlock
from quiverdyn.polynomial import Poly
from quiverdyn.tuples import PolyMap, PolyMapTuple


def test_feedforward_graph_map_coefficients():
    # x' = x^2, y' = -y + x^2: invariance gives phi'(x) x^2 = -phi + x^2,
    # whose Taylor solution is phi = x^2 - 2 x^3 + 6 x^4 - ...
    F = cm_feedforward_tuple()
    exp = cm_taylor(F, 4)
    phi = exp.vertices["big"].phi
    assert len(phi) == 1
    assert phi[0].terms == {(2,): Fraction(1), (3,): Fraction(-2),
                            (4,): Fraction(6)}


def test_feedforward_reduced_field_is_center_equation():
    F = cm_feedforward_tuple()
    exp = cm_taylor(F, 4)
    assert exp.vertices["big"].reduced[0].terms == {(2,): Fraction(1)}
    assert exp.vertices["small"].reduced[0].terms == {(2,): Fraction(1)}


def test_cm_equivariance_exact():
    F = cm_feedforward_tuple()
    exp = cm_taylor(F, 4)
    report = check_cm_equivariance(exp)
    assert report.passed and report.max_residual() == 0


def as_array(B, rows):
    return np.array([[float(x) for x in row] for row in B]).reshape(rows, -1)


def linear_map(S):
    """The Polys u |-> S u, one per row of the float matrix S."""
    n = S.shape[1]
    return [Poly(n, {tuple(int(k == j) for k in range(n)): float(S[i, j])
                     for j in range(n)}) for i in range(S.shape[0])]


def mix(S, polys, nvars):
    """The Polys sum_j S[i, j] polys[j], one per row of S."""
    return [sum((p.scale(float(S[i, j])) for j, p in enumerate(polys)),
                Poly.zero(nvars)) for i in range(S.shape[0])]


def assert_float_jets_match_exact(F, degree):
    """The jets of the float copy of F, carried into the split coordinates
    of the exact run, agree with the exact jets to 1e-9.

    The two runs may pick different bases of the same center and
    hyperbolic subspaces: with B_float = B_exact S, the float graph map and
    reduced field satisfy S_h phi_f(u) = phi_e(S_c u) and
    S_c r_f(u) = r_e(S_c u).
    """
    exact = cm_taylor(F, degree)
    flt = cm_taylor(float_copy(F), degree)
    assert flt.representation.mode == "float"
    for v, ve in exact.vertices.items():
        vf = flt.vertices[v]
        nc, d = ve.center_dim, F.representation.dim[v]
        assert (vf.center_dim, vf.hyperbolic_dim) == \
            (nc, ve.hyperbolic_dim)
        S = {}
        for name, sub_e, sub_f in (("c", exact.center, flt.center),
                                   ("h", exact.hyperbolic, flt.hyperbolic)):
            Be, Bf = as_array(sub_e.basis[v], d), as_array(sub_f.basis[v], d)
            S[name] = np.linalg.lstsq(Be, Bf, rcond=None)[0] if Be.size \
                else np.zeros((0, 0))
            assert np.allclose(Be @ S[name], Bf, rtol=0, atol=1e-9)
        u = linear_map(S["c"])
        pairs = list(zip(mix(S["h"], vf.phi, nc),
                         [p.to_float().compose(u) for p in ve.phi]))
        pairs += zip(mix(S["c"], vf.reduced, nc),
                     [p.to_float().compose(u) for p in ve.reduced])
        for got, want in pairs:
            assert (got - want).max_abs_coeff() <= 1e-9, (v, got, want)


def test_feedforward_float_jets_match_exact():
    assert_float_jets_match_exact(cm_feedforward_tuple(), 4)


def test_coupled_float_jets_match_exact():
    assert_float_jets_match_exact(cm_coupled_tuple(), 5)


def test_cm_equivariance_float():
    exp = cm_taylor(float_copy(cm_feedforward_tuple()), 4)
    report = check_cm_equivariance(exp)
    assert report.mode == "float"
    assert report.passed and report.max_residual() <= 1e-12


def test_cm_equivariance_target_without_center_direction(mode="exact"):
    # the arrow maps the source's center direction to zero: the target jets
    # are functions of no variables and must still be compared as functions
    # of the source's center coordinates
    F = cm_lost_center_tuple()
    if mode == "float":
        F = float_copy(F)
    exp = cm_taylor(F, 3)
    assert {v: vd.center_dim for v, vd in exp.vertices.items()} == \
        {"s": 1, "t": 0}
    report = check_cm_equivariance(exp)
    assert report.mode == mode
    assert report.passed and report.max_residual() == 0


def test_cm_equivariance_target_without_center_direction_float():
    test_cm_equivariance_target_without_center_direction("float")


def test_coupled_fixture_jet_solves_invariance_equation():
    # x' = x*y, y' = -y + x^2: matching -phi + x^2 = phi' * (x phi) degree
    # by degree gives phi = x^2 - 2 x^4 + O(x^6)
    F = cm_coupled_tuple()
    exp = cm_taylor(F, 5)
    vd = exp.vertices["v"]
    assert vd.phi[0].terms == {(2,): Fraction(1), (4,): Fraction(-2)}
    # reduced field u' = u * phi(u) = u^3 - 2 u^5
    assert vd.reduced[0].terms == {(3,): Fraction(1), (5,): Fraction(-2)}


def test_singular_jet_operator(mode="exact"):
    # A true center/hyperbolic split keeps the invariance operator
    # nonsingular (its eigenvalues have the hyperbolic real parts), so the
    # degree step is driven directly with a resonant block: center rate 1,
    # hyperbolic rates 2 and 3, u' = u, w0' = 2 w0, w1' = 3 w1 + u^2. On
    # u^2 the operator is diag(2 - 2, 3 - 2), singular but consistent:
    # w1 = -u^2 with any u^2 term in w0 solves it. Neither arithmetic picks
    # one of those jets; both raise ResonantBlock.
    ar = arith.of(mode)
    conv = float if mode == "float" else Fraction
    fc = [Poly(3, {(1, 0, 0): conv(1)})]
    fh = [Poly(3, {(0, 1, 0): conv(2)}),
          Poly(3, {(0, 0, 1): conv(3), (2, 0, 0): conv(1)})]
    Ac = [[conv(1)]]
    Ah = [[conv(2), conv(0)], [conv(0), conv(3)]]
    phi = [Poly.zero(1), Poly.zero(1)]
    with pytest.raises(ResonantBlock, match="degree-2 invariance operator"):
        _add_phi_degree(fc, fh, Ac, Ah, phi, 1, 2, 2, ar)


def test_singular_jet_operator_float():
    test_singular_jet_operator("float")


def test_flow_consistency_error_scales_with_jet_order():
    # phi = x^2 - 2 x^4 + ... has only even-degree terms, so the defect of
    # the degree-2 jet is O(r^3) (ratio 2^3) while the degree-3 jet gains an
    # extra order because its first neglected term is even (ratio 2^5).
    F = cm_coupled_tuple()
    for degree, expected in ((2, 8.0), (3, 32.0)):
        exp = cm_taylor(F, degree)
        err1, err2, ratio = flow_consistency(F, exp, "v", radius=5e-2)
        assert err2 < err1
        assert ratio == pytest.approx(expected, rel=0.25)


def test_requires_equilibrium():
    F = cm_coupled_tuple()
    rep = F.representation
    bad = PolyMapTuple(rep, {"v": PolyMap([
        Poly(2, {(0, 0): 1, (1, 1): 1}),
        Poly(2, {(0, 1): -1})])})
    with pytest.raises(NotEquilibrium):
        cm_taylor(bad, 3)


@pytest.mark.parametrize("rate", [Fraction(1, 2000000), Fraction(1, 20000000)])
def test_spectral_gap_below_minimum(rate):
    # x' = x^2, y' = rate * y + x^2: the hyperbolic eigenvalue sits closer
    # to the axis than SPECTRAL_GAP_MIN, however far below it
    F = single_vertex_tuple([Poly(2, {(2, 0): 1}),
                             Poly(2, {(0, 1): rate, (2, 0): 1})])
    with pytest.raises(IllConditioned):
        cm_taylor(F, 3)
