"""End-to-end steady-state case study on the three-vertex fixture."""

from fractions import Fraction

import pytest

from quiverdyn.builders import enumerate_fibrations
from quiverdyn.casestudy import (NODE_MAPS, assemble_case_tuple,
                                 build_case_quiver, case_network,
                                 casestudy_s10, check_case,
                                 linear_coefficients)
from quiverdyn.errors import CaseMismatch
from quiverdyn.fileio import parse_poly_dsl
from quiverdyn.lsreduction import ls_reduce
from quiverdyn.tuples import check_equivariance, linear_part

from helpers import time_limit

CASE1 = ("f(x,y) = lambda*x - x^2 + y", "g(y,x) = -y + x", "a=0")
CASE2 = ("f(x,y) = -x + y", "g(y,x) = x + lambda*y - y^2", "b=0")
CASE3 = ("f(x,y) = -x + y + lambda - x^2", "g(y,x) = -y + x", "ab-cd=0")
# coefficients that a float cannot hold: the reduction must split the exact
# linearization (about 1 s each)
THIRDS = ("f(x,y) = 1*x + 1/3*y + lambda*x - x^3",
          "g(y,x) = 1*y + 3*x - y^3", "ab-cd=0")
TWO_THIRDS = ("f(x,y) = lambda*x - x^2 + y", "g(y,x) = -2/3*y + 1*x", "a=0")


def poly(text):
    return parse_poly_dsl(text, param_dim=1)[2]


def test_quiver_maps_intertwine():
    # the four selection matrices commute with every induced tuple, so a
    # generic pair of responses must produce an equivariant tuple
    f = poly("f(x,y) = lambda*x - x^2 + 2*y + 3*x*y")
    g = poly("g(y,x) = -y + x + y^2 - 5*x*y")
    F = assemble_case_tuple(f, g)
    assert check_equivariance(F, mode="exact").passed


def test_linear_coefficients_read_off():
    f = poly("f(x,y) = 2*x + 3*y + x^2")
    g = poly("g(y,x) = -5*y + 7*x")
    assert linear_coefficients(f, g) == (2, -5, 3, 7)


def test_case_gate_rejects_wrong_degeneracy():
    f1, g1 = poly(CASE1[0]), poly(CASE1[1])
    check_case(f1, g1, "a=0")
    with pytest.raises(CaseMismatch):
        check_case(f1, g1, "b=0")
    with pytest.raises(CaseMismatch):
        check_case(f1, g1, "ab-cd=0")
    with pytest.raises(CaseMismatch):
        check_case(f1, g1, "nonsense")
    with pytest.raises(CaseMismatch):
        check_case(poly("f(x,y) = 1 + x"), g1, "a=0")


def test_case1_two_dim_kernel_decouples():
    rep = casestudy_s10(*CASE1)
    assert rep.equivariance_passed
    assert rep.kernel_dims == {"N1": 2, "N2": 1, "N3": 0}
    assert rep.decoupled is True
    assert rep.reduced_equivariance_residual <= 1e-8
    exps = sorted(tuple(b.exponents) for b in rep.branches)
    assert exps == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for b in rep.branches:
        assert b.r_squared >= 0.999


def test_case1_synchrony_patterns():
    rep = casestudy_s10(*CASE1)
    by_exp = {tuple(b.exponents): s
              for b, s in zip(rep.branches, rep.synchrony)}
    # trivial branch: everything zero
    assert by_exp[(0, 0)]["zero_coordinates"] == (
        "x1", "x3", "x5", "y2", "y4")
    # single-mode branches switch on one end cell each; mixed branch has
    # both ends nonzero and equal
    assert "x5" not in by_exp[(0, 1)]["zero_coordinates"] \
        or "x1" not in by_exp[(0, 1)]["zero_coordinates"]
    assert ("x1", "x5") in by_exp[(1, 1)]["equal_groups"]


def test_case2_restrictions_are_identity_zero_zero_identity():
    rep = casestudy_s10(*CASE2)
    assert rep.kernel_dims == {"N1": 1, "N2": 1, "N3": 1}
    one, zero = ((Fraction(1),),), ((Fraction(0),),)
    assert rep.restricted_maps == {"a1": one, "a2": zero,
                                   "a3": zero, "a4": one}
    assert not rep.identity_restriction
    assert len(rep.branches) == 2
    assert sorted(tuple(b.exponents) for b in rep.branches) == [(0,), (1,)]


def test_case3_all_restrictions_identity():
    rep = casestudy_s10(*CASE3)
    assert rep.kernel_dims == {"N1": 1, "N2": 1, "N3": 1}
    assert rep.identity_restriction
    one = ((Fraction(1),),)
    assert all(m == one for m in rep.restricted_maps.values())
    assert len(rep.branches) == 2
    # saddle-node pair: both branches scale like sqrt(lambda) and are fully
    # synchronous with no zero coordinates
    for b, s in zip(rep.branches, rep.synchrony):
        assert tuple(b.exponents) == (0.5,)
        assert s["equal_groups"] == (("x1", "y2", "x3", "y4", "x5"),)
        assert s["zero_coordinates"] == ()


def test_fractional_ab_cd_case_splits_exact_linearization():
    with time_limit(30):
        rep = casestudy_s10(*THIRDS)
    assert rep.kernel_dims == {"N1": 1, "N2": 1, "N3": 1}
    assert all(len(m) == 1 and isinstance(m[0][0], Fraction) and m[0][0]
               for m in rep.restricted_maps.values())
    assert rep.reduced_equivariance_residual <= 1e-8
    assert all(b.classified for b in rep.branches)
    assert sorted(tuple(b.exponents) for b in rep.branches) == [
        (0,), (0.5,), (0.5,)]


def test_fractional_a0_case_splits_exact_linearization():
    with time_limit(30):
        rep = casestudy_s10(*TWO_THIRDS)
    assert rep.kernel_dims == {"N1": 2, "N2": 1, "N3": 0}
    assert rep.decoupled is True
    assert all(b.classified for b in rep.branches)
    assert sorted(tuple(b.exponents) for b in rep.branches) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("inputs", [CASE1, TWO_THIRDS])
def test_case_a0_kernel_block_is_exactly_zero(inputs):
    # decoupled reads D_u f(0; 0), which is L on the kernel: the K with
    # L B = B K for the exact kernel basis B at N1
    F = assemble_case_tuple(poly(inputs[0]), poly(inputs[1]))
    B = ls_reduce(F).kernel.basis["N1"]
    ar = F.representation.arith
    K = ar.solve(B, ar.matmul(linear_part(F)["N1"], B, 2))
    assert K == ((0, 0), (0, 0))
    assert all(type(k) is Fraction for row in K for k in row)
    assert casestudy_s10(*inputs).decoupled is True


def test_bad_arity_rejected():
    with pytest.raises(CaseMismatch):
        casestudy_s10("f(x) = -x", "g(y,x) = -y + x", "a=0")


def test_selection_matrices_are_zero_one():
    _, rep = build_case_quiver()
    for a, _, _ in rep.quiver.arrows:
        for row in rep.arrow_matrix[a]:
            assert sum(row) == 1 and all(x in (0, 1) for x in row)


@pytest.mark.parametrize("arrow", sorted(NODE_MAPS))
def test_case_arrow_node_map_is_a_graph_fibration(arrow):
    # the arrow s -> t pulls back along a fibration phi: N_t -> N_s, so
    # enumerate_fibrations between the two case networks must find phi
    s, t, phi = NODE_MAPS[arrow]
    want = tuple((str(m), str(n)) for m, n in enumerate(phi, start=1))
    found = enumerate_fibrations(case_network(t), case_network(s))
    assert want in [fib.node_map for fib in found]
