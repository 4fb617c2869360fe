"""Center-manifold and normal-form reductions of network-induced tuples
keep their quiver structure.

Each family is admissible on a small network, has a planted linear part
with a synchrony zero, so that every quotient has a center direction, and
random slot-symmetric quadratic and cubic terms. It is induced on the
quotient quiver, whose arrows lift states along graph fibrations. The
center-manifold jets must then intertwine on every arrow, and the
normal-form tuple, its generators and the grade-1 homological split must
be exactly equivariant.
"""

from fractions import Fraction

import pytest

from helpers import planted_family, ring_network, two_type_network
from quiverdyn import polyfield
from quiverdyn.builders import induce_on_quotients
from quiverdyn.centermanifold import check_cm_equivariance, cm_taylor
from quiverdyn.normalform import normal_form
from quiverdyn.spectral import EndomorphismTuple, sn_decomposition
from quiverdyn.tuples import (PolyMap, PolyMapTuple, bracket_polys,
                              check_equivariance)


def ring_case(seed):
    """Ring of four: x_i' = b (x_{i-1} - x_i) + quadratic and cubic terms,
    with the coupling b drawn by the seed."""
    b = (Fraction(1), Fraction(2), Fraction(-1, 2))[seed % 3]
    return ring_network(4), {"c": {"s": -b, "r": b}}, seed


def two_type_case(seed):
    """The two-type network: the y slot coefficients sum to 0, the g ones
    give the hyperbolic rates -1 and -2."""
    return (two_type_network(),
            {"y": {"sy": -2, "b": 1}, "g": {"sg": -1, "o": 1, "r": -1}},
            seed)


CASES = [ring_case(seed) for seed in range(3)] + [two_type_case(0)]
IDS = ["ring4-0", "ring4-1", "ring4-2", "twotype-0"]


def assert_exactly_equivariant(T):
    report = check_equivariance(T, mode="exact")
    assert report.passed and report.max_residual() == 0


def homological_split_tuples(F, k):
    """Solve the grade-k homological equation at every vertex of F, check
    F^k = [L x, G] + R there, and return the G and R tuples."""
    rep = F.representation
    L = EndomorphismTuple.from_linearization(F)
    LS, _ = sn_decomposition(L)
    G, R = {}, {}
    for v in rep.quiver.vertices:
        n, outputs = rep.dim[v], F.components[v].outputs
        Fk = polyfield.grade_part(outputs, k)
        G[v], R[v] = polyfield.solve_homological(
            L.matrices[v], LS.matrices[v], Fk, k)
        adG = bracket_polys(polyfield.grade_part(outputs, 0), G[v], n, n)
        assert all((f - a - r).is_zero() for f, a, r in zip(Fk, adG, R[v]))
    return [PolyMapTuple(rep, {v: PolyMap(polys, nvars=rep.dim[v])
                               for v, polys in part.items()})
            for part in (G, R)]


@pytest.mark.parametrize("network, linear, seed", CASES, ids=IDS)
def test_reductions_on_the_quotient_quiver_stay_equivariant(network, linear,
                                                            seed):
    F = induce_on_quotients(network, planted_family(network, linear, seed))
    exp = cm_taylor(F, 3)
    assert all(e.center_dim == 1 for e in exp.vertices.values())
    report = check_cm_equivariance(exp)
    assert report.passed and report.max_residual() == 0
    res = normal_form(F, 2)
    for T in [res.transformed, *res.generators.values()]:
        assert_exactly_equivariant(T)
    for T in homological_split_tuples(F, 1):
        assert_exactly_equivariant(T)
