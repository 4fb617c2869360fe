"""Coloured networks, the symmetry groupoid, and admissibility checks."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (feedforward_chain_network, feedforward_pair_network,
                     two_type_network, monoid_network, random_poly,
                     random_response_family)
from quiverdyn import builders
from quiverdyn.network import (AdmissibleTemplate, ColouredNetwork,
                               ResponseFamily, check_admissible,
                               input_bijections, symmetry_groupoid,
                               validate_coloured_network)
from quiverdyn.polynomial import Poly
from quiverdyn.tuples import EquivarianceReport, PolyMap


def test_fixture_networks_are_colour_consistent():
    for N in (feedforward_pair_network(), two_type_network(), monoid_network()):
        assert validate_coloured_network(N) == []


def test_network_colours_and_dims_are_read_only():
    # data derived from a network is kept on it, so the network must not
    # change after __init__
    N = two_type_network()
    with pytest.raises(TypeError):
        N.node_colour["1"] = "green"
    with pytest.raises(TypeError):
        N.internal_dim["yellow"] = 2
    assert N == two_type_network()
    assert ColouredNetwork(N.nodes, N.edges, N.internal_dim) == N


def test_inconsistent_input_multisets_reported():
    N = ColouredNetwork(
        nodes=[("1", "c"), ("2", "c")],
        edges=[("s1", "1", "1", "s"), ("s2", "2", "2", "s"),
               ("e", "1", "2", "b")])
    errors = validate_coloured_network(N)
    assert errors and any("multiset" in str(e) for e in errors)


def test_input_bijections_counts():
    N = two_type_network()
    # two same-coloured b slots at each yellow node: 2 bijections per pair
    assert len(input_bijections(N, "1", "2")) == 2
    # green nodes have three distinctly coloured slots: unique bijection
    assert len(input_bijections(N, "4", "5")) == 1


def test_symmetry_groupoid_size():
    N = two_type_network()
    # yellow: 3x3 ordered pairs x 2 bijections; green: 2x2 pairs x 1
    assert len(symmetry_groupoid(N)) == 9 * 2 + 4


def test_admissible_template_slot_order_is_canonical():
    N = two_type_network()
    tpl = AdmissibleTemplate.of(N)
    # slots sorted by edge colour then source: b, b, own-state loop
    assert [ec for ec, _ in tpl.slots["y"]] == ["b", "b", "sy"]
    assert [ec for ec, _ in tpl.slots["g"]] == ["o", "r", "sg"]


def test_response_family_instantiation_is_admissible():
    N = two_type_network()
    fam = random_response_family(N, seed=3)
    report = check_admissible(N, fam)
    assert report.ok
    collapsed = fam.instantiate()
    report2 = check_admissible(N, collapsed)
    assert not report2.dependency_errors and not report2.groupoid_errors


def test_non_symmetric_response_rejected():
    N = two_type_network()
    tpl = AdmissibleTemplate.of(N)
    ny = tpl.response_nvars(N, "y")
    ng = tpl.response_nvars(N, "g")
    # y response breaks the b-slot symmetry (slots 0 and 1 are both b)
    fy = PolyMap([Poly(ny, {tuple(int(i == 0) for i in range(ny)): 1})])
    fg = PolyMap([Poly.zero(ng)])
    fam = ResponseFamily(N, {"y": fy, "g": fg})
    report = check_admissible(N, fam)
    assert not report.ok and report.groupoid_errors


def test_dependency_violation_detected_on_collapsed_map():
    N = feedforward_pair_network()
    # component of node 1 depends on node 2, which is not an in-neighbour
    F = PolyMap([Poly(2, {(0, 1): 1}), Poly(2, {(1, 0): 1})])
    report = check_admissible(N, F)
    assert report.dependency_errors


def test_induced_subnetwork_map_matches_manual_substitution():
    rng = random.Random(5)
    N = feedforward_pair_network()
    f = random_poly(rng, 1, max_degree=3)    # response of node 1 (self only)
    g = random_poly(rng, 2, max_degree=3)    # response of node 2 (own, input)
    fam = ResponseFamily(N, {"c1": PolyMap([f]), "c2": PolyMap([g])})
    total = fam.instantiate()
    assert total.outputs[0].terms == f.embed(2, [0]).terms
    # node 2's slots in canonical order: (b edge from 1, own-state loop)
    assert total.outputs[1].terms == g.compose(
        [Poly.variable(2, 0), Poly.variable(2, 1)]).terms


def compose_instantiate(family, N):
    """The collapsed map of family on N, each response composed with the
    variables its slots read, as instantiate once built it."""
    tpl = AdmissibleTemplate.of(N)
    offsets, total = N.block_offsets(), N.total_dim()
    nvars = total + family.param_dim
    outputs = []
    for n in N.node_ids():
        c = N.node_colour[n]
        subs = [Poly.variable(nvars, offsets[s] + k)
                for (_, s, _, _), d in zip(N.in_edges(n), tpl.slot_dims(N, c))
                for k in range(d)]
        subs += [Poly.variable(nvars, total + l)
                 for l in range(family.param_dim)]
        outputs += [p.compose(subs) for p in family.responses[c].outputs]
    return outputs


@pytest.mark.parametrize("network", [feedforward_pair_network,
                                     feedforward_chain_network,
                                     two_type_network])
@pytest.mark.parametrize("induction", ["_subq_induction", "_quoq_induction"])
def test_instantiate_relabels_as_compose_did(network, induction, monkeypatch):
    N = network()
    families = [random_response_family(N, seed, param_dim=seed)
                for seed in (0, 1)]
    calls, of = Counter(), AdmissibleTemplate.of

    def counted(M):
        calls[id(M)] += 1
        return of(M)
    monkeypatch.setattr(AdmissibleTemplate, "of", staticmethod(counted))
    _, networks = getattr(builders, induction)(N)
    for family in families:
        for M in networks.values():
            got = family.instantiate(M).outputs
            assert list(got) == compose_instantiate(family, M)
    # compose_instantiate's own calls aside, one template per network
    assert {calls[id(M)] - 2 for M in networks.values()} == {1}
    assert calls[id(N)] == 0      # kept when the families were built


def test_admissibility_and_equivariance_maxima_start_from_float_zero():
    # reports print an int as "p/1", so a maximum over nothing, or over
    # exact zeros, stays the 0.0 that check-admissible has always printed
    N = two_type_network()
    F = random_response_family(N, seed=3).instantiate()
    rpt = check_admissible(N, F)
    assert rpt.ok
    assert type(rpt.max_residual) is float and rpt.max_residual == 0
    assert type(EquivarianceReport({}, True, "exact").max_residual()) is float
