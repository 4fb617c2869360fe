"""Subnetwork and quotient quivers, graph fibrations, induced tuples."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (brute_balanced_partitions, brute_canonical_network_form,
                     brute_enumerate_fibrations, brute_enumerate_subnetworks,
                     brute_quotients, feedforward_pair_network,
                     feedforward_chain_network, isolated_network,
                     pairwise_quoq, random_response_family, ring_network,
                     time_limit, two_colour_8_network, two_colour_network,
                     two_type_network)
from quiverdyn import builders
from quiverdyn.builders import (ARROW_CAP, FIBRATION_CAP, _balanced_partitions,
                                _canonical_network_form, build_quoq,
                                build_subq, enumerate_fibrations,
                                enumerate_quotients, enumerate_subnetworks,
                                induce_on_quotients, induce_on_subnetworks,
                                quotient_network, subnetwork_network)
from quiverdyn.errors import SizeOverflow
from quiverdyn.network import ColouredNetwork
from quiverdyn.quiver import validate_representation
from quiverdyn.tuples import bracket_tuple, check_equivariance, compose_tuple


@pytest.mark.parametrize("makenet", [feedforward_pair_network, feedforward_chain_network,
                                     two_type_network])
def test_subnetworks_match_brute_force_oracle(makenet):
    N = makenet()
    assert enumerate_subnetworks(N).subsets == brute_enumerate_subnetworks(N)


@pytest.mark.parametrize("n", [30, 100])
def test_ring_subq_in_bounded_time(n):
    with time_limit(1):
        quiver, _, subsets = build_subq(ring_network(n))
    # the ring is strongly connected, so its only in-closed subset is itself
    assert list(subsets.values()) == [tuple(str(i) for i in range(1, n + 1))]
    assert len(quiver.arrows) == 1


def test_subnetwork_cap_raises_in_bounded_time():
    # 2^20 - 1 in-closed subsets, far above the cap
    with time_limit(1), pytest.raises(SizeOverflow):
        build_subq(isolated_network(20))


@pytest.mark.parametrize("n", [7, 8])
def test_fibration_cap_raises_in_bounded_time(n):
    # n^n self-maps, and at n = 7 more than 50,000 quotient arrows: both
    # searches stop at the fibration cap long before they would finish
    N = isolated_network(n)
    with time_limit(1), pytest.raises(SizeOverflow, match="fibrations"):
        enumerate_fibrations(N, N)
    with time_limit(1), pytest.raises(SizeOverflow, match="fibrations"):
        build_quoq(N)


def test_quoq_arrow_cap_raises_in_bounded_time():
    # at n = 6 each search stays under the fibration cap, and the arrows of
    # the whole build pass the arrow cap
    with time_limit(1), pytest.raises(SizeOverflow, match="arrows"):
        build_quoq(isolated_network(6))


def test_partition_cap_raises_in_bounded_time():
    # 115,975 balanced partitions, every one of them a quotient to build
    N = isolated_network(10)
    with time_limit(1), pytest.raises(SizeOverflow, match="partitions"):
        enumerate_quotients(N)
    with time_limit(1), pytest.raises(SizeOverflow, match="partitions"):
        build_quoq(N)


def test_chain_subq_shape():
    N = feedforward_chain_network()
    quiver, rep, subsets = build_subq(N)
    assert len(quiver.vertices) == 5
    # chain under inclusion: one arrow per ordered containment pair
    assert len(quiver.arrows) == 15
    assert validate_representation(rep) == []
    # every matrix is an exact 0/1 selection
    for a, _, _ in quiver.arrows:
        M = rep.arrow_matrix[a]
        assert all(x in (Fraction(0), Fraction(1)) for row in M for x in row)
        assert all(sum(row) == 1 for row in M)


def test_subnetwork_network_keeps_induced_edges_only():
    N = feedforward_chain_network()
    sub = subnetwork_network(N, ("1", "2"))
    assert sub.node_ids() == ["1", "2"]
    assert {e for e, *_ in sub.edges} == {"s1", "s2", "e1"}


def test_two_type_quotients_partitions():
    N = two_type_network()
    catalog = enumerate_quotients(N)
    partitions = set()
    for witness in catalog.witnesses:
        classes = {}
        for node, cls in witness.items():
            classes.setdefault(cls, set()).add(node)
        partitions.add(frozenset(frozenset(c) for c in classes.values()))

    def P(*groups):
        merged = set()
        singles = {"1", "2", "3", "4", "5"}
        for g in groups:
            merged.add(frozenset(g))
            singles -= set(g)
        merged |= {frozenset({n}) for n in singles}
        return frozenset(merged)

    assert partitions == {
        P(),                          # trivial quotient (the network itself)
        P({"1", "3"}),
        P({"1", "2"}),
        P({"1", "2", "3"}),
        P({"1", "3"}, {"4", "5"}),
        P({"1", "2", "3"}, {"4", "5"}),
    }


def test_quotient_network_is_colour_consistent():
    from quiverdyn.network import validate_coloured_network
    N = two_type_network()
    catalog = enumerate_quotients(N)
    for Q in catalog.quotients:
        assert validate_coloured_network(Q) == []


def brute_force_fibrations(N_src, N_dst):
    """Oracle: try every node map and every edge map, filter morphisms."""
    src_nodes = N_src.node_ids()
    dst_nodes = N_dst.node_ids()
    count = 0
    src_edges = list(N_src.edges)
    for images in itertools.product(dst_nodes, repeat=len(src_nodes)):
        nm = dict(zip(src_nodes, images))
        if any(N_src.node_colour[n] != N_dst.node_colour[nm[n]]
               for n in src_nodes):
            continue
        # per-node input bijection: edges into n -> edges into nm[n]
        per_node_choices = []
        ok = True
        for n in src_nodes:
            ins = N_src.in_edges(n)
            outs = N_dst.in_edges(nm[n])
            if len(ins) != len(outs):
                ok = False
                break
            choices = []
            for perm in itertools.permutations(outs):
                if all(ec == pec and nm[s] == ps
                       for (_, s, _, ec), (_, ps, _, pec) in zip(ins, perm)):
                    choices.append(perm)
            if not choices:
                ok = False
                break
            per_node_choices.append(choices)
        if ok:
            count += len(list(itertools.product(*per_node_choices)))
    return count


def test_fibration_enumeration_matches_brute_force():
    N2 = feedforward_pair_network()
    N5 = two_type_network()
    assert len(enumerate_fibrations(N2, N2)) == brute_force_fibrations(N2, N2)
    assert len(enumerate_fibrations(N5, N5)) == brute_force_fibrations(N5, N5)
    catalog = enumerate_quotients(N5)
    small = catalog.quotients[-1]
    assert len(enumerate_fibrations(N5, small)) == \
        brute_force_fibrations(N5, small)


def test_fibrations_verify_structurally():
    N = two_type_network()
    for f in enumerate_fibrations(N, N):
        assert f.verify() == []


@st.composite
def coloured_networks(draw):
    """Networks of 1-7 nodes in 1-3 colours: random in-degree 0-3, in-degree
    2, or a ring with self edges and at most one extra input per node. Edge
    colours name their end colours, so same-coloured edges join
    same-coloured nodes."""
    n = draw(st.integers(1, 7))
    palette = "xyz"[:draw(st.integers(1, 3))]
    colours = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    shape = draw(st.sampled_from(["random", "in-degree 2", "ring"]))
    node = st.integers(0, n - 1)
    edges = []
    for t in range(n):
        if shape == "ring":
            sources = [t, (t - 1) % n] + draw(st.lists(node, max_size=1))
        else:
            degree = 2 if shape == "in-degree 2" else draw(st.integers(0, 3))
            sources = draw(st.lists(node, min_size=degree, max_size=degree))
        for j, s in enumerate(sources):
            kind = draw(st.integers(0, 1)) if shape == "random" else j
            edges.append((f"e{len(edges)}", str(s + 1), str(t + 1),
                          f"{colours[s]}{colours[t]}{kind}"))
    return ColouredNetwork([(str(i + 1), c) for i, c in enumerate(colours)],
                           edges)


# random-9-1 of the quotient-enum benchmark, as drawn and with its nodes
# permuted. Both have 3 balanced partitions; a balance check that compares
# each node only with the first other member of its class finds 8 and 7,
# because members whose multisets are fixed at different steps are then
# never compared with each other.
RANDOM_9_1 = two_colour_network("yggyygyyg", [8, 7, 2, 8, 1, 1, 4, 6, 9])


def relabelled(N, new_ids):
    """N with node i renamed new_ids[i - 1] (nodes named 1..n)."""
    nm = {str(i): str(j) for i, j in enumerate(new_ids, start=1)}
    return ColouredNetwork([(nm[n], c) for n, c in N.nodes],
                           [(e, nm[s], nm[t], c) for e, s, t, c in N.edges])


RANDOM_9_1_PERMUTED = relabelled(RANDOM_9_1, [8, 7, 9, 3, 1, 5, 4, 6, 2])

# one node with seven parallel self edges: one node map, 7! = 5040 edge
# bijections, past the fibration cap
SEVEN_PARALLEL = ColouredNetwork(
    [("1", "x")], [(f"e{i}", "1", "1", "xx0") for i in range(7)])


def node_maps(A, B):
    """Number of colour-preserving node maps A -> B."""
    return math.prod(sum(B.node_colour[m] == c for m in B.node_ids())
                     for c in A.node_colour.values())


@settings(max_examples=150, deadline=None)
@given(coloured_networks())
@example(RANDOM_9_1)
@example(RANDOM_9_1_PERMUTED)
@example(two_type_network())   # node 1 takes b from 2 and 3
@example(SEVEN_PARALLEL)
def test_quotient_searches_match_brute_force_oracles(N):
    key, order = _canonical_network_form(N)
    assert key == brute_canonical_network_form(N)
    # the labelling returned with the key gives that encoding
    label = {n: i for i, n in enumerate(order)}
    assert key == (tuple(sorted((label[n], c) for n, c in N.nodes)),
                   tuple(sorted((label[s], label[t], c)
                                for _, s, t, c in N.edges)))
    assert _balanced_partitions(N) == brute_balanced_partitions(N)
    catalog = enumerate_quotients(N)
    assert (catalog.quotients, catalog.witnesses) == brute_quotients(N)
    # N with each quotient both ways, and every ordered pair of quotients,
    # which is what the pairwise oracle of build_quoq searches
    pairs = [(A, B) for Q in catalog.quotients for A, B in ((N, Q), (Q, N))]
    for A, B in pairs + list(itertools.product(catalog.quotients, repeat=2)):
        if node_maps(A, B) > 2000:
            continue
        for surjective in (False, True):
            want = brute_enumerate_fibrations(A, B, surjective)
            if len(want) > FIBRATION_CAP:
                # parallel edges can multiply the edge bijections past the cap
                with pytest.raises(SizeOverflow):
                    enumerate_fibrations(A, B, surjective)
                continue
            got = enumerate_fibrations(A, B, surjective)
            assert [(f.node_map, f.edge_map) for f in got] == \
                [(f.node_map, f.edge_map) for f in want]


@settings(max_examples=100, deadline=None)
@given(coloured_networks())
@example(two_type_network())
@example(two_colour_8_network())
@example(RANDOM_9_1)
@example(ring_network(4))
@example(ring_network(5))
@example(ring_network(6))
@example(ring_network(7))
@example(ring_network(8))
def test_quoq_matches_pairwise_fibration_search(N):
    # the arrows read from the partition lattice are the fibrations found
    # by a search on every ordered pair of quotients: same ids, same order
    try:
        quiver, matrices, fibrations = pairwise_quoq(N)
    except SizeOverflow:
        with pytest.raises(SizeOverflow):
            build_quoq(N)
        return
    got, rep, _, got_fibrations = build_quoq(N)
    assert got == quiver
    assert rep.arrow_matrix == matrices
    assert [(a, f.node_map, f.edge_map) for a, f in got_fibrations.items()] \
        == [(a, f.node_map, f.edge_map) for a, f in fibrations.items()]


def test_quoq_searches_each_quotient_once_for_its_automorphisms(monkeypatch):
    calls = []

    def counted(A, B, surjective_only=False):
        calls.append((A, B, surjective_only))
        return enumerate_fibrations(A, B, surjective_only)
    monkeypatch.setattr(builders, "enumerate_fibrations", counted)
    for N in (two_type_network(), two_colour_8_network(), RANDOM_9_1,
              ring_network(8)):
        calls.clear()
        catalog = build_quoq(N)[2]
        searched = [A for A, B, surjective in calls
                    if A is B and surjective]
        assert len(searched) == len(calls)
        assert sorted(map(id, searched)) == sorted(map(id, catalog.quotients))


@settings(max_examples=150, deadline=None)
@given(coloured_networks())
@example(two_colour_8_network())
def test_subnetworks_match_brute_force_oracle_on_random_networks(N):
    assert enumerate_subnetworks(N).subsets == brute_enumerate_subnetworks(N)


@pytest.mark.parametrize("n,seconds", [(10, 1), (14, 10)])
def test_ring_quoq_in_bounded_time(n, seconds):
    with time_limit(seconds):
        quiver, _, _, _ = build_quoq(ring_network(n))
    # one quotient per divisor d of n: the ring of d nodes
    assert len(quiver.vertices) == sum(n % d == 0 for d in range(1, n + 1))


def test_two_type_quoq_shape():
    N = two_type_network()
    quiver, rep, catalog, arrow_fibs = build_quoq(N)
    assert len(quiver.vertices) == 6
    assert validate_representation(rep) == []
    for a, s, t in quiver.arrows:
        fib = arrow_fibs[a]
        assert set(fib.node_dict().values()) == set(fib.target.node_ids())
        assert fib.verify() == []


def test_induced_tuples_are_exactly_equivariant():
    for makenet in (feedforward_pair_network, feedforward_chain_network, two_type_network):
        N = makenet()
        fam = random_response_family(N, seed=17, max_degree=2)
        for induce in (induce_on_subnetworks, induce_on_quotients):
            F = induce(N, fam)
            assert check_equivariance(F, mode="exact").passed


def test_composition_and_bracket_of_induced_tuples():
    N = feedforward_pair_network()
    F = induce_on_subnetworks(N, random_response_family(N, 1, max_degree=2))
    G = induce_on_subnetworks(N, random_response_family(N, 2, max_degree=2))
    assert check_equivariance(compose_tuple(F, G), mode="exact").passed
    assert check_equivariance(bracket_tuple(F, G), mode="exact").passed


def test_induced_tuples_share_the_kept_representation():
    # the first induction keeps the quiver on N; later ones reuse it, and
    # with it the generating arrows of the first exact check
    for N, induce in ((feedforward_chain_network(), induce_on_subnetworks),
                      (two_type_network(), induce_on_quotients)):
        F = induce(N, random_response_family(N, 1, max_degree=2))
        G = induce(N, random_response_family(N, 2, max_degree=2))
        assert G.representation is F.representation
        assert check_equivariance(F, mode="exact").passed
        assert "generating_arrows" in vars(G.representation)
        assert check_equivariance(G, mode="exact").passed


def test_builds_called_directly_are_fresh():
    N = two_type_network()
    F = induce_on_quotients(N, random_response_family(N, 1, max_degree=2))
    for build in (build_subq, build_quoq):
        reps = [build(N)[1] for _ in range(2)]
        assert reps[0] is not reps[1] and F.representation not in reps
        assert reps[0].quiver == reps[1].quiver
        assert reps[0].arrow_matrix == reps[1].arrow_matrix


@pytest.mark.parametrize("n, induce, cap", [
    (20, induce_on_subnetworks, "in-closed subsets"),
    (6, induce_on_quotients, f"more than {ARROW_CAP} arrows"),
    (10, induce_on_quotients, "partitions")],
    ids=["subset-cap", "arrow-cap", "partition-cap"])
def test_induction_whose_build_raises_keeps_nothing(n, induce, cap):
    N = isolated_network(n)
    family = random_response_family(N, 1, max_degree=2)
    before = dict(vars(N))
    for _ in range(2):
        with time_limit(1), pytest.raises(SizeOverflow, match=cap):
            induce(N, family)
        assert vars(N) == before
