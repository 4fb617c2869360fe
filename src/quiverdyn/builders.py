"""Quivers of subnetworks and quotient networks, with induced map tuples.

build_subq(N): one vertex per nonempty in-closed node subset, one arrow per
ordered containment pair (loops included), with 0/1 projection matrices that
forget the states outside the smaller subnetwork.

build_quoq(N): one vertex per quotient network (deduplicated up to
colour-preserving isomorphism), one arrow per distinct surjective graph
fibration between representatives, with 0/1 lifting matrices
x |-> (x_{phi(m)})_m. Parallel arrows arise when a fibration admits several
edge maps; all of them are emitted.

Admissible maps induce equivariant tuples on both quivers by instantiating
the same response family on every subnetwork / quotient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotAdmissible
from .network import ColouredNetwork, _natural_key, check_admissible
from .quiver import Quiver, QuiverRepresentation
from .tuples import PolyMapTuple


# --- subnetworks --------------------------------------------------------------

@dataclass
class SubnetworkLattice:
    """Nonempty in-closed node subsets with the containment partial order."""
    subsets: list  # of tuples of node ids, canonical order


def enumerate_subnetworks(N):
    """All nonempty node subsets closed under incoming edges.

    Canonical order: by size, then lexicographically by node ids.
    """
    node_ids = N.node_ids()
    in_sources = {n: {s for _, s, _, _ in N.in_edges(n)} for n in node_ids}
    subsets = []
    for r in range(1, len(node_ids) + 1):
        for combo in itertools.combinations(node_ids, r):
            cset = set(combo)
            if all(in_sources[n] <= cset for n in combo):
                subsets.append(tuple(sorted(combo, key=_natural_key)))
    subsets.sort(key=lambda s: (len(s), tuple(_natural_key(n) for n in s)))
    return SubnetworkLattice(subsets)


def subnetwork_network(N, subset):
    """The induced coloured network on an in-closed node subset."""
    sset = set(subset)
    nodes = [(n, c) for n, c in N.nodes if n in sset]
    edges = [(e, s, t, c) for e, s, t, c in N.edges if s in sset and t in sset]
    return ColouredNetwork(nodes, edges, N.internal_dim)


def subq_vertex_id(subset):
    return "+".join(subset)


def build_subq(N):
    """The quiver of subnetworks with its projection representation.

    Returns (quiver, representation, vertex_subsets) where vertex_subsets
    maps vertex id -> node tuple.
    """
    lattice = enumerate_subnetworks(N)
    vertex_subsets = {subq_vertex_id(s): s for s in lattice.subsets}
    arrows = []
    for big in lattice.subsets:
        for small in lattice.subsets:
            if set(small) <= set(big):
                arrows.append((f"{subq_vertex_id(big)}>{subq_vertex_id(small)}",
                               subq_vertex_id(big), subq_vertex_id(small)))
    quiver = Quiver(vertex_subsets.keys(), arrows)
    dim = {vid: sum(N.node_dim(n) for n in sub)
           for vid, sub in vertex_subsets.items()}
    matrices = {}
    for a, svid, tvid in arrows:
        big, small = vertex_subsets[svid], vertex_subsets[tvid]
        col_offsets = {}
        pos = 0
        for n in big:
            col_offsets[n] = pos
            pos += N.node_dim(n)
        rows = []
        for n in small:
            d = N.node_dim(n)
            for k in range(d):
                row = [Fraction(0)] * dim[svid]
                row[col_offsets[n] + k] = Fraction(1)
                rows.append(row)
        matrices[a] = rows
    rep = QuiverRepresentation(quiver, dim, matrices, mode="exact")
    return quiver, rep, vertex_subsets


def induce_on_subnetworks(N, family):
    """Instantiate an admissible response family on every subnetwork.

    Returns a PolyMapTuple on the SubQ representation; by construction it is
    exactly equivariant.
    """
    report = check_admissible(N, family)
    if not report.ok:
        raise NotAdmissible(
            "; ".join(str(e) for e in report.dependency_errors
                      + report.groupoid_errors))
    quiver, rep, vertex_subsets = build_subq(N)
    comps = {}
    for vid, subset in vertex_subsets.items():
        comps[vid] = family.instantiate(subnetwork_network(N, subset))
    return PolyMapTuple(rep, comps, family.param_dim)


# --- graph fibrations ---------------------------------------------------------

@dataclass(frozen=True)
class GraphFibration:
    """A colour- and input-preserving morphism of coloured networks."""
    source: ColouredNetwork
    target: ColouredNetwork
    node_map: tuple  # pairs (source node, target node)
    edge_map: tuple  # pairs (source edge, target edge)

    def node_dict(self):
        return dict(self.node_map)

    def edge_dict(self):
        return dict(self.edge_map)

    def is_surjective(self):
        return set(dict(self.node_map).values()) == set(self.target.node_ids())

    def verify(self):
        """Re-check both fibration conditions; returns a list of problems."""
        problems = []
        nm, em = self.node_dict(), self.edge_dict()
        src_colour = dict(self.source.nodes)
        tgt_colour = dict(self.target.nodes)
        tgt_edges = {e: (s, t, c) for e, s, t, c in self.target.edges}
        for e, s, t, c in self.source.edges:
            if e not in em:
                problems.append(f"edge {e!r} unmapped")
                continue
            s2, t2, c2 = tgt_edges[em[e]]
            if c2 != c or nm[s] != s2 or nm[t] != t2:
                problems.append(f"edge {e!r} not structure-preserving")
        for n in self.source.node_ids():
            if src_colour[n] != tgt_colour[nm[n]]:
                problems.append(f"node {n!r} changes colour")
            imgs = [em[e] for e, *_ in self.source.in_edges(n)]
            want = [e for e, *_ in self.target.in_edges(nm[n])]
            if sorted(imgs) != sorted(want):
                problems.append(f"input set of {n!r} not mapped bijectively")
        return problems


def enumerate_fibrations(N_src, N_dst, surjective_only=False):
    """All graph fibrations N_src -> N_dst, in canonical order.

    Backtracking over node images (nodes ordered by descending in-degree),
    pruning on colour and per-node input feasibility; every consistent node
    map is then expanded into all compatible edge bijections.
    """
    src_nodes = N_src.node_ids()
    dst_nodes = N_dst.node_ids()
    src_colour = dict(N_src.nodes)
    dst_colour = dict(N_dst.nodes)
    candidates = {n: [m for m in dst_nodes if dst_colour[m] == src_colour[n]]
                  for n in src_nodes}
    if any(not c for c in candidates.values()):
        return []
    order = sorted(src_nodes,
                   key=lambda n: (-len(N_src.in_edges(n)), _natural_key(n)))

    results = []
    assign = {}

    def groups_feasible(n):
        """Once n's image and all its in-sources' images are known, check
        that in-edge groups keyed by (colour, image of source) match."""
        m = assign[n]
        got = {}
        for e, s, _, c in N_src.in_edges(n):
            if s not in assign:
                return True  # defer
            got[(c, assign[s])] = got.get((c, assign[s]), 0) + 1
        want = {}
        for e, s, _, c in N_dst.in_edges(m):
            want[(c, s)] = want.get((c, s), 0) + 1
        return got == want

    def extend(i):
        if i == len(order):
            results.append(dict(assign))
            return
        n = order[i]
        for m in candidates[n]:
            assign[n] = m
            if all(groups_feasible(k) for k in assign):
                extend(i + 1)
            del assign[n]

    extend(0)

    fibrations = []
    for nm in sorted(results,
                     key=lambda d: tuple(_natural_key(d[n]) for n in src_nodes)):
        if surjective_only and set(nm.values()) != set(dst_nodes):
            continue
        # per node, enumerate edge bijections group by (colour, mapped source)
        per_node_choices = []
        feasible = True
        for n in src_nodes:
            groups_src, groups_dst = {}, {}
            for e, s, _, c in N_src.in_edges(n):
                groups_src.setdefault((c, nm[s]), []).append(e)
            for e, s, _, c in N_dst.in_edges(nm[n]):
                groups_dst.setdefault((c, s), []).append(e)
            if set(groups_src) != set(groups_dst) or any(
                    len(groups_src[k]) != len(groups_dst[k]) for k in groups_src):
                feasible = False
                break
            choices = []
            for key in sorted(groups_src):
                es, ed = groups_src[key], groups_dst[key]
                choices.append([tuple(zip(es, p))
                                for p in itertools.permutations(ed)])
            per_node_choices.append(choices)
        if not feasible:
            continue
        flat = [g for node_choices in per_node_choices for g in node_choices]
        for combo in itertools.product(*flat):
            em = tuple(sorted((pair for group in combo for pair in group),
                              key=lambda p: _natural_key(p[0])))
            fibrations.append(GraphFibration(
                N_src, N_dst,
                tuple(sorted(nm.items(), key=lambda p: _natural_key(p[0]))),
                em))
    return fibrations


# --- quotients ---------------------------------------------------------------

def _balanced_partitions(N):
    """All partitions of the node set whose classes are balanced.

    A partition is balanced when same-class nodes share a colour and have
    equal multisets of (edge colour, class of source) over their in-edges.
    """
    node_ids = N.node_ids()
    colour = dict(N.nodes)
    partitions = []

    def assign(i, blocks):
        if i == len(node_ids):
            partitions.append([tuple(b) for b in blocks])
            return
        n = node_ids[i]
        for b in blocks:
            if colour[b[0]] == colour[n]:
                b.append(n)
                assign(i + 1, blocks)
                b.pop()
        blocks.append([n])
        assign(i + 1, blocks)
        blocks.pop()

    assign(0, [])

    balanced = []
    for blocks in partitions:
        cls = {}
        for idx, b in enumerate(blocks):
            for n in b:
                cls[n] = idx
        ok = True
        for b in blocks:
            sigs = set()
            for n in b:
                sig = tuple(sorted((c, cls[s]) for _, s, _, c in N.in_edges(n)))
                sigs.add(sig)
            if len(sigs) > 1:
                ok = False
                break
        if ok:
            balanced.append(blocks)
    return balanced


def quotient_network(N, blocks):
    """The quotient network of a balanced partition.

    Classes are labelled 1..k in order of their minimal original node id; the
    in-edges of each class are those of its minimal-id representative with
    sources relabelled to classes. Returns (network, node_map) where node_map
    sends original nodes to class labels.
    """
    blocks = sorted((sorted(b, key=_natural_key) for b in blocks),
                    key=lambda b: _natural_key(b[0]))
    label = {}
    for idx, b in enumerate(blocks, start=1):
        for n in b:
            label[n] = str(idx)
    colour = dict(N.nodes)
    nodes = [(str(i + 1), colour[b[0]]) for i, b in enumerate(blocks)]
    edges = []
    eid = 1
    for i, b in enumerate(blocks, start=1):
        rep = b[0]
        for _, s, _, c in N.in_edges(rep):
            edges.append((f"e{eid}", label[s], str(i), c))
            eid += 1
    Q = ColouredNetwork(nodes, edges, N.internal_dim)
    return Q, {n: label[n] for n in N.node_ids()}


def _canonical_network_form(N):
    """Minimal encoding over colour-preserving node permutations."""
    node_ids = N.node_ids()
    colour = dict(N.nodes)
    by_colour = {}
    for n in node_ids:
        by_colour.setdefault(colour[n], []).append(n)
    colours = sorted(by_colour)
    best = None
    for perms in itertools.product(
            *[itertools.permutations(by_colour[c]) for c in colours]):
        relabel = {}
        new_names = {}
        idx = 0
        for c, perm in zip(colours, perms):
            for n in perm:
                relabel[n] = idx
                idx += 1
        node_part = tuple(sorted((relabel[n], colour[n]) for n in node_ids))
        edge_part = tuple(sorted((relabel[s], relabel[t], c)
                                 for _, s, t, c in N.edges))
        enc = (node_part, edge_part)
        if best is None or enc < best:
            best = enc
    return best


@dataclass
class QuotientCatalog:
    """Quotients of a network up to colour-preserving isomorphism."""
    base: ColouredNetwork
    quotients: list      # of ColouredNetwork (canonical representatives)
    witnesses: list      # parallel list of node maps base -> quotient


def enumerate_quotients(N):
    """All quotient networks, deduplicated up to colour-preserving iso.

    Representatives come from balanced partitions with classes labelled by
    minimal original node id. Order: by node count descending (the trivial
    quotient N itself first), then by canonical encoding.
    """
    seen = {}
    entries = []
    for blocks in _balanced_partitions(N):
        Q, node_map = quotient_network(N, blocks)
        key = _canonical_network_form(Q)
        if key in seen:
            continue
        seen[key] = True
        entries.append((Q, node_map, key))
    entries.sort(key=lambda t: (-len(t[0].nodes), t[2]))
    return QuotientCatalog(N, [e[0] for e in entries], [e[1] for e in entries])


def build_quoq(N):
    """The quiver of quotient networks with its lifting representation.

    Returns (quiver, representation, catalog, arrow_fibrations) where
    arrow_fibrations maps arrow id -> GraphFibration phi with
    s(arrow) = codomain of phi and t(arrow) = domain of phi.
    """
    catalog = enumerate_quotients(N)
    k = len(catalog.quotients)
    width = max(2, len(str(k)))
    vids = [f"q{str(i + 1).zfill(width)}" for i in range(k)]
    networks = dict(zip(vids, catalog.quotients))
    arrows = []
    matrices = {}
    arrow_fibrations = {}
    for svid in vids:          # s(a) = N' (codomain of phi)
        for tvid in vids:      # t(a) = N'' (domain of phi)
            fibs = enumerate_fibrations(networks[tvid], networks[svid],
                                        surjective_only=True)
            for idx, phi in enumerate(fibs, start=1):
                aid = f"{svid}>{tvid}#{idx}"
                arrows.append((aid, svid, tvid))
                arrow_fibrations[aid] = phi
                matrices[aid] = _lifting_matrix(networks[svid],
                                                networks[tvid],
                                                phi.node_dict())
    quiver = Quiver(vids, arrows)
    dim = {vid: networks[vid].total_dim() for vid in vids}
    rep = QuiverRepresentation(quiver, dim, matrices, mode="exact")
    return quiver, rep, catalog, arrow_fibrations


def _lifting_matrix(N_small, N_big, node_map):
    """Matrix of x |-> (x_{phi(m)})_{m in N_big} for phi: N_big -> N_small."""
    col_offsets = N_small.block_offsets()
    rows = []
    for m in N_big.node_ids():
        d = N_big.node_dim(m)
        img = node_map[m]
        for r in range(d):
            row = [Fraction(0)] * N_small.total_dim()
            row[col_offsets[img] + r] = Fraction(1)
            rows.append(row)
    return rows


def induce_on_quotients(N, family):
    """Instantiate an admissible response family on every quotient.

    Returns a PolyMapTuple on the QuoQ representation; equivariance follows
    from the lifting construction and is exact.
    """
    report = check_admissible(N, family)
    if not report.ok:
        raise NotAdmissible(
            "; ".join(str(e) for e in report.dependency_errors
                      + report.groupoid_errors))
    quiver, rep, catalog, _ = build_quoq(N)
    k = len(catalog.quotients)
    width = max(2, len(str(k)))
    comps = {}
    for i, Q in enumerate(catalog.quotients):
        vid = f"q{str(i + 1).zfill(width)}"
        comps[vid] = family.instantiate(Q)
    return PolyMapTuple(rep, comps, family.param_dim)
