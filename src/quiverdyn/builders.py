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
the same response family on every subnetwork / quotient. The first
induction on a network keeps the representation and the vertex networks on
it, so every tuple induced on one network shares one representation (and
its generating arrows, computed at the first exact check). build_subq and
build_quoq build afresh on every call and keep nothing.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .errors import NotAdmissible, SizeOverflow
from .network import (ColouredNetwork, _kept, _natural_key,
                      check_admissible)
from .quiver import Quiver, QuiverRepresentation, selection_matrix
from .tuples import PolyMapTuple


SUBSET_CAP = 1024      # in-closed subsets enumerate_subnetworks may return
FIBRATION_CAP = 4096   # node maps or fibrations enumerate_fibrations may find
ARROW_CAP = 1024       # arrows build_quoq may emit
PARTITION_CAP = 8192   # balanced partitions enumerate_quotients may find


def _require_admissible(N, family):
    """Raise NotAdmissible, naming every error, unless family fits N."""
    report = check_admissible(N, family)
    if not report.ok:
        raise NotAdmissible(
            "; ".join(str(e) for e in report.dependency_errors
                      + report.groupoid_errors))


def _induce(N, family, name, build):
    """family instantiated on each vertex network of N's kept quiver.

    build(N) gives the representation and a dict vertex id -> network.
    """
    _require_admissible(N, family)
    rep, networks = _kept(N, name, build)
    comps = {vid: family.instantiate(M) for vid, M in networks.items()}
    return PolyMapTuple(rep, comps, family.param_dim)


# --- subnetworks --------------------------------------------------------------

@dataclass
class SubnetworkLattice:
    """Nonempty in-closed node subsets with the containment partial order."""
    subsets: list  # of tuples of node ids, canonical order


def enumerate_subnetworks(N):
    """All nonempty node subsets closed under incoming edges: the down-sets
    of the condensation of N under "feeds". Its components (nodes with equal
    ancestor sets) are taken by ancestor count, a topological order, and
    each down-set found so far also grows by a component whose feeders it
    holds. Raises SizeOverflow above SUBSET_CAP subsets. Canonical order:
    by size, then lexicographically by node ids.
    """
    feeds = {n: {s for _, s, _, _ in N.in_edges(n)} for n in N.node_ids()}
    components = {}   # ancestor set (self included) -> component
    for n in feeds:
        seen, stack = {n}, [n]
        while stack:
            for s in feeds[stack.pop()] - seen:
                seen.add(s)
                stack.append(s)
        components.setdefault(frozenset(seen), set()).add(n)
    downsets = [frozenset()]
    for ancestors in sorted(components, key=len):
        comp = components[ancestors]
        needs = set().union(*(feeds[n] for n in comp)) - comp
        downsets += [d | comp for d in downsets if needs <= d]
        if len(downsets) > SUBSET_CAP + 1:
            raise SizeOverflow(f"more than {SUBSET_CAP} in-closed subsets")
    subsets = [tuple(sorted(d, key=_natural_key)) for d in downsets[1:]]
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
    members = [(v, sub, frozenset(sub)) for v, sub in vertex_subsets.items()]
    dim = {vid: sum(N.node_dim(n) for n in sub)
           for vid, sub in vertex_subsets.items()}
    arrows, matrices = [], {}
    for bvid, big, big_set in members:
        col_offsets = dict(zip(big, itertools.accumulate(
            (N.node_dim(n) for n in big[:-1]), initial=0)))
        for svid, small, small_set in members:
            if small_set <= big_set:
                a = f"{bvid}>{svid}"
                arrows.append((a, bvid, svid))
                matrices[a] = selection_matrix(
                    [col_offsets[n] + k
                     for n in small for k in range(N.node_dim(n))],
                    dim[bvid])
    quiver = Quiver(vertex_subsets.keys(), arrows)
    rep = QuiverRepresentation(quiver, dim, matrices, mode="exact")
    return quiver, rep, vertex_subsets


def _subq_induction(N):
    _, rep, vertex_subsets = build_subq(N)
    return rep, {vid: subnetwork_network(N, subset)
                 for vid, subset in vertex_subsets.items()}


def induce_on_subnetworks(N, family):
    """Instantiate an admissible response family on every subnetwork.

    Returns a PolyMapTuple on the SubQ representation, the one kept on N
    since its first induction; by construction it is exactly equivariant.
    """
    return _induce(N, family, "_subq", _subq_induction)


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


class _FibrationSearch:
    """One network's data for enumerate_fibrations, as source and target.

    `order` is breadth-first backward along in-edges, from each node not
    yet placed in (in-degree descending, natural key) order; `via` holds
    the node and edge colour a node was reached through, None for a root.
    `sources` holds each node's distinct sources by (edge colour, source
    colour), and `groups` its in-edges by (edge colour, source).
    """

    def __init__(self, N):
        nodes = N.node_ids()
        colour = N.node_colour
        ins = {n: N.in_edges(n) for n in nodes}
        self.inputs = {n: [(s, c) for _, s, _, c in ins[n]] for n in nodes}
        self.want = {m: sorted((c, s) for s, c in self.inputs[m])
                     for m in nodes}
        self.colour_count = Counter(colour.values())
        self.by_colour, self.sources, self.groups = {}, {}, {}
        for m in nodes:
            self.by_colour.setdefault(colour[m], []).append(m)
            self.sources[m], self.groups[m] = {}, {}
            for e, s, _, c in ins[m]:
                srcs = self.sources[m].setdefault((c, colour[s]), [])
                if s not in srcs:
                    srcs.append(s)
                self.groups[m].setdefault((c, s), []).append(e)
        self.order, self.via = [], {}
        for root in sorted(nodes, key=lambda n: (-len(ins[n]),
                                                 _natural_key(n))):
            if root in self.via:
                continue
            self.via[root] = None
            queue = [root]
            for t in queue:
                for s, c in self.inputs[t]:
                    if s not in self.via:
                        self.via[s] = (t, c)
                        queue.append(s)
            self.order += queue
        pos = {n: i for i, n in enumerate(self.order)}
        self.checked_at = [[] for _ in nodes]  # nodes step i completes
        for n in nodes:
            self.checked_at[max([pos[n]] + [pos[s] for s, _ in
                                            self.inputs[n]])].append(n)


def _fibration_search(N):
    """N's search data, built once and kept on N."""
    return _kept(N, "_fibrations", _FibrationSearch)


def enumerate_fibrations(N_src, N_dst, surjective_only=False):
    """All graph fibrations N_src -> N_dst, in canonical order.

    Backtracking over node images in the source's `order`. A fibration maps
    t's inputs bijectively onto phi(t)'s, so a node reached through t by an
    edge of colour c takes an image among the sources of phi(t)'s c-coloured
    in-edges that have its colour; a root takes any node of its colour. A
    node's inputs, grouped by (edge colour, image of source), are checked
    once, at the step that gives the last of it and its in-sources an image.
    With surjective_only, a branch ends once the unassigned nodes of a
    colour are fewer than the target nodes of that colour not yet hit.
    Every node map found is expanded into all compatible edge bijections.
    Raises SizeOverflow as soon as more than FIBRATION_CAP node maps or
    fibrations are found.
    """
    src, dst = _fibration_search(N_src), _fibration_search(N_dst)
    if any(c not in dst.by_colour for c in src.colour_count):
        return []
    left = Counter(src.colour_count)    # unassigned source nodes
    unhit = Counter(dst.colour_count)   # target nodes without a preimage
    if surjective_only and any(left[c] < k for c, k in unhit.items()):
        return []
    src_colour = N_src.node_colour
    inputs, want = src.inputs, dst.want
    results, assign, hits = [], {}, Counter()

    def extend(i):
        if i == len(src.order):
            results.append(dict(assign))
            if len(results) > FIBRATION_CAP:
                raise SizeOverflow(f"more than {FIBRATION_CAP} fibrations")
            return
        n = src.order[i]
        colour = src_colour[n]
        link = src.via[n]
        candidates = dst.by_colour[colour] if link is None else \
            dst.sources[assign[link[0]]].get((link[1], colour), ())
        left[colour] -= 1
        for m in candidates:
            hits[m] += 1
            if hits[m] == 1:
                unhit[colour] -= 1
            if not (surjective_only and unhit[colour] > left[colour]):
                assign[n] = m
                if all(sorted([(c, assign[s]) for s, c in inputs[k]])
                       == want[assign[k]] for k in src.checked_at[i]):
                    extend(i + 1)
                del assign[n]
            hits[m] -= 1
            if not hits[m]:
                unhit[colour] += 1
        left[colour] += 1

    extend(0)

    src_nodes = N_src.node_ids()
    fibrations = []
    for nm in sorted(results,
                     key=lambda d: tuple(_natural_key(d[n]) for n in src_nodes)):
        # per node, the edge bijections of each (colour, mapped source) group
        flat = []
        for n in src_nodes:
            groups_src = {}
            for e, s, _, c in N_src.in_edges(n):
                groups_src.setdefault((c, nm[s]), []).append(e)
            for key in sorted(groups_src):
                flat.append([tuple(zip(groups_src[key], p)) for p in
                             itertools.permutations(dst.groups[nm[n]][key])])
        node_map = tuple(sorted(nm.items(), key=lambda p: _natural_key(p[0])))
        for combo in itertools.product(*flat):
            em = tuple(sorted((pair for group in combo for pair in group),
                              key=lambda p: _natural_key(p[0])))
            fibrations.append(GraphFibration(N_src, N_dst, node_map, em))
            if len(fibrations) > FIBRATION_CAP:
                raise SizeOverflow(f"more than {FIBRATION_CAP} fibrations")
    return fibrations


# --- quotients ---------------------------------------------------------------

def _balanced_partitions(N):
    """All partitions of the node set whose classes are balanced.

    A partition is balanced when same-class nodes share a colour and have
    equal multisets of (edge colour, class of source) over their in-edges.
    Nodes are placed in node order, each into an earlier class of its colour
    or a new one, so partitions come in restricted-growth order. A node's
    multiset is fixed once it and all its in-sources are placed; at that
    step it is compared with every member of its class whose multiset is
    already fixed, and the branch ends at the first difference. Raises
    SizeOverflow as soon as more than PARTITION_CAP partitions are found.
    """
    node_ids = N.node_ids()
    colour = N.node_colour
    index = {n: i for i, n in enumerate(node_ids)}
    inputs = {n: [(s, c) for _, s, _, c in N.in_edges(n)] for n in node_ids}
    fixed_at = [[] for _ in node_ids]   # nodes whose multiset step i fixes
    for n in node_ids:
        fixed_at[max([index[n]] + [index[s] for s, _ in inputs[n]])].append(n)
    blocks = []
    cls = {}
    sig = {}
    partitions = []

    def balanced(i):
        for n in fixed_at[i]:
            sig_n = sorted((c, cls[s]) for s, c in inputs[n])
            if any(sig.get(m, sig_n) != sig_n for m in blocks[cls[n]]):
                return False
            sig[n] = sig_n
        return True

    def place(i):
        if i == len(node_ids):
            if len(partitions) == PARTITION_CAP:
                raise SizeOverflow(
                    f"more than {PARTITION_CAP} balanced partitions")
            partitions.append([tuple(b) for b in blocks])
            return
        n = node_ids[i]
        for k in range(len(blocks) + 1):
            if k == len(blocks):
                blocks.append([])
            elif colour[blocks[k][0]] != colour[n]:
                continue
            blocks[k].append(n)
            cls[n] = k
            if balanced(i):
                place(i + 1)
            for m in fixed_at[i]:
                sig.pop(m, None)
            blocks[k].pop()
            if not blocks[k]:
                blocks.pop()
        del cls[n]

    place(0)
    return partitions


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
    """Minimal encoding over colour-preserving node relabellings.

    Labels 0..n-1 go to the colours in sorted order, so node_part is the
    same for every relabelling; edge_part is the sorted tuple of (source
    label, target label, edge colour), and the least one is returned. A
    depth-first search places the labels in turn. With labels 0..k-1
    placed, edge_part begins with a fixed prefix: each labelled source in
    turn with its edges into labelled targets, up to the first source that
    still has an unlabelled target. Every later entry exceeds `bound`,
    (s, k) for that source s or (k,) if there is none. A branch is cut when
    its prefix exceeds the best encoding's, or equals it while the best's
    next entry lies below `bound`. Swapping two twins (same colour and the
    same in-, out- and self-edges) is an automorphism, so one node per twin
    class is tried at each label.
    """
    node_ids = N.node_ids()
    colour = N.node_colour
    slots = sorted(colour[n] for n in node_ids)   # colour of each label
    pool = {c: [n for n in node_ids if colour[n] == c] for c in set(slots)}
    out = {n: [] for n in node_ids}     # (target, colour), self-edges too
    ins = {n: [] for n in node_ids}     # (source, colour), self-edges too
    for _, s, t, c in N.edges:
        out[s].append((t, c))
        ins[t].append((s, c))
    classes = {}
    twin = {n: classes.setdefault(
        (colour[n], tuple(sorted(c for t, c in out[n] if t == n)),
         tuple(sorted((c, s) for s, c in ins[n] if s != n)),
         tuple(sorted((c, t) for t, c in out[n] if t != n))), len(classes))
        for n in node_ids}   # twin class number of each node
    open_out = {n: len(out[n]) for n in node_ids}  # edges to unlabelled nodes
    label = {}
    order = []
    prefix = []
    best = None

    def search(k, stop):
        """Labels 0..k-1 are placed; `stop` is the first source whose
        prefix entries are incomplete (k if there is none)."""
        nonlocal best
        if k == len(node_ids):
            best = list(prefix)
            return
        tried = []
        for v in pool[slots[k]]:
            if v in label or twin[v] in tried:
                continue
            tried.append(twin[v])
            label[v] = k
            order.append(v)
            for u, _ in ins[v]:
                open_out[u] -= 1
            mark = len(prefix)
            s = stop
            while s <= k:
                u = order[s]
                if s == stop and s < k:
                    # only its edges into the new label k are missing
                    prefix.extend((s, k, c) for c in sorted(
                        c for t, c in out[u] if t == v))
                else:
                    prefix.extend((s,) + e for e in sorted(
                        (label[t], c) for t, c in out[u] if t in label))
                if open_out[u]:
                    break
                s += 1
            bound = (s, k + 1) if s <= k else (k + 1,)
            m = len(prefix)
            if best is None or prefix < best[:m] or (
                    prefix == best[:m] and m < len(best) and best[m] > bound):
                search(k + 1, s)
            del prefix[mark:]
            for u, _ in ins[v]:
                open_out[u] += 1
            order.pop()
            del label[v]

    search(0, 0)
    return tuple(enumerate(slots)), tuple(best)


@dataclass
class QuotientCatalog:
    """Quotients of a network up to colour-preserving isomorphism."""
    quotients: list      # of ColouredNetwork (canonical representatives)
    witnesses: list      # parallel list of node maps base -> quotient


def enumerate_quotients(N):
    """All quotient networks, deduplicated up to colour-preserving iso.

    Representatives come from balanced partitions with classes labelled by
    minimal original node id. Order: by node count descending (the trivial
    quotient N itself first), then by canonical encoding. Raises
    SizeOverflow above PARTITION_CAP balanced partitions.
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
    return QuotientCatalog([e[0] for e in entries], [e[1] for e in entries])


def build_quoq(N):
    """The quiver of quotient networks with its lifting representation.

    Returns (quiver, representation, catalog, arrow_fibrations) where
    arrow_fibrations maps arrow id -> GraphFibration phi with
    s(arrow) = codomain of phi and t(arrow) = domain of phi. Vertex ids
    q01, q02, ... follow the catalog order, so quiver.vertices lines up
    with catalog.quotients and catalog.witnesses. Raises SizeOverflow as
    soon as more than ARROW_CAP arrows are found.
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
                if len(arrows) > ARROW_CAP:
                    raise SizeOverflow(f"more than {ARROW_CAP} arrows")
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
    return selection_matrix(
        [col_offsets[node_map[m]] + r
         for m in N_big.node_ids() for r in range(N_big.node_dim(m))],
        N_small.total_dim())


def _quoq_induction(N):
    quiver, rep, catalog, _ = build_quoq(N)
    return rep, dict(zip(quiver.vertices, catalog.quotients))


def induce_on_quotients(N, family):
    """Instantiate an admissible response family on every quotient.

    Returns a PolyMapTuple on the QuoQ representation, the one kept on N
    since its first induction; equivariance follows from the lifting
    construction and is exact.
    """
    return _induce(N, family, "_quoq", _quoq_induction)
