"""Shared fixture builders for the test suite.

All networks here are small hand-checkable examples: two feedforward
networks (two and five nodes), a five-node network whose admissible maps
commute with a five-element monoid of non-invertible symmetries, a
five-node two-colour network with six quotients, an eight-node
two-colour network with twelve, rings, and networks of isolated nodes. Random data is drawn from
seeded random.Random instances so every test is reproducible.
"""

import itertools
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from quiverdyn import exactlin
from quiverdyn.builders import (ARROW_CAP, GraphFibration, _lifting_matrix,
                                enumerate_fibrations, enumerate_quotients,
                                quotient_network)
from quiverdyn.errors import SizeOverflow
from quiverdyn.network import ColouredNetwork, ResponseFamily, _natural_key
from quiverdyn.polynomial import Poly
from quiverdyn.quiver import Quiver, QuiverRepresentation
from quiverdyn.tuples import PolyMap, PolyMapTuple


def feedforward_pair_network():
    """Two-node feedforward network: 1 drives 2, both with self-loops."""
    return ColouredNetwork(
        nodes=[("1", "c1"), ("2", "c2")],
        edges=[("e1", "1", "1", "s1"), ("e2", "2", "2", "s2"),
               ("e3", "1", "2", "b")])


def feedforward_chain_network():
    """Five-node feedforward-type network with twelve edges.

    Component dependencies: F1(x1), F2(x1,x2), F3(x1,x2,x3), F4(x1,x3,x4),
    F5(x3,x4,x5). Every node and every edge gets its own colour, so the
    symmetry groupoid is trivial and any dependency-respecting map is
    admissible.
    """
    nodes = [(str(i), f"c{i}") for i in range(1, 6)]
    plain = [("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"), ("3", "4"),
             ("3", "5"), ("4", "5")]
    edges = [(f"s{i}", str(i), str(i), f"ks{i}") for i in range(1, 6)]
    edges += [(f"e{k}", s, t, f"ke{k}")
              for k, (s, t) in enumerate(plain, start=1)]
    return ColouredNetwork(nodes, edges)


def two_type_network():
    """Two-colour network (three 'y' nodes, two 'g' nodes) with six quotients.

    Each y node is targeted by its own-state loop and two b edges; each g
    node by its own-state loop, one o edge and one r edge.
    """
    nodes = [("1", "y"), ("2", "y"), ("3", "y"), ("4", "g"), ("5", "g")]
    edges = [
        ("sy1", "1", "1", "sy"), ("sy2", "2", "2", "sy"),
        ("sy3", "3", "3", "sy"),
        ("sg4", "4", "4", "sg"), ("sg5", "5", "5", "sg"),
        ("b1", "3", "1", "b"), ("b2", "2", "1", "b"),
        ("b3", "3", "2", "b"), ("b4", "2", "2", "b"),
        ("b5", "1", "3", "b"), ("b6", "2", "3", "b"),
        ("o1", "1", "4", "o"), ("o2", "3", "5", "o"),
        ("r1", "4", "4", "r"), ("r2", "4", "5", "r"),
    ]
    return ColouredNetwork(nodes, edges)


def two_colour_network(colours, a_sources):
    """Nodes 1..n of colours 'y'/'g' (colours[i - 1] for node i).

    Every node has a self edge coloured by its node colour and one 'a'
    input, from node a_sources[i - 1] into node i.
    """
    nodes = [(str(i), c) for i, c in enumerate(colours, start=1)]
    edges = [(f"s{i}", str(i), str(i), "s" + c)
             for i, c in enumerate(colours, start=1)]
    edges += [(f"a{i}", str(s), str(i), "a")
              for i, s in enumerate(a_sources, start=1)]
    return ColouredNetwork(nodes, edges)


def two_colour_8_network():
    """Eight nodes with twelve quotients; node 2 feeds 2, 3, 4 and 8, and
    node 1 feeds 5 and 7, which are interchangeable."""
    return two_colour_network("ggyyygyy", [8, 2, 2, 2, 1, 4, 1, 2])


def ring_network(n):
    """n same-coloured nodes, each with a self edge and a ring edge."""
    nodes = [(str(i), "c") for i in range(1, n + 1)]
    edges = [(f"s{i}", str(i), str(i), "s") for i in range(1, n + 1)]
    edges += [(f"r{i}", str(i), str(i % n + 1), "r") for i in range(1, n + 1)]
    return ColouredNetwork(nodes, edges)


def isolated_network(n):
    """n same-coloured nodes, each with only a self edge: every nonempty
    node subset is in-closed."""
    return ColouredNetwork([(str(i), "c") for i in range(1, n + 1)],
                           [(f"s{i}", str(i), str(i), "s")
                            for i in range(1, n + 1)])


def monoid_network():
    """Five same-coloured nodes, each with own-state, one b and one r input.

    Input pattern per node (own, b, r): 1:(x1,x2,x3), 2:(x2,x4,x3),
    3:(x3,x5,x3), 4:(x4,x4,x3), 5:(x5,x4,x3).
    """
    nodes = [(str(i), "c") for i in range(1, 6)]
    bsrc = {"1": "2", "2": "4", "3": "5", "4": "4", "5": "4"}
    edges = [(f"s{i}", str(i), str(i), "s") for i in range(1, 6)]
    edges += [(f"b{i}", bsrc[str(i)], str(i), "b") for i in range(1, 6)]
    edges += [(f"r{i}", "3", str(i), "r") for i in range(1, 6)]
    return ColouredNetwork(nodes, edges)


def monoid_maps():
    """The five non-invertible symmetries of the monoid network.

    Returned as 5x5 exact 0/1 matrices m0..m4 acting on (x1..x5):
    m0 = identity, m1: (x2,x4,x3,x4,x5), m2: (x3,x5,x3,x4,x5),
    m3: (x4,x4,x3,x4,x5), m4: (x5,x4,x3,x4,x5).
    """
    patterns = [
        (1, 2, 3, 4, 5),
        (2, 4, 3, 4, 5),
        (3, 5, 3, 4, 5),
        (4, 4, 3, 4, 5),
        (5, 4, 3, 4, 5),
    ]
    mats = []
    for pat in patterns:
        mats.append(tuple(
            tuple(Fraction(int(j + 1 == src)) for j in range(5))
            for src in pat))
    return mats


def random_poly(rng, nvars, max_degree=3, n_terms=4, coeff_range=3,
                constant=True):
    """Sparse random polynomial with small integer coefficients."""
    terms = {}
    for _ in range(n_terms):
        deg = rng.randint(0 if constant else 1, max_degree)
        exps = [0] * nvars
        for _ in range(deg):
            exps[rng.randrange(nvars)] += 1
        c = rng.randint(-coeff_range, coeff_range)
        if c:
            terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
    return Poly(nvars, {e: Fraction(c) for e, c in terms.items() if c})


def symmetrize_pair(p, i, j):
    """Average a polynomial with its image under swapping variables i, j."""
    var_map = list(range(p.nvars))
    var_map[i], var_map[j] = j, i
    q = p.embed(p.nvars, var_map)
    return (p + q) * Fraction(1, 2)


def random_response_family(N, seed, max_degree=3, param_dim=0):
    """Random admissible response family on a coloured network.

    For every node colour a sparse random response is drawn in the
    template's slot variables; slots sharing an edge colour are then
    symmetrized pairwise so the groupoid conditions hold exactly.
    """
    from quiverdyn.network import AdmissibleTemplate

    rng = random.Random(seed)
    tpl = AdmissibleTemplate.of(N)
    responses = {}
    for colour, sig in sorted(tpl.slots.items()):
        nvars = tpl.response_nvars(N, colour, param_dim)
        dims = tpl.slot_dims(N, colour)
        outs = [symmetrize_slots(random_poly(rng, nvars,
                                             max_degree=max_degree),
                                 sig, dims)
                for _ in range(N.internal_dim[colour])]
        responses[colour] = PolyMap(outs, nvars=nvars)
    return ResponseFamily(N, responses, param_dim=param_dim)


def symmetrize_slots(p, sig, dims):
    """Average a response over swaps of every two slots that share an edge
    colour (sig is the colour's slot signature, dims its slot dims)."""
    starts = [sum(dims[:i]) for i in range(len(dims))]
    for i in range(len(sig)):
        for j in range(i + 1, len(sig)):
            if sig[i][0] == sig[j][0]:
                # equal slot dims are guaranteed by matching colours
                for k in range(dims[i]):
                    p = symmetrize_pair(p, starts[i] + k, starts[j] + k)
    return p


def planted_family(N, linear, seed):
    """Admissible family with a planted linear part, on a network whose
    node states are one-dimensional.

    The response of colour c is the sum over its slots of
    linear[c][edge colour] times the slot state, plus random quadratic and
    cubic terms, averaged over slots that share an edge colour. A colour
    whose slot coefficients sum to 0 and whose inputs all come from its own
    colour plants a synchrony zero: its synchronous states make a zero
    eigenvalue of the linearization on every network the family is induced
    on.
    """
    from quiverdyn.network import AdmissibleTemplate

    rng = random.Random(seed)
    tpl = AdmissibleTemplate.of(N)
    responses = {}
    for colour, sig in sorted(tpl.slots.items()):
        nvars = tpl.response_nvars(N, colour)
        p = random_poly(rng, nvars, constant=False)
        p = p - p.homogeneous_part(1) + Poly(nvars, {
            tuple(int(i == j) for i in range(nvars)):
                Fraction(linear[colour][ec])
            for j, (ec, _) in enumerate(sig)})
        responses[colour] = PolyMap(
            [symmetrize_slots(p, sig, tpl.slot_dims(N, colour))], nvars=nvars)
    return ResponseFamily(N, responses)


def single_vertex_tuple(polys):
    """A tuple on the one-vertex quiver whose only arrow is the identity."""
    n = len(polys)
    quiver = Quiver(["v"], [("id", "v", "v")])
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rep = QuiverRepresentation(quiver, {"v": n}, {"id": eye}, mode="exact")
    return PolyMapTuple(rep, {"v": PolyMap(polys)})


def hopf_tuple():
    """Planar fixture with rotational linear part and mixed nonlinear terms:
    x' = -y + x^2 + x*y + x^3,  y' = x + y^2 + x^2*y."""
    p1 = Poly(2, {(0, 1): -1, (2, 0): 1, (1, 1): 1, (3, 0): 1})
    p2 = Poly(2, {(1, 0): 1, (0, 2): 1, (2, 1): 1})
    return single_vertex_tuple([p1, p2])


def cm_feedforward_tuple():
    """Two-vertex feedforward fixture for center-manifold jets.

    Big vertex: x' = x^2, y' = -y + x^2; small vertex: X' = X^2; the arrow
    projects (x, y) onto x. The exact graph map is
    phi(x) = x^2 - 2 x^3 + 6 x^4 + O(x^5).
    """
    quiver = Quiver(["big", "small"], [("p", "big", "small"),
                                       ("ib", "big", "big"),
                                       ("is", "small", "small")])
    rep = QuiverRepresentation(
        quiver, {"big": 2, "small": 1},
        {"p": [[Fraction(1), Fraction(0)]],
         "ib": [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]],
         "is": [[Fraction(1)]]},
        mode="exact")
    fb = PolyMap([Poly(2, {(2, 0): 1}),
                  Poly(2, {(0, 1): -1, (2, 0): 1})])
    fs = PolyMap([Poly(1, {(2,): 1})])
    return PolyMapTuple(rep, {"big": fb, "small": fs})


def cm_coupled_tuple():
    """One-vertex fixture with genuinely coupled center dynamics:
    x' = x*y, y' = -y + x^2. The jet truncation error is visible in the
    center flow, so flow-consistency ratios are informative."""
    p1 = Poly(2, {(1, 1): 1})
    p2 = Poly(2, {(0, 1): -1, (2, 0): 1})
    return single_vertex_tuple([p1, p2])


def cm_lost_center_tuple():
    """Two-vertex fixture whose arrow maps the center direction to zero.

    Source s: x0' = x0^2, x1' = -x1 (center x0, hyperbolic x1); target t:
    y' = -y (hyperbolic only); the arrow reads x1. The target has no
    center direction while its source has one.
    """
    quiver = Quiver(["s", "t"], [("a", "s", "t")])
    rep = QuiverRepresentation(quiver, {"s": 2, "t": 1},
                               {"a": [[Fraction(0), Fraction(1)]]},
                               mode="exact")
    fs = PolyMap([Poly(2, {(2, 0): 1}), Poly(2, {(0, 1): -1})])
    ft = PolyMap([Poly(1, {(1,): -1})])
    return PolyMapTuple(rep, {"s": fs, "t": ft})


def twin_representation():
    """Two 2-dimensional vertices u, v joined both ways by the identity,
    with identity loops: a tuple on it is equivariant when F_u = F_v."""
    eye = [[Fraction(int(i == j)) for j in range(2)] for i in range(2)]
    quiver = Quiver(["u", "v"], [("iu", "u", "u"), ("iv", "v", "v"),
                                 ("uv", "u", "v"), ("vu", "v", "u")])
    return QuiverRepresentation(quiver, {"u": 2, "v": 2},
                                {a: eye for a in ("iu", "iv", "uv", "vu")})


def fork_representation():
    """The two coordinate projections p, q of a 2-dimensional vertex s onto
    a 1-dimensional vertex t, with identity loops: q is not p composed with
    a loop, though its endpoints are."""
    one, zero = Fraction(1), Fraction(0)
    quiver = Quiver(["s", "t"], [("is", "s", "s"), ("it", "t", "t"),
                                 ("p", "s", "t"), ("q", "s", "t")])
    return QuiverRepresentation(
        quiver, {"s": 2, "t": 1},
        {"is": [[one, zero], [zero, one]], "it": [[one]],
         "p": [[one, zero]], "q": [[zero, one]]})


def in_exact_domain(c):
    """c is an exact Poly coefficient: an int (never a bool) or a Fraction
    whose denominator is > 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def float_copy(F):
    """The same tuple in float mode: float arrow matrices and coefficients."""
    rep = F.representation
    frep = QuiverRepresentation(
        rep.quiver, rep.dim,
        {a: np.array([[float(x) for x in row] for row in m], dtype=float)
         for a, m in rep.arrow_matrix.items()}, mode="float")
    comps = {v: PolyMap([p.to_float() for p in pm.outputs], nvars=pm.nvars)
             for v, pm in F.components.items()}
    return PolyMapTuple(frep, comps, F.param_dim, F.max_degree)


# exact linear parts that are not semisimple: the Jordan block J2(-1) next
# to the eigenvalue 2, the double pair of charpoly (t^2 + 2t + 10)^2, and a
# Jordan pair at -2 that float eigvals returns as -2 +- 1.4e-8
NON_SEMISIMPLE = {
    "jordan-block": [[-1, 1, 0], [0, -1, 0], [0, 0, 2]],
    "double-pair": [[-1, -3, 1, 0], [3, -1, 0, 1], [0, 0, -1, -3],
                    [0, 0, 3, -1]],
    "jordan-pair": [[Fraction(-8, 3), Fraction(1, 3)],
                    [Fraction(-4, 3), Fraction(-4, 3)]],
}


def madd(A, B):
    """A + B for matrices given as lists of rows."""
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_pow(A, k):
    """A^k of a Fraction matrix, by k exact products."""
    result = exactlin.identity(len(A))
    for _ in range(k):
        result = exactlin.matmul(result, A)
    return result


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once it has run `seconds`, so a
    test of a time bound fails instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# --- brute-force oracles for the builder searches ----------------------------

def brute_enumerate_subnetworks(N):
    """Oracle: every nonempty node subset filtered for in-closure, in
    enumerate_subnetworks' order (by size, then natural node keys)."""
    node_ids = N.node_ids()
    in_sources = {n: {s for _, s, _, _ in N.in_edges(n)} for n in node_ids}
    subsets = []
    for r in range(1, len(node_ids) + 1):
        for combo in itertools.combinations(node_ids, r):
            if all(in_sources[n] <= set(combo) for n in combo):
                subsets.append(tuple(sorted(combo, key=_natural_key)))
    subsets.sort(key=lambda s: (len(s), tuple(_natural_key(n) for n in s)))
    return subsets


def brute_canonical_network_form(N):
    """Oracle: minimal encoding over all colour-preserving node permutations."""
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
        idx = 0
        for perm in perms:
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


def brute_balanced_partitions(N):
    """Oracle: every colour-respecting set partition in restricted-growth
    order, filtered for balance (equal multisets of (edge colour, class of
    source) within each class)."""
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
        cls = {n: idx for idx, b in enumerate(blocks) for n in b}
        if all(len({tuple(sorted((c, cls[s]) for _, s, _, c in N.in_edges(n)))
                    for n in b}) == 1 for b in blocks):
            balanced.append(blocks)
    return balanced


def brute_quotients(N):
    """Oracle: (quotients, witnesses) in enumerate_quotients' order, from
    the brute-force partitions and canonical forms."""
    seen = set()
    entries = []
    for blocks in brute_balanced_partitions(N):
        Q, node_map = quotient_network(N, blocks)
        key = brute_canonical_network_form(Q)
        if key not in seen:
            seen.add(key)
            entries.append((Q, node_map, key))
    entries.sort(key=lambda t: (-len(t[0].nodes), t[2]))
    return [e[0] for e in entries], [e[1] for e in entries]


def brute_enumerate_fibrations(N_src, N_dst, surjective_only=False):
    """Oracle: every colour-preserving node map whose in-edge groups keyed
    by (edge colour, image of source) match, in enumerate_fibrations'
    order, each expanded into all edge bijections."""
    src_nodes = N_src.node_ids()
    dst_nodes = N_dst.node_ids()
    candidates = [[m for m in dst_nodes
                   if N_dst.node_colour[m] == N_src.node_colour[n]]
                  for n in src_nodes]
    fibrations = []
    for images in itertools.product(*candidates):
        nm = dict(zip(src_nodes, images))
        if surjective_only and set(images) != set(dst_nodes):
            continue
        groups = []
        for n in src_nodes:
            groups_src, groups_dst = {}, {}
            for e, s, _, c in N_src.in_edges(n):
                groups_src.setdefault((c, nm[s]), []).append(e)
            for e, s, _, c in N_dst.in_edges(nm[n]):
                groups_dst.setdefault((c, s), []).append(e)
            if {k: len(v) for k, v in groups_src.items()} != \
                    {k: len(v) for k, v in groups_dst.items()}:
                break
            groups += [[tuple(zip(groups_src[k], p))
                        for p in itertools.permutations(groups_dst[k])]
                       for k in sorted(groups_src)]
        else:
            for combo in itertools.product(*groups):
                em = tuple(sorted((pair for g in combo for pair in g),
                                  key=lambda p: _natural_key(p[0])))
                fibrations.append(GraphFibration(
                    N_src, N_dst,
                    tuple(sorted(nm.items(),
                                 key=lambda p: _natural_key(p[0]))), em))
    return fibrations


def pairwise_quoq(N):
    """Oracle: build_quoq's vertices, arrows, matrices and fibrations by a
    surjective fibration search on every ordered pair of quotients, codomain
    first. Returns (quiver, matrices, arrow_fibrations)."""
    catalog = enumerate_quotients(N)
    k = len(catalog.quotients)
    width = max(2, len(str(k)))
    vids = [f"q{str(i + 1).zfill(width)}" for i in range(k)]
    networks = dict(zip(vids, catalog.quotients))
    arrows, matrices, arrow_fibrations = [], {}, {}
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
    return Quiver(vids, arrows), matrices, arrow_fibrations


# --- full-loop oracles for the exact intertwining checks ----------------------

def _intertwining_residual(R_out, P_s, R_in, P_t, n, p=0):
    """Largest |coefficient| of R_out P_s(x, l) - P_t(R_in x, l) for x in
    n variables and l in p, expanded by Poly composition, from the exact
    zero."""
    nv = n + p
    xs = [Poly.variable(nv, j) for j in range(nv)]

    def combine(R, polys):
        return [sum((polys[j] * c for j, c in enumerate(row) if c),
                    Poly.zero(nv)) for row in R]
    Rx = combine(R_in, xs) + xs[n:]
    return max([Fraction(0)] + [(lhs - P_t[i].compose(Rx)).max_abs_coeff()
                                for i, lhs in enumerate(combine(R_out, P_s))])


def full_equivariance_report(F):
    """Oracle: (per-arrow residuals, passed) of the exact check_equivariance,
    with the defect of every arrow worked out."""
    rep = F.representation
    per_arrow = {a: _intertwining_residual(
        rep.arrow_matrix[a], F.components[s].outputs, rep.arrow_matrix[a],
        F.components[t].outputs, rep.dim[s], F.param_dim)
        for a, s, t in rep.quiver.arrows}
    return per_arrow, all(r == 0 for r in per_arrow.values())


def full_cm_report(exp):
    """Oracle: (per-arrow residuals, passed) of the exact
    check_cm_equivariance: R^h_a phi_s = phi_t R^c_a and
    R^c_a F^c_s = F^c_t R^c_a on every arrow."""
    per_arrow = {}
    for a, s, t in exp.representation.quiver.arrows:
        vs, vt = exp.vertices[s], exp.vertices[t]
        C, H = exp.center.coords[a], exp.hyperbolic.coords[a]
        per_arrow[a] = max(
            _intertwining_residual(H, vs.phi, C, vt.phi, vs.center_dim),
            _intertwining_residual(C, vs.reduced, C, vt.reduced,
                                   vs.center_dim))
    return per_arrow, all(r == 0 for r in per_arrow.values())


def full_endomorphism_report(rep, L):
    """Oracle: (per-arrow residuals, passed) of the exact
    check_endomorphism, |R_a L_s - L_t R_a| entry by entry on every arrow."""
    def product(A, B, rows, inner, cols):
        return [[sum((A[i][k] * B[k][j] for k in range(inner)), Fraction(0))
                 for j in range(cols)] for i in range(rows)]
    per_arrow = {}
    for a, s, t in rep.quiver.arrows:
        R, ds, dt = rep.arrow_matrix[a], rep.dim[s], rep.dim[t]
        RL = product(R, L.matrices[s], dt, ds, ds)
        LR = product(L.matrices[t], R, dt, dt, ds)
        per_arrow[a] = max([Fraction(0)] + [abs(x - y) for r1, r2 in
                                            zip(RL, LR)
                                            for x, y in zip(r1, r2)])
    return per_arrow, all(r == 0 for r in per_arrow.values())
