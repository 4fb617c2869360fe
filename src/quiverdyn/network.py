"""Coloured networks, their symmetry groupoid, and admissible maps.

A coloured network is a directed multigraph whose nodes and edges carry
colours subject to two consistency conditions: same-coloured edges have
same-coloured sources and targets, and same-coloured nodes admit a
colour-preserving bijection between their incoming edge sets. Dependence of
a node's dynamics on its own state is modelled by an explicit self-loop
edge (conventionally of a dedicated colour per node colour); no slot is
implicit.

Admissible maps are stored as a family of response functions, one per node
colour, whose input slots are the node's incoming edges ordered canonically
by (edge colour, source node, edge id). Responses must be invariant under
permutations of same-coloured slots; instantiating them on the network (or
on any network with the same colour template, e.g. a subnetwork or a
quotient) yields the collapsed map on the total phase space.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import (DependencyViolation, DimClash, EdgeColourClash,
                     GroupoidViolation, InputMismatch)
from .tuples import PolyMap


def _natural_key(s):
    s = str(s)
    return (0, int(s)) if s.isdigit() else (1, s)


def _kept(N, name, build):
    """build(N), computed at the first call and kept on N as `name`.

    A network is fixed after __init__, so what is derived from it stays
    valid; a build that raises keeps nothing, and the next call builds
    again.
    """
    kept = vars(N)
    if name not in kept:
        kept[name] = build(N)
    return kept[name]


class ColouredNetwork:
    """Node/edge-coloured directed multigraph with per-colour internal dims.

    A network is fixed after __init__: nodes and edges are tuples, and
    node_colour and internal_dim are read-only mappings, so data derived
    from a network may be computed once and kept on it.
    """

    def __init__(self, nodes, edges, internal_dim=None):
        self.nodes = tuple(sorted(((str(n), str(c)) for n, c in nodes),
                                  key=lambda t: _natural_key(t[0])))
        self.edges = tuple(sorted(
            ((str(e), str(s), str(t), str(c)) for e, s, t, c in edges),
            key=lambda t: _natural_key(t[0])))
        self.node_colour = MappingProxyType(dict(self.nodes))
        if len(self.node_colour) != len(self.nodes):
            raise ValueError("duplicate node ids")
        if len({e for e, *_ in self.edges}) != len(self.edges):
            raise ValueError("duplicate edge ids")
        for e, s, t, _ in self.edges:
            if s not in self.node_colour or t not in self.node_colour:
                raise ValueError(f"edge {e!r} references unknown node")
        colours = {c for _, c in self.nodes}
        if internal_dim is None:
            internal_dim = {c: 1 for c in colours}
        self.internal_dim = MappingProxyType(
            {str(c): int(d) for c, d in internal_dim.items()})
        for c in colours:
            if c not in self.internal_dim:
                raise ValueError(f"missing internal_dim for colour {c!r}")
        self._in_edges = {n: [] for n, _ in self.nodes}
        for e, s, t, c in self.edges:
            self._in_edges[t].append((e, s, t, c))
        for n in self._in_edges:
            self._in_edges[n].sort(
                key=lambda t: (t[3], _natural_key(t[1]), _natural_key(t[0])))

    def node_ids(self):
        return [n for n, _ in self.nodes]

    def in_edges(self, n):
        """Incoming edges of n in canonical slot order."""
        return list(self._in_edges[str(n)])

    def node_dim(self, n):
        return self.internal_dim[self.node_colour[str(n)]]

    def edge_colour_multiset(self, n):
        return tuple(sorted(c for _, _, _, c in self._in_edges[str(n)]))

    def total_dim(self):
        return sum(self.node_dim(n) for n in self.node_ids())

    def block_offsets(self):
        """Start index of each node's state block in the total phase space."""
        offsets = {}
        pos = 0
        for n in self.node_ids():
            offsets[n] = pos
            pos += self.node_dim(n)
        return offsets

    def __eq__(self, other):
        return (isinstance(other, ColouredNetwork)
                and self.nodes == other.nodes and self.edges == other.edges
                and self.internal_dim == other.internal_dim)

    def __repr__(self):
        return f"ColouredNetwork({len(self.nodes)} nodes, {len(self.edges)} edges)"


def validate_coloured_network(N):
    """Both colour conditions plus internal_dim consistency; returns errors."""
    errors = []
    src_colour_of, tgt_colour_of = {}, {}
    for e, s, t, c in N.edges:
        sc, tc = N.node_colour[s], N.node_colour[t]
        if c in src_colour_of and src_colour_of[c] != sc:
            errors.append(EdgeColourClash(
                f"edge colour {c!r} has sources of colours "
                f"{src_colour_of[c]!r} and {sc!r}"))
        if c in tgt_colour_of and tgt_colour_of[c] != tc:
            errors.append(EdgeColourClash(
                f"edge colour {c!r} has targets of colours "
                f"{tgt_colour_of[c]!r} and {tc!r}"))
        src_colour_of.setdefault(c, sc)
        tgt_colour_of.setdefault(c, tc)
    by_colour = {}
    for n, c in N.nodes:
        by_colour.setdefault(c, []).append(n)
    for c, ns in by_colour.items():
        ref = N.edge_colour_multiset(ns[0])
        for n in ns[1:]:
            if N.edge_colour_multiset(n) != ref:
                errors.append(InputMismatch(
                    f"nodes {ns[0]!r} and {n!r} share colour {c!r} but have "
                    f"input colour multisets {ref} vs {N.edge_colour_multiset(n)}"))
        if c not in N.internal_dim:
            errors.append(DimClash(f"no internal dimension for colour {c!r}"))
    return errors


@dataclass(frozen=True)
class InputBijection:
    """A colour-preserving bijection between two nodes' incoming edge sets."""
    from_node: str
    to_node: str
    edge_map: tuple  # pairs (edge at from_node, edge at to_node)


def input_bijections(N, n1, n2):
    """All colour-preserving bijections t^{-1}(n1) -> t^{-1}(n2), canonical order."""
    in1 = N.in_edges(n1)
    in2 = N.in_edges(n2)
    by_colour1, by_colour2 = {}, {}
    for e in in1:
        by_colour1.setdefault(e[3], []).append(e[0])
    for e in in2:
        by_colour2.setdefault(e[3], []).append(e[0])
    if sorted(by_colour1) != sorted(by_colour2):
        return []
    if any(len(by_colour1[c]) != len(by_colour2[c]) for c in by_colour1):
        return []
    colours = sorted(by_colour1)
    perm_sets = []
    for c in colours:
        perm_sets.append([list(zip(by_colour1[c], p))
                          for p in itertools.permutations(by_colour2[c])])
    out = []
    for combo in itertools.product(*perm_sets):
        pairs = tuple(p for group in combo for p in group)
        out.append(InputBijection(str(n1), str(n2), pairs))
    return out


def symmetry_groupoid(N):
    """All input bijections for every ordered pair of same-coloured nodes."""
    out = []
    for n1, c1 in N.nodes:
        for n2, c2 in N.nodes:
            if c1 == c2:
                out.extend(input_bijections(N, n1, n2))
    return out


@dataclass(frozen=True)
class AdmissibleTemplate:
    """Per node colour: the ordered slot signature of the response function.

    Each slot is (edge colour, source node colour); slots are listed in the
    canonical order used by ColouredNetwork.in_edges. Slots sharing an edge
    colour are interchangeable.
    """
    slots: dict  # node colour -> tuple of (edge colour, source colour)

    @staticmethod
    def of(N):
        slots = {}
        for n, c in N.nodes:
            sig = tuple((ec, N.node_colour[s]) for _, s, _, ec in N.in_edges(n))
            if c in slots and slots[c] != sig:
                raise InputMismatch(
                    f"colour {c!r}: inconsistent input signatures {slots[c]} vs {sig}")
            slots[c] = sig
        return AdmissibleTemplate(slots)

    def slot_dims(self, N, colour):
        return [N.internal_dim[sc] for _, sc in self.slots[colour]]

    def response_nvars(self, N, colour, param_dim=0):
        return sum(self.slot_dims(N, colour)) + param_dim


def _template(N):
    """AdmissibleTemplate.of(N), worked out once and kept on N."""
    return _kept(N, "_template", AdmissibleTemplate.of)


class ResponseFamily:
    """An admissible map, stored as one response function per node colour.

    responses[c] is a PolyMap with one input block per slot of the colour's
    template (in canonical slot order) plus param_dim trailing parameter
    variables, and internal_dim[c] outputs.
    """

    def __init__(self, network, responses, param_dim=0):
        self.network = network
        self.template = _template(network)
        self.param_dim = int(param_dim)
        self.responses = {str(c): r for c, r in responses.items()}
        for c in {col for _, col in network.nodes}:
            if c not in self.responses:
                raise ValueError(f"missing response for colour {c!r}")
            r = self.responses[c]
            want = self.template.response_nvars(network, c, self.param_dim)
            if r.nvars != want or r.dim_out != network.internal_dim[c]:
                raise ValueError(
                    f"response for colour {c!r}: expected "
                    f"{network.internal_dim[c]} outputs in {want} vars, "
                    f"got {r.dim_out} in {r.nvars}")

    def symmetry_defects(self):
        """Max residual of each response under same-colour slot swaps.

        Invariance under adjacent transpositions of same-coloured slots
        implies invariance under the full symmetric group per slot class.
        """
        defects = {}
        for c, r in self.responses.items():
            sig = self.template.slots[c]
            dims = self.template.slot_dims(self.network, c)
            starts = [sum(dims[:i]) for i in range(len(dims))]
            worst = Fraction(0)
            for i in range(len(sig) - 1):
                if sig[i][0] != sig[i + 1][0]:
                    continue
                # swap slot blocks i and i+1 (equal dims by colour)
                var_map = list(range(r.nvars))
                d = dims[i]
                for k in range(d):
                    var_map[starts[i] + k] = starts[i + 1] + k
                    var_map[starts[i + 1] + k] = starts[i] + k
                for out in r.outputs:
                    diff = out - out.embed(r.nvars, var_map)
                    worst = max(worst, diff.max_abs_coeff())
            defects[c] = worst
        return defects

    def instantiate(self, network=None):
        """The collapsed map on the total phase space of `network`.

        network defaults to the family's own network; any network with the
        same colours, internal dims, and slot templates is accepted (this is
        how induced maps on subnetworks and quotients are produced).
        Returns a PolyMap in total_dim + param_dim variables.
        """
        N = network if network is not None else self.network
        tpl = _template(N)
        for c in tpl.slots:
            if tpl.slots[c] != self.template.slots.get(c):
                raise ValueError(
                    f"network colour {c!r} does not match the response template")
        offsets = N.block_offsets()
        total = N.total_dim()
        nvars = total + self.param_dim
        params = list(range(total, nvars))
        outputs = []
        for n in N.node_ids():
            c = N.node_colour[n]
            # slot variables read their source's block, parameters stay last
            var_map = [offsets[s] + k for (_, s, _, _), d
                       in zip(N.in_edges(n), tpl.slot_dims(N, c))
                       for k in range(d)] + params
            outputs.extend(p.embed(nvars, var_map)
                           for p in self.responses[c].outputs)
        return PolyMap(outputs, nvars=nvars)


@dataclass
class AdmissibilityReport:
    ok: bool
    dependency_errors: list
    groupoid_errors: list
    skipped_ambiguous: list
    max_residual: object = 0.0


def _block_var_map(N, pairs):
    """Variable substitution induced by source relabelling, or None if ambiguous.

    pairs maps node m to node m' meaning: occurrences of x_m become x_{m'}.
    Returns a var_map list over the total variables, or None when some node
    is assigned two different images.
    """
    assign = {}
    for m, m2 in pairs:
        if m in assign and assign[m] != m2:
            return None
        assign[m] = m2
    offsets = N.block_offsets()
    total = N.total_dim()
    var_map = list(range(total))
    for m, m2 in assign.items():
        d = N.node_dim(m)
        if N.node_dim(m2) != d:
            return None
        for k in range(d):
            var_map[offsets[m] + k] = offsets[m2] + k
    return var_map


def check_admissible(N, F, param_dim=0, tol=1e-9):
    """Verify dependency and groupoid-equivariance of a total-space map.

    F may be a ResponseFamily (slot-level data; the check is complete) or a
    PolyMap on the total phase space. For a collapsed PolyMap the groupoid
    condition is checked through variable substitution, which is only
    well-defined for bijections whose source relabelling is single-valued;
    bijections that alias slots are reported in skipped_ambiguous (supply a
    ResponseFamily to resolve them).
    """
    if isinstance(F, ResponseFamily):
        defects = F.symmetry_defects()
        bad = [GroupoidViolation(
            f"response for colour {c!r} not slot-symmetric (residual {d})")
            for c, d in defects.items() if d != 0]
        worst = max(defects.values(), default=0.0)
        return AdmissibilityReport(not bad, [], bad, [], worst)

    if not isinstance(F, PolyMap):
        raise TypeError("expected ResponseFamily or PolyMap")
    offsets = N.block_offsets()
    total = N.total_dim()
    if F.nvars != total + param_dim or F.dim_out != total:
        raise ValueError("map shape does not match the total phase space")
    var_owner = {}
    for n in N.node_ids():
        for k in range(N.node_dim(n)):
            var_owner[offsets[n] + k] = n

    dep_errors = []
    for n in N.node_ids():
        allowed = {s for _, s, _, _ in N.in_edges(n)}
        for i in range(N.node_dim(n)):
            out = F.outputs[offsets[n] + i]
            for var in out.variables_used():
                if var >= total:
                    continue  # parameter
                owner = var_owner[var]
                if owner not in allowed:
                    dep_errors.append(DependencyViolation(
                        f"component of node {n!r} depends on node {owner!r}, "
                        "which is not an in-neighbour"))
                    break

    group_errors = []
    ambiguous = []
    worst = 0.0
    edge_src = {e: s for e, s, _, _ in N.edges}
    for beta in symmetry_groupoid(N):
        if beta.from_node == beta.to_node and all(a == b for a, b in beta.edge_map):
            continue
        pairs = [(edge_src[e1], edge_src[e2]) for e1, e2 in beta.edge_map]
        var_map = _block_var_map(N, pairs)
        if var_map is None:
            ambiguous.append(beta)
            continue
        n1, n2 = beta.from_node, beta.to_node
        d = N.node_dim(n1)
        full_map = var_map + [total + l for l in range(param_dim)]
        for i in range(d):
            lhs = F.outputs[offsets[n1] + i].embed(total + param_dim, full_map)
            rhs = F.outputs[offsets[n2] + i]
            diff = lhs - rhs
            r = diff.max_abs_coeff()
            worst = max(worst, r)
            exact = diff.is_exact()
            if (exact and r != 0) or (not exact and float(r) > tol):
                group_errors.append(GroupoidViolation(
                    f"bijection {n1!r}->{n2!r} violated at output {i} "
                    f"(residual {r})"))
                break
    ok = not dep_errors and not group_errors
    return AdmissibilityReport(ok, dep_errors, group_errors, ambiguous, worst)
