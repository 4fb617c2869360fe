"""Worked steady-state bifurcation study on a three-vertex quiver.

The fixture is three coloured networks of alternating x- and y-cells
driven by f(x, y; lam) and g(y, x; lam): a feedforward-like five-cell
network, a four-cell subnetwork and a three-cell quotient-type network.
Four node maps between them act as arrows by pullback, and one response
family instantiated on each network gives an equivariant tuple for any
pair (f, g). Depending on the degeneracy of the linearization coefficients

    a = f_x(0),  c = f_y(0),  b = g_y(0),  d = g_x(0)

the steady-state bifurcation problem falls into one of three cases, each
with its own kernel dimensions, restricted arrow maps, branch structure,
and synchrony patterns. This module assembles the tuple from parsed
polynomial input, checks the requested case, and runs the reduction
pipeline end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import CaseMismatch
from .fileio import parse_poly_dsl
from .lsreduction import (SYNC_TOL, check_reduced_equivariance,
                          find_branches_1param, ls_reduce, synchrony_groups)
from .network import ColouredNetwork, ResponseFamily
from .quiver import Quiver, QuiverRepresentation, selection_matrix
from .tuples import (PolyMap, PolyMapTuple, check_equivariance,
                     linear_part)

CASES = ("a=0", "b=0", "ab-cd=0")

# per vertex: each cell's colour and the one other cell it reads (cells
# numbered from 1); per arrow: source, target, and the node map sending
# each target cell to the source cell it copies
CELLS = {"N1": ("xyxyx", (2, 3, 4, 3, 4)), "N2": ("xyxy", (2, 3, 4, 3)),
         "N3": ("yxy", (2, 3, 2))}
NODE_MAPS = {
    "a1": ("N1", "N2", (1, 2, 3, 4)), "a2": ("N1", "N2", (5, 4, 3, 4)),
    "a3": ("N3", "N2", (2, 3, 2, 3)), "a4": ("N2", "N3", (2, 3, 4))}


def case_network(vertex):
    """A vertex's network: a c-cell reads itself along a "self-c" edge and
    its input d-cell along a "d->c" edge, and "self" sorts first, so the
    slots are (own state, input) as f(x, y) and g(y, x) expect."""
    colours, reads = CELLS[vertex]
    edges = []
    for i, (c, j) in enumerate(zip(colours, reads), start=1):
        edges += [(f"s{i}", i, i, f"self-{c}"),
                  (f"e{i}", j, i, f"{colours[j - 1]}->{c}")]
    return ColouredNetwork(enumerate(colours, start=1), edges)


def build_case_quiver():
    """The three-vertex quiver; each arrow matrix is the pullback
    x |-> (x_phi(m))_m of the arrow's node map phi."""
    quiver = Quiver(CELLS, [(a, s, t) for a, (s, t, _) in NODE_MAPS.items()])
    mats = {a: selection_matrix([m - 1 for m in phi], len(CELLS[s][0]))
            for a, (s, _, phi) in NODE_MAPS.items()}
    dim = {v: len(colours) for v, (colours, _) in CELLS.items()}
    return quiver, QuiverRepresentation(quiver, dim, mats, mode="exact")


def assemble_case_tuple(f_poly, g_poly):
    """The equivariant tuple induced by responses f(x, y; lam), g(y, x; lam).

    Both inputs are Polys in 3 variables (own state, input state,
    parameter). One response family, f on the x-cells and g on the
    y-cells, is instantiated on the network of every vertex.
    """
    _, rep = build_case_quiver()
    networks = {v: case_network(v) for v in CELLS}
    family = ResponseFamily(networks["N1"], {"x": PolyMap([f_poly]),
                                             "y": PolyMap([g_poly])},
                            param_dim=1)
    return PolyMapTuple(rep, {v: family.instantiate(N)
                              for v, N in networks.items()}, param_dim=1)


def linear_coefficients(f_poly, g_poly):
    """(a, b, c, d) = (f_x, g_y, f_y, g_x) at the origin, lam = 0."""
    a = f_poly.terms.get((1, 0, 0), Fraction(0))
    c = f_poly.terms.get((0, 1, 0), Fraction(0))
    b = g_poly.terms.get((1, 0, 0), Fraction(0))
    d = g_poly.terms.get((0, 1, 0), Fraction(0))
    return a, b, c, d


def check_case(f_poly, g_poly, case):
    """Verify that the coefficients realize the requested degeneracy."""
    a, b, c, d = linear_coefficients(f_poly, g_poly)
    if f_poly.terms.get((0, 0, 0), 0) != 0 or \
            g_poly.terms.get((0, 0, 0), 0) != 0:
        raise CaseMismatch("f(0,0;0) and g(0,0;0) must vanish")
    if case == "a=0":
        if not (a == 0 and b != 0 and a * b - c * d != 0):
            raise CaseMismatch(
                f"case a=0 needs a=0, b!=0, ab-cd!=0; got a={a}, b={b}, "
                f"ab-cd={a * b - c * d}")
    elif case == "b=0":
        if not (b == 0 and a != 0 and a * b - c * d != 0):
            raise CaseMismatch(
                f"case b=0 needs b=0, a!=0, ab-cd!=0; got a={a}, b={b}, "
                f"ab-cd={a * b - c * d}")
    elif case == "ab-cd=0":
        if not (a * b - c * d == 0 and a + b != 0):
            raise CaseMismatch(
                f"case ab-cd=0 needs ab=cd and a+b!=0; got ab-cd="
                f"{a * b - c * d}, a+b={a + b}")
    else:
        raise CaseMismatch(f"unknown case {case!r}; choose from {CASES}")
    return a, b, c, d


@dataclass
class CaseStudyReport:
    case: str
    coefficients: tuple                 # (a, b, c, d)
    equivariance_passed: bool
    kernel_dims: dict                   # vertex -> int
    restricted_maps: dict               # arrow -> exact coordinate matrix
    decoupled: bool or None             # case a=0: components independent
    identity_restriction: bool          # all 1x1 restrictions equal identity
    reduced_equivariance_residual: float
    branches: list                      # Branch objects at the big vertex
    synchrony: list = field(default_factory=list)  # per branch: groups


def _synchrony_pattern(red, vertex, branch):
    """Equality pattern of the lifted full-space coordinates on a branch."""
    names = [c + n for n, c in case_network(vertex).nodes]
    lam, root = branch.points[0]        # largest parameter value
    x = red.lift(vertex, root, [lam])
    scale = max(1.0, float(np.max(np.abs(x), initial=0.0)))
    groups = synchrony_groups(x)
    zero = tuple(sorted(names[i] for g in groups
                        if abs(x[g[0]]) <= SYNC_TOL * scale for i in g))
    pattern = tuple(tuple(names[i] for i in g) for g in groups if len(g) > 1)
    return {"equal_groups": pattern, "zero_coordinates": zero}


def casestudy_s10(f_text, g_text, case):
    """Run the full three-case pipeline from polynomial text input.

    f is declared as f(x, y) and g as g(y, x), both with parameter lambda.
    Returns a CaseStudyReport.
    """
    _, fvars, f_poly = parse_poly_dsl(f_text, param_dim=1)
    _, gvars, g_poly = parse_poly_dsl(g_text, param_dim=1)
    if len(fvars) != 2 or len(gvars) != 2:
        raise CaseMismatch("f and g must each declare two state variables")
    coeffs = check_case(f_poly, g_poly, case)
    F = assemble_case_tuple(f_poly, g_poly)
    rep = F.representation
    eq = check_equivariance(F, mode="exact")

    red = ls_reduce(F)
    ker_sub = red.kernel
    kernel_dims = {v: ker_sub.subdim[v] for v in rep.quiver.vertices}
    restricted = {a: ker_sub.coords[a] for a, _, _ in rep.quiver.arrows}
    req = check_reduced_equivariance(red, samples=100)
    decoupled = None
    if case == "a=0" and red.kernel_dim("N1") == 2:
        # D_u f(0; 0) is L on the kernel: K with L B = B K, exactly
        ar, B = rep.arith, ker_sub.basis["N1"]
        K = ar.solve(B, ar.matmul(linear_part(F)["N1"], B, 2))
        decoupled = bool(K[0][1] == 0 and K[1][0] == 0)
    identity_restriction = all(
        ker_sub.subdim[s] != 1 or ker_sub.subdim[t] != 1
        or restricted[a] == ((Fraction(1),),)
        for a, s, t in rep.quiver.arrows)
    branches = find_branches_1param(red, "N1")
    synchrony = [_synchrony_pattern(red, "N1", b) for b in branches]
    return CaseStudyReport(
        case=case,
        coefficients=coeffs,
        equivariance_passed=eq.passed,
        kernel_dims=kernel_dims,
        restricted_maps=restricted,
        decoupled=decoupled,
        identity_restriction=identity_restriction,
        reduced_equivariance_residual=float(req.max_residual()),
        branches=branches,
        synchrony=synchrony,
    )
