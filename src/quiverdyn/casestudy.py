"""Worked steady-state bifurcation study on a three-vertex quiver.

The fixture is a feedforward-like five-cell network with two cell types
(alternating x- and y-cells driven by maps f(x, y; lam) and g(y, x; lam)),
together with a four-cell subnetwork and a three-cell quotient-type
network. The three phase spaces carry four intertwining linear maps; any
pair (f, g) induces an equivariant tuple. Depending on the degeneracy of
the linearization coefficients

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
from .quiver import Quiver, QuiverRepresentation, selection_matrix
from .tuples import PolyMap, PolyMapTuple, check_equivariance

CASES = ("a=0", "b=0", "ab-cd=0")

# state layouts: big vertex (x1, y2, x3, y4, x5); middle (x1, y2, x3, y4);
# small (y1, x2, y3)
VERTEX_STATE = {
    "N1": ("x1", "y2", "x3", "y4", "x5"),
    "N2": ("x1", "y2", "x3", "y4"),
    "N3": ("y1", "x2", "y3"),
}


def build_case_quiver():
    """The three-vertex quiver with its four intertwining 0/1 maps."""
    quiver = Quiver(
        ["N1", "N2", "N3"],
        [("a1", "N1", "N2"), ("a2", "N1", "N2"),
         ("a3", "N3", "N2"), ("a4", "N2", "N3")])
    mats = {
        "a1": selection_matrix([0, 1, 2, 3], 5),   # (x1,y2,x3,y4,x5) -> (x1,y2,x3,y4)
        "a2": selection_matrix([4, 3, 2, 3], 5),   # -> (x5,y4,x3,y4)
        "a3": selection_matrix([1, 2, 1, 2], 3),   # (y1,x2,y3) -> (x2,y3,x2,y3)
        "a4": selection_matrix([1, 2, 3], 4),      # (x1,y2,x3,y4) -> (y2,x3,y4)
    }
    rep = QuiverRepresentation(quiver, {"N1": 5, "N2": 4, "N3": 3}, mats,
                               mode="exact")
    return quiver, rep


def _embed(poly, n, pos_self, pos_in, pos_lam):
    """Place a 3-variable response (own state, input, parameter) into a
    vertex phase space with n state variables plus one parameter."""
    return poly.embed(n + 1, [pos_self, pos_in, pos_lam])


def assemble_case_tuple(f_poly, g_poly):
    """The equivariant tuple induced by responses f(x, y; lam), g(y, x; lam).

    Both inputs are Polys in 3 variables (own state, input state,
    parameter). Wiring: in the five-cell vertex, x-cells listen to the next
    y-cell (x5 to y4) and y-cells to the middle x-cell; the four-cell and
    three-cell vertices are wired compatibly.
    """
    _, rep = build_case_quiver()
    c1 = PolyMap([
        _embed(f_poly, 5, 0, 1, 5),   # x1' = f(x1, y2)
        _embed(g_poly, 5, 1, 2, 5),   # y2' = g(y2, x3)
        _embed(f_poly, 5, 2, 3, 5),   # x3' = f(x3, y4)
        _embed(g_poly, 5, 3, 2, 5),   # y4' = g(y4, x3)
        _embed(f_poly, 5, 4, 3, 5),   # x5' = f(x5, y4)
    ])
    c2 = PolyMap([
        _embed(f_poly, 4, 0, 1, 4),
        _embed(g_poly, 4, 1, 2, 4),
        _embed(f_poly, 4, 2, 3, 4),
        _embed(g_poly, 4, 3, 2, 4),
    ])
    c3 = PolyMap([
        _embed(g_poly, 3, 0, 1, 3),   # y1' = g(y1, x2)
        _embed(f_poly, 3, 1, 2, 3),   # x2' = f(x2, y3)
        _embed(g_poly, 3, 2, 1, 3),   # y3' = g(y3, x2)
    ])
    return PolyMapTuple(rep, {"N1": c1, "N2": c2, "N3": c3}, param_dim=1)


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
    names = VERTEX_STATE[vertex]
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
    m1 = red.kernel_dim("N1")
    decoupled = None
    if case == "a=0" and m1 == 2:
        _, J = red.reduced_jacobian("N1", np.zeros(2), [0.0])
        decoupled = bool(max(abs(J[0, 1]), abs(J[1, 0])) <= 1e-8)
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
        reduced_equivariance_residual=float(max(
            (float(r) for r in req.per_arrow.values()), default=0.0)),
        branches=branches,
        synchrony=synchrony,
    )
