"""Taylor jets of center manifolds and the reduced dynamics on them.

For a polynomial tuple F with F(0) = 0 whose linearization splits every
vertex space into a center and a hyperbolic part, the local center manifold
at each vertex is the graph of a map phi_v from center to hyperbolic
coordinates. This module computes the Taylor jet of phi_v to a requested
degree by solving the invariance equation

    D phi(u) . f(u, phi(u)) = g(u, phi(u))

degree by degree (f and g are the center and hyperbolic components of the
field in split coordinates), together with the reduced field
F^c_v(u) = f(u, phi(u)). For an equivariant tuple, the per-vertex jets are
intertwined by the arrow matrices, which check_cm_equivariance verifies at
the coefficient level.

Only the polynomial jet is computed; no existence or uniqueness statement
about an actual invariant manifold is certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arith
from .arith import as_float_matrix, tolist
from .errors import DegreeOverflow, IllConditioned, ResonantBlock, SolveFailed
from .polyfield import homological_operator
from .polynomial import Poly, change_coordinates, float_flow
from .spectral import EndomorphismTuple, center_hyperbolic_split
from .tuples import (DEGREE_CAP, check_arrows, intertwining_defect,
                     require_equilibrium)

SPECTRAL_GAP_MIN = 1e-6


@dataclass
class VertexExpansion:
    """Center-manifold jet at one vertex, in split coordinates."""
    center_dim: int
    hyperbolic_dim: int
    phi: list        # hyperbolic_dim Polys in center_dim variables, deg 2..k
    reduced: list    # center_dim Polys in center_dim variables, deg <= k
    basis: object    # [B_c | B_h] change of coordinates (columns)
    basis_inv: object  # M^{-1}


@dataclass
class CMExpansion:
    """Per-vertex center-manifold Taylor data over a representation."""
    representation: object
    degree: int
    center: object          # Subrepresentation
    hyperbolic: object      # Subrepresentation
    vertices: dict          # vertex -> VertexExpansion


def cm_taylor(F, degree):
    """Compute the center-manifold jet and reduced field to `degree`.

    Requires F(0) = 0 and a clean center/hyperbolic split of the
    linearization. Exact input yields exact coefficients.
    """
    if degree > DEGREE_CAP:
        raise DegreeOverflow(f"requested degree {degree} > cap {DEGREE_CAP}")
    if F.param_dim != 0:
        raise ValueError("center-manifold jets are parameter-free here")
    require_equilibrium(F)
    L = EndomorphismTuple.from_linearization(F)
    split = center_hyperbolic_split(F.representation, L)
    if split.gap < SPECTRAL_GAP_MIN:
        raise IllConditioned(
            f"center/hyperbolic spectral gap {split.gap:.2e} below "
            f"{SPECTRAL_GAP_MIN:.0e}")
    center_sub, hyper_sub = split.selected, split.rest
    rep = center_sub.rep  # may have been demoted to float by the split
    ar = arith.joint(rep.mode, F.arith.mode)

    vertices = {}
    for v in rep.quiver.vertices:
        d = rep.dim[v]
        nc = center_sub.subdim[v]
        nh = hyper_sub.subdim[v]
        M, Minv = ar.freeze(split.basis[v]), ar.freeze(split.basis_inv[v])
        field = change_coordinates(F.components[v].outputs, M, Minv)
        fc = field[:nc]       # center components f(u, w)
        fh = field[nc:]       # hyperbolic components g(u, w)
        # linear blocks
        units = [tuple(int(i == j) for i in range(d)) for j in range(d)]
        Ac = [[p.terms.get(units[j], ar.zero) for j in range(nc)]
              for p in fc]
        Ah = [[p.terms.get(units[j], ar.zero) for j in range(nc, d)]
              for p in fh]

        phi = [Poly.zero(nc) for _ in range(nh)]
        for dd in range(2, degree + 1):
            phi = _add_phi_degree(fc, fh, Ac, Ah, phi, nc, nh, dd, ar)
        # reduced field: f(u, phi(u)) truncated at `degree`
        subs = [Poly.variable(nc, j) for j in range(nc)] + list(phi)
        reduced = [p.compose(subs).truncate(degree) for p in fc]
        vertices[v] = VertexExpansion(nc, nh, phi, reduced, M, Minv)
    return CMExpansion(rep, degree, center_sub, hyper_sub, vertices)


def _add_phi_degree(fc, fh, Ac, Ah, phi, nc, nh, dd, ar):
    """Solve the degree-dd coefficient equations for phi and append them.

    The degree-dd correction psi solves T(psi) = Ah psi - D psi . (Ac u)
    = minus the residual of the invariance equation, with T the
    homological operator at (Ac, Ah). A T with no unique solution raises
    ResonantBlock, in exact and float arithmetic alike.
    """
    if nh == 0 or nc == 0:
        return phi
    subs = [Poly.variable(nc, j) for j in range(nc)] + list(phi)
    f_at = [p.compose(subs) for p in fc]
    g_at = [p.compose(subs) for p in fh]
    # D phi . f - g: minus the current residual of the invariance equation
    rhs = []
    for i in range(nh):
        acc = -g_at[i]
        for j in range(nc):
            acc = acc + phi[i].diff(j) * f_at[j]
        rhs.append(acc.homogeneous_part(dd))
    if all(p.is_zero() for p in rhs):
        return phi
    T = homological_operator(ar.freeze(Ac), ar.freeze(Ah), dd - 1)
    try:
        sol = ar.solve_vector(T.matrix, T.basis.coords(rhs, ar))
    except SolveFailed:
        raise ResonantBlock(f"degree-{dd} invariance operator is singular")
    return [p + q for p, q in zip(phi, T.basis.from_coords(sol))]


def check_cm_equivariance(exp):
    """Coefficient-level intertwining of the jets across every arrow.

    Verifies R^h_a phi_s(u) = phi_t(R^c_a u) and
    R^c_a F^c_s(u) = F^c_t(R^c_a u), where R^c_a, R^h_a are the coordinate
    matrices of R_a on the center and hyperbolic subspaces; float residuals
    pass up to 1e-10.
    """
    ar = exp.representation.arith

    def residual(a, s, t):
        vs, vt = exp.vertices[s], exp.vertices[t]
        # [R^h_a 0; 0 R^c_a] maps the source jets (phi, F^c)
        Rout = ([list(r) + [ar.zero] * vs.center_dim
                 for r in tolist(exp.hyperbolic.coords[a])]
                + [[ar.zero] * vs.hyperbolic_dim + list(r)
                   for r in tolist(exp.center.coords[a])])
        defect = intertwining_defect(Rout, vs.phi + vs.reduced,
                                     exp.center.coords[a],
                                     vt.phi + vt.reduced, vs.center_dim)
        return max([ar.zero] + [p.max_abs_coeff() for p in defect])
    return check_arrows(exp.representation, residual, 1e-10, ar.mode)


def flow_consistency(F, exp, vertex, radius=1e-2):
    """Compare full and reduced flows started on the jet graph.

    Integrates the full field from M (u0, phi(u0)) and the reduced field
    from u0 for unit time, measures the center-coordinate discrepancy at
    radius and radius/2, and returns (err1, err2, ratio). For a degree-k
    jet the ratio should be about 2^(k+1).
    """
    vd = exp.vertices[vertex]
    nc = vd.center_dim
    M = as_float_matrix(vd.basis)
    Minv = as_float_matrix(vd.basis_inv)

    def run(r):
        u0 = np.full(nc, r / np.sqrt(max(nc, 1)))
        w0 = np.array([p.to_float().eval(list(u0)) for p in vd.phi])
        x_end = float_flow(F.components[vertex].outputs,
                           M @ np.concatenate([u0, w0]), 1.0)
        u_end = float_flow(vd.reduced, u0, 1.0)
        return float(np.max(np.abs((Minv @ x_end)[:nc] - u_end),
                            initial=0.0))

    e1 = run(radius)
    e2 = run(radius / 2)
    ratio = e1 / e2 if e2 > 0 else np.inf
    return e1, e2, ratio
