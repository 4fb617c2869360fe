"""Polynomial map tuples over a quiver representation.

A PolyMapTuple attaches to every vertex v a polynomial map
E_v x Lambda -> E_v, stored as one Poly per output component in the
variables (x_1 .. x_{dim v}, lambda_1 .. lambda_p). Equivariance of such a
tuple means R_a o F_{s(a)} = F_{t(a)} o (R_a x id) for every arrow a; this
module checks that identity exactly (coefficient expansion) or at sampled
points, and implements the operations that preserve it: composition, Lie
bracket, and restriction to an invariant family of subspaces. check_arrows
is the one arrow loop of every intertwining check in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arith
from .errors import (DegreeOverflow, ModeUnavailable, NotEquilibrium,
                     NotInvariant, SolveFailed)
from .polynomial import Poly, combine_rows, linear_forms, substitute_linear

DEGREE_CAP = 8
SAMPLED_DEFAULTS = {"samples": 64, "seed": 0, "tol": 1e-9}


class PolyMap:
    """A polynomial map R^{n+p} -> R^m as a tuple of Polys."""

    def __init__(self, outputs, nvars=None):
        outputs = tuple(outputs)
        if outputs:
            nvars = outputs[0].nvars
            for p in outputs:
                if p.nvars != nvars:
                    raise ValueError("output components disagree on nvars")
        elif nvars is None:
            raise ValueError("empty PolyMap needs explicit nvars")
        self.outputs = outputs
        self.nvars = nvars
        self.dim_out = len(outputs)

    def is_exact(self):
        return all(p.is_exact() for p in self.outputs)

    def degree(self):
        return max((p.degree() for p in self.outputs), default=-1)

    def eval(self, point):
        return [p.eval(point) for p in self.outputs]

    def __eq__(self, other):
        return (isinstance(other, PolyMap) and self.nvars == other.nvars
                and self.outputs == other.outputs)

    def __repr__(self):
        return f"PolyMap({self.dim_out} outputs in {self.nvars} vars)"


class PolyMapTuple:
    """One polynomial map per vertex of a quiver representation."""

    def __init__(self, representation, components, param_dim=0,
                 max_degree=DEGREE_CAP):
        self.representation = representation
        self.param_dim = int(param_dim)
        self.max_degree = int(max_degree)
        comps = {}
        for v in representation.quiver.vertices:
            pm = components[v]
            want_vars = representation.dim[v] + self.param_dim
            if pm.nvars != want_vars or pm.dim_out != representation.dim[v]:
                raise ValueError(
                    f"component at {v!r}: expected {representation.dim[v]} "
                    f"outputs in {want_vars} vars, got {pm.dim_out} in {pm.nvars}")
            comps[v] = pm
        self.components = comps

    def is_exact(self):
        return (self.representation.mode == "exact"
                and all(pm.is_exact() for pm in self.components.values()))

    @property
    def arith(self):
        """Exact arithmetic when the matrices and coefficients are all
        rational, float arithmetic otherwise."""
        return arith.EXACT if self.is_exact() else arith.FLOAT

    def degree(self):
        return max((pm.degree() for pm in self.components.values()), default=-1)

    def __eq__(self, other):
        return (isinstance(other, PolyMapTuple)
                and self.param_dim == other.param_dim
                and self.components == other.components)


@dataclass
class EquivarianceReport:
    per_arrow: dict
    passed: bool
    mode: str

    def max_residual(self):
        return max(self.per_arrow.values(), default=0.0)


def identity_tuple(rep):
    comps = {}
    for v in rep.quiver.vertices:
        n = rep.dim[v]
        comps[v] = PolyMap([Poly.variable(n, i) for i in range(n)], nvars=n)
    return PolyMapTuple(rep, comps)


def linear_tuple(rep, matrices):
    """The tuple x |-> L_v x from per-vertex square matrices."""
    comps = {v: PolyMap(linear_forms(matrices[v], rep.dim[v]),
                        nvars=rep.dim[v])
             for v in rep.quiver.vertices}
    return PolyMapTuple(rep, comps)


def check_arrows(rep, residual, tol, mode):
    """The EquivarianceReport of residual(a, s, t) over the arrows of rep,
    in quiver order: an arrow passes when its residual is exactly 0 in
    exact mode, or at most tol in any other mode.

    An exact check works out the residuals of rep.generating_arrows first.
    When each is 0, every other arrow is a product of passing arrows, since
    each relation checked is closed under products, and gets the exact
    zero; otherwise the remaining residuals are worked out too.
    """
    ar = arith.EXACT if mode == "exact" else arith.FLOAT
    q, known = rep.quiver, {}
    if ar is arith.EXACT:
        known = {a: residual(a, q.source[a], q.target[a])
                 for a in rep.generating_arrows}
        if all(ar.passes(r, tol) for r in known.values()):
            return EquivarianceReport(
                {a: known.get(a, ar.zero) for a, _, _ in q.arrows}, True, mode)
    per_arrow = {a: known[a] if a in known else residual(a, s, t)
                 for a, s, t in q.arrows}
    passed = all(ar.passes(r, tol) for r in per_arrow.values())
    return EquivarianceReport(per_arrow, passed, mode)


def intertwining_defect(R_out, P_s, R_in, P_t, n, param_dim=0):
    """R_out P_s(x, lambda) - P_t(R_in x, lambda) for Polys P_s in the n
    source variables plus param_dim parameters."""
    rhs = substitute_linear(P_t, R_in, n, param_dim)
    lhs = combine_rows(R_out, P_s, n + param_dim)
    return [l - r for l, r in zip(lhs, rhs)]


def equivariance_defect(F, arrow):
    """R_a o F_s - F_t o (R_a x id) as a PolyMap on the source variables."""
    rep = F.representation
    s, t = rep.quiver.source[arrow], rep.quiver.target[arrow]
    R = rep.arrow_matrix[arrow]
    return PolyMap(intertwining_defect(
        R, F.components[s].outputs, R, F.components[t].outputs, rep.dim[s],
        F.param_dim), nvars=rep.dim[s] + F.param_dim)


def check_equivariance(F, mode="exact", tol=SAMPLED_DEFAULTS["tol"],
                       samples=SAMPLED_DEFAULTS["samples"],
                       seed=SAMPLED_DEFAULTS["seed"]):
    """Verify R_a o F_s = F_t o R_a for every arrow.

    Exact mode compares polynomial coefficients and requires rational data.
    Sampled mode evaluates the defect at `samples` points drawn uniformly
    from [-1,1]^n with the given seed and reports the max residual.
    """
    if mode not in ("exact", "sampled"):
        raise ValueError("mode must be 'exact' or 'sampled'")
    if mode == "exact" and not F.is_exact():
        raise ModeUnavailable("exact equivariance check needs rational data")
    # only sampled mode draws points, so only it loads numpy.random
    rng = np.random.default_rng(seed) if mode == "sampled" else None

    def residual(a, s, t):
        defect = equivariance_defect(F, a).outputs
        if rng is None:
            return max([arith.EXACT.zero]
                       + [p.max_abs_coeff() for p in defect])
        points = rng.uniform(-1.0, 1.0, (samples, F.representation.dim[s]
                                         + F.param_dim))
        return max((abs(float(p.eval(x.tolist())))
                    for x in points for p in defect), default=0.0)
    return check_arrows(F.representation, residual, tol, mode)


def compose_tuple(F, G):
    """Vertex-wise composition F_v o G_v (parameters passed through);
    DegreeOverflow above the lower of the two degree caps."""
    if F.representation is not G.representation and \
            F.representation.quiver != G.representation.quiver:
        raise ValueError("tuples live on different representations")
    if F.param_dim != G.param_dim:
        raise ValueError("parameter dimensions differ")
    p = F.param_dim
    cap = min(F.max_degree, G.max_degree)
    comps = {}
    for v, Fv in F.components.items():
        Gv = G.components[v]
        d = Fv.dim_out
        n = Fv.nvars
        subs = list(Gv.outputs) + [Poly.variable(n, d + l) for l in range(p)]
        outs = [Fv.outputs[i].compose(subs) for i in range(d)]
        deg = max((o.degree() for o in outs), default=-1)
        if deg > cap:
            raise DegreeOverflow(
                f"composition at vertex {v!r} has degree {deg} > cap {cap}")
        comps[v] = PolyMap(outs, nvars=n)
    return PolyMapTuple(F.representation, comps, p, cap)


def bracket_polys(F_outputs, G_outputs, nvars, state_dim):
    """[F,G] = DF.G - DG.F componentwise; derivatives in state variables only."""
    out = []
    for i in range(state_dim):
        acc = Poly.zero(nvars)
        for j in range(state_dim):
            acc = acc + F_outputs[i].diff(j) * G_outputs[j]
            acc = acc - G_outputs[i].diff(j) * F_outputs[j]
        out.append(acc)
    return out


def bracket_tuple(F, G):
    """Vertex-wise Lie bracket DF_v . G_v - DG_v . F_v; DegreeOverflow
    when a bracket's degree exceeds the lower of the two caps."""
    if F.param_dim != G.param_dim:
        raise ValueError("parameter dimensions differ")
    cap = min(F.max_degree, G.max_degree)
    comps = {}
    for v, Fv in F.components.items():
        Gv = G.components[v]
        d = Fv.dim_out
        outs = bracket_polys(Fv.outputs, Gv.outputs, Fv.nvars, d)
        deg = max((o.degree() for o in outs), default=-1)
        if deg > cap:
            raise DegreeOverflow(
                f"bracket at vertex {v!r} has degree {deg} > cap {cap}")
        comps[v] = PolyMap(outs, nvars=Fv.nvars)
    return PolyMapTuple(F.representation, comps, F.param_dim, cap)


def restrict_to_subrep(F, S):
    """Express F in the coordinates of an invariant family of subspaces.

    For each vertex, writes F_v(B_v u; lambda) = B_v \\tilde F_v(u; lambda)
    and returns the tuple of the \\tilde F_v over the coordinate
    representation of S. Raises NotInvariant when F_v's image leaves the
    subspace (coefficient-wise in exact mode, beyond 1e-9 in float mode).
    """
    rep = F.representation
    ar = F.arith
    p = F.param_dim
    comps = {}
    for v in rep.quiver.vertices:
        B = S.basis[v]
        k = S.subdim[v]
        composed = substitute_linear(F.components[v].outputs, B, k, p)
        # solve B * out = composed, monomial by monomial
        monos = sorted({e for poly in composed for e in poly.terms},
                       key=lambda e: (sum(e), e))
        outs = [dict() for _ in range(k)]
        for e in monos:
            rhs = [poly.terms.get(e, 0) for poly in composed]
            try:
                y = ar.solve_vector(B, rhs, 1e-9)
            except SolveFailed:
                raise NotInvariant(
                    f"image of component at {v!r} leaves the subspace")
            for j, c in enumerate(arith.tolist(y)):
                if c != 0:
                    outs[j][e] = c
        comps[v] = PolyMap([Poly(k + p, t) for t in outs], nvars=k + p)
    return PolyMapTuple(S.as_representation(), comps, p, F.max_degree)


def linear_part(F):
    """D_x F_v(0;0) per vertex, in the representation's matrix mode."""
    rep = F.representation
    out = {}
    for v, pm in F.components.items():
        d = rep.dim[v]
        units = [tuple(int(i == j) for i in range(pm.nvars)) for j in range(d)]
        out[v] = rep.arith.freeze([[poly.terms.get(e, 0) for e in units]
                                   for poly in pm.outputs])
    return out


def require_equilibrium(F):
    """Raise NotEquilibrium unless F_v(0; 0) = 0 at every vertex, i.e.
    unless every constant term is exactly zero."""
    for v, pm in F.components.items():
        zero = (0,) * pm.nvars
        if any(p.terms.get(zero, 0) != 0 for p in pm.outputs):
            raise NotEquilibrium(f"vertex {v!r}: F(0; 0) != 0")
