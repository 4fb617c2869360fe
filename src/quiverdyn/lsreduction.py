"""Lyapunov-Schmidt reduction of equivariant steady-state problems.

Given a parameterized polynomial tuple F with F(base; lam0) = 0, the
linearization splits every vertex space into the generalized kernel and the
reduced image of L = D_x F(base; lam0), and the image-block equation is
solved by damped Newton iteration to produce the implicit graph map
phi_v(u; lam). Substituting back yields the reduced bifurcation map f_v on
the kernel coordinates; when F is quiver-equivariant, the reduced tuple is
again equivariant, which check_reduced_equivariance verifies by sampling.

Branches of a one-parameter reduced equation are traced on a logarithmic
parameter window and classified by leading exponent (lam or sqrt(lam)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

from .arith import FLOAT, as_float_matrix
from .errors import (DomainTooSmall, NewtonDiverged, NotEquilibrium,
                     SingularImageBlock)
from .polynomial import Poly, combine_rows, linear_forms
from .spectral import EndomorphismTuple, kernel_image_split
from .tuples import EquivarianceReport

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
EQUILIBRIUM_TOL = 1e-10
FD_STEP = 1e-5
BRANCH_WINDOW = (1e-4, 1e-2)
BRANCH_POINTS = 20
FIT_R2_MIN = 0.999


def _float_polys(polys):
    return [p.to_float() for p in polys]


class CompiledField:
    """A polynomial field and its Jacobian, evaluated by one matrix product.

    The exponent array E has one row per monomial in the union of the
    monomials of every field component and every Jacobian entry. The
    coefficient matrix C has one row per field component, then one per
    Jacobian entry in row-major order, so C @ prod(z ** E, axis=1) lists
    the field and then the whole Jacobian at z.
    """

    def __init__(self, field, jacobian, nvars):
        self.dim = len(field)
        polys = list(field) + [p for row in jacobian for p in row]
        monos = sorted({e for p in polys for e in p.terms})
        column = {e: k for k, e in enumerate(monos)}
        self.exponents = np.array(monos, dtype=float).reshape(len(monos),
                                                              nvars)
        self.coeffs = np.zeros((len(polys), len(monos)))
        for i, p in enumerate(polys):
            for e, c in p.terms.items():
                self.coeffs[i, column[e]] = float(c)

    def __call__(self, z):
        """(field, Jacobian) at the point z."""
        vals = self.coeffs @ (z ** self.exponents).prod(axis=1)
        d = self.dim
        return vals[:d], vals[d:].reshape(d, d)


@dataclass
class VertexReduction:
    """Per-vertex data of a Lyapunov-Schmidt reduction (float arithmetic)."""
    dim: int
    ker_dim: int
    basis: np.ndarray          # [B_ker | B_im], dim x dim
    basis_inv: np.ndarray
    coord_field: list          # Polys of z |-> M^{-1} F(M z + base; lam0 + lam)
    jacobian: list             # list of lists of Polys, d(coord_field)/dz
    radius: float
    evaluator: CompiledField   # coord_field and jacobian, compiled


def _max_abs(x):
    """max |x_i|, 0 for an empty x (the ndarray method skips np.max's
    per-call dispatch, which dominates at these sizes)."""
    return np.abs(x).max(initial=0.0)


def _solve(A, b):
    """A^{-1} b for the small dense systems of the Newton loops.

    The same LU solve as np.linalg.solve (LAPACK gesv) without its
    per-call checks, which cost more than the solve at these sizes.
    Raises np.linalg.LinAlgError when A is exactly singular.
    """
    if not A.size:
        return np.zeros(b.shape)
    x, info = lapack.dgesv(A, b)[2:]
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    return x


def _solve_image_block(v, jac, rhs, u, lam):
    """g_w^{-1} rhs, with g_w the image block of the field Jacobian."""
    m = len(u)
    try:
        return _solve(jac[m:, m:], rhs)
    except np.linalg.LinAlgError:
        raise NewtonDiverged(
            f"vertex {v!r}: singular image-block Jacobian at "
            f"u={u.tolist()}, lam={lam.tolist()}")


@dataclass
class LSReduction:
    """Evaluator-backed reduction onto the generalized kernel coordinates."""
    representation: object
    param_dim: int
    kernel: object             # Subrepresentation
    image: object              # Subrepresentation
    projectors: dict
    vertex_data: dict          # vertex -> VertexReduction
    newton_tol: float = NEWTON_TOL
    newton_max_iter: int = NEWTON_MAX_ITER
    # (u, lam, field Jacobian) of the latest reduced_eval
    _last_point: tuple = field(default=None, init=False, repr=False,
                               compare=False)

    def kernel_dim(self, v):
        return self.vertex_data[v].ker_dim

    def phi(self, v, u, lam):
        """Image-block coordinates w solving the eliminated equations."""
        vd = self.vertex_data[v]
        m = vd.ker_dim
        u = np.asarray(u, dtype=float)
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        w = np.zeros(vd.dim - m)
        gvals, jac = vd.evaluator(np.concatenate([u, w, lam]))
        for _ in range(self.newton_max_iter):
            res = gvals[m:]
            if _max_abs(res) <= self.newton_tol:
                return w
            step = _solve_image_block(v, jac, res, u, lam)
            # damped step, clamped to the neighbourhood radius; an accepted
            # candidate's field and Jacobian serve the next iteration
            alpha = 1.0
            norm0 = _max_abs(res)
            while alpha > 1e-4:
                cand = w - alpha * step
                if _max_abs(cand) > vd.radius:
                    alpha *= 0.5
                    continue
                cvals, cjac = vd.evaluator(np.concatenate([u, cand, lam]))
                norm = _max_abs(cvals[m:])
                if norm < norm0 or norm <= self.newton_tol:
                    w, gvals, jac = cand, cvals, cjac
                    break
                alpha *= 0.5
            else:
                raise NewtonDiverged(
                    f"vertex {v!r}: damping failed at u={u.tolist()}")
        raise NewtonDiverged(
            f"vertex {v!r}: no convergence in {self.newton_max_iter} steps")

    def reduced_eval(self, v, u, lam):
        """The reduced bifurcation map f_v(u; lam) on kernel coordinates.

        The field Jacobian at z = (u, phi(u; lam), lam) comes with the field
        from the compiled evaluator; it is kept, with u and lam, in
        _last_point for reduced_jacobian.
        """
        vd = self.vertex_data[v]
        u = np.asarray(u, dtype=float)
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        w = self.phi(v, u, lam)
        vals, jac = vd.evaluator(np.concatenate([u, w, lam]))
        self._last_point = (u, lam, jac)
        return vals[:vd.ker_dim]

    def reduced_jacobian(self, v, u, lam):
        """f_v(u; lam) and its Jacobian in u, by the implicit-function formula.

        With f the kernel rows and g the image rows of the field at
        z = (u, phi(u; lam), lam), differentiating g(u, phi(u; lam), lam) = 0
        gives D_u phi = -g_w^{-1} g_u, so D_u f_v = f_u - f_w g_w^{-1} g_u.
        f_v comes from reduced_eval, so every evaluation of the reduced map,
        and every NewtonDiverged of its phi solve, is a reduced_eval call.
        """
        f = self.reduced_eval(v, u, lam)
        u, lam, jac = self._last_point
        m = len(f)
        dphi = _solve_image_block(v, jac, jac[m:, :m], u, lam)
        return f, jac[:m, :m] - jac[:m, m:] @ dphi

    def lift(self, v, u, lam):
        """The full-space point x = base-shifted M (u, phi(u; lam))."""
        vd = self.vertex_data[v]
        w = self.phi(v, u, lam)
        return vd.basis @ np.concatenate([np.asarray(u, dtype=float), w])

    def kernel_matrix(self, a):
        """Float coordinate matrix of arrow a on the kernel subspaces."""
        q = self.representation.quiver
        mt = self.kernel_dim(q.target[a])
        ms = self.kernel_dim(q.source[a])
        return as_float_matrix(self.kernel.coords[a]).reshape(mt, ms)


def ls_reduce(F, base=None, lam0=None, radius=None):
    """Build the Lyapunov-Schmidt reduction of F at an equilibrium.

    base is a per-vertex point (default 0), lam0 the parameter value
    (default 0). Requires F(base; lam0) = 0 within 1e-10 at every vertex.
    At base 0 and lam0 0, F is split at the linearization in its own mode.
    """
    rep = F.representation
    p = F.param_dim
    if base is None:
        base = {v: np.zeros(rep.dim[v]) for v in rep.quiver.vertices}
    if lam0 is None:
        lam0 = np.zeros(p)
    lam0 = np.atleast_1d(np.asarray(lam0, dtype=float))

    # equilibrium check and linearization at (base; lam0)
    L_mats = {}
    for v in rep.quiver.vertices:
        d = rep.dim[v]
        bx = np.asarray(base[v], dtype=float)
        pt = list(np.concatenate([bx, lam0]))
        polys = _float_polys(F.components[v].outputs)
        vals = np.array([q.eval(pt) for q in polys])
        if _max_abs(vals) > EQUILIBRIUM_TOL:
            raise NotEquilibrium(
                f"vertex {v!r}: |F(base; lam0)| = {_max_abs(vals):.2e}")
        L_mats[v] = np.array([[polys[i].diff(j).eval(pt) for j in range(d)]
                              for i in range(d)])

    shifted_exact = all(float(x) == 0.0 for v in rep.quiver.vertices
                        for x in np.atleast_1d(base[v])) and \
        all(float(x) == 0.0 for x in lam0)
    if shifted_exact:
        # the exact coefficients, not their float images: 1/3 read back
        # from a float is a different matrix with a different spectrum
        L = EndomorphismTuple.from_linearization(F)
    else:
        rep = rep.to_float()
        L = EndomorphismTuple(rep, L_mats)
    ker_sub, im_sub, projectors = kernel_image_split(rep, L)

    vertex_data = {}
    for v in rep.quiver.vertices:
        d = rep.dim[v]
        m = ker_sub.subdim[v]
        M = FLOAT.hstack([ker_sub.basis[v], im_sub.basis[v]], d)
        Minv = FLOAT.inverse(M)
        # field in split coordinates, shifted to the equilibrium:
        # z |-> M^{-1} F(M z + base; lam + lam0)
        polys = _float_polys(F.components[v].outputs)
        nvars = d + p
        A = np.eye(nvars)
        A[:d, :d] = M
        offset = np.concatenate([np.asarray(base[v], dtype=float), lam0])
        shift = [s + Poly.constant(nvars, c) if c != 0.0 else s
                 for s, c in zip(linear_forms(A, nvars), offset.tolist())]
        coord_field = combine_rows(Minv, [q.compose(shift) for q in polys],
                                   nvars)
        jac = [[coord_field[i].diff(j) for j in range(d)] for i in range(d)]
        evaluator = CompiledField(coord_field, jac, nvars)
        # image block of the linearization must be invertible
        if d - m:
            Jw = evaluator(np.zeros(nvars))[1][m:, m:]
            sv = np.linalg.svd(Jw, compute_uv=False)
            if sv[-1] <= 1e-12 * max(1.0, sv[0]):
                raise SingularImageBlock(
                    f"vertex {v!r}: image-block Jacobian is singular")
            r_v = radius if radius is not None else \
                0.1 / max(1.0, np.linalg.norm(np.linalg.inv(Jw)))
        else:
            r_v = radius if radius is not None else 0.1
        vertex_data[v] = VertexReduction(d, m, M, Minv, coord_field, jac, r_v,
                                         evaluator)
    return LSReduction(rep, p, ker_sub, im_sub, projectors, vertex_data)


def check_reduced_equivariance(red, samples=100, tol=1e-8, radius=None,
                               seed=0):
    """Sample R_a f_s(u; lam) - f_t(R_a u; lam) over a common ball.

    Halves the sampling radius on Newton failures; raises DomainTooSmall
    below 1e-6.
    """
    rep = red.representation
    rng = np.random.default_rng(seed)
    if radius is None:
        radius = 0.1 * min(vd.radius for vd in red.vertex_data.values())
    per_arrow = {}
    for a, s, t in rep.quiver.arrows:
        C = red.kernel_matrix(a)
        m_s = red.kernel_dim(s)
        worst = 0.0
        r = radius
        done = 0
        while done < samples:
            u = rng.uniform(-r, r, size=m_s)
            lam = rng.uniform(-r, r, size=red.param_dim)
            try:
                lhs = C @ red.reduced_eval(s, u, lam) if m_s else \
                    np.zeros(red.kernel_dim(t))
                rhs = red.reduced_eval(t, C @ u, lam)
            except NewtonDiverged:
                r *= 0.5
                if r < 1e-6:
                    raise DomainTooSmall(
                        f"arrow {a!r}: no common neighbourhood above 1e-6")
                continue
            worst = max(worst, float(_max_abs(lhs - rhs)))
            done += 1
        per_arrow[a] = worst
    passed = all(w <= tol for w in per_arrow.values())
    return EquivarianceReport(per_arrow, passed, "sampled", tol)


def synchrony_groups(x, tol=1e-6):
    """Indices of the coordinates of x grouped by equal value.

    Two coordinates are equal when they differ by at most tol times
    max(1, max |x|). Groups are listed by their first index and include
    singletons.
    """
    scale = max(1.0, float(_max_abs(x)))
    groups = []
    for i in range(len(x)):
        for g in groups:
            if abs(x[i] - x[g[0]]) <= tol * scale:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def reduced_cross_derivative(red, v, i, j, h=FD_STEP):
    """Central finite-difference d f_i / d u_j of the reduced map at 0."""
    m = red.kernel_dim(v)
    lam = np.zeros(red.param_dim)
    e = np.zeros(m)
    e[j] = h
    fp = red.reduced_eval(v, e, lam)
    fm = red.reduced_eval(v, -e, lam)
    return float((fp[i] - fm[i]) / (2 * h))


@dataclass
class Branch:
    """One solution branch of a reduced 1-parameter bifurcation problem."""
    points: list               # of (lam, root array)
    exponents: list = field(default_factory=list)   # per coordinate: 1, 0.5, 0, or None
    coefficients: list = field(default_factory=list)
    r_squared: float = 1.0
    classified: bool = True


def _roots_at(red, v, lam, seeds_per_axis=9, scale=None, tol=1e-9):
    """Distinct zeros of f_v(.; lam) found by Newton from a seed grid."""
    m = red.kernel_dim(v)
    if scale is None:
        scale = 5.0 * math.sqrt(abs(lam))
    axes = [np.linspace(-scale, scale, seeds_per_axis)] * m
    roots = []
    for seed in np.array(np.meshgrid(*axes)).reshape(m, -1).T if m else []:
        u = np.array(seed, dtype=float)
        ok = False
        for _ in range(NEWTON_MAX_ITER):
            try:
                fval, J = red.reduced_jacobian(v, u, [lam])
            except NewtonDiverged:
                break
            if _max_abs(fval) <= 1e-12:
                ok = True
                break
            try:
                step = _solve(J, fval)
            except np.linalg.LinAlgError:
                break
            if _max_abs(step) > 10 * scale:
                break
            u = u - step
        if not ok or _max_abs(u) > 2 * scale:
            continue
        if all(_max_abs(u - r) > tol + 1e-6 * scale
               for r in roots):
            roots.append(u)
    roots.sort(key=lambda r: tuple(np.round(r / max(scale, 1e-12), 6)))
    return roots


def find_branches_1param(red, vertex, lam_range=BRANCH_WINDOW,
                         grid=BRANCH_POINTS):
    """Trace and classify branches of the reduced equation at one vertex.

    Zeros are found on `grid` log-spaced parameter values in lam_range,
    linked by continuation from large to small lam, and classified per
    coordinate by a log-log fit with exponents restricted to {1, 1/2};
    coordinates below noise level are reported as identically zero.
    """
    if red.param_dim != 1:
        raise ValueError("branch tracing requires exactly one parameter")
    m = red.kernel_dim(vertex)
    if m > 3:
        raise ValueError("branch tracing supports kernel dimension <= 3")
    lams = np.geomspace(lam_range[0], lam_range[1], grid)[::-1]
    branches = []
    for li, lam in enumerate(lams):
        roots = _roots_at(red, vertex, float(lam))
        used = [False] * len(roots)
        if li == 0:
            for r in roots:
                branches.append(Branch(points=[(float(lam), r)]))
            continue
        for b in branches:
            lam_prev, r_prev = b.points[-1]
            ratio = lam / lam_prev
            preds = [r_prev * ratio, r_prev * math.sqrt(ratio)]
            best, best_d = None, np.inf
            for idx, r in enumerate(roots):
                if used[idx]:
                    continue
                d = min(_max_abs(r - pr) for pr in preds)
                if d < best_d:
                    best, best_d = idx, d
            if best is not None and best_d <= 0.5 * math.sqrt(lam) + 1e-9:
                b.points.append((float(lam), roots[best]))
                used[best] = True
        for idx, r in enumerate(roots):
            if not used[idx]:
                branches.append(Branch(points=[(float(lam), r)]))
    # classify
    out = []
    for b in branches:
        if len(b.points) < grid // 2:
            continue
        ls = np.array([p[0] for p in b.points])
        xs = np.array([p[1] for p in b.points])
        exps, coefs, worst_r2 = [], [], 1.0
        for j in range(m):
            col = np.abs(xs[:, j])
            if np.max(col, initial=0.0) <= 1e-7:
                exps.append(0)
                coefs.append(0.0)
                continue
            mask = col > 1e-12
            if np.sum(mask) < 3:
                exps.append(None)
                coefs.append(None)
                worst_r2 = 0.0
                continue
            lx, ly = np.log(ls[mask]), np.log(col[mask])
            q, c = np.polyfit(lx, ly, 1)
            resid = ly - (q * lx + c)
            ss_tot = np.sum((ly - np.mean(ly)) ** 2)
            r2 = 1.0 - np.sum(resid ** 2) / ss_tot if ss_tot > 0 else 1.0
            worst_r2 = min(worst_r2, r2)
            if abs(q - 1.0) < 0.1:
                exps.append(1)
                coefs.append(float(np.mean(xs[mask, j] / ls[mask])))
            elif abs(q - 0.5) < 0.1:
                exps.append(0.5)
                coefs.append(float(np.mean(xs[mask, j] / np.sqrt(ls[mask]))))
            else:
                exps.append(None)
                coefs.append(float(math.exp(c)))
        b.exponents = exps
        b.coefficients = coefs
        b.r_squared = worst_r2
        b.classified = worst_r2 >= FIT_R2_MIN and all(
            e is not None for e in exps)
        out.append(b)
    out.sort(key=lambda b: tuple(
        (e if e is not None else 9, round(c, 6) if c is not None else 0.0)
        for e, c in zip(b.exponents, b.coefficients)))
    return out
