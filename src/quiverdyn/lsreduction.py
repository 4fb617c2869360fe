"""Lyapunov-Schmidt reduction of equivariant steady-state problems.

Given a parameterized polynomial tuple F with F(0; 0) = 0, the spectral
split of the linearization L = D_x F(0; 0) in F's own arithmetic divides
every vertex space into the generalized kernel and the reduced image, and
F is written in the split's coordinates z = M^{-1} x. The image-block
equation is solved by Newton iteration from w = 0 to produce the implicit
graph map phi_v(u; lam). Substituting back yields the reduced bifurcation
map f_v on the kernel coordinates; when F is quiver-equivariant, the
reduced tuple is again equivariant, which check_reduced_equivariance
verifies by sampling.

Branches of a one-parameter reduced equation are traced on a logarithmic
parameter window and classified by leading exponent (lam or sqrt(lam)).
Their zeros come from Newton on the whole field F(u, w; lam) = 0 rather
than on f_v: a zero of F with w inside the neighbourhood radius is a zero
of f_v with w = phi(u; lam), and one Newton step on F costs one evaluation,
where a step on f_v first solves for phi. Both are one lockstep Newton,
VertexReduction.newton: phi moves the image coordinates with u held fixed,
and the branch tracer moves all coordinates. Its lanes are evaluated by the
vertex's CompiledField, a plan of vector products and per-row term sums
built once, and its steps are stacked solves (_lane_solve) that split off
exactly singular lanes with one more call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arith import as_float_matrix
from .errors import (DomainTooSmall, NewtonDiverged, SingularImageBlock,
                     SizeOverflow)
from .polynomial import change_coordinates
from .spectral import EndomorphismTuple, kernel_image_split
from .tuples import check_arrows, require_equilibrium

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
CLOSING_STEPS = 2     # Newton steps a branch root takes past NEWTON_TOL
BRANCH_WINDOW = (1e-4, 1e-2)
BRANCH_POINTS = 20
FIT_R2_MIN = 0.999
SYNC_TOL = 1e-6       # relative tolerance of synchrony_groups


class CompiledField:
    """A polynomial field and its Jacobian, evaluated term by term.

    A plan of vector products is built once. Slots 0..n-1 hold the
    variables z_j, slot n holds 1.0, and every further slot is the product
    of two earlier ones: each power z_j^k is z_j^(k-1) * z_j, and each
    monomial is the product of its factors z_j^k, k > 0, in variable order.
    Every power is a chain of correctly rounded products, so its bits do not
    depend on how a float pow is vectorised. The products of one level (one
    more than their operands' highest) are one vector product.

    The rows are the field components, then the Jacobian entries in
    row-major order from the components' Poly.diff, each with its (slot,
    coefficient) terms in ascending monomial order. Ranked by their number
    of terms, the rows that have a q-th term come first, so the q-th terms
    of all rows are added by one vector sum.
    """

    def __init__(self, field, nvars):
        d = self.dim = len(field)
        rows = list(field) + [p.diff(j) for p in field for j in range(d)]
        self.nvars = n = nvars
        level = [0] * (n + 1)
        products = {}            # level -> [(slot, a, b)]: slot = a * b

        def times(a, b):
            level.append(max(level[a], level[b]) + 1)
            products.setdefault(level[-1], []).append((len(level) - 1, a, b))
            return len(level) - 1

        power, slot = {(j, 1): j for j in range(n)}, {}
        for e in sorted({e for p in rows for e in p.terms}):
            s = n
            for j, k in enumerate(e):
                for q in range(2, k + 1):
                    if (j, q) not in power:
                        power[j, q] = times(power[j, q - 1], j)
                if k:
                    s = power[j, k] if s == n else times(s, power[j, k])
            slot[e] = s
        self.slots = len(level)
        self.levels = [np.array(products[lv]).T for lv in sorted(products)]
        terms = [[(slot[e], p.terms[e]) for e in sorted(p.terms)]
                 for p in rows]
        rank = sorted(range(len(rows)), key=lambda i: -len(terms[i]))
        self.unrank = np.argsort(rank)
        self.spans, flat = [], []   # (first term, rows) of each position q
        for q in range(max(map(len, terms), default=0)):
            have = [terms[i][q] for i in rank if len(terms[i]) > q]
            self.spans.append((len(flat), len(have)))
            flat += have
        self.term_slot = np.array([s for s, _ in flat], dtype=int)
        self.coeff = np.array([c for _, c in flat], dtype=float)[:, None]

    def __call__(self, z):
        """(field, Jacobian) at every point z[..., :].

        The points are taken as variables x lanes, and every step is
        elementwise over lanes, so a lane's values do not depend on the
        batch it is evaluated in. Each row is summed term by term from 0.0;
        a row with no term stays 0.
        """
        lead, n = z.shape[:-1], self.nvars
        lanes = z.reshape(-1, n).T
        S = np.empty((self.slots, lanes.shape[1]))
        S[:n] = lanes
        S[n] = 1.0
        for dst, a, b in self.levels:
            S[dst] = S[a] * S[b]
        terms = S[self.term_slot]
        terms *= self.coeff
        acc = np.zeros((len(self.unrank), lanes.shape[1]))
        for first, k in self.spans:
            acc[:k] += terms[first:first + k]
        out = acc[self.unrank].T
        d = self.dim
        return (out[:, :d].reshape(lead + (d,)),
                out[:, d:].reshape(lead + (d, d)))


def _max_abs(x):
    """max |x_i| over the last axis, 0 where it is empty."""
    return np.abs(x).max(axis=-1, initial=0.0)


def _lane_solve(A, b):
    """A[i]^{-1} b[i] for a stack of small systems, and a mask of the lanes
    whose matrix is not exactly singular.

    When a matrix of the stack is singular, the stacked solve raises; the
    mask is then where slogdet's LU reports a nonzero sign (the LU with
    partial pivoting that the solve runs, so it fails on the same lanes),
    and the other lanes are solved in one more stacked call.
    """
    try:
        return np.linalg.solve(A, b), np.ones(len(A), dtype=bool)
    except np.linalg.LinAlgError:
        ok = np.linalg.slogdet(A)[0] != 0
        x = np.zeros(b.shape)
        x[ok] = np.linalg.solve(A[ok], b[ok])
        return x, ok


# Newton lane outcomes, and the NewtonDiverged message of each failure of phi
CONVERGED, SINGULAR, LEFT_RADIUS, NO_CONVERGENCE = range(4)
FAILURES = {SINGULAR: "singular image-block Jacobian",
            LEFT_RADIUS: "Newton left the neighbourhood radius",
            NO_CONVERGENCE: f"no convergence in {NEWTON_MAX_ITER} steps"}


@dataclass
class VertexReduction:
    """Per-vertex data of a Lyapunov-Schmidt reduction (float arithmetic)."""
    dim: int
    ker_dim: int
    basis: np.ndarray          # [B_ker | B_im], dim x dim
    radius: float
    evaluator: CompiledField   # z |-> M^{-1} F(M z; lam) and its Jacobian

    def newton(self, z, first, scale, closing):
        """Newton on the rows first..dim-1 of the field in the coordinates
        first..dim-1 from every lane z[i] = (u, w, lam), in lockstep: the
        image coordinates for first = ker_dim, all of them for first = 0.

        A lane fails when its Jacobian block is singular (SINGULAR), when
        the u part of a step is longer than 10 * scale[i] or w leaves the
        radius (LEFT_RADIUS), or when it has not converged in
        NEWTON_MAX_ITER steps (NO_CONVERGENCE). It converges when
        max |F[first:]| <= NEWTON_TOL, and then takes `closing` more steps
        under the same rules, so that its root is exact to round-off rather
        than to NEWTON_TOL / |F'|; a closing step that fails a rule leaves
        the lane where it was. Each lane takes the steps it would take
        alone. Returns the lanes' last points, the field at each lane's last
        evaluated point, and each lane's outcome.
        """
        d, k = self.dim, self.ker_dim - first   # a step's first k move u
        vals = np.zeros((len(z), d))
        status = np.full(len(z), NO_CONVERGENCE)
        closed = np.zeros(len(z), dtype=int)   # steps taken since converging
        live = np.arange(len(z))
        for it in range(NEWTON_MAX_ITER + closing + 1):
            if not live.size:
                break
            field, jac = self.evaluator(z[live])
            vals[live] = field
            F, J = field[:, first:], jac[:, first:, first:]
            status[live[_max_abs(F) <= NEWTON_TOL]] = CONVERGED
            conv = status[live] == CONVERGED
            # a lane leaves once converged with its closing steps taken, or
            # unconverged after NEWTON_MAX_ITER steps
            stay = np.where(conv, closed[live] < closing,
                            it < NEWTON_MAX_ITER)
            live, F, J, conv = live[stay], F[stay], J[stay], conv[stay]
            if not live.size:
                break
            step, ok = _lane_solve(J, F[:, :, None])
            step = step[:, :, 0]
            cand = z[live, first:d] - step
            inside = (_max_abs(step[:, :k]) <= 10 * scale[live]) \
                & (_max_abs(cand[:, k:]) <= self.radius)
            status[live[~conv & ~ok]] = SINGULAR
            status[live[~conv & ok & ~inside]] = LEFT_RADIUS
            ok &= inside
            z[live[ok], first:d] = cand[ok]
            closed[live[ok & conv]] += 1
            live = live[ok & (~conv | (closed[live] < closing))]
        return z, vals, status


@dataclass
class LSReduction:
    """Evaluator-backed reduction onto the generalized kernel coordinates."""
    representation: object
    param_dim: int
    kernel: object             # Subrepresentation
    vertex_data: dict          # vertex -> VertexReduction

    def kernel_dim(self, v):
        return self.vertex_data[v].ker_dim

    def reduced_lanes(self, v, u, lam):
        """phi and the reduced map f_v at every lane (u[i], lam[i]) of
        vertex v: Newton on the image rows in the image coordinates from
        w = 0, with u held fixed.

        Returns (w, f, status): the image coordinates, the kernel rows of
        the field at (u, w, lam), and each lane's outcome (CONVERGED or the
        failure that ended it).
        """
        vd = self.vertex_data[v]
        m = vd.ker_dim
        z = np.hstack([u, np.zeros((len(u), vd.dim - m)), lam])
        # u does not move: the scale bounds an empty step
        z, vals, status = vd.newton(z, m, np.zeros(len(u)), 0)
        return z[:, m:vd.dim], vals[:, :m], status

    def _one_lane(self, v, u, lam):
        """reduced_lanes at the one point (u, lam) as (w, f); raises
        NewtonDiverged naming the failure that ended the lane."""
        u = np.asarray(u, dtype=float)
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        w, f, status = self.reduced_lanes(v, u[None], lam[None])
        if status[0] != CONVERGED:
            raise NewtonDiverged(
                f"vertex {v!r}: {FAILURES[status[0]]} at u={u.tolist()}, "
                f"lam={lam.tolist()}")
        return w[0], f[0]

    def phi(self, v, u, lam):
        """Image-block coordinates w solving the eliminated equations."""
        return self._one_lane(v, u, lam)[0]

    def reduced_eval(self, v, u, lam):
        """The reduced bifurcation map f_v(u; lam) on kernel coordinates."""
        return self._one_lane(v, u, lam)[1]

    def lift(self, v, u, lam):
        """The full-space point x = M (u, phi(u; lam))."""
        vd = self.vertex_data[v]
        w = self.phi(v, u, lam)
        return vd.basis @ np.concatenate([np.asarray(u, dtype=float), w])

    def kernel_matrix(self, a):
        """Float coordinate matrix of arrow a on the kernel subspaces."""
        q = self.representation.quiver
        mt = self.kernel_dim(q.target[a])
        ms = self.kernel_dim(q.source[a])
        return as_float_matrix(self.kernel.coords[a]).reshape(mt, ms)


def ls_reduce(F, radius=None):
    """Build the Lyapunov-Schmidt reduction of F at the origin, lam = 0.

    Requires F(0; 0) = 0 exactly. The linearization is split in F's own
    arithmetic, and the Newton solves run in the float image of the split's
    coordinates. radius bounds the image coordinates w of phi; by default
    it is 0.1 / max(1, |g_w(0)^{-1}|) per vertex.
    """
    require_equilibrium(F)
    rep = F.representation
    p = F.param_dim
    split = kernel_image_split(rep, EndomorphismTuple.from_linearization(F))
    ker_sub = split.selected
    vertex_data = {}
    for v in rep.quiver.vertices:
        d = rep.dim[v]
        m = ker_sub.subdim[v]
        M = as_float_matrix(split.basis[v])
        field = change_coordinates(
            [q.to_float() for q in F.components[v].outputs], M,
            as_float_matrix(split.basis_inv[v]), p)
        evaluator = CompiledField(field, d + p)
        # image block of the linearization must be invertible
        if d - m:
            Jw = evaluator(np.zeros(d + p))[1][m:, m:]
            sv = np.linalg.svd(Jw, compute_uv=False)
            if sv[-1] <= 1e-12 * max(1.0, sv[0]):
                raise SingularImageBlock(
                    f"vertex {v!r}: image-block Jacobian is singular")
            r_v = radius if radius is not None else \
                0.1 / max(1.0, np.linalg.norm(np.linalg.inv(Jw)))
        else:
            r_v = radius if radius is not None else 0.1
        vertex_data[v] = VertexReduction(d, m, M, r_v, evaluator)
    return LSReduction(rep, p, ker_sub, vertex_data)


def check_reduced_equivariance(red, samples=100, tol=1e-8, radius=None,
                               seed=0):
    """Sample R_a f_s(u; lam) - f_t(R_a u; lam) over a common ball.

    The samples still owed are drawn at once, row by row (u, then lam), and
    solved as one batch of lanes on each side. Samples before the first
    failed one count; the generator is set past the failed sample and the
    sampling radius halved, so the draws are those of a sample-by-sample
    loop. Raises DomainTooSmall when the radius falls below 1e-6.
    """
    rng = np.random.default_rng(seed)
    if radius is None:
        radius = 0.1 * min(vd.radius for vd in red.vertex_data.values())

    def residual(a, s, t):
        C = red.kernel_matrix(a)
        m_s = red.kernel_dim(s)
        worst, r, done = 0.0, radius, 0
        while done < samples:
            state = rng.bit_generator.state
            draws = rng.uniform(-r, r, (samples - done, m_s + red.param_dim))
            u, lam = draws[:, :m_s], draws[:, m_s:]
            if m_s:
                _, f_s, status_s = red.reduced_lanes(s, u, lam)
                lhs, failed = f_s @ C.T, status_s != CONVERGED
            else:
                lhs = np.zeros((len(u), red.kernel_dim(t)))
                failed = np.zeros(len(u), dtype=bool)
            _, rhs, status_t = red.reduced_lanes(t, u @ C.T, lam)
            failed |= status_t != CONVERGED
            kept = int(np.argmax(failed)) if failed.any() else len(u)
            worst = max(worst, float(
                np.abs(lhs[:kept] - rhs[:kept]).max(initial=0.0)))
            done += kept
            if kept < len(u):
                rng.bit_generator.state = state
                rng.uniform(-r, r, (kept + 1, m_s + red.param_dim))
                r *= 0.5
                if r < 1e-6:
                    raise DomainTooSmall(
                        f"arrow {a!r}: no common neighbourhood above 1e-6")
        return worst
    return check_arrows(red.representation, residual, tol, "sampled")


def synchrony_groups(x):
    """Indices of the coordinates of x grouped by equal value.

    Two coordinates are equal when they differ by at most SYNC_TOL times
    max(1, max |x|). Groups are listed by their first index and include
    singletons.
    """
    scale = max(1.0, float(_max_abs(x)))
    groups = []
    for i in range(len(x)):
        for g in groups:
            if abs(x[i] - x[g[0]]) <= SYNC_TOL * scale:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


@dataclass
class Branch:
    """One solution branch of a reduced 1-parameter bifurcation problem."""
    points: list               # of (lam, root array)
    exponents: list = field(default_factory=list)   # per coordinate: 1, 0.5, 0, or None
    coefficients: list = field(default_factory=list)
    r_squared: float = 1.0
    classified: bool = True


def _seed_grid(m, scale):
    """The 9^m grid on [-scale, scale]^m, one seed per row."""
    if not m:
        return np.zeros((0, 0))
    axes = [np.linspace(-scale, scale, 9)] * m
    return np.array(np.meshgrid(*axes)).reshape(m, -1).T


def _distinct_roots(u, converged, scale):
    """The converged points within 2 * scale, each kept unless it repeats
    one kept before it in seed order, then sorted."""
    cand = u[converged & ~(_max_abs(u) > 2 * scale)]
    roots = []
    while len(cand):
        roots.append(cand[0])
        cand = cand[_max_abs(cand - cand[0]) > 1e-9 + 1e-6 * scale]
    roots.sort(key=lambda r: tuple(np.round(r / max(scale, 1e-12), 6)))
    return roots


def find_branches_1param(red, vertex, lam_range=BRANCH_WINDOW,
                         grid=BRANCH_POINTS):
    """Trace and classify branches of the reduced equation at one vertex.

    Zeros are found by Newton on the whole field from a seed grid at each
    of `grid` log-spaced parameter values in lam_range, all in one batch,
    and are exact to round-off (VertexReduction.newton with
    CLOSING_STEPS). They are linked by continuation from large to small
    lam, and classified per coordinate by a log-log fit with exponents
    restricted to {1, 1/2}; coordinates below noise level are reported as
    identically zero. A coordinate with fewer than three
    points, or with all of them at one lam, has no fit and leaves its
    branch unclassified.
    """
    if red.param_dim != 1:
        raise ValueError("branch tracing requires exactly one parameter")
    m = red.kernel_dim(vertex)
    if m > 3:
        raise SizeOverflow(f"kernel dimension {m} > 3, the 9^m seed grid cap")
    lams = np.geomspace(lam_range[0], lam_range[1], grid)[::-1]
    # zeros at every lam from one seed grid each, all solved in one batch
    scales = [5.0 * math.sqrt(abs(lam)) for lam in lams]
    seeds = [_seed_grid(m, sc) for sc in scales]
    n = len(seeds[0])
    vd = red.vertex_data[vertex]
    z = np.hstack([np.vstack(seeds), np.zeros((len(lams) * n, vd.dim - m)),
                   np.repeat(lams, n)[:, None]])
    z, _, status = vd.newton(z, 0, np.repeat(scales, n), CLOSING_STEPS)
    u, converged = z[:, :m], status == CONVERGED
    branches = []
    for li, lam in enumerate(lams):
        block = slice(li * n, (li + 1) * n)
        roots = _distinct_roots(u[block], converged[block], scales[li])
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
            lx, ly = np.log(ls[mask]), np.log(col[mask])
            # a fit needs three points, not all at one lam (to round-off)
            fit = np.polyfit(lx, ly, 1, full=True) if len(lx) >= 3 else None
            if fit is None or fit[2] < 2:
                exps.append(None)
                coefs.append(None)
                worst_r2 = 0.0
                continue
            q, c = fit[0]
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
        b.classified = bool(worst_r2 >= FIT_R2_MIN) and all(
            e is not None for e in exps)
        out.append(b)
    out.sort(key=lambda b: tuple(
        (e if e is not None else 9, round(c, 6) if c is not None else 0.0)
        for e, c in zip(b.exponents, b.coefficients)))
    return out
