"""Endomorphisms of quiver representations and their spectral splittings.

An endomorphism tuple is a square matrix per vertex commuting with every
arrow matrix. Its per-vertex spectra are pooled into joint clusters; each
cluster carries a generalized eigenspace at every vertex, and these families
of subspaces are invariant under all arrows, i.e. subrepresentations. On top
of that sit the kernel/image and center/hyperbolic splittings, which share
one body, and the semisimple/nilpotent (Jordan-Chevalley) decomposition.

Exact mode factors the lcm of the vertex charpolys over Q once, by
exactlin.shared_factors, so the clusters are coprime; what is not proven
stays in one cofactor, and a split whose cofactor has degree three or more
falls back to float with a warning. Float mode takes eigenvalues in
joint_spectrum only and decides by one band, _same, which are one. Both
take a generalized eigenspace as the kernel of f(L_v)^m, f the cluster's
factor, in arith.image_kernel's normal form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import arith, exactlin
from .arith import matrix_shape
from .errors import (AxisAmbiguous, ClusterSplit, IllConditioned,
                     ShapeMismatch, SolveFailed)
from .quiver import Subrepresentation
from .tuples import check_arrows, linear_part

EPS_EIG = 1e-8
EPS_AXIS = 1e-8
SN_MAX_ITER = 50     # Newton steps for the semisimple part


class EndomorphismTuple:
    """A square matrix per vertex, intended to commute with all arrows."""

    def __init__(self, representation, matrices):
        self.representation = representation
        self.mode = representation.mode
        self.arith = representation.arith
        mats = {}
        for v in representation.quiver.vertices:
            M = matrices[v]
            d = representation.dim[v]
            if matrix_shape(M) != (d, d) and d > 0:
                raise ShapeMismatch(
                    f"vertex {v!r}: matrix shape {matrix_shape(M)} != ({d},{d})")
            mats[v] = self.arith.freeze(M)
        self.matrices = mats

    @staticmethod
    def from_linearization(F):
        """D_x F_v(0;0) per vertex (an endomorphism whenever F is
        equivariant and fixes the origin)."""
        return EndomorphismTuple(F.representation, linear_part(F))


def check_endomorphism(rep, L):
    """Verify R_a L_s = L_t R_a for every arrow; per-arrow max residuals
    (float residuals pass up to EPS_EIG)."""
    ar = arith.joint(rep.mode, L.mode)

    def residual(a, s, t):
        R = rep.arrow_matrix[a]
        n = rep.dim[s]
        return ar.max_abs(ar.sub(ar.matmul(R, L.matrices[s], n),
                                 ar.matmul(L.matrices[t], R, n)))
    return check_arrows(rep, residual, EPS_EIG, ar.mode)


@dataclass
class SpectralCluster:
    """One joint eigenvalue cluster with per-vertex algebraic multiplicities.

    In exact mode `factor` is the monic rational factor of the
    characteristic polynomials whose roots form the cluster (coefficient
    list in increasing degree); `value` is a numeric representative
    (conjugate pairs stored once, with nonnegative imaginary part).
    Multiplicities count the factor, so a conjugate pair of multiplicity m
    spans a real subspace of dimension (deg factor) * m. A float cluster's
    value is the mean of the eigenvalues pooled into it, its roots.
    """
    value: object
    multiplicity: dict          # vertex -> int
    is_pair: bool = False
    factor: object = None       # exact monic factor, or None in float mode
    roots: tuple = ()           # numeric roots of the factor


def _exact_factors(L):
    """Per-vertex charpolys factored over Q into a shared factor list.

    Returns (factors, mults): monic coefficient lists, pairwise coprime
    as factors of the lcm of the charpolys (the squarefree part of its
    unproven cofactor last), and mults[i][v], the multiplicity of
    factors[i] in charpoly(L_v), by exactlin.shared_factors.
    """
    rep = L.representation
    vertices = [v for v in rep.quiver.vertices if rep.dim[v]]
    factors, counts = exactlin.shared_factors(
        [exactlin.charpoly(L.matrices[v]) for v in vertices])
    return factors, [{**dict.fromkeys(rep.quiver.vertices, 0),
                      **dict(zip(vertices, row))} for row in counts]


def _factor_representative(f):
    """Numeric representative and root list of a monic rational factor."""
    roots = np.roots([float(c) for c in reversed(f)])
    roots = tuple(sorted((complex(r) for r in roots),
                         key=lambda z: (z.real, z.imag)))
    if len(f) == 2:  # linear: exact rational root
        return -f[0], roots, False
    rep = max(roots, key=lambda z: z.imag)
    is_pair = len(f) == 3 and (f[1] * f[1] - 4 * f[0]) < 0
    return rep, roots, is_pair


def _exact_real_part(c):
    """The real part of an exact cluster: exact for a rational root or a
    conjugate pair, numeric for any other factor."""
    if len(c.factor) == 2:
        return -c.factor[0]
    return -c.factor[1] / 2 if c.is_pair else complex(c.value).real


def _same(w, z, tie=False):
    """Whether float roots w and z are one eigenvalue: |w - z| within
    10 EPS_EIG max(1, |z|). Above 100 times that they are distinct; between
    raises ClusterSplit, or counts as distinct for a tie of real parts."""
    d = abs(w - z) / (EPS_EIG * max(1.0, abs(z)))
    if 10 < d <= 100 and not tie:
        raise ClusterSplit(f"roots {w} and {z} are neither one nor two")
    return d <= 10


def joint_spectrum(L):
    """Pool the eigenvalues of all L_v into clusters with per-vertex
    multiplicities (0 where a vertex misses the eigenvalue), ordered by
    real part, then by imaginary part. Float mode decides which roots are
    one by _same alone: a root joins the cluster it is one with, is real
    when one with its conjugate, and real parts that are one tie, so
    round-off orders no clusters."""
    rep = L.representation
    if L.mode == "exact":
        factors, mults = _exact_factors(L)
        clusters = []
        for f, m in zip(factors, mults):
            value, roots, is_pair = _factor_representative(f)
            clusters.append(SpectralCluster(value, m, is_pair, f, roots))
        clusters.sort(key=lambda c: (_exact_real_part(c),
                                     complex(c.value).imag))
        return clusters
    # float mode: numeric eigenvalues, pooled into clusters by _same
    pooled = []
    for v in rep.quiver.vertices:
        if rep.dim[v] == 0:
            continue
        for w in np.linalg.eigvals(L.matrices[v]):
            w = complex(w)
            if _same(w, w.conjugate()):
                w = complex(w.real, 0.0)
            elif w.imag < 0:
                continue  # conjugate pairs stored once
            pooled.append((w, v))
    pooled.sort(key=lambda t: (t[0].real, t[0].imag))
    clusters = []
    for w, v in pooled:
        near = [c for c in clusters if _same(w, c.value)]
        if not near:
            near = [SpectralCluster(w, dict.fromkeys(rep.quiver.vertices, 0),
                                    w.imag > 0)]
            clusters += near
        c = near[0]
        c.multiplicity[v] += 1
        c.roots += (w,)
        c.value = sum(c.roots) / len(c.roots)
    tie, real = None, {}
    for c in sorted(clusters, key=lambda c: c.value.real):
        if tie is None or not _same(c.value.real, tie.value.real, tie=True):
            tie = c
        real[id(c)] = tie.value.real
    return sorted(clusters, key=lambda c: (real[id(c)], c.value.imag))


def generalized_eigenspace_subrep(rep, L, cluster):
    """The generalized eigenspace of a joint cluster at every vertex,
    packaged as a subrepresentation."""
    return _union_subrep(rep, L, [cluster])


def _cluster_factor(c):
    """A cluster's factor: the proven one in exact mode; in float mode t - z,
    or t^2 - 2 Re(z) t + |z|^2 for a pair, z the cluster's value."""
    if c.factor is not None:
        return c.factor
    z = complex(c.value)
    return [abs(z) ** 2, -2 * z.real, 1.0] if c.is_pair else [-z.real, 1.0]


def _eigenspace_basis(rep, L, cluster):
    """Per-vertex basis of the generalized eigenspace of a joint cluster:
    the kernel of f(L_v)^m in the normal form, for the cluster's factor f
    of multiplicity m at v; ClusterSplit unless it has dimension deg(f) m."""
    ar, f = L.arith, _cluster_factor(cluster)
    basis = {}
    for v in rep.quiver.vertices:
        m = cluster.multiplicity[v]
        kern = []
        if m:
            fpow = reduce(exactlin.poly_mul, [f] * m)
            kern = ar.image_kernel(ar.matrix_poly(fpow, L.matrices[v]))[1]
            if len(kern) != (len(f) - 1) * m:
                raise ClusterSplit(f"vertex {v!r}: generalized eigenspace "
                                   f"of dimension {len(kern)}, not "
                                   f"{(len(f) - 1) * m}")
        basis[v] = ar.columns(kern, rep.dim[v])
    return basis


def _union_subrep(rep, L, clusters):
    """Direct sum of the generalized eigenspaces of several clusters: their
    bases side by side, packaged as one subrepresentation."""
    parts = [_eigenspace_basis(rep, L, c) for c in clusters]
    basis = {v: rep.arith.hstack([B[v] for B in parts], rep.dim[v])
             for v in rep.quiver.vertices}
    return Subrepresentation.from_bases(rep, basis, EPS_EIG)


def _spectrum_with_fallback(rep, L):
    clusters = joint_spectrum(L)
    if L.mode == "exact" and any(
            c.factor is not None and len(c.factor) > 3 for c in clusters):
        warnings.warn("characteristic polynomial did not factor over Q; "
                      "falling back to float arithmetic")
        rep = L.representation.to_float()
        L = EndomorphismTuple(rep, L.matrices)
        clusters = joint_spectrum(L)
    return rep, L, clusters


@dataclass(frozen=True)
class SpectralSplit:
    """The selected and rest subrepresentations of a spectral split.

    `gap` is the least distance of a rest eigenvalue from the selected set
    (|z| for the kernel split, |Re z| for the center split) minus the
    largest distance of a selected one. `basis[v]` is M = [B_sel | B_rest],
    the coordinates adapted to the split at v, and `basis_inv[v]` is M^{-1}.
    """
    selected: Subrepresentation
    rest: Subrepresentation
    gap: float
    basis: dict
    basis_inv: dict


def _distance(what, z):
    return abs(z) if what == "kernel" else abs(z.real)


def _is_selected(c, what):
    """Whether a cluster lies in the kernel (eigenvalue 0) or the center
    (imaginary axis) part of its split.

    An exact cluster is decided from its factor: it has the root 0 when its
    constant coefficient is 0, and a complex pair t^2 + q lies on the axis.
    A float cluster is decided from its root, and one within the band
    [EPS_AXIS, 100 EPS_AXIS) raises AxisAmbiguous.
    """
    if c.factor is not None:
        return c.factor[0] == 0 or (
            what == "center" and c.is_pair and c.factor[1] == 0)
    dist = _distance(what, complex(c.value))
    if EPS_AXIS <= dist < 100 * EPS_AXIS:
        raise AxisAmbiguous(f"eigenvalue {c.value} within the ambiguity "
                            f"band of the {what} split")
    return dist < EPS_AXIS


def _split(rep, L, what):
    """The clusters `what` selects against the rest, as a SpectralSplit of
    complementary subrepresentations."""
    rep, L, clusters = _spectrum_with_fallback(rep, L)
    sel, rest = [], []
    for c in clusters:
        (sel if _is_selected(c, what) else rest).append(c)

    def distances(cs):
        return [_distance(what, complex(z)) for c in cs for z in c.roots]

    gap = (min(distances(rest), default=np.inf)
           - max(distances(sel), default=0.0))
    sub_sel = _union_subrep(rep, L, sel)
    sub_rest = _union_subrep(rep, L, rest)
    basis, basis_inv = {}, {}
    for v in rep.quiver.vertices:
        basis[v] = rep.arith.hstack([sub_sel.basis[v], sub_rest.basis[v]],
                                    rep.dim[v])
        try:
            basis_inv[v] = rep.arith.inverse(basis[v])
        except SolveFailed as exc:
            raise AxisAmbiguous(f"vertex {v!r}: {what} split is not a "
                                f"direct sum ({exc})")
    return SpectralSplit(sub_sel, sub_rest, gap, basis, basis_inv)


def center_hyperbolic_split(rep, L):
    """Split into the center (eigenvalues on the imaginary axis) and
    hyperbolic subrepresentations, as a SpectralSplit."""
    return _split(rep, L, "center")


def kernel_image_split(rep, L):
    """Split into the generalized kernel (eigenvalue 0) and the reduced
    image, as a SpectralSplit."""
    return _split(rep, L, "kernel")


def sn_decomposition(L):
    """Jordan-Chevalley decomposition L = L^S + L^N per vertex, by one
    Newton iteration S <- S - q'(S)^{-1} q(S) from S = L_v, until q(S) is 0.
    Exact q is the squarefree part of the charpoly; float q is the product
    of the factors of the joint clusters at v, and a float step that no
    longer halves, or is within the solve tolerance of S, ends it."""
    rep, ar = L.representation, L.arith
    clusters = joint_spectrum(L) if ar.mode == "float" else []
    S_mats, N_mats = {}, {}
    for v in rep.quiver.vertices:
        A = L.matrices[v]
        if rep.dim[v] == 0:
            S_mats[v] = N_mats[v] = A
            continue
        if ar.mode == "exact":
            fs = [exactlin.poly_squarefree_part(exactlin.charpoly(A))]
        else:
            # q / s takes the steps of q; s = max |q'(L_v)| keeps the rank
            # rule of the solve relative to q'(S) when clusters lie close
            fs = [_cluster_factor(c) for c in clusters if c.multiplicity[v]]
            s = ar.max_abs(ar.matrix_poly(exactlin.poly_deriv(
                reduce(exactlin.poly_mul, fs)), A))
            fs[0] = [c / s for c in fs[0]]
        dq = exactlin.poly_deriv(reduce(exactlin.poly_mul, fs))
        S, last = A, np.inf
        for _ in range(SN_MAX_ITER):
            # q(S) by its factors: expanded, q loses the digits that tell
            # close clusters apart
            qS = reduce(lambda X, Y: ar.matmul(X, Y, rep.dim[v]),
                        [ar.matrix_poly(f, S) for f in fs])
            if ar.max_abs(qS) == 0:
                break
            try:
                step = ar.solve(ar.matrix_poly(dq, S), qS)
            except SolveFailed as exc:
                raise IllConditioned(f"vertex {v!r}: q'(S) is singular "
                                     f"({exc})")
            size = ar.max_abs(step)
            if ar.mode == "float" and (
                    size > last / 2
                    or size <= arith.SOLVE_RTOL * max(1.0, ar.max_abs(S))):
                break
            S, last = ar.sub(S, step), size
        else:
            raise IllConditioned(f"vertex {v!r}: Newton iteration for the "
                                 "semisimple part did not terminate")
        S_mats[v], N_mats[v] = S, ar.sub(A, S)
    return (EndomorphismTuple(rep, S_mats), EndomorphismTuple(rep, N_mats))
