"""Quivers, their representations, and invariant families of subspaces.

A quiver is a finite directed multigraph. A representation attaches a
vector-space dimension to every vertex and a matrix of the right shape to
every arrow. Matrices come in two modes: "exact" (nested tuples of Fraction)
and "float" (numpy arrays); the mode is fixed per representation and every
comparison in float mode carries a tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from . import arith
from .arith import matrix_shape
from .errors import DanglingArrow, NotInvariant, SolveFailed

DEFAULT_TOL = 1e-9


class Quiver:
    """Finite directed multigraph with string vertex and arrow ids."""

    def __init__(self, vertices, arrows):
        vertices = tuple(sorted(str(v) for v in vertices))
        arrows = tuple(sorted((str(a), str(s), str(t)) for a, s, t in arrows))
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex ids")
        if len({a for a, _, _ in arrows}) != len(arrows):
            raise ValueError("duplicate arrow ids")
        vset = set(vertices)
        for a, s, t in arrows:
            if s not in vset or t not in vset:
                raise DanglingArrow(f"arrow {a!r}: {s!r} -> {t!r} not in vertices")
        self.vertices = vertices
        self.arrows = arrows
        self.source = {a: s for a, s, t in arrows}
        self.target = {a: t for a, s, t in arrows}

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"


_ZERO, _ONE = (Fraction(0),), (Fraction(1),)


def selection_matrix(cols, ncols):
    """The exact 0/1 matrix with ncols columns whose row i reads
    coordinate cols[i], frozen: rows are tuples over one shared 0 and 1."""
    return tuple(_ZERO * c + _ONE + _ZERO * (ncols - c - 1) for c in cols)


class QuiverRepresentation:
    """Per-vertex dimensions and per-arrow matrices over a quiver."""

    def __init__(self, quiver, dim, arrow_matrix, mode="exact"):
        self.arith = arith.of(mode)
        self.quiver = quiver
        self.dim = {str(v): int(d) for v, d in dim.items()}
        self.mode = mode
        self.arrow_matrix = {str(a): self.arith.freeze(m)
                             for a, m in arrow_matrix.items()}

    @cached_property
    def generating_arrows(self):
        """Arrows of an exact representation whose matrices generate the
        rest, in quiver order; computed at first use and kept.

        The closure starts with every loop whose matrix is the identity. An
        arrow a: s -> t joins it when R_a = R_b R_c for arrows c: s -> m and
        b: m -> t already in it. When no arrow joins, the unproved arrow with
        the least |dim s - dim t| (the first in quiver order) becomes a
        generator, so covers come before composites. A relation between
        source and target that holds on identity loops and is closed under
        products holds on every arrow once it holds on these.
        """
        ar, q, R = arith.EXACT, self.quiver, self.arrow_matrix
        between, out_of, into = {}, {}, {}
        for a, s, t in q.arrows:
            between.setdefault((s, t), []).append(a)
        queue = [a for a, s, t in q.arrows
                 if s == t and R[a] == ar.identity(self.dim[s])]
        closed, generators = set(queue), set()
        by_gap = sorted(q.arrows,
                        key=lambda x: abs(self.dim[x[1]] - self.dim[x[2]]))
        while True:
            while queue:
                x = queue.pop()
                s, t = q.source[x], q.target[x]
                out_of.setdefault(s, []).append(x)
                into.setdefault(t, []).append(x)
                for c, b in ([(x, b) for b in out_of.get(t, [])]
                             + [(c, x) for c in into.get(s, []) if c != x]):
                    open_ = [a for a in between.get((q.source[c],
                                                     q.target[b]), ())
                             if a not in closed]
                    product = (ar.matmul(R[b], R[c], self.dim[q.source[c]])
                               if open_ else None)
                    joined = [a for a in open_ if R[a] == product]
                    closed.update(joined)
                    queue += joined
            rest = [a for a, _, _ in by_gap if a not in closed]
            if not rest:
                return tuple(a for a, _, _ in q.arrows if a in generators)
            generators.add(rest[0])
            closed.add(rest[0])
            queue.append(rest[0])

    def to_float(self):
        """The same quiver, dimensions and arrow matrices in float mode."""
        return QuiverRepresentation(self.quiver, self.dim, self.arrow_matrix,
                                    mode="float")

    def __repr__(self):
        return (f"QuiverRepresentation({self.quiver!r}, mode={self.mode!r})")


def validate_representation(rep):
    """Check shape and id invariants; returns a list of error strings.

    Raises nothing: an empty list means the representation is valid. Use
    this for report generation; constructors already raise on dangling
    arrows.
    """
    errors = []
    q = rep.quiver
    for v in q.vertices:
        if v not in rep.dim:
            errors.append(f"missing dimension for vertex {v!r}")
        elif rep.dim[v] < 0:
            errors.append(f"negative dimension at vertex {v!r}")
    for a, s, t in q.arrows:
        if a not in rep.arrow_matrix:
            errors.append(f"missing matrix for arrow {a!r}")
            continue
        got = matrix_shape(rep.arrow_matrix[a])
        want = (rep.dim.get(t, -1), rep.dim.get(s, -1))
        if want[0] == 0 and got[0] == 0:
            continue  # zero-row matrices carry no column information
        if got != want:
            errors.append(
                f"arrow {a!r}: matrix shape {got} != dim(t) x dim(s) = {want}")
    return errors


class Subrepresentation:
    """A family of subspaces (one per vertex) invariant under all arrows.

    basis[v] is a dim(v) x k_v matrix whose columns span the subspace at v;
    coords[a] is the k_t x k_s matrix with R_a B_s = B_t C_a.
    """

    def __init__(self, rep, basis, coords):
        self.rep = rep
        self.basis = basis
        self.coords = coords
        self.subdim = {v: matrix_shape(b)[1] for v, b in basis.items()}

    @staticmethod
    def from_bases(rep, basis, tol=DEFAULT_TOL):
        """Build coordinate matrices from per-vertex bases.

        Solves B_t C = R_a B_s for every arrow, a zero-dimensional subspace
        at either end included, and raises NotInvariant when there is no
        unique solution: exactly in exact mode, and in float mode also when
        the least-squares residual exceeds tol.
        """
        ar = rep.arith
        coords = {}
        for a, s, t in rep.quiver.arrows:
            RBs = ar.matmul(rep.arrow_matrix[a], basis[s],
                            matrix_shape(basis[s])[1])
            try:
                coords[a] = ar.solve(basis[t], RBs, tol)
            except SolveFailed as exc:
                raise NotInvariant(f"arrow {a!r} leaves the subspace ({exc})")
        return Subrepresentation(rep, dict(basis), coords)

    def as_representation(self):
        """The subspaces with their coordinate matrices as a representation."""
        return QuiverRepresentation(self.rep.quiver, self.subdim, self.coords,
                                    mode=self.rep.mode)

    @staticmethod
    def full(rep):
        """The whole representation as a subrepresentation (identity bases)."""
        basis = {v: rep.arith.identity(rep.dim[v]) for v in rep.quiver.vertices}
        return Subrepresentation(rep, basis, dict(rep.arrow_matrix))

    @staticmethod
    def zero(rep):
        """The zero subspace at every vertex."""
        basis = {v: rep.arith.zeros(rep.dim[v], 0) for v in rep.quiver.vertices}
        coords = {a: rep.arith.zeros(0, 0) for a, _, _ in rep.quiver.arrows}
        return Subrepresentation(rep, basis, coords)
