"""Normal forms of equivariant polynomial tuples via Lie transforms.

Grade by grade (grade k = polynomial degree k+1), the homological equation
F^k = ad_L(G) + R is solved per vertex for the unique generator G in
im ad_{L^S} and remainder R in ker ad_{L^S}, and the time-1 Lie transform
exp(ad_G) is applied. The surviving grade-k terms are R, taken from the
solve, so they commute with the semisimple part of the linearization. Because
the generator choice is the canonical one, equivariant input yields
equivariant generators and an equivariant normal form; verify_normal_form
checks this together with the commutation property and a numeric
conjugacy spot-check.

Parameter-dependent fields are out of scope: param_dim must be zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import polyfield
from .errors import DegreeOverflow
from .polynomial import float_flow, linear_forms
from .spectral import EndomorphismTuple, sn_decomposition
from .tuples import (DEGREE_CAP, PolyMap, PolyMapTuple, bracket_polys,
                     check_equivariance, require_equilibrium)

# equivariance of exact results is checked on coefficients, of float
# results at sampled points
CHECK_MODE = {"exact": "exact", "float": "sampled"}


@dataclass
class NormalFormResult:
    """Transformed tuple, per-grade generators, and residual diagnostics."""
    representation: object
    grade: int
    LS: EndomorphismTuple
    transformed: PolyMapTuple            # L x + sum of normalized grades
    generators: dict                     # k -> PolyMapTuple (grade-k fields)
    kernel_residuals: dict               # k -> max |grade k of exp(ad_G) F - R|

    def transformed_grade(self, k):
        """The grade-k homogeneous part of the transformed tuple."""
        comps = {}
        for v, pm in self.transformed.components.items():
            comps[v] = PolyMap([p.homogeneous_part(k + 1) for p in pm.outputs],
                               nvars=pm.nvars)
        return PolyMapTuple(self.representation, comps, 0,
                            self.transformed.max_degree)


def normal_form(F, r):
    """Normalize F through grade r (polynomial degree r+1).

    Requires F(0) = 0 and param_dim = 0. Returns the transformed tuple, the
    generators G^1..G^r, and per-grade kernel residuals: how far the
    grade-k part of the transform is from the remainder R kept in its place.
    """
    if F.param_dim != 0:
        raise ValueError("normal forms are computed for parameter-free tuples")
    if r + 1 > DEGREE_CAP:
        raise DegreeOverflow(f"grade {r} needs degree {r + 1} > cap")
    rep = F.representation
    require_equilibrium(F)
    L = EndomorphismTuple.from_linearization(F)
    LS, _ = sn_decomposition(L)
    ar = F.arith

    current = {v: [p.truncate(r + 1) for p in F.components[v].outputs]
               for v in rep.quiver.vertices}
    generators = {}
    kernel_residuals = {}
    for k in range(1, r + 1):
        gen_comps = {}
        worst = ar.zero
        for v in rep.quiver.vertices:
            d = rep.dim[v]
            if d == 0:
                gen_comps[v] = PolyMap([], nvars=0)
                continue
            Lv = ar.freeze(L.matrices[v])
            LSv = ar.freeze(LS.matrices[v])
            Fk = polyfield.grade_part(current[v], k)
            G, rem = polyfield.solve_homological(Lv, LSv, Fk, k)
            gen_comps[v] = PolyMap(G, nvars=d)
            # R replaces the transform's grade k; the residual is the rest
            moved = polyfield.lie_transform(current[v], G, k, r)
            kept = polyfield.grade_part(moved, k)
            worst = max([worst] + [(p - q).max_abs_coeff()
                                   for p, q in zip(kept, rem)])
            current[v] = [p - h + q for p, h, q in zip(moved, kept, rem)]
        generators[k] = PolyMapTuple(rep, gen_comps, 0, F.max_degree)
        kernel_residuals[k] = worst
    transformed = PolyMapTuple(
        rep, {v: PolyMap(polys, nvars=rep.dim[v] if not polys else None)
              for v, polys in current.items()}, 0, F.max_degree)
    return NormalFormResult(rep, r, LS, transformed, generators,
                            kernel_residuals)


def verify_normal_form(res, F_original=None):
    """Check the defining properties of a computed normal form.

    Returns a dict with: per-grade [L^S, F_bar^k] residuals, equivariance
    reports for the transformed grades and the generators, and (when the
    original tuple is supplied) the numeric conjugacy error between the
    original and normalized flows through the composed generator flows,
    from x0 = (0.01 / sqrt(d)) (1, .., 1) for unit time.
    """
    rep = res.representation
    ar = res.transformed.arith
    report = {"commutator": {}, "equivariance": {}, "conjugacy": None}
    for k in range(1, res.grade + 1):
        worst = ar.zero
        for v in rep.quiver.vertices:
            d = rep.dim[v]
            if d == 0:
                continue
            LS_field = linear_forms(ar.freeze(res.LS.matrices[v]), d)
            Fk = [p.homogeneous_part(k + 1)
                  for p in res.transformed.components[v].outputs]
            br = bracket_polys(LS_field, Fk, d, d)
            worst = max([worst] + [p.max_abs_coeff() for p in br])
        report["commutator"][k] = worst
    mode = CHECK_MODE[ar.mode]
    for k in range(1, res.grade + 1):
        gk = check_equivariance(res.generators[k], mode=mode)
        fk = check_equivariance(res.transformed_grade(k), mode=mode)
        report["equivariance"][k] = {
            "generator": gk, "transformed_grade": fk}
    full = check_equivariance(res.transformed, mode=mode)
    report["equivariance"]["full"] = full
    if F_original is not None:
        report["conjugacy"] = _conjugacy_error(res, F_original)
    return report


def _conjugacy_error(res, F):
    """Numeric spot-check that the composed generator flows conjugate the
    original field to the normal form, per vertex."""
    rep = res.representation
    errors = {}
    for v in rep.quiver.vertices:
        d = rep.dim[v]
        if d == 0:
            errors[v] = 0.0
            continue
        gens = [res.generators[k].components[v].outputs
                for k in range(1, res.grade + 1)]

        def psi(x):
            y = np.asarray(x, dtype=float)
            for g in gens:
                y = float_flow(g, y, 1.0)
            return y

        x0 = np.full(d, 1e-2 / np.sqrt(d))
        x1 = float_flow(F.components[v].outputs, x0, 1.0)
        y1 = float_flow(res.transformed.components[v].outputs, psi(x0), 1.0)
        errors[v] = float(np.max(np.abs(psi(x1) - y1), initial=0.0))
    return errors
