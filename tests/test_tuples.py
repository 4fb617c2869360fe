"""Equivariant polynomial tuples: checks, composition, bracket, restriction."""

import dataclasses
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (cm_feedforward_tuple, feedforward_chain_network,
                     feedforward_pair_network, float_copy, fork_representation,
                     full_cm_report, full_endomorphism_report,
                     full_equivariance_report, planted_family, random_poly,
                     random_response_family, ring_network,
                     twin_representation, two_type_network)
from quiverdyn import centermanifold, lsreduction, spectral, tuples
from quiverdyn.builders import induce_on_quotients, induce_on_subnetworks
from quiverdyn.casestudy import assemble_case_tuple
from quiverdyn.centermanifold import (CMExpansion, check_cm_equivariance,
                                      cm_taylor)
from quiverdyn.errors import (DegreeOverflow, ModeUnavailable, NotEquilibrium,
                              NotInvariant)
from quiverdyn.fileio import parse_poly_dsl
from quiverdyn.lsreduction import check_reduced_equivariance, ls_reduce
from quiverdyn.polynomial import Poly
from quiverdyn.quiver import Quiver, QuiverRepresentation, Subrepresentation
from quiverdyn.spectral import EndomorphismTuple, check_endomorphism
from quiverdyn.tuples import (PolyMap, PolyMapTuple, bracket_tuple,
                              check_equivariance, compose_tuple,
                              equivariance_defect, identity_tuple,
                              linear_part, linear_tuple, require_equilibrium,
                              restrict_to_subrep)


def feedforward_rep():
    q = Quiver(["big", "small"], [("p", "big", "small")])
    return QuiverRepresentation(
        q, {"big": 2, "small": 1}, {"p": [[Fraction(1), Fraction(0)]]},
        mode="exact")


def feedforward_tuple(f_terms, g_terms):
    """big: (f(x), g(x, y)); small: f(X) -- equivariant by construction."""
    rep = feedforward_rep()
    f1 = Poly(1, f_terms)
    fb = PolyMap([f1.embed(2, [0]), Poly(2, g_terms)])
    fs = PolyMap([f1])
    return PolyMapTuple(rep, {"big": fb, "small": fs})


def test_feedforward_tuple_is_equivariant():
    F = feedforward_tuple({(1,): 2, (2,): -1}, {(0, 1): -1, (1, 1): 3})
    report = check_equivariance(F, mode="exact")
    assert report.passed and report.max_residual() == 0


def test_non_feedforward_tuple_fails():
    rep = feedforward_rep()
    # big first component depends on y: the projection no longer intertwines
    fb = PolyMap([Poly(2, {(1, 0): 1, (0, 1): 1}), Poly(2, {(0, 1): 1})])
    fs = PolyMap([Poly(1, {(1,): 1})])
    F = PolyMapTuple(rep, {"big": fb, "small": fs})
    report = check_equivariance(F, mode="exact")
    assert not report.passed
    assert report.per_arrow["p"] == Fraction(1)


def test_sampled_mode_agrees_with_exact_mode():
    F = feedforward_tuple({(1,): 1, (3,): -2}, {(0, 1): -1, (2, 0): 1})
    exact = check_equivariance(F, mode="exact")
    sampled = check_equivariance(F, mode="sampled")
    assert exact.passed and sampled.passed
    assert sampled.max_residual() <= 1e-9


def test_exact_mode_requires_rational_data():
    rep = feedforward_rep()
    fb = PolyMap([Poly(2, {(1, 0): 0.5}), Poly(2, {(0, 1): 1})])
    fs = PolyMap([Poly(1, {(1,): 0.5})])
    F = PolyMapTuple(rep, {"big": fb, "small": fs})
    with pytest.raises(ModeUnavailable):
        check_equivariance(F, mode="exact")


def test_composition_and_bracket_preserve_equivariance():
    rng = random.Random(7)
    for _ in range(10):
        f1 = random_poly(rng, 1, max_degree=2)
        f2 = random_poly(rng, 1, max_degree=2)
        F = feedforward_tuple(f1.terms, random_poly(rng, 2, 2).terms)
        G = feedforward_tuple(f2.terms, random_poly(rng, 2, 2).terms)
        assert check_equivariance(compose_tuple(F, G), mode="exact").passed
        assert check_equivariance(bracket_tuple(F, G), mode="exact").passed


def test_bracket_antisymmetry():
    rng = random.Random(11)
    F = feedforward_tuple(random_poly(rng, 1, 2).terms,
                          random_poly(rng, 2, 2).terms)
    G = feedforward_tuple(random_poly(rng, 1, 2).terms,
                          random_poly(rng, 2, 2).terms)
    FG = bracket_tuple(F, G)
    GF = bracket_tuple(G, F)
    for v in ("big", "small"):
        for p, q in zip(FG.components[v].outputs, GF.components[v].outputs):
            assert (p + q).terms == {}


def test_identity_is_composition_unit():
    F = feedforward_tuple({(2,): 1}, {(0, 1): -1})
    I = identity_tuple(F.representation)
    assert compose_tuple(F, I) == F
    assert compose_tuple(I, F) == F


def test_degree_cap_enforced():
    F = feedforward_tuple({(3,): 1}, {(0, 1): 1})
    with pytest.raises(DegreeOverflow):
        compose_tuple(F, F)  # degree 9 > cap 8


def test_linear_tuple_and_linear_part_roundtrip():
    rep = feedforward_rep()
    mats = {"big": [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(-1)]],
            "small": [[Fraction(1)]]}
    L = linear_tuple(rep, mats)
    assert check_equivariance(L, mode="exact").passed
    back = linear_part(L)
    assert back["big"] == tuple(tuple(r) for r in mats["big"])


def axis_fixture(mode):
    """x' = x^2, y' = y on one vertex with the identity arrow, and the
    invariant x axis; the float copy carries the same data in floats."""
    q = Quiver(["v"], [("id", "v", "v")])
    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    rep = QuiverRepresentation(q, {"v": 2}, {"id": eye}, mode="exact")
    F = PolyMapTuple(rep, {"v": PolyMap([Poly(2, {(2, 0): 1}),
                                         Poly(2, {(0, 1): 1})])})
    basis = {"v": ((Fraction(1),), (Fraction(0),))}
    if mode == "float":
        F = float_copy(F)
        basis = {"v": np.array([[1.0], [0.0]])}
    return F, Subrepresentation.from_bases(F.representation, basis)


def test_restrict_to_subrep_conjugates_dynamics(mode="exact"):
    F, S = axis_fixture(mode)
    red = restrict_to_subrep(F, S)
    assert red.representation.mode == mode
    # the float result equals the exact one
    assert red.components["v"].outputs[0].terms == {(2,): Fraction(1)}


def test_restrict_to_subrep_conjugates_dynamics_float():
    test_restrict_to_subrep_conjugates_dynamics("float")


def test_restrict_to_subrep_rejects_image_leaving_subspace(mode="exact"):
    F, S = axis_fixture(mode)
    # x' = x^2 + x, y' = x: the image of the x axis leaves it
    G = PolyMapTuple(F.representation, {"v": PolyMap([
        Poly(2, {(2, 0): 1, (1, 0): 1}), Poly(2, {(1, 0): 1})])})
    if mode == "float":
        G = PolyMapTuple(F.representation, {"v": PolyMap(
            [p.to_float() for p in G.components["v"].outputs])})
    with pytest.raises(NotInvariant):
        restrict_to_subrep(G, S)


def test_restrict_to_subrep_rejects_image_leaving_subspace_float():
    test_restrict_to_subrep_rejects_image_leaving_subspace("float")


def test_equivariance_defect_is_zero_map_for_equivariant_input():
    F = feedforward_tuple({(1,): -1, (2,): 1}, {(0, 1): -2, (1, 0): 1})
    defect = equivariance_defect(F, "p")
    assert all(p.terms == {} for p in defect.outputs)


def test_require_equilibrium_rejects_any_constant_term():
    # x' = lam + x^2 vanishes at (0; 0): a parameter term is not constant
    q = Quiver(["v"], [("id", "v", "v")])
    rep = QuiverRepresentation(q, {"v": 1}, {"id": [[Fraction(1)]]})
    ok = Poly(2, {(0, 1): 1, (2, 0): 1})
    for p in (ok, ok.to_float()):
        require_equilibrium(PolyMapTuple(rep, {"v": PolyMap([p])}, 1))
    for c in (Fraction(1, 10 ** 20), 1e-12):
        bad = ok + Poly.constant(2, c)
        with pytest.raises(NotEquilibrium, match="vertex 'v'"):
            require_equilibrium(PolyMapTuple(rep, {"v": PolyMap([bad])}, 1))


def test_every_intertwining_check_runs_the_one_arrow_loop(monkeypatch):
    # each checker reaches tuples.check_arrows through its module's binding;
    # a counter in place of every binding sees one call per check
    loop, calls = tuples.check_arrows, []

    def counted(rep, residual, tol, mode):
        calls.append(mode)
        return loop(rep, residual, tol, mode)
    F = cm_feedforward_tuple()
    exp = cm_taylor(F, 3)
    L = EndomorphismTuple.from_linearization(F)
    red = ls_reduce(assemble_case_tuple(
        *(parse_poly_dsl(text, param_dim=1)[2] for text in
          ("f(x,y) = -x + y", "g(y,x) = x + lambda*y - y^2"))))
    for module in (tuples, centermanifold, lsreduction, spectral):
        assert module.check_arrows is loop
        monkeypatch.setattr(module, "check_arrows", counted)
    reports = [check_equivariance(F, mode="exact"),
               check_equivariance(F, mode="sampled"),
               check_cm_equivariance(exp),
               check_reduced_equivariance(red, samples=10),
               check_endomorphism(F.representation, L)]
    assert calls == ["exact", "sampled", "exact", "sampled", "exact"]
    assert all(r.passed for r in reports)


# --- exact checks on generating arrows -----------------------------------------

def induced(network, induce):
    def build(seed):
        N = network()
        return induce(N, random_response_family(N, seed, max_degree=2))
    return build


def twin_tuple(seed):
    g = PolyMap([random_poly(random.Random(seed), 2) for _ in range(2)])
    return PolyMapTuple(twin_representation(), {"u": g, "v": g})


def fork_tuple(seed):
    # F_s = (g(x1), g(x2)) and F_t = g commute with both projections
    g = random_poly(random.Random(seed), 1)
    return PolyMapTuple(fork_representation(), {
        "s": PolyMap([g.embed(2, [0]), g.embed(2, [1])]), "t": PolyMap([g])})


EQUIVARIANT_TUPLES = {
    "pair": induced(feedforward_pair_network, induce_on_subnetworks),
    "chain": induced(feedforward_chain_network, induce_on_subnetworks),
    "two-type": induced(two_type_network, induce_on_quotients),
    "ring-4": induced(lambda: ring_network(4), induce_on_quotients),
    "twin": twin_tuple,
    "fork": fork_tuple,
}


def plant(F, defect):
    """F with the defect (vertex index, component index, exponents,
    coefficient) added: coefficient * x^exponents in one output of one
    vertex, the indices taken modulo the counts there."""
    vi, ci, exps, c = defect
    rep = F.representation
    v = rep.quiver.vertices[vi % len(rep.quiver.vertices)]
    outs = list(F.components[v].outputs)
    n = outs[0].nvars
    outs[ci % len(outs)] += Poly(n, {tuple(exps[:n]): Fraction(c)})
    return PolyMapTuple(rep, {**F.components, v: PolyMap(outs)},
                        F.param_dim, F.max_degree)


def assert_full_report(report, oracle):
    """The report equals the full loop's, arrow order and value types
    included."""
    per_arrow, passed = oracle
    assert report.passed == passed
    assert list(report.per_arrow.items()) == list(per_arrow.items())
    assert ([type(r) for r in report.per_arrow.values()]
            == [type(r) for r in per_arrow.values()])


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(EQUIVARIANT_TUPLES)),
       seed=st.integers(0, 10 ** 6),
       defect=st.none() | st.tuples(
           st.integers(0, 99), st.integers(0, 99),
           st.lists(st.integers(0, 2), min_size=6, max_size=6),
           st.sampled_from([-2, -1, 1, 2])))
# the identity arrows u -> v and v -> u are the only arrows to see this
@example(kind="twin", seed=0, defect=(1, 0, [2, 0, 0, 0, 0, 0], 1))
# q sees x2^2 in the second output at s, and p and the loops do not
@example(kind="fork", seed=0, defect=(0, 1, [0, 2, 0, 0, 0, 0], 1))
def test_exact_checks_on_generators_report_what_the_full_loop_does(
        kind, seed, defect):
    F = EQUIVARIANT_TUPLES[kind](seed)
    if defect is None:
        assert check_equivariance(F, mode="exact").passed
    else:
        F = plant(F, defect)
    assert_full_report(check_equivariance(F, mode="exact"),
                       full_equivariance_report(F))
    L = EndomorphismTuple.from_linearization(F)
    assert_full_report(check_endomorphism(F.representation, L),
                       full_endomorphism_report(F.representation, L))


def test_exact_check_works_out_generators_then_every_arrow_on_a_defect(
        monkeypatch):
    N = two_type_network()
    F = induce_on_quotients(N, random_response_family(N, seed=5))
    defect, calls = tuples.equivariance_defect, []

    def counted(F, arrow):
        calls.append(arrow)
        return defect(F, arrow)
    monkeypatch.setattr(tuples, "equivariance_defect", counted)
    assert check_equivariance(F, mode="exact").passed
    assert len(calls) == 7 and len(F.representation.quiver.arrows) == 52
    calls.clear()
    report = check_equivariance(plant(F, (2, 0, [1, 1, 0, 0], 1)), "exact")
    assert not report.passed
    assert sorted(calls) == sorted(a for a, _, _ in
                                   F.representation.quiver.arrows)


@pytest.fixture(scope="module")
def ring_cm_expansion():
    N = ring_network(4)
    return cm_taylor(induce_on_quotients(
        N, planted_family(N, {"c": {"s": -1, "r": 1}}, 0)), 3)


# q03 is one-dimensional and all centre, so it has no hyperbolic jet phi
@pytest.mark.parametrize("vertex, part", [
    ("q01", "phi"), ("q01", "reduced"), ("q02", "phi"), ("q02", "reduced"),
    ("q03", "reduced")])
def test_exact_cm_check_on_generators_reports_what_the_full_loop_does(
        ring_cm_expansion, vertex, part):
    exp = ring_cm_expansion
    assert_full_report(check_cm_equivariance(exp), full_cm_report(exp))
    vd = exp.vertices[vertex]
    polys = list(getattr(vd, part))
    polys[0] += Poly(vd.center_dim, {(2,) * vd.center_dim: Fraction(1)})
    tampered = CMExpansion(exp.representation, exp.degree, exp.center,
                           exp.hyperbolic, {**exp.vertices, vertex:
                                            dataclasses.replace(
                                                vd, **{part: polys})})
    report = check_cm_equivariance(tampered)
    assert not report.passed
    assert_full_report(report, full_cm_report(tampered))
