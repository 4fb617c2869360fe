"""Quiver and representation invariants."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import (feedforward_chain_network, feedforward_pair_network,
                     fork_representation, random_response_family,
                     twin_representation, two_type_network)
from quiverdyn.builders import build_quoq, build_subq, induce_on_quotients
from quiverdyn.errors import DanglingArrow, NotInvariant
from quiverdyn.quiver import (Quiver, QuiverRepresentation,
                              Subrepresentation, validate_representation)
from quiverdyn.tuples import check_equivariance


def feedforward_rep():
    """Projection (x, y) -> x between a 2-d and a 1-d vertex."""
    q = Quiver(["big", "small"], [("p", "big", "small")])
    return QuiverRepresentation(
        q, {"big": 2, "small": 1}, {"p": [[Fraction(1), Fraction(0)]]},
        mode="exact")


def test_dangling_arrow_rejected():
    with pytest.raises(DanglingArrow):
        Quiver(["v"], [("a", "v", "w")])


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        Quiver(["v", "v"], [])
    with pytest.raises(ValueError):
        Quiver(["v"], [("a", "v", "v"), ("a", "v", "v")])


def test_validate_representation_reports_shape_mismatch():
    q = Quiver(["v", "w"], [("a", "v", "w")])
    rep = QuiverRepresentation(q, {"v": 2, "w": 2},
                               {"a": [[Fraction(1), Fraction(0)]]},
                               mode="exact")
    errors = validate_representation(rep)
    assert len(errors) == 1 and "shape" in errors[0]
    good = QuiverRepresentation(
        q, {"v": 2, "w": 2},
        {"a": [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]},
        mode="exact")
    assert validate_representation(good) == []


def test_subrepresentation_from_invariant_bases():
    rep = feedforward_rep()
    # span{(1, 0)} maps onto the whole small space
    basis = {"big": ((Fraction(1),), (Fraction(0),)),
             "small": ((Fraction(1),),)}
    S = Subrepresentation.from_bases(rep, basis)
    assert S.subdim == {"big": 1, "small": 1}
    assert S.coords["p"] == ((Fraction(1),),)


def test_subrepresentation_rejects_non_invariant_bases():
    q = Quiver(["v"], [("L", "v", "v")])
    rep = QuiverRepresentation(
        q, {"v": 2}, {"L": [[Fraction(0), Fraction(1)],
                            [Fraction(0), Fraction(0)]]}, mode="exact")
    # span{(0, 1)} is not invariant under the shift
    basis = {"v": ((Fraction(0),), (Fraction(1),))}
    with pytest.raises(NotInvariant):
        Subrepresentation.from_bases(rep, basis)


def test_zero_dimensional_source_subspace():
    rep = feedforward_rep()
    basis = {"big": (tuple(), tuple()), "small": ((Fraction(1),),)}
    S = Subrepresentation.from_bases(rep, basis)
    assert S.subdim == {"big": 0, "small": 1}


def test_float_mode_tolerance():
    q = Quiver(["v"], [("L", "v", "v")])
    rep = QuiverRepresentation(q, {"v": 2},
                               {"L": np.array([[1.0, 0.0], [0.0, 2.0]])},
                               mode="float")
    S = Subrepresentation.from_bases(rep, {"v": np.array([[1.0], [0.0]])})
    assert np.allclose(np.asarray(S.coords["L"]), [[1.0]])
    with pytest.raises(NotInvariant):
        Subrepresentation.from_bases(
            rep, {"v": np.array([[1.0], [1.0]])})


def test_full_and_zero_subrepresentations(mode="exact"):
    rep = feedforward_rep()
    if mode == "float":
        rep = QuiverRepresentation(rep.quiver, rep.dim,
                                   {"p": np.array([[1.0, 0.0]])},
                                   mode="float")
    full = Subrepresentation.full(rep)
    zero = Subrepresentation.zero(rep)
    assert full.subdim == {"big": 2, "small": 1}
    assert zero.subdim == {"big": 0, "small": 0}
    assert np.array_equal(np.asarray(full.coords["p"]),
                          np.asarray(rep.arrow_matrix["p"]))
    assert np.array_equal(np.asarray(full.basis["big"], dtype=float),
                          np.eye(2))
    assert np.asarray(zero.basis["big"]).shape == (2, 0)
    assert np.asarray(zero.coords["p"]).size == 0
    # both are invariant families: rebuilding coordinates from the bases
    # gives the same subspace dimensions
    for S in (full, zero):
        assert Subrepresentation.from_bases(rep, S.basis).subdim == S.subdim


def test_full_and_zero_subrepresentations_float():
    test_full_and_zero_subrepresentations("float")


@pytest.mark.parametrize("network, build, generators, n_arrows", [
    (feedforward_pair_network, build_subq, ["1+2>1"], 3),
    (feedforward_chain_network, build_subq,
     ["1+2+3+4+5>1+2+3+4", "1+2+3+4>1+2+3", "1+2+3>1+2", "1+2>1"], 15),
    (two_type_network, build_quoq,
     ["q02>q01#1", "q03>q01#1", "q04>q02#1", "q04>q03#1", "q05>q02#1",
      "q06>q04#1", "q06>q05#1"], 52),
], ids=["pair", "chain", "two-type"])
def test_generating_arrows_are_the_lattice_covers(network, build, generators,
                                                  n_arrows):
    # every other arrow is an identity loop or a product of covers
    rep = build(network())[1]
    assert len(rep.quiver.arrows) == n_arrows
    assert rep.generating_arrows == tuple(generators)


def test_identity_arrow_between_two_vertices_is_a_generator():
    # only loops with identity matrices are free: an identity matrix from
    # u to v says F_u = F_v, which is a condition to check
    assert twin_representation().generating_arrows == ("uv", "vu")


def test_arrow_is_implied_only_by_a_product_equal_to_its_matrix():
    # q: s -> t has the endpoints of p composed with the loops, not the matrix
    assert fork_representation().generating_arrows == ("p", "q")


def test_product_through_a_zero_dimensional_vertex_proves_its_composite():
    # a4: s -> t is the product of a5: s -> m and a3: m -> t through the
    # zero-dimensional m, so R_a4 is the 1 x 2 zero matrix. By the gaps a4
    # comes last among a1, a2 and a3, after a5 has joined as a2 a1.
    q = Quiver(["s", "v", "m", "t"],
               [("a1", "s", "v"), ("a2", "v", "m"), ("a3", "m", "t"),
                ("a4", "s", "t"), ("a5", "s", "m")])
    rep = QuiverRepresentation(
        q, {"s": 2, "v": 1, "m": 0, "t": 1},
        {"a1": [[1, 0]], "a2": [], "a3": [[]], "a4": [[0, 0]], "a5": []})
    assert validate_representation(rep) == []
    assert rep.generating_arrows == ("a1", "a2", "a3")


def test_generating_arrows_wait_for_the_first_exact_check():
    # quotient enumeration builds representations and checks none, so the
    # closure is computed at the first exact check and kept there
    N = two_type_network()
    rep = build_quoq(N)[1]
    assert "generating_arrows" not in vars(rep)
    F = induce_on_quotients(N, random_response_family(N, seed=1))
    check_equivariance(F, mode="sampled", samples=2)
    assert "generating_arrows" not in vars(F.representation)
    check_equivariance(F, mode="exact")
    assert len(vars(F.representation)["generating_arrows"]) == 7
