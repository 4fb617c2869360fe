"""JSON serialization round-trips and the polynomial input language."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import feedforward_chain_network, hopf_tuple
from quiverdyn.errors import ParseError
from quiverdyn.fileio import (decode_number, dump_json, dumps_canonical,
                              encode_number, load_json, network_from_json,
                              network_to_json, parse_poly_dsl,
                              representation_from_json, representation_to_json,
                              tuple_from_json, tuple_to_json)
from quiverdyn.builders import build_subq
from quiverdyn.polynomial import Poly


def test_rational_scalars_roundtrip():
    for x in (Fraction(3, 7), Fraction(-2), Fraction(0), 5):
        assert decode_number(encode_number(x)) == Fraction(x)
    assert decode_number(encode_number(0.25)) == 0.25
    with pytest.raises(ParseError):
        decode_number("1/0")
    with pytest.raises(ParseError):
        decode_number("abc")
    with pytest.raises(ParseError):
        decode_number(True)


def test_exact_scalars_are_written_as_p_over_q():
    # an integral exact coefficient is an int, written like its Fraction
    assert [encode_number(x) for x in (Fraction(3, 7), Fraction(-2), -2, 0)] \
        == ["3/7", "-2/1", "-2/1", "0/1"]
    assert type(encode_number(0.0)) is float


def test_network_roundtrip_is_canonical():
    N = feedforward_chain_network()
    doc = network_to_json(N)
    N2 = network_from_json(doc)
    assert dumps_canonical(network_to_json(N2)) == dumps_canonical(doc)
    assert N2.nodes == N.nodes and N2.edges == N.edges


def test_representation_roundtrip_exact():
    rep = build_subq(feedforward_chain_network())[1]
    doc = representation_to_json(rep)
    rep2 = representation_from_json(doc)
    assert dumps_canonical(representation_to_json(rep2)) == \
        dumps_canonical(doc)
    assert rep2.mode == "exact"
    for a, _, _ in rep.quiver.arrows:
        assert rep2.arrow_matrix[a] == rep.arrow_matrix[a]


def test_representation_roundtrip_float():
    rep = build_subq(feedforward_chain_network())[1]
    doc = representation_to_json(rep)
    doc["mode"] = "float"
    doc["arrows"] = [{**a, "matrix": [[float(Fraction(x)) for x in row]
                                      for row in a["matrix"]]}
                     for a in doc["arrows"]]
    rep2 = representation_from_json(doc)
    assert rep2.mode == "float"
    assert isinstance(rep2.arrow_matrix[doc["arrows"][0]["id"]], np.ndarray)


def test_tuple_roundtrip_byte_identical():
    F = hopf_tuple()
    doc = tuple_to_json(F)
    F2 = tuple_from_json(doc)
    assert dumps_canonical(tuple_to_json(F2)) == dumps_canonical(doc)
    for v, pm in F.components.items():
        for p, q in zip(pm.outputs, F2.components[v].outputs):
            assert p.terms == q.terms


def test_file_roundtrip_and_parse_errors(tmp_path):
    F = hopf_tuple()
    path = tmp_path / "tuple.json"
    dump_json(tuple_to_json(F), path)
    doc = load_json(path)
    assert tuple_from_json(doc).components.keys() == F.components.keys()
    # deterministic bytes on disk
    path2 = tmp_path / "tuple2.json"
    dump_json(tuple_to_json(F), path2)
    assert path.read_bytes() == path2.read_bytes()
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": nope}')
    with pytest.raises(ParseError, match=r"line 1, column"):
        load_json(bad)
    with pytest.raises(ParseError, match="cannot read"):
        load_json(tmp_path / "missing.json")


def test_schema_and_kind_checks():
    doc = network_to_json(feedforward_chain_network())
    with pytest.raises(ParseError, match="schema_version"):
        network_from_json({**doc, "schema_version": 99})
    with pytest.raises(ParseError, match="kind"):
        representation_from_json(doc)
    with pytest.raises(ParseError):
        network_from_json({**doc, "nodes": []})


def test_exact_mode_rejects_float_entries():
    rep = build_subq(feedforward_chain_network())[1]
    doc = representation_to_json(rep)
    doc["arrows"][0]["matrix"] = [[0.5] * len(r)
                                  for r in doc["arrows"][0]["matrix"]]
    with pytest.raises(ParseError, match="rational"):
        representation_from_json(doc)


def test_parse_poly_dsl_basic():
    name, varnames, p = parse_poly_dsl("f(x, y) = -1*x^2 + 3/2*x*y + y")
    assert name == "f" and varnames == ["x", "y"]
    assert p.terms == {(2, 0): Fraction(-1), (1, 1): Fraction(3, 2),
                       (0, 1): Fraction(1)}


def test_parse_poly_dsl_parameters():
    _, _, p = parse_poly_dsl("f(x) = lambda*x - x^2")
    assert p.nvars == 2
    assert p.terms == {(1, 1): Fraction(1), (2, 0): Fraction(-1)}
    _, _, q = parse_poly_dsl("g(x) = lambda2*x", param_dim=3)
    assert q.nvars == 4
    assert q.terms == {(1, 0, 1, 0): Fraction(1)}


def test_parse_poly_dsl_sign_and_cancellation():
    _, _, p = parse_poly_dsl("f(x) = x - x + 2*x^3 - -x")
    assert p.terms == {(3,): Fraction(2), (1,): Fraction(1)}


def test_parse_poly_dsl_errors():
    for text in ("f(x) x^2",              # no '='
                 "f(x,x) = x",            # duplicate vars
                 "f(lambda) = 1",         # reserved name
                 "f(x) = y",              # unknown variable
                 "f(x) = x^",             # malformed power
                 "f(x) = ",               # empty expression
                 "f(x) = 2**x",           # empty factor
                 "f(x) = lambda2*x"):     # param index above param_dim
        with pytest.raises(ParseError):
            parse_poly_dsl(text, param_dim=1)
