"""The CLI exit-code contract under mutated inputs.

Each example takes a valid network, representation, tuple or DSL input,
drops one entry, gives one value a wrong type, or truncates the text, and
runs the command in-process through ``cli.run``. The exit code must be 0,
1 or 2, and no exception may escape ``cli.run``. The cases with a branch
the tracer cannot classify run the CLI as a process, so that a traceback
or a half-written report shows.
"""

import json
import math
import os
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (cm_feedforward_tuple, feedforward_chain_network,
                     float_copy, hopf_tuple, isolated_network, time_limit)
from quiverdyn import cli
from quiverdyn.fileio import (dump_json, endomorphism_to_json,
                              network_to_json, representation_to_json,
                              tuple_to_json)
from quiverdyn.polynomial import Poly
from quiverdyn.quiver import Quiver, QuiverRepresentation
from quiverdyn.spectral import EndomorphismTuple
from quiverdyn.tuples import PolyMap, PolyMapTuple
from test_cli import run_cli
from test_lsreduction import transcritical_with_slave

WRONG_VALUES = [None, True, -1, 1.5, "x", "1/0", [], {}, [[1, 2]]]

NETWORK = network_to_json(feedforward_chain_network())
TUPLES = {"exact": hopf_tuple(), "float": float_copy(hopf_tuple())}
TUPLE = {mode: tuple_to_json(F) for mode, F in TUPLES.items()}
# a representation and its endomorphism file, per mode
SPECTRAL = {mode: {"rep": representation_to_json(F.representation),
                   "endo": endomorphism_to_json(
                       EndomorphismTuple.from_linearization(F))}
            for mode, F in (("exact", cm_feedforward_tuple()),
                            ("float", float_copy(cm_feedforward_tuple())))}
DSL = ("f(x,y) = -x + y", "g(y,x) = x + lambda*y - y^2")


def _entries(node, path=()):
    """(path to a container, key) for every entry of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _entries(child, path + (key,))


@st.composite
def mutated_json(draw, doc):
    """The document's text with one entry dropped or retyped, or cut."""
    text = json.dumps(doc)
    how = draw(st.sampled_from(["drop", "retype", "truncate"]))
    if how == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = json.loads(text)
    path, key = draw(st.sampled_from(list(_entries(doc))))
    node = doc
    for k in path:
        node = node[k]
    if how == "drop":
        del node[key]
    else:
        node[key] = draw(st.sampled_from(WRONG_VALUES))
    return json.dumps(doc)


@st.composite
def mutated_dsl(draw, text):
    """The expression with one character dropped or replaced, or cut."""
    i = draw(st.integers(0, len(text) - 1))
    how = draw(st.sampled_from(["drop", "retype", "truncate"]))
    if how == "truncate":
        return text[:i]
    new = "" if how == "drop" else draw(st.sampled_from("xy^*+-/.0,()= "))
    return text[:i] + new + text[i + 1:]


def exit_code(args, files=()):
    """Run the CLI on args in a fresh directory holding the named files
    (name, text); names in args are resolved in that directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files:
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        names = dict(files)
        argv = sys.argv
        sys.argv = ["quiverdyn"] + [os.path.join(tmp, a) if a in names else a
                                    for a in args] + [
            "--out", os.path.join(tmp, "reports")]
        try:
            cli.run()
        except SystemExit as exc:
            return exc.code or 0
        finally:
            sys.argv = argv
    return 0


def assert_contract(args, files=()):
    assert exit_code(args, files) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(mutated_json(NETWORK))
def test_mutated_network(text):
    assert_contract(["subq", "net.json"], [("net.json", text)])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["exact", "float"]), st.sampled_from(["rep", "endo"]),
       st.data())
def test_mutated_representation(mode, which, data):
    files = [(f"{name}.json", data.draw(mutated_json(doc)) if name == which
              else json.dumps(doc)) for name, doc in SPECTRAL[mode].items()]
    for command in ("spectrum", "sn"):
        assert_contract([command, "rep.json", "endo.json"], files)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["exact", "float"]), st.data())
def test_mutated_tuple(mode, data):
    text = data.draw(mutated_json(TUPLE[mode]))
    check = "exact" if mode == "exact" else "sampled"
    assert_contract(["check-equivariance", "tuple.json", "--mode", check],
                    [("tuple.json", text)])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([0, 1]), st.data())
def test_mutated_dsl(which, data):
    texts = list(DSL)
    texts[which] = data.draw(mutated_dsl(texts[which]))
    assert_contract(["casestudy-s10", "--f", texts[0], "--g", texts[1],
                     "--case", "b=0"])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["NaN", "Infinity", "-Infinity"])
def test_non_finite_numbers_are_input_errors(value):
    # json writes these as the bare literals NaN, Infinity and -Infinity,
    # which json reads back as floats
    rep, endo = (json.loads(json.dumps(SPECTRAL["float"][name]))
                 for name in ("rep", "endo"))
    endo["matrices"]["big"][0][0] = value
    files = [("rep.json", json.dumps(rep)), ("endo.json", json.dumps(endo))]
    for command in ("spectrum", "sn"):
        assert exit_code([command, "rep.json", "endo.json"], files) == 2
    F = tuple_to_json(float_copy(cm_feedforward_tuple()))
    F["components"]["big"][0]["terms"][0]["coefficient"] = value
    assert exit_code(["normal-form", "tuple.json"],
                     [("tuple.json", json.dumps(F))]) == 2


def test_branches_on_a_kernel_above_the_seed_grid_cap(capsys):
    # x_i' = lambda x_i - x_i^2 on four coordinates: the kernel at the
    # origin has dimension 4, and the 9^m seed grid stops at m = 3
    n = 4
    quiver = Quiver(["v"], [("id", "v", "v")])
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rep = QuiverRepresentation(quiver, {"v": n}, {"id": eye})
    unit = [tuple(int(i == j) for j in range(n + 1)) for i in range(n + 1)]
    polys = [Poly(n + 1, {tuple(a + b for a, b in zip(unit[i], unit[n])): 1,
                          tuple(2 * a for a in unit[i]): -1})
             for i in range(n)]
    F = PolyMapTuple(rep, {"v": PolyMap(polys)}, param_dim=1)
    code = exit_code(["branches", "tuple.json", "--vertex", "v"],
                     [("tuple.json", json.dumps(tuple_to_json(F)))])
    assert code == 1
    assert "error: SizeOverflow" in capsys.readouterr().err


@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize("command", [["quoq", "net.json"],
                                     ["fibrations", "net.json", "net.json"]])
def test_fibration_searches_over_cap_exit_1_with_named_error(
        command, n, capsys):
    text = json.dumps(network_to_json(isolated_network(n)))
    with time_limit(1):
        code = exit_code(command, [("net.json", text)])
    assert code == 1
    assert "error: SizeOverflow" in capsys.readouterr().err


def test_quoq_over_partition_cap_exits_1_with_named_error(capsys):
    text = json.dumps(network_to_json(isolated_network(10)))
    with time_limit(1):
        code = exit_code(["quoq", "net.json"], [("net.json", text)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: SizeOverflow" in err and "balanced partitions" in err


def imperfect_pitchfork():
    """x' = lambda x + x^2/100 - x^3, whose branches
    x = (1/100 +- sqrt(1/10^4 + 4 lambda)) / 2 bend from slope 1 to slope
    1/2 inside the default window (near lambda = 2.5e-5)."""
    quiver = Quiver(["v"], [("id", "v", "v")])
    rep = QuiverRepresentation(quiver, {"v": 1}, {"id": [[Fraction(1)]]})
    p = Poly(2, {(1, 1): 1, (2, 0): Fraction(1, 100), (3, 0): -1})
    return PolyMapTuple(rep, {"v": PolyMap([p])}, param_dim=1)


@pytest.mark.parametrize("fixture,window,classified", [
    (transcritical_with_slave, ["--lam-min", "0.01", "--lam-max", "0.01"],
     [True, False]),
    (imperfect_pitchfork, [], [True, False, False]),
], ids=["one-lam", "bent-branch"])
def test_branches_with_an_unclassified_branch_exit_1(
        tmp_path, fixture, window, classified):
    # one lam gives no fit, and a bent branch fits below FIT_R2_MIN; either
    # way the report is written whole and the command exits 1
    dump_json(tuple_to_json(fixture()), tmp_path / "pvf.json")
    r = run_cli(["branches", "pvf.json", "--vertex", "v"] + window, tmp_path)
    assert r.returncode == 1
    report = json.loads((tmp_path / "reports" / "branches.json").read_text())
    assert report["passed"] is False
    assert [b["classified"] for b in report["branches"]] == classified
