"""Command-line interface: exit codes, report files, determinism."""

import json
import os
import subprocess
import sys

import pytest

import quiverdyn
from helpers import (cm_feedforward_tuple, cm_lost_center_tuple,
                     feedforward_chain_network, float_copy, hopf_tuple,
                     isolated_network, two_type_network)
from test_lsreduction import transcritical_with_slave
from quiverdyn.fileio import (dump_json, endomorphism_to_json,
                              network_map_to_json, network_to_json,
                              representation_to_json, tuple_to_json)
from quiverdyn.polynomial import Poly
from quiverdyn.spectral import EndomorphismTuple
from quiverdyn.tuples import PolyMap

CLI = [sys.executable, "-m", "quiverdyn.cli"]

# The directory that holds the imported package, as an absolute path, so the
# child runs the same code whatever its working directory is.
PACKAGE_ROOT = os.path.dirname(
    os.path.dirname(os.path.abspath(quiverdyn.__file__)))


def run_cli(args, cwd, env=None, command=CLI):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, full_env.get("PYTHONPATH")) if p)
    r = subprocess.run(command + list(args), cwd=cwd, env=full_env,
                       capture_output=True, text=True)
    # A child that failed to start or raised past cli.run() names itself here
    # instead of surfacing as a wrong exit code or a missing report.
    for marker in ("Traceback", "No module named"):
        assert marker not in r.stderr, r.stderr
    return r


@pytest.fixture
def net3(tmp_path):
    p = tmp_path / "net3.json"
    dump_json(network_to_json(feedforward_chain_network()), p)
    return p


@pytest.fixture
def hopf(tmp_path):
    p = tmp_path / "hopf.json"
    dump_json(tuple_to_json(hopf_tuple()), p)
    return p


def report(tmp_path, command):
    path = tmp_path / "reports" / f"{command}.json"
    assert path.exists(), f"missing report {path}"
    return json.loads(path.read_text()), path


def test_validate_pass_and_report_schema(tmp_path, net3):
    r = run_cli(["validate", str(net3)], tmp_path)
    assert r.returncode == 0, r.stderr
    doc, _ = report(tmp_path, "validate")
    for key in ("schema_version", "tool_version", "command", "config",
                "config_hash", "seed", "passed"):
        assert key in doc
    assert doc["passed"] is True and doc["command"] == "validate"


def test_validate_fails_on_inconsistent_colours(tmp_path):
    bad = {
        "schema_version": 1, "kind": "network",
        "nodes": [{"id": "1", "colour": "c"}, {"id": "2", "colour": "c"}],
        "edges": [{"id": "e1", "source": "1", "target": "2", "colour": "b"}],
        "internal_dim": {},
    }
    p = tmp_path / "bad_net.json"
    dump_json(bad, p)
    r = run_cli(["validate", str(p)], tmp_path)
    assert r.returncode == 1
    doc, _ = report(tmp_path, "validate")
    assert doc["passed"] is False


def test_invalid_json_exits_2(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    r = run_cli(["validate", str(p)], tmp_path)
    assert r.returncode == 2
    assert "invalid JSON" in r.stderr


def test_missing_file_exits_2(tmp_path):
    r = run_cli(["validate", str(tmp_path / "nope.json")], tmp_path)
    assert r.returncode == 2


def test_subq_report_counts_and_tsv(tmp_path, net3):
    r = run_cli(["subq", str(net3)], tmp_path)
    assert r.returncode == 0, r.stderr
    doc, _ = report(tmp_path, "subq")
    assert doc["n_vertices"] == 5
    assert doc["n_arrows"] == 15
    tsvs = list((tmp_path / "reports").glob("subq.*.tsv"))
    assert tsvs, "expected at least one TSV table"
    header = tsvs[0].read_text().splitlines()[0]
    assert "\t" in header


def test_quoq_report(tmp_path):
    p = tmp_path / "net5.json"
    dump_json(network_to_json(two_type_network()), p)
    r = run_cli(["quoq", str(p)], tmp_path)
    assert r.returncode == 0, r.stderr
    doc, _ = report(tmp_path, "quoq")
    assert doc["n_quotients"] == 6


def test_subq_over_subset_cap_exits_1_with_named_error(tmp_path):
    dump_json(network_to_json(isolated_network(20)), tmp_path / "iso20.json")
    r = run_cli(["subq", "iso20.json"], tmp_path)
    assert r.returncode == 1
    assert "error: SizeOverflow" in r.stderr, r.stderr
    assert not (tmp_path / "reports").exists()


# Runs exact and float commands in one process, then names any scipy module
# loaded.
NO_SCIPY = """
import sys
from quiverdyn import cli
for args in (["validate", "net5.json"], ["quoq", "net5.json"],
             ["cm-reduce", "cmff.json"], ["ls-reduce", "tc.json"],
             ["branches", "tc.json", "--vertex", "v"],
             ["normal-form", "hopf.json"], ["spectrum", "rep.json", "endo.json"],
             ["sn", "rep.json", "endo.json"]):
    sys.argv = ["quiverdyn"] + args
    try:
        cli.run()
    except SystemExit as exc:
        assert exc.code == 0, (args, exc.code)
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, loaded
"""


def test_exact_network_and_float_reduction_commands_do_not_load_scipy(
        tmp_path):
    dump_json(network_to_json(two_type_network()), tmp_path / "net5.json")
    cmff = float_copy(cm_feedforward_tuple())
    for name, F in (("cmff", cmff), ("hopf", float_copy(hopf_tuple())),
                    ("tc", float_copy(transcritical_with_slave()))):
        dump_json(tuple_to_json(F), tmp_path / f"{name}.json")
    dump_json(representation_to_json(cmff.representation),
              tmp_path / "rep.json")
    dump_json(endomorphism_to_json(
        EndomorphismTuple.from_linearization(cmff)), tmp_path / "endo.json")
    r = run_cli([], tmp_path, command=[sys.executable, "-c", NO_SCIPY])
    assert r.returncode == 0, r.stderr
    doc, _ = report(tmp_path, "quoq")
    assert doc["n_quotients"] == 6


def test_reruns_are_byte_identical(tmp_path, net3):
    assert run_cli(["subq", str(net3)], tmp_path).returncode == 0
    _, path = report(tmp_path, "subq")
    first = path.read_bytes()
    assert run_cli(["subq", str(net3)], tmp_path).returncode == 0
    assert path.read_bytes() == first


def test_seed_env_override(tmp_path, hopf):
    r = run_cli(["check-equivariance", str(hopf), "--mode", "sampled"],
                tmp_path, env={"QUIVERDYN_SEED": "7"})
    assert r.returncode == 0, r.stderr
    doc, _ = report(tmp_path, "check-equivariance")
    assert doc["seed"] == 7


def test_normal_form_command(tmp_path, hopf):
    r = run_cli(["normal-form", str(hopf), "--grade", "3"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc, _ = report(tmp_path, "normal-form")
    assert doc["passed"] is True


def test_cm_reduce_target_without_center_direction(tmp_path):
    p = tmp_path / "lost_center.json"
    dump_json(tuple_to_json(cm_lost_center_tuple()), p)
    r = run_cli(["cm-reduce", str(p), "--degree", "3"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc, _ = report(tmp_path, "cm-reduce")
    assert doc["center_dims"] == {"s": 1, "t": 0}
    assert doc["per_arrow_residual"] == {"a": "0/1"}


def test_casestudy_command(tmp_path):
    r = run_cli(["casestudy-s10",
                 "--f", "f(x,y) = -x + y",
                 "--g", "g(y,x) = x + lambda*y - y^2",
                 "--case", "b=0"], tmp_path)
    assert r.returncode == 0, r.stderr
    doc, _ = report(tmp_path, "casestudy-s10")
    assert doc["kernel_dims"] == {"N1": 1, "N2": 1, "N3": 1}
    branch_tsv = tmp_path / "reports" / "casestudy-s10.branches.tsv"
    assert branch_tsv.exists()
    lines = branch_tsv.read_text().splitlines()
    assert lines[0].split("\t")[0] == "vertex"
    assert len(lines) >= 3  # header + two branches


def test_wrong_case_is_check_failure(tmp_path):
    r = run_cli(["casestudy-s10",
                 "--f", "f(x,y) = -x + y",
                 "--g", "g(y,x) = x + lambda*y - y^2",
                 "--case", "a=0"], tmp_path)
    assert r.returncode == 1
    assert "CaseMismatch" in r.stderr, r.stderr


def test_custom_output_directory(tmp_path, net3):
    r = run_cli(["validate", str(net3), "--out", "elsewhere"], tmp_path)
    assert r.returncode == 0
    assert (tmp_path / "elsewhere" / "validate.json").exists()


@pytest.mark.parametrize("dim", [1.5, -1, "x"], ids=["fraction", "negative",
                                                     "string"])
def test_bad_internal_dim_exits_2(tmp_path, dim):
    doc = network_to_json(feedforward_chain_network())
    doc["internal_dim"] = {c: dim for c in doc["internal_dim"]}
    p = tmp_path / "bad_dim.json"
    dump_json(doc, p)
    r = run_cli(["subq", str(p)], tmp_path)
    assert r.returncode == 2
    assert "input error" in r.stderr and "internal_dim" in r.stderr, r.stderr
    assert not (tmp_path / "reports").exists()


# (path into the hopf tuple document, value); one group per decoder
BAD_TUPLE_COUNTS = {
    "poly-exponent-fraction": (
        ["components", "v", 0, "terms", 0, "exponents", 0], 1.5),
    "poly-exponent-negative": (
        ["components", "v", 0, "terms", 0, "exponents", 0], -1),
    "poly-exponent-string": (
        ["components", "v", 0, "terms", 0, "exponents", 0], "x"),
    "poly-nvars-string": (["components", "v", 0, "nvars"], "x"),
    "representation-dim-fraction": (
        ["representation", "vertices", 0, "dim"], 1.5),
    "tuple-param_dim-fraction": (["param_dim"], 1.5),
    "tuple-max_degree-negative": (["max_degree"], -1),
}


@pytest.mark.parametrize("path,value", BAD_TUPLE_COUNTS.values(),
                         ids=BAD_TUPLE_COUNTS.keys())
def test_bad_count_in_tuple_exits_2(tmp_path, path, value):
    doc = tuple_to_json(hopf_tuple())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    p = tmp_path / "bad_count.json"
    dump_json(doc, p)
    r = run_cli(["check-equivariance", str(p)], tmp_path)
    assert r.returncode == 2
    assert "input error" in r.stderr, r.stderr
    assert "must be a non-negative integer" in r.stderr, r.stderr
    assert not (tmp_path / "reports").exists()


def test_bad_param_dim_in_network_map_exits_2(tmp_path, net3):
    doc = network_map_to_json(PolyMap([Poly.variable(3, 0)]))
    doc["param_dim"] = "x"
    p = tmp_path / "bad_map.json"
    dump_json(doc, p)
    r = run_cli(["check-admissible", str(net3), str(p)], tmp_path)
    assert r.returncode == 2
    assert "input error" in r.stderr and "param_dim" in r.stderr, r.stderr


@pytest.mark.parametrize("f_text,message", [
    ("f(x,y) = 1/0*x + y", "division by zero"),
    ("f(x,y) = x^100000 + y", "> cap"),
], ids=["zero-denominator", "degree-above-cap"])
def test_bad_dsl_term_exits_2(tmp_path, f_text, message):
    r = run_cli(["casestudy-s10", "--f", f_text, "--g", "g(y,x) = -y + x",
                 "--case", "a=0"], tmp_path)
    assert r.returncode == 2
    assert "input error" in r.stderr and message in r.stderr, r.stderr


def test_repeated_monomial_exits_2(tmp_path):
    doc = tuple_to_json(hopf_tuple())
    terms = doc["components"]["v"][0]["terms"]
    terms.append(dict(terms[0], coefficient="2/1"))
    p = tmp_path / "repeated.json"
    dump_json(doc, p)
    r = run_cli(["check-equivariance", str(p)], tmp_path)
    assert r.returncode == 2
    assert "input error" in r.stderr and "appears twice" in r.stderr, r.stderr


@pytest.mark.parametrize("mode,row,message", [
    ("exact", [], "equal length"),
    ("float", None, "shape"),
], ids=["ragged", "float-empty"])
def test_malformed_matrix_exits_2(tmp_path, mode, row, message):
    F = hopf_tuple() if mode == "exact" else float_copy(hopf_tuple())
    doc = tuple_to_json(F)
    matrix = doc["representation"]["arrows"][0]["matrix"]
    if row is None:
        matrix.clear()
    else:
        matrix[1] = row
    p = tmp_path / "bad_matrix.json"
    dump_json(doc, p)
    r = run_cli(["check-equivariance", str(p), "--mode", "sampled"], tmp_path)
    assert r.returncode == 2
    assert "input error" in r.stderr and message in r.stderr, r.stderr


# (arguments, text the one-line error names[, environment]); tc.json has one
# parameter and a vertex "v", hopf.json none
UNSATISFIABLE = {
    "grid-zero": (["branches", "tc.json", "--vertex", "v", "--grid", "0"],
                  "'--grid'"),
    "lam-min-zero": (["branches", "tc.json", "--vertex", "v",
                      "--lam-min", "0"], "'--lam-min'"),
    "lam-min-negative": (["branches", "tc.json", "--vertex", "v",
                          "--lam-min", "-1"], "'--lam-min'"),
    "lam-max-zero": (["branches", "tc.json", "--vertex", "v",
                      "--lam-max", "0"], "'--lam-max'"),
    "unknown-vertex": (["branches", "tc.json", "--vertex", "w"],
                       "'--vertex'"),
    "branches-without-parameter": (["branches", "hopf.json", "--vertex", "v"],
                                   "param_dim 0"),
    "cm-reduce-with-parameter": (["cm-reduce", "tc.json"], "param_dim 1"),
    "normal-form-with-parameter": (["normal-form", "tc.json"], "param_dim 1"),
    "seed-env-not-integer": (["check-equivariance", "hopf.json"],
                             "QUIVERDYN_SEED", {"QUIVERDYN_SEED": "abc"}),
    "seed-negative": (["check-equivariance", "hopf.json", "--mode", "sampled",
                       "--seed", "-1"], "'--seed'"),
    "degree-above-cap": (["cm-reduce", "hopf.json", "--degree", "9"],
                         "'--degree'"),
    "degree-negative": (["cm-reduce", "hopf.json", "--degree", "-2"],
                        "'--degree'"),
    "grade-above-cap": (["normal-form", "hopf.json", "--grade", "8"],
                        "'--grade'"),
    "grade-negative": (["normal-form", "hopf.json", "--grade", "-1"],
                       "'--grade'"),
    "sampled-zero-samples": (["check-equivariance", "hopf.json", "--mode",
                              "sampled", "--samples", "0"], "'--samples'"),
    "sampled-negative-samples": (["check-equivariance", "hopf.json", "--mode",
                                  "sampled", "--samples", "-5"],
                                 "'--samples'"),
    "ls-reduce-zero-samples": (["ls-reduce", "tc.json", "--samples", "0"],
                               "'--samples'"),
    "ls-reduce-negative-samples": (["ls-reduce", "tc.json", "--samples", "-3"],
                                   "'--samples'"),
    "equivariance-negative-tol": (["check-equivariance", "hopf.json",
                                   "--tol", "-1"], "'--tol'"),
    "ls-reduce-negative-tol": (["ls-reduce", "tc.json", "--tol", "-1"],
                               "'--tol'"),
    # the option is rejected before either file is read
    "admissible-negative-tol": (["check-admissible", "hopf.json", "hopf.json",
                                 "--tol", "-1"], "'--tol'"),
}


@pytest.mark.parametrize("request_", UNSATISFIABLE.values(),
                         ids=UNSATISFIABLE.keys())
def test_unsatisfiable_request_exits_2(tmp_path, request_):
    args, message, *env = request_
    dump_json(tuple_to_json(transcritical_with_slave()), tmp_path / "tc.json")
    dump_json(tuple_to_json(hopf_tuple()), tmp_path / "hopf.json")
    r = run_cli(args, tmp_path, *env)
    assert r.returncode == 2
    assert message in r.stderr, r.stderr
    assert not (tmp_path / "reports").exists()
