"""Frozen CLI reports of the reduction pipeline, in exact and float mode.

Each case writes its fixture files into a fresh directory, runs one CLI
command there with input paths relative to that directory (so `config` and
`config_hash` do not depend on where the test runs), and compares the exit
code and every file the command writes with the frozen copies under
`tests/golden/<case>/`.

- Exact-mode cases must match byte for byte.
- Float-mode cases (the same fixture with float matrices and coefficients)
  must match once every number is masked: the same keys, rows and text,
  and each number within 1e-9 relative to max(1, |number|).
- Branch-tracing cases (`branches`, `casestudy-s10`) report roots and fits
  from float Newton iterations even on exact input, so they use the masked
  rule in both modes. `casestudy-s10` reads its three paper cases as text
  and has no float variant.
- Network cases (`validate`, `subq`, `quoq`, `fibrations`,
  `check-admissible`) read network and network-map files, have no float
  variant and must match byte for byte.

The frozen files are data, not output of this test: a change that moves a
report must explain itself by editing them in its own commit.
"""

import math
import re
from pathlib import Path

import pytest

from helpers import (cm_coupled_tuple, cm_feedforward_tuple, float_copy,
                     hopf_tuple, random_response_family,
                     two_colour_8_network, two_type_network)
from quiverdyn.builders import quotient_network
from quiverdyn.fileio import (dump_json, endomorphism_to_json,
                              network_map_to_json, network_to_json,
                              representation_to_json, tuple_to_json)
from quiverdyn.spectral import EndomorphismTuple
from test_casestudy import CASE1, CASE2, CASE3
from test_cli import run_cli
from test_lsreduction import transcritical_with_slave

GOLDEN = Path(__file__).parent / "golden"
FLOAT_RTOL = 1e-9
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

FIXTURES = {
    "hopf": hopf_tuple,
    "cmff": cm_feedforward_tuple,
    "cmcoupled": cm_coupled_tuple,
    "transcritical": transcritical_with_slave,
}

# (command arguments, fixture names); the spectral commands read the
# representation and the linearization of the fixture instead of the tuple
COMMANDS = [
    (["check-equivariance", "pvf.json", "--mode", "exact"], ["hopf", "cmff"]),
    (["check-equivariance", "pvf.json", "--mode", "sampled"],
     ["hopf", "cmff"]),
    (["spectrum", "rep.json", "endo.json"], ["cmff"]),
    (["sn", "rep.json", "endo.json"], ["cmff"]),
    (["cm-reduce", "pvf.json"], ["cmff", "cmcoupled"]),
    (["normal-form", "pvf.json"], ["hopf"]),
    (["ls-reduce", "pvf.json"], ["transcritical"]),
    (["branches", "pvf.json", "--vertex", "v"], ["transcritical"]),
]

# network files written for every network case, as <name>.json
NETWORKS = {
    "twotype": two_type_network,
    "twocolour8": two_colour_8_network,
    "twotype-q2": lambda: quotient_network(
        two_type_network(), [("1", "2", "3"), ("4", "5")])[0],
}

# network-map files written for every network case, as <name>.json: the
# collapsed total-space map of an admissible response family
NETWORK_MAPS = {
    "twotype-map": lambda: random_response_family(
        two_type_network(), seed=3).instantiate(),
}

NETWORK_COMMANDS = [
    ("validate-twotype", ["validate", "twotype.json"]),
    ("subq-twotype", ["subq", "twotype.json"]),
    ("quoq-twotype", ["quoq", "twotype.json"]),
    ("quoq-twocolour8", ["quoq", "twocolour8.json"]),
    ("fibrations-surjective-twotype",
     ["fibrations", "twotype.json", "twotype-q2.json", "--surjective"]),
    ("check-admissible-twotype",
     ["check-admissible", "twotype.json", "twotype-map.json"]),
]

# commands whose reports hold float Newton results in either mode
NEWTON_COMMANDS = {"branches", "casestudy-s10"}

# cases whose float run must report what the exact run reports; `spectrum`
# and `sn` carry exact factors by design, and `normal-form` lists float
# round-off terms
PARITY = ["check-equivariance-sampled-hopf", "check-equivariance-sampled-cmff",
          "cm-reduce-cmff", "cm-reduce-cmcoupled", "ls-reduce-transcritical",
          "branches-v-transcritical"]
FRACTION = re.compile(r'"?(-?\d+)/(\d+)"?')


def case_name(args, fixture, mode):
    return "-".join([args[0]] + args[3:4] + [fixture, mode])


CASES = [(case_name(args, fx, mode), args, fx, mode)
         for args, fixtures in COMMANDS for fx in fixtures
         for mode in ("exact", "float")] + [
    (f"casestudy-s10-case{i}",
     ["casestudy-s10", "--f", f, "--g", g, "--case", case], None, "exact")
    for i, (f, g, case) in enumerate((CASE1, CASE2, CASE3), start=1)] + [
    (name, args, "networks", "exact") for name, args in NETWORK_COMMANDS]


def write_inputs(fixture, mode, directory):
    if fixture is None:
        return
    if fixture == "networks":
        for name, make in NETWORKS.items():
            dump_json(network_to_json(make()), directory / f"{name}.json")
        for name, make in NETWORK_MAPS.items():
            dump_json(network_map_to_json(make()), directory / f"{name}.json")
        return
    F = FIXTURES[fixture]()
    if mode == "float":
        F = float_copy(F)
    dump_json(tuple_to_json(F), directory / "pvf.json")
    dump_json(representation_to_json(F.representation),
              directory / "rep.json")
    dump_json(endomorphism_to_json(EndomorphismTuple.from_linearization(F)),
              directory / "endo.json")


def run_case(args, fixture, mode, directory):
    """Run one case in `directory`; returns (exit code, {name: text})."""
    write_inputs(fixture, mode, directory)
    r = run_cli(args, directory)
    out = directory / "reports"
    files = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(out.iterdir())} if out.exists() else {}
    return r.returncode, files


def assert_numbers_close(got, want, where):
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want), where
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)):
        a, b = float(a), float(b)
        assert math.isclose(a, b, rel_tol=FLOAT_RTOL,
                            abs_tol=FLOAT_RTOL), f"{where}: {a!r} != {b!r}"


@pytest.mark.parametrize("name,args,fixture,mode", CASES,
                         ids=[c[0] for c in CASES])
def test_golden_report(tmp_path, name, args, fixture, mode):
    frozen = GOLDEN / name
    code, files = run_case(args, fixture, mode, tmp_path)
    assert code == int((frozen / "exit_code").read_text())
    want = sorted(p.name for p in frozen.iterdir() if p.name != "exit_code")
    assert sorted(files) == want
    for fname in want:
        text = (frozen / fname).read_text(encoding="utf-8")
        if mode == "exact" and args[0] not in NEWTON_COMMANDS:
            assert files[fname] == text, f"{name}/{fname}"
        else:
            assert_numbers_close(files[fname], text, f"{name}/{fname}")


def as_floats(text):
    """Exact report text with every p/q (a quoted string in JSON) written
    as the float it stands for."""
    return FRACTION.sub(lambda m: repr(int(m[1]) / int(m[2])), text)


@pytest.mark.parametrize("name", PARITY)
def test_float_report_matches_exact_report(tmp_path, name):
    args, fixture = next((c[1], c[2]) for c in CASES
                         if c[0] == f"{name}-float")
    code, files = run_case(args, fixture, "float", tmp_path)
    exact = GOLDEN / f"{name}-exact"
    assert code == int((exact / "exit_code").read_text())
    assert sorted(files) == sorted(
        p.name for p in exact.iterdir() if p.name != "exit_code")
    for fname, text in files.items():
        want = as_floats((exact / fname).read_text(encoding="utf-8"))
        assert_numbers_close(text, want, f"{name}/{fname}")
