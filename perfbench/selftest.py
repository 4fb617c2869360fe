"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Not named test_*.py, so the repository's own test run does not collect it;
a run takes about a minute (one round of every workload, traced).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

# Workload on which each per-layer metric must be nonzero. This follows the
# benchmark's layer table except for three metrics whose functions the
# table's primary workload never calls: build_quoq does not call build_subq
# or Subrepresentation.from_bases, and jets-normalform splits the spectrum
# with center_hyperbolic_split, not kernel_image_split.
PRIMARY = {}
for prefix, wl in [
        ("polynomial.init", "exact-closure"), ("polynomial.mul", "exact-closure"),
        ("polynomial.add", "exact-closure"),
        ("polynomial.compose", "exact-closure"),
        ("polynomial.diff", "exact-closure"), ("tuples.", "exact-closure"),
        ("network.", "exact-closure"), ("polynomial.eval", "ls-casestudy"),
        ("lsreduction.", "ls-casestudy"), ("casestudy.", "ls-casestudy"),
        ("fileio.", "ls-casestudy"), ("builders.", "quotient-enum"),
        ("quiver.representation", "quotient-enum"),
        ("exactlin.", "jets-normalform"), ("spectral.", "jets-normalform"),
        ("polyfield.", "jets-normalform"),
        ("centermanifold.", "jets-normalform"),
        ("normalform.", "jets-normalform")]:
    for m in SPEC["per_layer"]:
        if m["name"].startswith(prefix):
            PRIMARY[m["name"]] = wl
PRIMARY.update({
    "builders.build_subq.self_s": "exact-closure",
    "quiver.from_bases.self_s": "ls-casestudy",
    "spectral.kernel_image_split.self_s": "ls-casestudy",
})


def one_round(stop_after=1):
    return lambda rounds, op_seconds: rounds >= stop_after


@pytest.fixture(scope="module")
def traced():
    """One traced round of every workload, run in this process."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        rec = tracing.Recorder().install()
        try:
            records, _ = worker.run_loop(wl, 5, one_round(), rec)
        finally:
            rec.uninstall()
        wl.finish(records)
        out[name] = (records, rec.summary([1.0] * len(records)))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_has_no_failed_operation(traced, name):
    records, _ = traced[name]
    assert records
    assert [r["error"] for r in records if r["failed"]] == []


def test_every_per_layer_metric_is_covered():
    names = {m["name"] for m in SPEC["per_layer"]}
    assert set(PRIMARY) | {"trace.overhead_ratio"} == names


@pytest.mark.parametrize("metric", sorted(PRIMARY))
def test_per_layer_metric_nonzero_on_primary_workload(traced, metric):
    _, summary = traced[PRIMARY[metric]]
    assert summary[metric] > 0


class FailingJets(workloads.JetsNormalForm):
    """Operation 1 raises; operation 2 returns a wrong normal form."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def run(self, inp):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("injected")
        out = super().run(inp)
        if self.calls == 3:
            out["nf"].kernel_residuals[1] = 1
        return out


def test_injected_failures_raise_error_rate():
    wl = FailingJets()
    records, _ = worker.run_loop(wl, 5, one_round())
    wl.finish(records)
    failed = [r for r in records if r["failed"]]
    assert len(records) == 4 and len(failed) == 2
    assert failed[0]["error"].startswith("RuntimeError")
    assert failed[1]["error"].startswith("CheckFailed")


def test_self_time_of_nested_spans():
    # op [0,10] holds a [1,4] and b [5,9]; b holds a [6,7]; c [11,12] is a root
    name = [0, 1, 2, 1, 3]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 5.0, 6.0, 11.0]
    end = [10.0, 4.0, 9.0, 7.0, 12.0]
    calls, self_s = tracing.span_totals(name, parent, start, end, 4)
    assert list(calls) == [1, 2, 1, 1]
    assert list(self_s) == pytest.approx([3.0, 4.0, 3.0, 1.0])


def test_recorder_spans_nest_and_uninstall_restores():
    from quiverdyn import exactlin
    from quiverdyn.polynomial import Poly

    orig = exactlin.matmul, Poly.__init__
    rec = tracing.Recorder().install()
    try:
        op = rec.begin_op(0)
        exactlin.inverse([[2, 0], [0, 1]])
        Poly(1, {(1,): 1}) + Poly(1, {(0,): 1})
        rec.end_op(op)
    finally:
        rec.uninstall()
    assert (exactlin.matmul, Poly.__init__) == orig
    s = rec.summary([1.0])
    assert s["exactlin.inverse.calls"] == 1
    assert s["exactlin.rref.calls"] >= 1       # reached inside inverse
    assert s["polynomial.add.calls"] == 1
    assert s["polynomial.init.calls"] >= 3
    a = rec.arrays()
    inv = rec.name_id["exactlin.inverse"]
    rref = rec.name_id["exactlin.rref"]
    assert all(a["name"][a["parent"][i]] == inv
               for i in range(len(a["name"])) if a["name"][i] == rref)


def test_command_prints_result_line_with_every_metric():
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "jets-normalform", "--seed", "2", "--seconds", "1", "--trace",
             str(trace)], cwd=ROOT, capture_output=True, text=True,
            timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
