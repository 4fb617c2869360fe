"""quiverdyn benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload exact-closure --seed 1 --seconds 20 --trace 0

Run from the root of a quiverdyn checkout; the package is imported from its
``src`` directory. Every workload runs in fresh worker processes (one
caller, closed loop, BLAS pinned to one thread), so set-up time, peak memory
and quiverdyn's module-level ad-matrix cache belong to that workload alone.

``--trace 0`` reports the end-to-end metrics: set-up is repeated in
SETUP_PROBES extra processes and the median is reported. Times are rescaled
to a fixed interpreter speed sampled during the operations (see speed.py);
the times as measured are printed beside them and kept in the record.
``--trace 1`` runs the same rounds twice in fresh processes, untraced and
then traced, and reports the per-layer metrics from the traced one. The
last line of standard output is the JSON result; a fuller record, with the
environment, the input digest and every failed operation, goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170


def metric_units(kind):
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class WorkerFailed(Exception):
    pass


def worker(workload, seed, mode, seconds, trace=0, spans=None):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--trace", str(trace)]
    if spans:
        cmd += ["--spans", str(spans)]
    env["PERFBENCH_LAUNCH"] = repr(time.monotonic())
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(ms):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples); with ten samples or fewer no such
    percentile exists and the maximum is reported as p100.
    """
    s = sorted(ms)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(main, setups, ms_key, setup_key):
    """The end-to-end metrics from one untraced run and its set-ups, on the
    given time scale: raw (ms, setup_s) or rescaled (norm_*)."""
    ms = [op[ms_key] for op in main["ops"]]
    value, pct, n = tail(ms)
    metrics = {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": value,
        "setup_s": statistics.median(s[setup_key] for s in setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {"op_tail_ms": f"p{pct:.1f} of {n} operations",
             "setup_s": f"median of {len(setups)} set-ups"}
    return metrics, notes


def per_layer(base, traced, names):
    layers = traced["layers"]
    metrics = {}
    for name in names:
        if name == "trace.overhead_ratio":
            metrics[name] = (sum(op["norm_ms"] for op in traced["ops"])
                             / sum(op["norm_ms"] for op in base["ops"]))
        else:
            metrics[name] = layers[name]
    return metrics


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quiverdyn" / "__init__.py").is_file():
        print(f"perfbench: no quiverdyn package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace == 0:
            setups = [worker(args.workload, args.seed, "setup", args.seconds)
                      for _ in range(SETUP_PROBES)]
            main_run = worker(args.workload, args.seed, "seconds", args.seconds)
            setups.append(main_run)
            metrics, notes = end_to_end(main_run, setups, "norm_ms",
                                        "norm_setup_s")
            raw, _ = end_to_end(main_run, setups, "ms", "setup_s")
            runs = [main_run]
            units = metric_units("end_to_end")
            metrics = {name: metrics[name] for name in units}
        else:
            base = worker(args.workload, args.seed, "rounds", args.seconds)
            traced = worker(args.workload, args.seed, "rounds", args.seconds,
                            trace=1, spans=OUT_DIR / f"{stem}.spans.npz")
            if traced["input_digest"] != base["input_digest"]:
                raise WorkerFailed("traced and untraced runs saw different inputs")
            units = metric_units("per_layer")
            metrics, notes, raw = per_layer(base, traced, units), {}, {}
            runs = [base, traced]
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    ops = [op for run in runs for op in run["ops"]]
    failures = [dict(op, run=i) for i, run in enumerate(runs)
                for op in run["ops"] if op["failed"]]
    attempted, failed = len(ops), len(failures)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "raw_metrics": raw,
        "notes": notes,
        "error_rate": failed / attempted, "attempted": attempted,
        "failed": failed,
        "failures": [{"run": f["run"], "round": f["round"], "kind": f["kind"],
                      "error": f["error"]} for f in failures],
        "input_digest": runs[-1]["input_digest"],
        "round_digests": runs[-1]["round_digests"],
        "rounds": [run["rounds"] for run in runs],
        "op_ms_by_kind": by_kind(runs[-1]["ops"]),
        "environment": dict(environment(), **runs[-1]["versions"]),
    }
    if args.trace:
        record["layers"] = runs[-1]["layers"]
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={record['rounds']} inputs={record['input_digest'][:16]}")
    if raw:
        print(f"  {'':44s} {'rescaled':>14s} {'':5s} {'as measured':>14s}")
    for name, value in metrics.items():
        as_measured = f"{raw[name]:14.6g}" if name in raw else ""
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:14.6g} {units[name]:5s} "
              f"{as_measured}{note}")
    print(f"  {'error_rate':44s} {record['error_rate']:14.6g} ratio"
          f"  ({failed} of {attempted} operations failed)")
    for f in record["failures"]:
        print(f"  failed: run {f['run']} round {f['round']} {f['kind']}: "
              f"{f['error']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def by_kind(ops):
    kinds = {}
    for op in ops:
        kinds.setdefault(op["kind"], []).append(op)
    return {k: {"n": len(v),
                "median_ms": statistics.median(op["norm_ms"] for op in v),
                "median_ms_as_measured": statistics.median(op["ms"] for op in v)}
            for k, v in sorted(kinds.items())}


if __name__ == "__main__":
    sys.exit(main())
