"""One workload in one fresh process; prints its result as a JSON line.

Started by run.py, never by hand. The parent passes the monotonic time at
which it launched this process in PERFBENCH_LAUNCH, so ``setup_s`` covers
interpreter start, importing quiverdyn and generating the first round of
inputs. Modes:

- ``setup``: stop after set-up and report the set-up time only;
- ``seconds``: run whole rounds until the operations have taken
  ``--seconds`` of wall time;
- ``rounds``: run a fixed number of rounds, derived from ``--seconds`` and
  the workload's nominal round time, so that a traced run and its untraced
  reference run exactly the same operations.

Times are reported twice: as measured, and rescaled to a fixed interpreter
speed by the probe in speed.py.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import speed
import workloads


def run_loop(wl, seed, stop, recorder=None):
    """Closed loop over whole rounds; ``stop(rounds_done, op_seconds)``
    ends it. Returns the per-operation records and the round digests."""
    records = []
    spans = []
    round_digests = []
    op_seconds = 0.0
    r = 0
    with speed.SpeedProbe(wl.speed_kernel) as probe:
        while not (r and stop(r, op_seconds)):
            inputs = wl.round_inputs(seed, r)
            round_digests.append(
                workloads.digest(wl.describe(i) for i in inputs))
            for inp in inputs:
                rec, t0, t1 = run_one(wl, inp, recorder, len(records))
                rec["round"] = r
                records.append(rec)
                spans.append((t0, t1))
                op_seconds += t1 - t0
            r += 1
        time.sleep(2 * speed.SAMPLE_S)    # samples after the last operation
    for rec, (t0, t1) in zip(records, spans):
        seconds, factor = probe.rescale(t0, t1)
        rec["ms"] = seconds * 1e3
        rec["norm_ms"] = seconds * 1e3 * factor
    return records, round_digests


def run_one(wl, inp, recorder, index):
    """One timed operation and its check; returns (record, start, end)."""
    span = recorder.begin_op(index) if recorder else None
    t0 = time.perf_counter()
    try:
        out, error = wl.run(inp), None
    except Exception as exc:  # a failed operation stays in the run
        out, error = None, exc
    t1 = time.perf_counter()
    if recorder:
        recorder.end_op(span)
    deferred = None
    if error is None:
        try:
            deferred = wl.check(inp, out)
        except Exception as exc:
            error = exc
    return {
        "kind": inp["kind"],
        "failed": error is not None,
        "error": (f"{type(error).__name__}: {error}"[:300]
                  if error is not None else None),
        "deferred": deferred,
    }, t0, t1


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "seconds", "rounds"),
                    required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the recorded spans (.npz)")
    args = ap.parse_args(argv)
    launched = float(os.environ["PERFBENCH_LAUNCH"])

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    first = wl.round_inputs(args.seed, 0)
    setup_s = time.monotonic() - launched
    # set-up is import work whatever the workload: one kernel for all
    setup = {"setup_s": setup_s, "norm_setup_s": setup_s * speed.factor(
        "exact", statistics.median(speed.step_us("exact", 600)
                                   for _ in range(3)))}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    if args.mode == "seconds":
        def stop(rounds, op_seconds):
            return op_seconds >= args.seconds
    else:
        n_rounds = rounds_for(wl, args.seconds)

        def stop(rounds, op_seconds):
            return rounds >= n_rounds

    recorder = None
    if args.trace:
        import tracing
        recorder = tracing.Recorder().install()
    del first  # regenerated identically by the loop; only set-up timed it
    records, round_digests = run_loop(wl, args.seed, stop, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = None
    if recorder is not None:
        recorder.uninstall()
        layers = recorder.summary([rec["norm_ms"] / rec["ms"]
                                   for rec in records])
        if args.spans:
            recorder.save(args.spans)
    wl.finish(records)

    import numpy
    import scipy
    print(json.dumps(dict(
        setup,
        peak_rss_mb=peak_rss_mb,
        rounds=len(round_digests),
        input_digest=workloads.digest(round_digests),
        round_digests=[d[:12] for d in round_digests],
        ops=[{k: v for k, v in rec.items() if k != "deferred"}
             for rec in records],
        versions={"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__},
        layers=layers,
    )))
    return 0


def rounds_for(wl, seconds):
    """Rounds in a traced run: about half of ``seconds`` untraced, so the
    untraced reference plus the traced run take roughly ``seconds``."""
    return max(1, round(seconds / 2 / wl.nominal_round_s))


if __name__ == "__main__":
    sys.exit(main())
