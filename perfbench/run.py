"""Benchmark for implogic: one workload per run, end-to-end metrics with
tracing off (--trace 0) or per-layer metrics from a traced run (--trace 1).

    python3 perfbench/run.py --workload yield_nand --seed 0 --seconds 30 --trace 0

Workloads: yield_nand, yield_adder_sinh, ripple_sweep, optimize_bias (see
NOTES.md). The run sets the workload up several times, then repeats the
workload's fixed batch of calls ("a pass") until --seconds have passed, and
checks every output. End-to-end times are scaled to a reference machine
speed by a calibration kernel timed around every call (calibrate.py) and
are medians over the run; see NOTES.md for why. In a traced run, untraced
and traced passes alternate so that the tracing overhead is measured
against the same inputs, and every pass must give the same outputs.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A readable summary goes to stderr; the
environment record, per-pass figures and, for traced runs, the spans go to
.perfbench_out/ in the checkout. Everything runs in this one process on
one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import common

# the names only: workloads.py imports numpy, which has to wait for pin_threads()
WORKLOADS = ("yield_nand", "yield_adder_sinh", "ripple_sweep", "optimize_bias")
MIN_SETUPS = 15
MIN_ROUNDS = 3
SETUP_SLICE_UNITS = 40

# (name, unit, better); every workload reports all of them
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("call_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 600.0:
        raise argparse.ArgumentTypeError("--seconds must be in (0, 600]")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=_positive_seconds, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def timed_setup(workload, seed, workdir, setup_times):
    """Set up once; append (measured, scaled) seconds to ``setup_times``."""
    import calibrate  # imports numpy, so not before pin_threads()

    gc.collect()
    before = calibrate.measure(SETUP_SLICE_UNITS)
    t0 = time.perf_counter()
    state = workload.setup(seed, workdir)
    took = time.perf_counter() - t0
    after = calibrate.measure(SETUP_SLICE_UNITS)
    setup_times.append((took, took * calibrate.scale(before, after)))
    return state


def measure(workload, seed, workdir, seconds, tracer, wl):
    """Set up, then run a round of passes, while a round of the median
    length still fits in ``seconds`` (at least MIN_ROUNDS rounds).
    A round is one untraced pass, followed in a traced run by a traced one.
    Setting up before every round spreads the set-up samples over the run
    instead of bunching them at its start. Each pass runs its calls in its
    own order, drawn from the seed and the pass number, so that a call's
    samples fall at unrelated moments of the run rather than all in the
    same slow stretch as its neighbours."""
    setup_times, passes, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    last = {}  # traced -> the latest such pass's latencies
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() + statistics.median(rounds) < deadline):
        round_start = time.perf_counter()
        state = timed_setup(workload, seed, workdir, setup_times)
        for traced in ((False, True) if tracer else (False,)):
            calls = workload.calls(state)
            order = list(range(len(calls)))
            random.Random(common.derive_seed(seed, "order", len(passes))).shuffle(order)
            gc.collect()
            if traced:
                tracer.begin_pass(record=not tracer.passes)
                tracer.install()
            try:
                result = wl.run_calls(calls, order,
                                      expected=last.get(traced, last.get(False)))
            finally:
                if traced:
                    tracer.uninstall()
            last[traced] = result.latencies_s
            passes.append((traced, result, workload.collect(state, result.outputs)))
        rounds.append(time.perf_counter() - round_start)
    while len(setup_times) < MIN_SETUPS:
        state = timed_setup(workload, seed, workdir, setup_times)
    return state, setup_times, passes


def best_latencies(results) -> list[float]:
    """Each call's fastest measured time over the passes."""
    return [min(col) for col in zip(*(r.latencies_s for r in results))]


def median_scaled(results) -> list[float]:
    """Each call's median time at the reference speed over the passes."""
    return [statistics.median(col) for col in zip(*(r.scaled_s for r in results))]


def end_to_end_metrics(workload, setup_times, passes) -> dict[str, float]:
    per_call = median_scaled([r for traced, r, _ in passes if not traced])
    wall = sum(per_call)
    return {
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "wall_s": wall,
        "items_per_s": len(per_call) * workload.items_per_call / wall,
        "call_p50_ms": statistics.median(per_call) * 1e3,
        "peak_rss_mb": common.peak_rss_mb(),
    }


def layer_metrics(workload, tracer, passes, spans) -> dict[str, float]:
    """Per-layer metrics: the minimum over traced passes of each (counts
    are equal in every pass), and the tracing overhead from the traced and
    untraced passes' calls at their median scaled times."""
    traced = [r for t, r, _ in passes if t]
    per_pass = [spans.layer_metrics(p, workload.trials_per_pass, sum(r.latencies_s))
                for p, r in zip(tracer.passes, traced)]
    values = {name: min(m[name] for m in per_pass) for name in per_pass[0]}
    untraced = [r for t, r, _ in passes if not t]
    values["trace.overhead_fraction"] = (sum(median_scaled(traced))
                                         / sum(median_scaled(untraced)) - 1.0)
    return values


def run(args, workdir) -> int:
    import spans
    import workloads as wl

    workload = wl.WORKLOADS[args.workload](wl.load_reference())
    tracer = spans.Tracer() if args.trace else None
    state, setup_times, passes = measure(workload, args.seed, workdir,
                                         args.seconds, tracer, wl)

    checks = wl.Checks()
    first = passes[0][2]
    for i, (traced, result, outputs) in enumerate(passes):
        for err in result.errors:
            sys.stderr.write(err)
            checks.expect(False, f"pass {i}: {err.strip().splitlines()[-1]}")
        workload.check_pass(state, outputs, checks)
        if i:
            checks.expect(outputs == first, f"pass {i} ({'traced' if traced else 'untraced'}) "
                          "outputs differ from pass 0")
    workload.final_checks(state, args.seed, first, checks)

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": common.environment_record(),
              "setup_s": [{"measured": m, "scaled": sc} for m, sc in setup_times],
              "passes": [{"traced": t, "wall_s": r.wall_s, "calls": len(r.outputs),
                          "measured_s": sum(r.latencies_s), "scaled_s": sum(r.scaled_s)}
                         for t, r, _ in passes],
              "best_measured_wall_s": sum(best_latencies(
                  [r for t, r, _ in passes if not t]))}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        for ok, what in tracer.consistency:
            checks.expect(ok, what)
        base = tracer.passes[0].call_counts()
        for i, p in enumerate(tracer.passes[1:], 1):
            checks.expect(p.call_counts() == base,
                          f"traced pass {i}: layer call counts differ from traced pass 0")
        values = layer_metrics(workload, tracer, passes, spans)
        metrics = {name: (values[name], unit) for name, unit, _ in spans.LAYER_METRICS}
        record["absent_layers"] = tracer.absent
        record["spans_file"] = f"{stem}.spans.csv.gz"
        record["spans"] = tracer.write_spans(common.OUT_DIR / record["spans_file"])
    else:
        values = end_to_end_metrics(workload, setup_times, passes)
        metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "notes": checks.notes}
    with open(common.OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    err = sys.stderr
    err.write(f"{args.workload} seed={args.seed} trace={args.trace}: "
              f"{len(passes)} passes, item = {workload.item}\n")
    for name, (value, unit) in metrics.items():
        err.write(f"  {name:40s} {value:14.6g} {unit}\n")
    for layer in record.get("absent_layers", []):
        err.write(f"  absent layer: {layer} (its metrics read 0)\n")
    for note in checks.notes:
        err.write(f"  CHECK FAILED: {note}\n")
    err.write(f"  checks: {checks.attempted} attempted, {checks.failed} failed\n")

    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": record["metrics"]}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    common.pin_threads()
    try:
        common.import_implogic()
    except common.MissingPackage as exc:
        sys.stderr.write(f"perfbench: cannot run: {exc}\n")
        return 2
    common.OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.OUT_DIR)
    try:
        return run(args, Path(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
