"""treeq benchmark: one workload per run, metrics as one JSON line.

Usage, from the repository root:

    python3 bench/run.py --workload search_cold --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

A run sets up (repeatedly, for a median set-up time), then runs whole
rounds of operations until ``--seconds`` have passed, checks every output
against the independent reference in ``reference.py`` and prints the
metrics.  ``--trace 1`` instead runs round 0 once untraced, then repeats it
with spans (``spans.py``) around every package boundary, and prints
per-layer metrics per operation.  ``--smoke`` runs one small operation per
workload plus its reference check.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
IMPORT_REPS = 5
CALIBRATE_REPS = 3

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "evals_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("search_cold", "eng_sweep", "gmb_ablate"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small operation per workload plus the reference check")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def import_seconds(clock) -> float:
    """Median nominal time of ``import treeq.cli`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import treeq.cli; print(time.perf_counter() - t)" % str(SRC))
    samples = []
    for _ in range(IMPORT_REPS):
        done, raw, nominal = clock.time(subprocess.run, [sys.executable, "-c", code],
                                        capture_output=True, check=True, timeout=120)
        samples.append(float(done.stdout) * nominal / raw)
    return statistics.median(samples)


def setup_seconds(workload, clock) -> float:
    """Median over the workload's repeated set-ups; the last one stays in place."""
    return statistics.median(clock.time(workload.setup)[2] for _ in range(workload.setup_reps))


class NoResult(Exception):
    """Every operation of a run failed, so there is nothing to report."""


def wall_time(fn, *args, **kwargs):
    """Call fn; return (result, raw wall seconds, the same seconds)."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    return result, elapsed, elapsed


def run_ops(run, inputs, outputs, timer=wall_time) -> int:
    """Run each input, appending (output, raw s, nominal s); return the failures."""
    failed = 0
    for inp in inputs:
        try:
            outputs.append(timer(run, inp))
        except Exception as e:  # an operation that fails is counted, not fatal
            print(f"operation {inp!r} failed: {type(e).__name__}: {e}", file=sys.stderr)
            failed += 1
    return failed


def check_all(workload, outputs) -> bool:
    import reference

    deltas = reference.delta_table()
    ok = True
    for out, _, _ in outputs:
        for error in workload.check(out, deltas):
            print(f"check failed: {error}", file=sys.stderr)
            ok = False
    return ok


def measure(workload, seconds, clock):
    """Untraced whole rounds until ``seconds`` have passed.

    op_s is the median over rounds of the mean nominal time per operation,
    so a round that mixes slow and fast operations counts as one sample.
    """
    outputs, rounds = [], []
    attempted = failed = 0
    start = time.perf_counter()
    with clock:
        while attempted == 0 or time.perf_counter() - start < seconds:
            inputs = workload.round_inputs(len(rounds))
            done = len(outputs)
            attempted += len(inputs)
            failed += run_ops(workload.run, inputs, outputs, clock.time)
            rounds.append(outputs[done:])
    rounds = [r for r in rounds if r]
    if not rounds:
        raise NoResult("no operation succeeded")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    evals = sum(out["evals"] for out, _, _ in outputs)

    def per_op(column):
        return statistics.median(sum(o[column] for o in r) / len(r) for r in rounds)

    def rate(column):
        return evals / sum(o[column] for o in outputs)

    print(f"{workload.name} raw wall op_s = {per_op(1):.6g} s, evals_per_s = {rate(1):.6g} 1/s",
          file=sys.stderr)
    metrics = {"op_s": per_op(2), "evals_per_s": rate(2), "peak_rss_mb": peak_rss_mb}
    return metrics, outputs, attempted, failed


def measure_traced(workload, seconds, clock):
    """Round 0 untraced, then traced repeats of it until ``seconds`` have passed.

    Span times are raw wall times.  The overhead compares nominal times per
    operation, from probes taken only before and after each operation so
    that no probe lands inside a span.
    """
    import spans
    from workloads import calibrate_deltas

    calibrate = []
    for _ in range(CALIBRATE_REPS):
        start = time.perf_counter()
        calibrate_deltas()
        calibrate.append(time.perf_counter() - start)

    inputs = workload.round_inputs(0)
    plain, traced = [], []
    start = time.perf_counter()
    failed = run_ops(workload.run, inputs, plain, clock.time)
    attempted = len(inputs)
    tracer = spans.Tracer()

    def run_traced(inp):
        with tracer.span(workload.span):
            return workload.run(inp, repeat=repeat)

    spans.install(tracer)
    try:
        repeat = 1
        while repeat == 1 or time.perf_counter() - start < seconds:
            failed += run_ops(run_traced, inputs, traced, clock.time)
            attempted += len(inputs)
            repeat += 1
    finally:
        tracer.restore()
    path = OUT / workload.name / "trace.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(path)
    print(f"wrote {len(tracer.spans)} spans to {path.relative_to(ROOT)}", file=sys.stderr)

    if not plain or not traced:
        raise NoResult("no untraced or no traced operation succeeded")
    metrics = spans.per_layer(tracer, len(traced))
    metrics["quantizer.calibrate_s"] = statistics.median(calibrate)
    per_op_plain = sum(t for _, _, t in plain) / len(plain)
    per_op_traced = sum(t for _, _, t in traced) / len(traced)
    metrics["trace.overhead_ratio"] = per_op_traced / per_op_plain - 1.0
    return metrics, plain + traced, attempted, failed


def smoke() -> int:
    """One small operation per workload, each checked against the reference."""
    from workloads import WORKLOADS

    bad = 0
    for name, cls in WORKLOADS.items():
        start = time.perf_counter()
        workload = cls(seed=1, out_dir=str(OUT / "smoke" / name), small=True)
        workload.setup()
        outputs = []
        failed = run_ops(workload.run, workload.round_inputs(0)[:1], outputs)
        ok = failed == 0 and check_all(workload, outputs)
        bad += not ok
        print(f"smoke {name}: {'ok' if ok else 'FAILED'} ({time.perf_counter() - start:.1f} s)")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treeq" / "__init__.py").is_file():
        print(f"error: no treeq package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.smoke:
        return smoke()

    from clock import SpeedClock
    from workloads import WORKLOADS

    clock = SpeedClock()
    import_s = import_seconds(clock)
    workload = WORKLOADS[args.workload](seed=args.seed, out_dir=str(OUT / args.workload))
    with clock:
        setup_s = import_s + setup_seconds(workload, clock)
    try:
        if args.trace:
            import spans

            metrics, outputs, attempted, failed = measure_traced(workload, args.seconds, clock)
            units = dict(spans.PER_LAYER)
        else:
            metrics, outputs, attempted, failed = measure(workload, args.seconds, clock)
            metrics["setup_s"] = setup_s
            units = END_TO_END_UNITS
    except NoResult as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    correct = check_all(workload, outputs)
    for name in units:
        print(f"{args.workload} {name} = {metrics[name]:.6g} {units[name]}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}, correct = {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
