#!/usr/bin/env python3
"""Repository benchmark: end-to-end metrics and a traced per-layer split.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload synth --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 7

``--workload`` is ``synth``, ``verify``, ``sweep`` or ``all`` (each
workload in its own process, one combined summary). With ``--trace 0``
the run measures the end-to-end metrics untraced; with ``--trace 1``
it runs every operation twice on the serial backend, untraced and
traced, and reports the per-layer split. Every operation's output is
checked outside its timed section; a failed check counts as a failed
operation and makes the exit code 1. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

perfbench/README.md records why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of running benchmarks (journals, disk caches).
WORK = ROOT / ".perfbench_work"
#: Span files written by traced runs.
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("synth", "verify", "sweep")
#: Environment switches that change what runs; a run started with one
#: of them set warns that it does not measure the default set-up.
HATCHES = ("REPRO_KERNELS", "REPRO_DES", "REPRO_EVAL_INCREMENTAL",
           "REPRO_VERIFY_INCREMENTAL", "REPRO_EVAL_CACHE_DIR")
#: Fresh processes timed for ``setup_s`` (median reported).
SETUP_PROBES = 3
MIN_OPS = 3
#: Stop starting operations after this much wall time, whatever
#: ``--seconds`` says, so a slow machine still ends within 180 s.
WALL_CAP_S = 130.0

END_TO_END_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup(workload, seed: int, ctx) -> None:
    """Instance generation and one warm-up operation."""
    for index in range(2):
        workload.instance(seed, index)
    workload.run(workload.warmup_instance(seed), ctx)


def time_setup(args) -> list[float]:
    """Wall time of fresh processes that import, generate and warm up."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed)]
    samples = []
    for __ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(command, check=True, timeout=120, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(args) -> int:
    setup_samples = [] if args.trace else time_setup(args)
    from workloads import WORKLOADS, RunContext

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = RunContext(workdir=workdir, serial=bool(args.trace))
        started = time.perf_counter()
        setup(workload, args.seed, ctx)
        main_setup = time.perf_counter() - started
        if args.trace:
            return traced_loop(args, workload, ctx)
        return untraced_loop(args, workload, ctx, setup_samples,
                             main_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check(workload, inst, res, first: bool, **extra) -> list[str]:
    errors = workload.check(inst, res, **extra)
    if first:
        errors += workload.check_once(inst, res)
    return errors


def _report_failure(index: int, errors: list[str]) -> None:
    print(f"operation {index} FAILED:", file=sys.stderr)
    for error in errors:
        print(f"  {error}", file=sys.stderr)


def untraced_loop(args, workload, ctx, setup_samples, main_setup) -> int:
    results = []
    failed = 0
    started = time.perf_counter()
    measured = 0.0
    index = 0
    while (measured < args.seconds or index < MIN_OPS) \
            and time.perf_counter() - started < WALL_CAP_S:
        inst = workload.instance(args.seed, index)
        gc.collect()  # start every operation from the same heap state
        try:
            res = workload.run(inst, ctx)
            errors = _check(workload, inst, res, index == 0)
        except Exception:
            res, errors = None, [traceback.format_exc()]
        if errors:
            failed += 1
            _report_failure(index, errors)
        if res is not None:
            # Reports and designs are only for the checks; keeping them
            # would grow the heap, and so the collector's work, per op.
            res.detail.clear()
            res.output = None
            results.append(res)
            measured += sum(res.times.values())
        index += 1

    attempted = index
    op_times = [sum(r.times.values()) for r in results]
    metrics = {
        "op_s": statistics.median(op_times) if op_times else None,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"workload {args.workload}, seed {args.seed}: {attempted} "
          f"operation(s), {failed} failed, error_rate "
          f"{failed / attempted:.3f}; closed loop, one client")
    print(f"  setup_s probes {', '.join(f'{s:.3f}' for s in setup_samples)}"
          f" s; in-process setup {main_setup:.3f} s")
    for name, unit in END_TO_END_UNITS.items():
        value = metrics[name]
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<22} {shown:>12} {unit}")
    if results:
        names = list(results[0].times)
        for name in names:
            values = [r.times[name] for r in results]
            lo, hi = _quartiles(values)
            print(f"  {name:<22} {statistics.median(values):>12.4f} s"
                  f"   (median of {len(values)}, quartiles "
                  f"{lo:.4f}..{hi:.4f})")
        figures = [dict(r.extras, fto_pct=r.fto_pct) for r in results]
        for name in figures[0]:
            mean = statistics.fmean(f[name] for f in figures)
            print(f"  {name:<22} {mean:>12.4f}     (mean of "
                  f"{len(results)})")
    correct = failed == 0 and len(results) == attempted
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()},
    }))
    return 0 if correct else 1


def traced_loop(args, workload, ctx) -> int:
    from tracing import (PER_LAYER, Installation, Tracer, op_totals,
                         per_layer_metrics)

    tracer = Tracer()
    per_op = []
    plain_times, traced_times = [], []
    unmeasured: set[str] = set()
    failed = 0
    started = time.perf_counter()
    index = 0
    while (sum(plain_times) + sum(traced_times) < args.seconds
           or index < MIN_OPS) \
            and time.perf_counter() - started < WALL_CAP_S:
        inst = workload.instance(args.seed, index)
        gc.collect()  # start every operation from the same heap state
        try:
            ctx.span = None
            plain = workload.run(inst, ctx)
            lo, before = len(tracer), Counter(tracer.counters)
            ctx.span = tracer.span
            ctx.journal_bytes.clear()
            with Installation(tracer) as installed:
                traced = workload.run(inst, ctx)
            ctx.span = None
            unmeasured.update(installed.unmeasured)
            counters = tracer.counters - before
            totals = op_totals(tracer, lo, len(tracer), counters)
            totals["synthesis.fto_pct"] = traced.fto_pct
            totals["verify.bound_gap_pct"] = traced.extras.get(
                "verify_bound_gap_pct", 0.0)
            totals["engine.journal_bytes"] = sum(
                ctx.journal_bytes.values())
            per_op.append(totals)
            plain_times.append(sum(plain.times.values()))
            traced_times.append(sum(traced.times.values()))
            errors = []
            if traced.output != plain.output:
                errors.append("traced output differs from untraced")
            # The untraced serial run doubles as the sweep's reference.
            extra = ({"reference": plain.output[:3]}
                     if workload.name == "sweep" else {})
            errors += _check(workload, inst, traced, index == 0, **extra)
        except Exception:
            errors = [traceback.format_exc()]
        if errors:
            failed += 1
            _report_failure(index, errors)
        index += 1

    attempted = index
    values = (per_layer_metrics(per_op, unmeasured) if per_op
              else {key: None for key in PER_LAYER})
    if plain_times:
        plain_med = statistics.median(plain_times)
        values["trace.overhead_pct"] = (
            (statistics.median(traced_times) - plain_med) / plain_med
            * 100.0)
    else:
        values["trace.overhead_pct"] = None
    span_file = OUT / f"trace-{args.workload}-s{args.seed}.tsv.gz"
    tracer.write(span_file)

    print(f"workload {args.workload}, seed {args.seed} (traced, serial "
          f"backend): {attempted} operation(s), {failed} failed; "
          f"{len(tracer)} spans in {span_file.relative_to(ROOT)}")
    if unmeasured:
        print(f"  unmeasured layers: {', '.join(sorted(unmeasured))}")
    if plain_times:
        print(f"  untraced {statistics.median(plain_times):.4f} s, traced "
              f"{statistics.median(traced_times):.4f} s per operation "
              f"(median of {len(plain_times)})")
    for name, (unit, __, ___) in PER_LAYER.items():
        value = values[name]
        shown = "unmeasured" if value is None else f"{value:.6g}"
        print(f"  {name:<26} {shown:>14} {unit}")
    correct = failed == 0 and len(per_op) == attempted
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, __, ___) in PER_LAYER.items()},
    }))
    return 0 if correct else 1


def setup_probe(args) -> int:
    from workloads import WORKLOADS, RunContext

    workdir = WORK / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup(WORKLOADS[args.workload], args.seed,
              RunContext(workdir=workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined summary."""
    combined = {}
    status = 0
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, done.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            correct = False
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": combined}))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run it from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in HATCHES:
        if name in os.environ and not args.setup_probe:
            print(f"perfbench: warning: {name} is set; this run does not "
                  "measure the default configuration", file=sys.stderr)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
