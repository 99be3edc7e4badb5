"""Benchmark: sharded verification vs serial one-shot re-simulation.

Two measurements on a Fig. 7-scale workload (20 processes quick /
30 full, ``k = 2``):

* **batched sweep** — the full scenario set replayed through
  :class:`~repro.kernels.batch.BatchedSimulator` vs one
  ``simulate()`` call per plan (the ``REPRO_KERNELS=0`` oracle) on
  the identical schedule. Results must match exactly and the batched
  replay must be **>= 3x** faster — the acceptance floor, asserted in
  every profile and independent of core count;
* **sharded engine** — ``run_verification`` serially, across a worker
  pool, and under ``REPRO_KERNELS=0``: all three reports must be
  byte-identical apart from the oracle run's ``kernels.enabled`` flag
  (the chunk layout pins the fold order, so worker count and replay
  path can never show in the output). On a >= 4-core machine in the
  full profile, the parallel sharded run must also beat the legacy
  single-chunk oracle baseline >= 3x end to end (at quick scale the
  per-chunk synthesis overhead dominates the small scenario set, so
  the wall-clock gate stays out of that profile).

Run:  pytest benchmarks/bench_verify.py --benchmark-only

``REPRO_BENCH_PROFILE=full`` widens the workload (default: quick).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

from repro.campaigns.runner import synthesize_campaign_design
from repro.engine import EngineConfig
from repro.eval.core import EvaluatorPool
from repro.ftcpg.scenarios import iter_fault_plans
from repro.kernels import KERNELS_ENV
from repro.kernels.batch import BatchedSimulator
from repro.model import FaultModel
from repro.runtime.simulator import simulate
from repro.synthesis.tabu import TabuSettings
from repro.verify import VerifyConfig, run_verification
from repro.verify.runner import load_verify_workload

QUICK = os.environ.get("REPRO_BENCH_PROFILE", "quick") != "full"

#: Fig. 7 territory: the paper sweeps 20..80 processes.
PROCESSES = 20 if QUICK else 30
SETTINGS = TabuSettings(iterations=6, neighborhood=6,
                        bus_contention=False)
CONFIG = VerifyConfig(
    workload={"processes": PROCESSES, "nodes": 3, "seed": 1},
    k=2, chunks=4, settings=SETTINGS)
WORKERS = min(4, os.cpu_count() or 1)

#: Acceptance floor for the batched sweep (both profiles).
MIN_SPEEDUP = 3.0


def _design():
    app, arch, __ = load_verify_workload(CONFIG.workload)
    pool = EvaluatorPool()
    result = synthesize_campaign_design(
        app, arch, CONFIG.k, CONFIG.strategy, CONFIG.settings,
        CONFIG.seed, pool=pool)
    fault_model = FaultModel(k=CONFIG.k)
    evaluator = pool.evaluator_for(app, arch, fault_model)
    schedule = evaluator.exact_schedule(
        result.policies, result.mapping,
        max_contexts=CONFIG.max_contexts)
    return app, arch, result.mapping, result.policies, fault_model, \
        schedule


def _digest(results) -> list:
    return [(r.plan.describe(), round(r.makespan, 9),
             tuple(r.errors)) for r in results]


def test_batched_sweep_speedup(benchmark):
    app, arch, mapping, policies, fault_model, schedule = _design()
    plans = list(iter_fault_plans(app, policies, fault_model.k))

    started = time.perf_counter()
    oracle = _digest(simulate(app, arch, mapping, policies,
                              fault_model, schedule, plan)
                     for plan in plans)
    oracle_time = time.perf_counter() - started

    def run():
        batched = BatchedSimulator(app, arch, mapping, policies,
                                   fault_model, schedule)
        return _digest(batched.results(plans))

    kernel = benchmark.pedantic(run, rounds=1, iterations=1)
    kernel_time = benchmark.stats.stats.total

    # The kernel's core guarantee: bit-identical scenario results.
    assert kernel == oracle

    speedup = oracle_time / kernel_time if kernel_time else 0.0
    benchmark.extra_info["scenarios"] = len(plans)
    benchmark.extra_info["entries"] = len(schedule.entries)
    benchmark.extra_info["oracle_seconds"] = round(oracle_time, 2)
    benchmark.extra_info["batched_seconds"] = round(kernel_time, 2)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x from the batched kernel, got "
        f"{speedup:.2f}x (oracle {oracle_time:.2f}s, batched "
        f"{kernel_time:.2f}s over {len(plans)} scenarios)")


def test_sharded_engine_identity_and_speedup(benchmark):
    # Legacy-shaped baseline: one chunk, one worker, one-shot
    # simulate() of every scenario from t = 0.
    baseline_config = replace(CONFIG, chunks=1)
    saved = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = "0"
    try:
        started = time.perf_counter()
        baseline = run_verification(
            baseline_config, engine_config=EngineConfig(workers=1))
        baseline_time = time.perf_counter() - started
        # Same sharded layout, oracle mode (still serial so the flag
        # reaches the in-process chunk runners); the report embeds
        # kernels.enabled, so serialize it while the flag is set.
        forced = json.loads(run_verification(
            CONFIG, engine_config=EngineConfig(workers=1)).to_json())
    finally:
        if saved is None:
            del os.environ[KERNELS_ENV]
        else:
            os.environ[KERNELS_ENV] = saved

    started = time.perf_counter()
    serial = run_verification(CONFIG,
                              engine_config=EngineConfig(workers=1))
    serial_time = time.perf_counter() - started

    parallel_engine = EngineConfig(workers=WORKERS)
    parallel = benchmark.pedantic(
        lambda: run_verification(CONFIG,
                                 engine_config=parallel_engine),
        rounds=1, iterations=1)
    parallel_time = benchmark.stats.stats.total

    # Byte-identical reports across worker counts; the oracle run
    # differs in exactly one value, kernels.enabled.
    assert parallel.to_json() == serial.to_json()
    expected = json.loads(serial.to_json())
    assert forced["kernels"].pop("enabled") is False
    expected["kernels"].pop("enabled")
    assert forced == expected
    # The chunk layout changes the merge fold, never the verdict.
    assert baseline.ok == serial.ok
    assert baseline.stats.scenarios == serial.stats.scenarios
    assert baseline.stats.worst_makespan \
        == serial.stats.worst_makespan

    speedup = (baseline_time / parallel_time) if parallel_time else 0.0
    benchmark.extra_info["scenarios"] = serial.scenarios_total
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["baseline_seconds"] = round(baseline_time, 2)
    benchmark.extra_info["serial_seconds"] = round(serial_time, 2)
    benchmark.extra_info["parallel_seconds"] = round(parallel_time, 2)
    benchmark.extra_info["speedup_vs_baseline"] = round(speedup, 2)
    if (os.cpu_count() or 1) >= 4 and WORKERS >= 4 and not QUICK:
        assert speedup >= MIN_SPEEDUP, (
            f"expected >= {MIN_SPEEDUP}x from sharding + the batched "
            f"kernel with {WORKERS} workers, got {speedup:.2f}x "
            f"(baseline {baseline_time:.1f}s, parallel "
            f"{parallel_time:.1f}s)")
