"""Speedup of the batched scenario kernel over per-plan replay.

One floor, a ratio (wall clock is CI noise; a collapsing speedup is a
real regression on any machine): the batched scenario kernel
(``repro.kernels.batch``) against per-plan
:func:`~repro.runtime.simulate` on one synthesized design — same
:class:`~repro.runtime.SimulationResult` per plan, bit for bit.

The batched floor is deliberately conservative (3x) next to the
measured steady-state speedup (tens of x, reported as
``extra_info["speedup"]``): the oracle baseline is timed on a bounded
plan subset to keep CI time sane, so the floor absorbs subset noise.

Run:  pytest benchmarks/bench_kernels.py --benchmark-only

``REPRO_BENCH_PROFILE=full`` widens the workload (default: quick).
"""

from __future__ import annotations

import os
import time
from itertools import islice

from repro.campaigns.runner import synthesize_campaign_design
from repro.eval.core import EvaluatorPool
from repro.ftcpg import iter_fault_plans
from repro.model import FaultModel
from repro.runtime import simulate
from repro.synthesis.tabu import TabuSettings
from repro.verify.runner import load_verify_workload

QUICK = os.environ.get("REPRO_BENCH_PROFILE", "quick") != "full"

BATCH_PROCESSES = 25 if QUICK else 40
#: Oracle plans timed (bounds CI time); kernel runs the full sample.
ORACLE_PLANS = 30 if QUICK else 60
KERNEL_PLANS = 300 if QUICK else 600

#: Acceptance floor (both profiles).
MIN_BATCH_SPEEDUP = 3.0


def _batch_design():
    """One synthesized Fig. 7-scale design (same recipe as
    ``bench_verify``)."""
    workload = {"processes": BATCH_PROCESSES, "nodes": 3, "seed": 1}
    app, arch, __ = load_verify_workload(workload)
    pool = EvaluatorPool()
    settings = TabuSettings(iterations=6, neighborhood=6,
                            bus_contention=False)
    result = synthesize_campaign_design(app, arch, 2, "MXR", settings,
                                        1, pool=pool)
    fault_model = FaultModel(k=2)
    evaluator = pool.evaluator_for(app, arch, fault_model)
    schedule = evaluator.exact_schedule(result.policies,
                                        result.mapping)
    return app, arch, result.mapping, result.policies, fault_model, \
        schedule


def test_batched_scenarios_speedup(benchmark):
    from repro.kernels.batch import BatchedSimulator

    app, arch, mapping, policies, fm, schedule = _batch_design()
    plans = list(islice(iter_fault_plans(app, policies, fm.k),
                        KERNEL_PLANS))
    subset = plans[:ORACLE_PLANS]

    started = time.perf_counter()
    oracle = [simulate(app, arch, mapping, policies, fm, schedule,
                       plan) for plan in subset]
    oracle_per_plan = (time.perf_counter() - started) / len(subset)

    def run():
        batched = BatchedSimulator(app, arch, mapping, policies, fm,
                                   schedule)
        return list(batched.results(plans))

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    kernel_per_plan = benchmark.stats.stats.total / len(plans)

    # Identical bits per plan before the ratio means anything.
    assert results[:len(subset)] == oracle

    speedup = (oracle_per_plan / kernel_per_plan
               if kernel_per_plan else 0.0)
    benchmark.extra_info["processes"] = BATCH_PROCESSES
    benchmark.extra_info["plans"] = len(plans)
    benchmark.extra_info["oracle_plans"] = len(subset)
    benchmark.extra_info["oracle_evals_per_sec"] = round(
        1.0 / oracle_per_plan, 1)
    benchmark.extra_info["kernel_evals_per_sec"] = round(
        1.0 / kernel_per_plan, 1)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"batched scenario speedup {speedup:.2f} below floor "
        f"{MIN_BATCH_SPEEDUP} (oracle {oracle_per_plan * 1e3:.1f} "
        f"ms/plan, kernel {kernel_per_plan * 1e3:.1f} ms/plan)")
