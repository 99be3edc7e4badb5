"""Throughput of the runtime simulator and the exhaustive verifier on
the paper's Fig. 5 example (15 fault scenarios, k = 2).

Run:  pytest benchmarks/bench_simulator.py --benchmark-only
"""

from __future__ import annotations

from repro.ftcpg import FaultPlan
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime import simulate, verify_tolerance
from repro.schedule import synthesize_schedule
from repro.workloads import fig5_example


def _setup():
    app, arch, fault_model, transparency, mapping = fig5_example()
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(fault_model.k))
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model, transparency)
    return app, arch, mapping, policies, fault_model, transparency, \
        schedule


def test_single_simulation(benchmark):
    app, arch, mapping, policies, fm, _tr, schedule = _setup()
    plan = FaultPlan({("P1", 0): (1,), ("P4", 0): (1,)})

    result = benchmark(simulate, app, arch, mapping, policies, fm,
                       schedule, plan)
    assert result.ok, result.errors


def test_exhaustive_verification(benchmark):
    app, arch, mapping, policies, fm, tr, schedule = _setup()

    report = benchmark(verify_tolerance, app, arch, mapping, policies,
                       fm, schedule, tr)
    benchmark.extra_info["scenarios"] = report.scenarios
    assert report.ok
