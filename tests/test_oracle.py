"""Differential-oracle property suite: estimation vs scheduler vs
simulator.

The three views of a design's worst case must agree:

* the **simulator**'s worst makespan over *all* fault scenarios
  (exhaustive sweep) equals the **exact conditional scheduler**'s
  certified worst path — the tables promise nothing they cannot
  execute, and the execution reaches nothing the tables did not
  promise. For replication hybrids the relation weakens to <=: the
  tables' worst path waits for every scheduled replica, while at run
  time a process completes at its *first* successful copy, so the
  certificate is an upper bound there (never below the execution);
* the slack-sharing **estimate** (plus the condition-broadcast
  allowance it deliberately does not model) bounds the simulated
  worst case from above — in the sound ``"budgeted"`` mode always,
  in the paper's ``"max"`` mode whenever the design has no
  replication hybrid (PR 2 showed hybrids can split faults across
  saturated copies and beat the running-max rule);
* no scenario violates a run-time invariant, and the simulated
  fault-free finish never exceeds the fault-free trace length (with
  replication it is *shorter*: a process completes at its first
  successful copy, the trace schedules them all).

PR 9 adds a fourth leg: the **batched scenario kernel**
(:class:`repro.kernels.batch.BatchedSimulator`) must be
*bit-identical* to the table replay — full
:class:`~repro.runtime.simulator.SimulationResult` equality — on every
scenario of every design the triangle visits.

Two generators feed the triangle: a deterministic grid of >= 200
synthesized designs (seeds x strategies x fault budgets), and
hypothesis-drawn workload shapes on top.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns.stats import estimate_bound
from repro.eval.core import EvaluatorPool
from repro.ftcpg.scenarios import iter_fault_plans
from repro.kernels.batch import BatchedSimulator
from repro.model import FaultModel
from repro.runtime.simulator import simulate
from repro.schedule.estimation import estimate_ft_schedule
from repro.synthesis import synthesize
from repro.synthesis.tabu import TabuSettings
from repro.verify.stats import VerificationStats
from repro.workloads.generator import GeneratorConfig, generate_workload

#: Tiny search budget: the oracle checks the *evaluation seam*, not
#: the search quality, so the cheapest design that exercises the
#: strategy's policy mix is enough.
SETTINGS = TabuSettings(iterations=2, neighborhood=4,
                        bus_contention=False)

STRATEGIES = ("MXR", "MX", "MR", "SFX")
K_VALUES = (1, 2)
GRID_SEEDS = tuple(range(25))

#: The acceptance floor: designs covered by the deterministic grid.
GRID_DESIGNS = len(GRID_SEEDS) * len(STRATEGIES) * len(K_VALUES)
assert GRID_DESIGNS >= 200


def _check_triangle(app, arch, strategy: str, k: int) -> None:
    """Synthesize one design and close the triangle on it."""
    pool = EvaluatorPool()
    fault_model = FaultModel(k=k)
    design = synthesize(app, arch, fault_model, strategy,
                        settings=SETTINGS, cache=pool)
    evaluator = pool.evaluator_for(app, arch, fault_model)
    schedule = evaluator.exact_schedule(design.policies,
                                        design.mapping,
                                        max_contexts=200_000)
    batched = BatchedSimulator(app, arch, design.mapping,
                               design.policies, fault_model, schedule)
    stats = VerificationStats()
    for plan in iter_fault_plans(app, design.policies, k):
        # The oracle leg: one-shot table replay of every scenario.
        result = simulate(app, arch, design.mapping, design.policies,
                          fault_model, schedule, plan)
        stats.observe(result)
        # Kernel vs simulator: the batched scenario kernel reproduces
        # the replayed result bit for bit as well.
        assert batched.simulate_plan(result.plan) == result, (
            f"{app.name}/{strategy}/k={k}: batched kernel diverged "
            f"on {result.plan.describe()}")

    label = f"{app.name}/{strategy}/k={k}"
    pure = all(len(policy.copies) == 1
               for __, policy in design.policies.items())
    assert stats.failures == 0, (
        f"{label}: {stats.failure_records[:1]}")
    # Scheduler vs simulator: the certified worst path is exactly the
    # worst simulated finish over all fault scenarios — an upper
    # bound only for replication hybrids, where the runtime stops at
    # the first successful copy but the tables wait for them all.
    if pure:
        assert stats.worst_makespan == pytest.approx(
            schedule.worst_case_length, abs=1e-6), label
    assert stats.worst_makespan \
        <= schedule.worst_case_length + 1e-6, label
    # Same first-copy-wins effect on the fault-free trace.
    assert (stats.fault_free_makespan or 0.0) \
        <= schedule.fault_free_length + 1e-6, label

    # Estimation >= simulator, in both slack-sharing modes (the
    # "max" rule only where it is sound: no replication hybrid).
    for mode in ("budgeted", "max"):
        if mode == "max" and not pure:
            continue
        estimate = estimate_ft_schedule(
            app, arch, design.mapping, design.policies,
            fault_model, slack_sharing=mode)
        # The bare estimate + broadcast allowance is the certified
        # bound for *every* policy mix: the estimator serializes
        # co-located copies earliest-start-first like the exact
        # scheduler's context exploration, so replicated designs need
        # no exact-worst-case floor (the 4p-3n-s283 counterexample is
        # pinned positively in tests/test_campaigns.py).
        bound = estimate_bound(app, arch, estimate, k)
        assert stats.worst_makespan <= bound + 1e-6, (
            f"{label}: simulated worst {stats.worst_makespan} beyond "
            f"the {mode} bound {bound}")


class TestOracleGrid:
    """The deterministic >= 200-design acceptance grid."""

    @pytest.mark.parametrize("seed", GRID_SEEDS)
    def test_triangle_closes(self, seed):
        app, arch = generate_workload(GeneratorConfig(
            processes=5, nodes=2, seed=seed, layer_width=3))
        for strategy in STRATEGIES:
            for k in K_VALUES:
                _check_triangle(app, arch, strategy, k)


class TestOracleProperty:
    """Hypothesis-drawn workload shapes on top of the grid."""

    RELAXED = settings(max_examples=15, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])

    @RELAXED
    @given(processes=st.integers(3, 6), nodes=st.integers(1, 3),
           seed=st.integers(0, 10_000), k=st.integers(1, 2),
           strategy=st.sampled_from(STRATEGIES))
    def test_triangle_closes(self, processes, nodes, seed, k,
                             strategy):
        app, arch = generate_workload(GeneratorConfig(
            processes=processes, nodes=nodes, seed=seed,
            layer_width=3))
        _check_triangle(app, arch, strategy, k)
