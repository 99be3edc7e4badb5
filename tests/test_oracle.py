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

PR 8 adds a fourth leg: the **event-driven simulator**
(:class:`repro.des.DesSimulator`) must be *bit-identical* to the
table replay — full :class:`~repro.runtime.simulator.SimulationResult`
equality — on every table-expressible scenario of every design the
triangle visits. The queue-ordered path and the replay oracle share
their handlers, so this leg pins the one thing that can drift: the
event ordering law.

PR 9 adds a fifth leg: the **array-compiled kernels**
(:mod:`repro.kernels`) against ``REPRO_KERNELS=0``. Every design the
grid visits asserts full :class:`~repro.schedule.estimation.FtEstimate`
equality kernel-on vs oracle (both slack-sharing modes) and full
``SimulationResult`` equality of the batched scenario kernel against
every swept scenario; a hypothesis property walks random
``RemapMove``/``PolicyMove`` sequences and closes the three-way
identity compute-kernel == compute-oracle == incremental
``reevaluate`` at every step.

Two generators feed the triangle: a deterministic grid of >= 200
synthesized designs (seeds x strategies x fault budgets), and
hypothesis-drawn workload shapes on top.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns.stats import estimate_bound
from repro.des import DesSimulator
from repro.eval.core import EvaluatorPool
from repro.ftcpg.scenarios import iter_fault_plans
from repro.kernels import KERNELS_ENV
from repro.kernels.batch import BatchedSimulator
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime.simulator import simulate
from repro.schedule.estimation import EstimatorState, estimate_ft_schedule
from repro.synthesis import initial_mapping, synthesize
from repro.synthesis.moves import PolicyMove, RemapMove
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


@contextmanager
def _kernels_env(value: str):
    """Pin ``REPRO_KERNELS`` for the duration of one computation."""
    saved = os.environ.get(KERNELS_ENV)
    os.environ[KERNELS_ENV] = value
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = saved


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
    des = DesSimulator(app, arch, design.mapping, design.policies,
                       fault_model, schedule)
    batched = BatchedSimulator(app, arch, design.mapping,
                               design.policies, fault_model, schedule)
    stats = VerificationStats()
    for plan in iter_fault_plans(app, design.policies, k):
        # The oracle leg: one-shot table replay of every scenario.
        result = simulate(app, arch, design.mapping, design.policies,
                          fault_model, schedule, plan)
        stats.observe(result)
        # DES vs simulator: the event-queue path reproduces the
        # replayed result bit for bit, scenario by scenario.
        assert des.simulate(result.plan) == result, (
            f"{app.name}/{strategy}/k={k}: DES diverged on "
            f"{result.plan.describe()}")
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
        with _kernels_env("1"):
            estimate = estimate_ft_schedule(
                app, arch, design.mapping, design.policies,
                fault_model, slack_sharing=mode)
        # Kernel vs estimator oracle: full FtEstimate equality —
        # every timing, bit for bit.
        with _kernels_env("0"):
            oracle_estimate = estimate_ft_schedule(
                app, arch, design.mapping, design.policies,
                fault_model, slack_sharing=mode)
        assert estimate == oracle_estimate, (
            f"{label}: estimator kernel diverged in {mode} mode")
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


class TestDesOracleIdentity:
    """Quick DES-vs-replay identity check (the CI smoke target).

    The full grid and property classes below already assert the DES
    leg on every design they visit; this class is a two-design slice
    selectable with ``-k des`` so CI can smoke the identity without
    paying for the whole grid.
    """

    @pytest.mark.parametrize("seed", (0, 1))
    def test_des_matches_oracle(self, seed):
        app, arch = generate_workload(GeneratorConfig(
            processes=5, nodes=2, seed=seed, layer_width=3))
        _check_triangle(app, arch, "MXR", 2)


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


def _policy_options(k: int) -> tuple[ProcessPolicy, ...]:
    """Every policy shape valid at fault budget ``k``."""
    options = [ProcessPolicy.re_execution(k),
               ProcessPolicy.replication(k),
               ProcessPolicy.checkpointing(k, 1),
               ProcessPolicy.checkpointing(k, 2)]
    if k >= 2:
        options.append(
            ProcessPolicy.replication_and_checkpointing(k, 1))
    return tuple(options)


def _assert_state_identity(app, arch, mapping, policies, fault_model,
                           mode: str) -> EstimatorState:
    """Kernel compute == oracle compute; return the kernel state."""
    with _kernels_env("1"):
        state = EstimatorState.compute(
            app, arch, mapping, policies, fault_model,
            bus_contention=True, slack_sharing=mode)
    with _kernels_env("0"):
        oracle = EstimatorState.compute(
            app, arch, mapping, policies, fault_model,
            bus_contention=True, slack_sharing=mode)
    assert state.estimate == oracle.estimate, (
        f"estimator kernel diverged ({mode} mode)")
    return state


class TestKernelsMoveWalkProperty:
    """Random ``RemapMove``/``PolicyMove`` walks, kernel vs oracle.

    Each accepted move closes a three-way identity: the array kernel's
    ``EstimatorState.compute`` equals the pure-Python compute
    (``REPRO_KERNELS=0``) equals the incremental ``reevaluate`` from
    the pre-move state — full ``FtEstimate`` equality, in both
    slack-sharing modes.
    """

    RELAXED = settings(max_examples=10, deadline=None,
                       suppress_health_check=[HealthCheck.too_slow])

    @RELAXED
    @given(data=st.data(),
           mode=st.sampled_from(("max", "budgeted")))
    def test_walk_identity(self, data, mode):
        processes = data.draw(st.integers(4, 7), label="processes")
        nodes = data.draw(st.integers(2, 3), label="nodes")
        seed = data.draw(st.integers(0, 10_000), label="seed")
        k = data.draw(st.integers(1, 2), label="k")
        app, arch = generate_workload(GeneratorConfig(
            processes=processes, nodes=nodes, seed=seed,
            layer_width=3))
        fault_model = FaultModel(k=k)
        policies = PolicyAssignment.uniform(
            app, ProcessPolicy.re_execution(k))
        mapping = initial_mapping(app, arch, policies)
        state = _assert_state_identity(app, arch, mapping, policies,
                                       fault_model, mode)

        names = sorted(app.process_names)
        for __ in range(data.draw(st.integers(1, 4), label="steps")):
            process = data.draw(st.sampled_from(names),
                                label="process")
            if data.draw(st.booleans(), label="remap"):
                copies = len(policies.of(process).copies)
                copy = data.draw(st.integers(0, copies - 1),
                                 label="copy")
                node = data.draw(
                    st.sampled_from(
                        sorted(app.process(process).allowed_nodes)),
                    label="node")
                move = RemapMove(process, copy, node)
            else:
                move = PolicyMove(process, data.draw(
                    st.sampled_from(_policy_options(k)),
                    label="policy"))
            if not move.applies_to((policies, mapping)):
                continue
            policies, mapping = move.apply((policies, mapping), app)
            fresh = _assert_state_identity(app, arch, mapping,
                                           policies, fault_model,
                                           mode)
            # Third corner: the incremental path from the pre-move
            # state lands on the same estimate, bit for bit.
            delta = state.reevaluate(policies, mapping, process)
            assert delta.estimate == fresh.estimate, (
                f"reevaluate diverged from kernel compute after "
                f"{move!r} ({mode} mode)")
            state = fresh
