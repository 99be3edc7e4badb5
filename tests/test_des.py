"""Event-driven simulator semantics: the oracle seam and the
DES-only fault axes.

Table-expressible scenarios must be **bit-identical** between
:class:`~repro.des.core.DesSimulator` and the table-replay oracle —
full :class:`~repro.runtime.simulator.SimulationResult` equality. The
DES-only axes (intermittent windows, corrupted slots, release jitter)
have no oracle; their unit semantics are pinned here against the
paper's Fig. 5 design, and their full traces in
``tests/test_golden_traces.py``.
"""

from __future__ import annotations

import pytest

from repro.des import DesSimulator, simulate_des
from repro.des.events import DesEventKind
from repro.ftcpg.scenarios import (
    DesFaultPlan,
    FaultPlan,
    FaultWindow,
    SlotFault,
    iter_fault_plans,
)
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime.simulator import simulate
from repro.schedule.conditional import synthesize_schedule
from repro.workloads.presets import fig5_example


@pytest.fixture(scope="module")
def fig5_design():
    app, arch, fault_model, transparency, mapping = fig5_example()
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(fault_model.k))
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model, transparency)
    return app, arch, mapping, policies, fault_model, schedule


def _kinds(run, kind):
    return [event for event in run.events if event.kind is kind]


class TestOracleSeam:
    """Table-expressible plans: DES == replay, bit for bit."""

    def test_every_fig5_scenario_is_bit_identical(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        for plan in iter_fault_plans(app, policies, fm.k):
            expected = simulate(app, arch, mapping, policies, fm,
                                schedule, plan)
            assert des.simulate(plan) == expected, plan.describe()
            assert simulate_des(app, arch, mapping, policies, fm,
                                schedule, plan) == expected

    def test_bare_des_plan_unwraps_to_its_base(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        base = next(iter_fault_plans(app, policies, fm.k))
        wrapped = DesFaultPlan(base=base)
        assert wrapped.is_table_expressible
        result = des.simulate(wrapped)
        # Reported against the plain base plan, bit-comparable with
        # the oracle's result.
        assert result == des.simulate(base)
        assert result.plan == base

    def test_table_path_produces_an_event_log(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        run = des.run(FaultPlan({}))
        assert run.events
        starts = _kinds(run, DesEventKind.ATTEMPT_START)
        assert any("P1" in event.label for event in starts)
        times = [event.time for event in run.events]
        assert times == sorted(times)


class TestDesFaultPlan:
    """The extended plan type: expressibility, budget, description."""

    def test_expressibility_and_totals(self):
        base = FaultPlan({})
        assert DesFaultPlan(base=base).is_table_expressible
        assert DesFaultPlan(base=base,
                            jitter={"P1": 0.0}).is_table_expressible
        window = FaultWindow("N1", 4.0, 9.0)
        extended = DesFaultPlan(base=base, windows=(window,),
                                slot_faults=(SlotFault(9, 0),),
                                jitter={"P1": 3.0})
        assert not extended.is_table_expressible
        # Jitter is a perturbation, not a fault: only windows and
        # corrupted slots count against the description of severity.
        assert extended.total_faults == 2
        assert not extended.is_fault_free()
        assert "win[N1@[4,9)]" in extended.describe()
        assert "slot[r9s0]" in extended.describe()
        assert "jitter[P1+3]" in extended.describe()

    def test_window_validation_and_hits(self):
        with pytest.raises(Exception):
            FaultWindow("N1", 9.0, 4.0)
        window = FaultWindow("N1", 4.0, 9.0)
        assert window.hits(0.0, 30.0)
        assert window.hits(8.0, 12.0)
        assert not window.hits(9.0, 12.0)  # [t_on, t_off) is half-open
        assert not window.hits(0.0, 4.0)

    def test_budget_error_matches_replay_wording(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        overloaded = FaultPlan({("P1", 0): (fm.k + 1,)})
        plan = DesFaultPlan(base=overloaded,
                            windows=(FaultWindow("N1", 0.0, 1.0),))
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        result = des.simulate(plan)
        assert result.errors[0] == (
            f"plan injects {fm.k + 1} faults, budget is {fm.k}")


class TestDesOnlyAxes:
    """Forward execution under the axes table replay cannot express."""

    def test_intermittent_window_forces_reexecution(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        # Fig. 5: P1 executes on N1 over [0, 30); the window covers
        # its start, clears long before the re-execution at 30.
        plan = DesFaultPlan(base=FaultPlan({}),
                            windows=(FaultWindow("N1", 4.0, 9.0),))
        run = des.run(plan)
        finishes = _kinds(run, DesEventKind.ATTEMPT_FINISH)
        assert any(event.label == "P1 fault (window)"
                   for event in finishes)
        assert any("P1^1/2" in event.label
                   for event in _kinds(run, DesEventKind.ATTEMPT_START))
        assert _kinds(run, DesEventKind.FAULT_ON)
        assert _kinds(run, DesEventKind.FAULT_OFF)
        # The design tolerates it: the retry lands inside the slack.
        assert run.result.ok, run.result.errors[:1]
        assert "P1" in run.result.completed

    def test_corrupted_slot_retransmits_and_flags_late_input(
            self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        # Fig. 5: message m1 rides r9s0 at [36, 38); corrupting that
        # occurrence forces a retransmission in N1's next free slot,
        # so m1 arrives after its consumer P4 started at 38 — exactly
        # the finding the axis exists to surface.
        plan = DesFaultPlan(base=FaultPlan({}),
                            slot_faults=(SlotFault(9, 0),))
        run = des.run(plan)
        lost = _kinds(run, DesEventKind.FRAME_LOST)
        assert any(event.label == "m1 r9s0" for event in lost)
        sent = _kinds(run, DesEventKind.FRAME_SENT)
        assert any(event.label.endswith("(retransmit)")
                   for event in sent)
        delivered = _kinds(run, DesEventKind.MESSAGE_DELIVERED)
        assert any(event.time > 38.0 and event.label.startswith("m1")
                   for event in delivered)
        assert any("without input 'm1'" in error
                   for error in run.result.errors)

    def test_corrupting_an_idle_slot_changes_nothing(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        # Fig. 5's first bus frame is r8s0: rounds 0-7 carry nothing,
        # so a corrupted occurrence there never meets a frame.
        plan = DesFaultPlan(base=FaultPlan({}),
                            slot_faults=(SlotFault(0, 0),))
        run = des.run(plan)
        assert not _kinds(run, DesEventKind.FRAME_LOST)
        assert run.result.ok, run.result.errors[:1]

    def test_release_jitter_flags_the_immovable_table(self, fig5_design):
        app, arch, mapping, policies, fm, schedule = fig5_design
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        plan = DesFaultPlan(base=FaultPlan({}), jitter={"P1": 3.0})
        run = des.run(plan)
        assert _kinds(run, DesEventKind.JITTER)
        assert any("P1 starts before its release 3" in error
                   for error in run.result.errors)
        # Zero-delay jitter keeps the plan table-expressible: no
        # events beyond the replayed table, no errors.
        calm = des.run(DesFaultPlan(base=FaultPlan({}),
                                    jitter={"P1": 0.0}))
        assert calm.result.ok, calm.result.errors[:1]
