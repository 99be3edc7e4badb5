"""Golden scenario-trace snapshots (``tests/golden/``).

For the paper's Fig. 5 example and the brake-by-wire case study, the
full fired-entry trace of two pinned scenarios — fault-free and one
deterministic max-fault plan — is diffed against a committed text
artifact. Simulator refactors (including the batched scenario
kernel) must reproduce these traces byte for byte; a
legitimate behavior change regenerates them with

    REPRO_UPDATE_GOLDEN=1 pytest tests/test_golden_traces.py

and the diff lands in review like any other code change.

The same pinned scenarios are also rendered through
:func:`~repro.kernels.batch.replay_plans`, the replay path every
exhaustive sweep takes, so the golden files guard the one-shot
``simulate()`` oracle and the batched kernel at once.

PR 8 adds golden **event traces** for the DES-only fault axes
(intermittent windows, corrupted TDMA slots, release jitter): those
scenarios have no table-replay oracle, so the full ordered event log
of one pinned plan per axis and per design is the artifact that pins
their behavior. The pinned plans are derived deterministically from
each design's own schedule (first attempt, first message frame), so
they stay meaningful if the presets evolve.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.des import DesSimulator, render_trace
from repro.ftcpg.scenarios import (
    DesFaultPlan,
    FaultPlan,
    FaultWindow,
    SlotFault,
    iter_fault_plans,
)
from repro.kernels.batch import replay_plans
from repro.model import FaultModel
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.runtime.simulator import SimulationResult, simulate
from repro.schedule.conditional import synthesize_schedule
from repro.schedule.table import EntryKind
from repro.synthesis import initial_mapping
from repro.workloads.presets import brake_by_wire, fig5_example

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN", "") not in ("", "0")


def _render_trace(result: SimulationResult) -> str:
    """Stable text form of one scenario's fired-entry trace."""
    lines = [
        f"# plan: {result.plan.describe()}",
        f"# makespan: {result.makespan:.6f}",
        f"# errors: {len(result.errors)}",
    ]
    for entry in result.fired_entries:
        if entry.attempt is not None:
            what = entry.attempt.label()
        else:
            what = f"{entry.message}@copy{entry.producer_copy}"
        lines.append(
            f"{entry.kind.value:9s} {entry.location:4s} "
            f"{entry.start:12.6f} {entry.duration:10.6f} "
            f"{what:18s} [{entry.guard}]")
    return "\n".join(lines) + "\n"


def _max_fault_plan(app, policies, k):
    """The first enumerated plan that spends the whole budget."""
    for plan in iter_fault_plans(app, policies, k):
        if plan.total_faults == k:
            return plan
    raise AssertionError("no max-fault plan found")


def _fig5_design():
    app, arch, fault_model, transparency, mapping = fig5_example()
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(fault_model.k))
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model, transparency)
    return app, arch, mapping, policies, fault_model, schedule


def _bbw_design():
    app, arch, transparency = brake_by_wire()
    fault_model = FaultModel(k=1)
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(fault_model.k))
    mapping = initial_mapping(app, arch, policies)
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model, transparency)
    return app, arch, mapping, policies, fault_model, schedule


DESIGNS = {"fig5": _fig5_design, "brake_by_wire": _bbw_design}


def _check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / f"{name}.txt"
    if UPDATE or not path.exists():
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    golden = path.read_text(encoding="utf-8")
    assert text == golden, (
        f"scenario trace diverged from {path.name}; if the change is "
        "intentional, regenerate with REPRO_UPDATE_GOLDEN=1")


class TestGoldenTraces:
    @pytest.fixture(scope="class", params=sorted(DESIGNS),
                    ids=sorted(DESIGNS))
    def design(self, request):
        return request.param, DESIGNS[request.param]()

    def test_fault_free_trace_pinned(self, design):
        name, (app, arch, mapping, policies, fm, schedule) = design
        plan = next(iter_fault_plans(app, policies, fm.k))
        assert plan.is_fault_free()
        result = simulate(app, arch, mapping, policies, fm, schedule,
                          plan)
        assert result.ok, result.errors[:1]
        _check_golden(f"{name}_fault_free", _render_trace(result))

    def test_max_fault_trace_pinned(self, design):
        name, (app, arch, mapping, policies, fm, schedule) = design
        plan = _max_fault_plan(app, policies, fm.k)
        result = simulate(app, arch, mapping, policies, fm, schedule,
                          plan)
        assert result.ok, result.errors[:1]
        _check_golden(f"{name}_max_fault", _render_trace(result))

    def test_sweep_reproduces_pinned_traces(self, design):
        """The sweep replay path renders the same golden traces."""
        name, (app, arch, mapping, policies, fm, schedule) = design
        plans = list(iter_fault_plans(app, policies, fm.k))
        wanted = {0: f"{name}_fault_free"}
        wanted[plans.index(_max_fault_plan(app, policies, fm.k))] = \
            f"{name}_max_fault"
        for index, result in enumerate(replay_plans(
                app, arch, mapping, policies, fm, schedule, plans)):
            golden_name = wanted.get(index)
            if golden_name is None:
                continue
            _check_golden(golden_name, _render_trace(result))


def _des_axis_plans(app, schedule):
    """One pinned DES-only plan per fault axis, derived from the
    design's own schedule so the scenario always bites: the window
    covers the first attempt's first half, the corrupted slot is the
    first message frame's occurrence, the jitter delays the earliest
    process."""
    entries = sorted(schedule.entries,
                     key=lambda e: (e.start, e.location))
    first_attempt = next(e for e in entries
                         if e.kind is EntryKind.ATTEMPT)
    half = (first_attempt.end - first_attempt.start) / 2
    window = FaultWindow(node=first_attempt.location,
                         t_on=first_attempt.start,
                         t_off=first_attempt.start + half)
    first_message = next(e for e in entries
                         if e.kind is EntryKind.MESSAGE)
    frame = first_message.frames[0]
    slot = SlotFault(round_index=frame.round_index,
                     slot_index=frame.slot_index)
    delayed = min(app.process_names)
    return {
        "intermittent": DesFaultPlan(base=FaultPlan({}),
                                     windows=(window,)),
        "slot": DesFaultPlan(base=FaultPlan({}),
                             slot_faults=(slot,)),
        "jitter": DesFaultPlan(base=FaultPlan({}),
                               jitter={delayed: 3.0}),
    }


class TestDesGoldenTraces:
    """Full ordered DES event logs for the axes without an oracle."""

    @pytest.fixture(scope="class", params=sorted(DESIGNS),
                    ids=sorted(DESIGNS))
    def design(self, request):
        return request.param, DESIGNS[request.param]()

    @pytest.mark.parametrize("axis",
                             ("intermittent", "slot", "jitter"))
    def test_des_axis_trace_pinned(self, design, axis):
        name, (app, arch, mapping, policies, fm, schedule) = design
        plan = _des_axis_plans(app, schedule)[axis]
        des = DesSimulator(app, arch, mapping, policies, fm, schedule)
        run = des.run(plan)
        text = (f"# plan: {run.result.plan.describe()}\n"
                f"# makespan: {run.result.makespan:.6f}\n"
                f"# errors: {len(run.result.errors)}\n"
                + render_trace(run.events))
        _check_golden(f"{name}_des_{axis}", text)
