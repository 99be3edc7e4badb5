"""The event-driven simulator facade.

:class:`DesSimulator` consumes the same ``(app, arch, mapping,
policies, fault_model, schedule)`` design as
:func:`repro.runtime.simulator.simulate` and executes fault scenarios
on it. Two execution paths, picked per plan:

* **Table-expressible plans** (a plain
  :class:`~repro.ftcpg.scenarios.FaultPlan`, or a
  :class:`~repro.ftcpg.scenarios.DesFaultPlan` without DES-only axes)
  go straight to :func:`repro.runtime.simulator.simulate` — the one
  table-replay implementation — and their event log is rendered from
  the replayed entries.
* **DES-only plans** (intermittent windows, corrupted slots, jitter)
  run forward through :class:`repro.des.online.OnlineEngine`; table
  replay cannot express them, so there is no oracle — golden event
  traces pin their behavior instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.des.events import DesEvent, DesEventKind
from repro.des.online import OnlineEngine
from repro.ftcpg.scenarios import DesFaultPlan, FaultPlan
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.types import PolicyAssignment
from repro.runtime.simulator import SimulationResult, simulate
from repro.schedule.mapping import CopyMapping
from repro.schedule.table import EntryKind, ScheduleSet


@dataclass(frozen=True)
class DesRun:
    """One simulated scenario: the result plus the ordered event log."""

    result: SimulationResult
    events: tuple[DesEvent, ...]


class DesSimulator:
    """Event-driven simulator over one synthesized design.

    Construct once per design, then :meth:`simulate` any number of
    fault scenarios — plain :class:`~repro.ftcpg.scenarios.FaultPlan`
    instances or :class:`~repro.ftcpg.scenarios.DesFaultPlan`
    extensions.
    """

    def __init__(self, app: Application, arch: Architecture,
                 mapping: CopyMapping, policies: PolicyAssignment,
                 fault_model: FaultModel, schedule: ScheduleSet) -> None:
        self.app = app
        self.arch = arch
        self.mapping = mapping
        self.policies = policies
        self.fault_model = fault_model
        self.schedule = schedule

    def simulate(self, plan: FaultPlan | DesFaultPlan) -> SimulationResult:
        """Execute one fault scenario; see :meth:`run` for the log."""
        return self.run(plan).result

    def run(self, plan: FaultPlan | DesFaultPlan) -> DesRun:
        """Execute one fault scenario and keep the ordered event log.

        Table-expressible plans report against their plain
        :class:`~repro.ftcpg.scenarios.FaultPlan` (a bare
        ``DesFaultPlan`` unwraps to its base), keeping the result
        bit-comparable with the oracle's.
        """
        if isinstance(plan, DesFaultPlan):
            if not plan.is_table_expressible:
                engine = OnlineEngine(self.app, self.arch, self.mapping,
                                      self.policies, self.fault_model,
                                      self.schedule)
                result, events = engine.run(plan)
                return DesRun(result=result, events=tuple(events))
            plan = plan.base
        result = simulate(self.app, self.arch, self.mapping,
                          self.policies, self.fault_model,
                          self.schedule, plan)
        return DesRun(result=result, events=_table_events(result))


def simulate_des(
    app: Application,
    arch: Architecture,
    mapping: CopyMapping,
    policies: PolicyAssignment,
    fault_model: FaultModel,
    schedule: ScheduleSet,
    plan: FaultPlan | DesFaultPlan,
) -> SimulationResult:
    """Functional mirror of :func:`repro.runtime.simulator.simulate`
    that also accepts DES-only plans (see :class:`DesSimulator`)."""
    simulator = DesSimulator(app, arch, mapping, policies, fault_model,
                             schedule)
    return simulator.simulate(plan)


def _table_events(result: SimulationResult) -> tuple[DesEvent, ...]:
    """Event log of a replayed (table-expressible) scenario.

    One event per fired entry, in replay order: attempts at their
    start, bus effects at their delivery time — the same execution
    order the replay handlers processed."""
    events: list[DesEvent] = []
    for entry in result.fired_entries:
        if entry.kind is EntryKind.ATTEMPT:
            events.append(DesEvent(
                time=entry.start, kind=DesEventKind.ATTEMPT_START,
                label=f"{entry.attempt.label()} on {entry.location}"))
        elif entry.kind is EntryKind.MESSAGE:
            events.append(DesEvent(
                time=entry.end, kind=DesEventKind.MESSAGE_DELIVERED,
                label=f"{entry.message} (copy {entry.producer_copy})"))
        else:
            events.append(DesEvent(
                time=entry.end, kind=DesEventKind.BROADCAST_DELIVERED,
                label=f"F[{entry.attempt.label()}]"))
    return tuple(events)


__all__ = [
    "DesRun",
    "DesSimulator",
    "simulate_des",
]
