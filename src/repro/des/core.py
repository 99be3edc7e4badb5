"""The event-driven simulator facade.

:class:`DesSimulator` consumes the same ``(app, arch, mapping,
policies, fault_model, schedule)`` design as
:func:`repro.runtime.simulator.simulate` and executes fault scenarios
through the deterministic event queue. Two execution paths, picked per
plan:

* **Table-expressible plans** (a plain
  :class:`~repro.ftcpg.scenarios.FaultPlan`, or a
  :class:`~repro.ftcpg.scenarios.DesFaultPlan` without DES-only axes)
  replay through the queue: fired entries are pushed as events keyed
  ``(start, kind-rank, seq)`` and drained in anchored eps-clusters —
  provably the same order ``_replay_order`` computes — into the
  *shared* ``_ReplayState`` handlers of the table simulator. The
  result is **bit-identical** to :func:`repro.runtime.simulator.simulate`
  by construction, and the differential-oracle suite holds the two
  paths to full :class:`~repro.runtime.simulator.SimulationResult`
  equality.
* **DES-only plans** (intermittent windows, corrupted slots, jitter)
  run forward through :class:`repro.des.online.OnlineEngine`; table
  replay cannot express them, so there is no oracle — golden event
  traces pin their behavior instead.

``REPRO_DES=0`` (or ``false``/``off``/``no``) forces the oracle for
table-expressible plans — the same escape-hatch pattern as
``REPRO_KERNELS``/``REPRO_EVAL_INCREMENTAL``: if the
queue-ordered path ever drifted, flipping the variable isolates it
without a code change. DES-only plans always use the event engine.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.des.events import DesEvent, DesEventKind
from repro.des.online import OnlineEngine
from repro.des.queue import EventQueue
from repro.ftcpg.scenarios import DesFaultPlan, FaultPlan
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.types import PolicyAssignment
from repro.runtime.simulator import (
    SimulationResult,
    _derive_ground_truth,
    _guard_fires,
    _kind_rank,
    _ReplayState,
)
from repro.runtime.simulator import simulate as replay_simulate
from repro.schedule.mapping import CopyMapping
from repro.schedule.table import EntryKind, ScheduleSet


def des_default() -> bool:
    """Whether the event-queue path handles table-expressible plans.

    ``REPRO_DES=0`` (or ``false``/``off``/``no``) forces the
    table-replay oracle instead; anything else (including unset)
    enables the DES path. DES-only plans are unaffected — only the
    event engine can execute them.
    """
    value = os.environ.get("REPRO_DES", "1")
    return value.strip().lower() not in {"0", "false", "off", "no"}


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
                 fault_model: FaultModel, schedule: ScheduleSet, *,
                 use_des: bool | None = None) -> None:
        self.app = app
        self.arch = arch
        self.mapping = mapping
        self.policies = policies
        self.fault_model = fault_model
        self.schedule = schedule
        #: ``None`` defers to :func:`des_default` at each call.
        self._use_des = use_des

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
        use_des = self._use_des if self._use_des is not None \
            else des_default()
        if use_des:
            result = self._simulate_table(plan)
        else:
            result = replay_simulate(self.app, self.arch, self.mapping,
                                     self.policies, self.fault_model,
                                     self.schedule, plan)
        return DesRun(result=result, events=_table_events(result))

    def _simulate_table(self, plan: FaultPlan) -> SimulationResult:
        """Queue-ordered replay of a table-expressible plan.

        Fired entries are pushed in ``(start, kind-rank)`` order, so
        the queue's monotone ``seq`` encodes that order and each
        popped eps-cluster — sorted by ``(priority=kind-rank, seq)`` —
        reproduces exactly the ``(cluster, kind, start)`` law of
        ``_replay_order``. Feeding that stream through the shared
        ``_ReplayState`` makes this path bit-identical to the oracle.
        """
        truth = _derive_ground_truth(self.app, self.policies, plan)
        fired = [entry for entry in self.schedule.entries
                 if _guard_fires(entry, truth.executed)]
        queue = EventQueue()
        for entry in sorted(fired,
                            key=lambda e: (e.start, _kind_rank(e))):
            queue.push(entry.start, _kind_rank(entry), entry)
        ordered = [payload for _, _, _, payload in queue.drain()]
        state = _ReplayState(self.app, self.arch, self.mapping,
                             self.policies, self.fault_model, plan, truth)
        state.prime(ordered)
        for entry in ordered:
            state.step(entry)
        return state.finish(ordered)


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
    running through the event-driven core."""
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
    "des_default",
    "simulate_des",
]
