"""Discrete-event execution of conditional schedule tables.

The simulator is an *independent checker* of the scheduler's output: it
never re-derives start times — it executes the table under a concrete
fault scenario (a :class:`~repro.ftcpg.scenarios.FaultPlan`) and
verifies every invariant a distributed table-driven runtime relies on:

* ground truth first: from the fault plan alone, the simulator derives
  which attempts execute and which fail (rollback semantics: the j-th
  retry exists iff the previous attempt of that segment failed);
* an entry *fires* iff its guard is satisfied by the executed attempts;
* a fired entry must be **decidable** on its location: every guard
  literal's value must be known there by the entry's start (locally at
  the detection time, remotely at the broadcast arrival);
* fired attempts must not overlap on their processor, fired
  transmissions must not collide on the bus;
* a fired first attempt must have, for every input message, data from
  at least one *successful* producer copy available on its node (dead
  copies are fail-silent and deliver nothing);
* every process must complete (some copy runs all segments without
  dying) before the global deadline and its local deadline.

Any violation is reported in :class:`SimulationResult.errors`; the
exhaustive driver in :mod:`repro.runtime.verify` turns them into
:class:`~repro.errors.ToleranceViolationError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.ftcpg.conditions import AttemptId
from repro.ftcpg.scenarios import FaultPlan
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.types import PolicyAssignment
from repro.schedule.mapping import CopyMapping
from repro.schedule.table import EntryKind, ScheduleSet, TableEntry
from repro.utils.mathutils import eps_cluster_ids, fgt, flt

CopyKey = tuple[str, int]


@dataclass(frozen=True)
class _GroundTruth:
    """Derived from the fault plan: what actually happens."""

    executed: dict[AttemptId, bool]  # attempt -> failed?
    copy_success: dict[CopyKey, bool]
    copy_segments_done: dict[CopyKey, int]


def _copy_ground_truth(process_name: str, copy_index: int, copy_plan,
                       counts: tuple[int, ...],
                       ) -> tuple[dict[AttemptId, bool], bool, int]:
    """Ground truth of one copy under a per-segment fault distribution.

    Returns ``(executed, success, segments_done)``; a copy's truth
    depends on nothing but its own distribution.
    """
    executed: dict[AttemptId, bool] = {}
    local_faults = 0
    alive = True
    done = 0
    for segment in range(1, copy_plan.segments + 1):
        if not alive:
            break
        faults_here = counts[segment - 1] if segment <= len(counts) else 0
        for attempt in range(1, faults_here + 1):
            executed[AttemptId(process_name, copy_index, segment,
                               attempt)] = True
            local_faults += 1
            if local_faults > copy_plan.recoveries:
                alive = False
                break
        if not alive:
            break
        executed[AttemptId(process_name, copy_index, segment,
                           faults_here + 1)] = False
        done = segment
    return executed, alive and done == copy_plan.segments, done


def _derive_ground_truth(app: Application, policies: PolicyAssignment,
                         plan: FaultPlan) -> _GroundTruth:
    executed: dict[AttemptId, bool] = {}
    copy_success: dict[CopyKey, bool] = {}
    segments_done: dict[CopyKey, int] = {}
    for process_name, policy in policies.items():
        for copy_index, copy_plan in enumerate(policy.copies):
            key = (process_name, copy_index)
            counts = plan.faults.get(key) or ()
            copy_executed, success, done = _copy_ground_truth(
                process_name, copy_index, copy_plan, tuple(counts))
            executed.update(copy_executed)
            copy_success[key] = success
            segments_done[key] = done
    return _GroundTruth(executed=executed, copy_success=copy_success,
                        copy_segments_done=segments_done)


def _guard_fires(entry: TableEntry,
                 executed: Mapping[AttemptId, bool]) -> bool:
    """Whether an entry's guard is satisfied by the executed attempts."""
    for literal in entry.guard.literals:
        actual = executed.get(literal.attempt)
        if actual is None or actual != literal.faulty:
            return False
    return True


@dataclass
class SimulationResult:
    """Outcome of simulating one fault scenario."""

    plan: FaultPlan
    completed: dict[str, float]
    makespan: float
    errors: list[str] = field(default_factory=list)
    fired_entries: tuple[TableEntry, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the scenario executed without violations."""
        return not self.errors

    def start_of_attempt(self, attempt: AttemptId) -> float | None:
        """Fired start of one attempt, for invariant tests."""
        for entry in self.fired_entries:
            if entry.kind is EntryKind.ATTEMPT and entry.attempt == attempt:
                return entry.start
        return None


def simulate(
    app: Application,
    arch: Architecture,
    mapping: CopyMapping,
    policies: PolicyAssignment,
    fault_model: FaultModel,
    schedule: ScheduleSet,
    plan: FaultPlan,
) -> SimulationResult:
    """Execute the schedule tables under one fault scenario."""
    truth = _derive_ground_truth(app, policies, plan)
    fired = _replay_order([e for e in schedule.entries
                           if _guard_fires(e, truth.executed)])
    state = _ReplayState(app, arch, mapping, policies, fault_model,
                         plan, truth)
    state.prime(fired)
    for entry in fired:
        state.step(entry)
    return state.finish(fired)


class _ReplayState:
    """The per-scenario mutable state of the table-replay checker.

    One instance replays one fault scenario: :meth:`prime` derives the
    per-node condition-knowledge times from the fired entries,
    :meth:`step` processes one entry (in replay order), and
    :meth:`finish` applies the completion/deadline checks.
    """

    def __init__(self, app: Application, arch: Architecture,
                 mapping: CopyMapping, policies: PolicyAssignment,
                 fault_model: FaultModel, plan: FaultPlan,
                 truth: _GroundTruth) -> None:
        self.app = app
        self.arch = arch
        self.mapping = mapping
        self.policies = policies
        self.plan = plan
        self.truth = truth
        self.errors: list[str] = []
        if plan.total_faults > fault_model.k:
            self.errors.append(
                f"plan injects {plan.total_faults} faults, budget is "
                f"{fault_model.k}")
        # Knowledge of condition values per node: produced locally at
        # the detection point, remotely at the broadcast arrival.
        self.known_at: dict[tuple[AttemptId, str], float] = {}
        self.node_busy: dict[str, float] = {n: 0.0 for n in arch.node_names}
        #: (round, slot) -> entry; TDMA interleaves multi-frame
        #: transmissions, so collisions are checked per slot occurrence,
        #: not by busy intervals.
        self.slot_owner: dict[tuple[int, int], TableEntry] = {}
        #: message name -> node -> earliest time data from a
        #: successful copy
        self.delivered: dict[str, dict[str, float]] = {}
        #: (copy, segment) -> finish of the successful attempt
        self.segment_finish: dict[tuple[CopyKey, int], float] = {}
        #: copy -> finish time of the last fired attempt (continuity)
        self.attempt_finish: dict[AttemptId, float] = {}
        self.completion: dict[CopyKey, float] = {}

    def prime(self, fired: list[TableEntry]) -> None:
        """Derive condition-knowledge times from the fired entries."""
        truth = self.truth
        known_at = self.known_at
        for entry in fired:
            if entry.kind is EntryKind.ATTEMPT and entry.can_fail \
                    and entry.attempt in truth.executed:
                key = (entry.attempt, entry.location)
                known_at[key] = min(known_at.get(key, float("inf")),
                                    entry.end)
        for entry in fired:
            if entry.kind is EntryKind.BROADCAST \
                    and entry.attempt in truth.executed:
                for node in self.arch.node_names:
                    key = (entry.attempt, node)
                    known_at[key] = min(known_at.get(key, float("inf")),
                                        entry.end)

    def step(self, entry: TableEntry) -> None:
        """Process one fired entry (entries must arrive in replay
        order)."""
        if entry.kind is EntryKind.ATTEMPT:
            # Dead copies stop executing (fail-silence): attempts
            # beyond the death point are skipped by the local
            # scheduler and the slot idles.
            if entry.attempt not in self.truth.executed:
                return
            _check_attempt(entry, self.app, self.arch, self.mapping,
                           self.policies, self.truth, self.known_at,
                           self.node_busy, self.delivered,
                           self.segment_finish, self.attempt_finish,
                           self.completion, self.errors)
        else:
            # Bus activity: frame-level collision check, then effects.
            for frame in entry.frames:
                key = (frame.round_index, frame.slot_index)
                other = self.slot_owner.get(key)
                if other is not None and other is not entry:
                    self.errors.append(
                        f"bus collision in round {frame.round_index} "
                        f"slot {frame.slot_index}: {entry} vs {other}")
                self.slot_owner[key] = entry
            if entry.kind is EntryKind.MESSAGE:
                _deliver_message(entry, self.app, self.mapping, self.truth,
                                 self.delivered, self.completion,
                                 self.errors, self.arch)

    def finish(self, fired: list[TableEntry]) -> SimulationResult:
        """Completion & deadline checks; build the result."""
        errors = self.errors
        completed: dict[str, float] = {}
        for process in self.app.processes:
            finishes = [
                self.completion[(process.name, c)]
                for c in range(len(self.policies.of(process.name).copies))
                if (process.name, c) in self.completion
            ]
            if not finishes:
                errors.append(f"process {process.name!r} never completed "
                              f"(plan: {self.plan.describe()})")
                continue
            completed[process.name] = min(finishes)
            if process.deadline is not None and \
                    fgt(completed[process.name], process.deadline):
                errors.append(
                    f"process {process.name!r} missed local deadline "
                    f"{process.deadline} (finished "
                    f"{completed[process.name]})")
        makespan = max(completed.values()) if completed else float("inf")
        if fgt(makespan, self.app.deadline):
            errors.append(
                f"global deadline {self.app.deadline} missed (makespan "
                f"{makespan}, plan {self.plan.describe()})")
        return SimulationResult(
            plan=self.plan,
            completed=completed,
            makespan=makespan,
            errors=errors,
            fired_entries=tuple(fired),
        )


def _kind_rank(entry: TableEntry) -> int:
    # At equal starts, bus effects are processed before attempts so an
    # attempt starting exactly at a message arrival sees the data.
    return {EntryKind.BROADCAST: 0, EntryKind.MESSAGE: 1,
            EntryKind.ATTEMPT: 2}[entry.kind]


def _replay_order(entries: list[TableEntry]) -> list[TableEntry]:
    """Sort for replay: by start, kind tie-break for near-tie starts.

    Two activations whose starts differ only by float rounding (which
    varies between platforms/libms) must replay in the *same* order
    everywhere, and the kind tie-break above must apply to them —
    otherwise an attempt can be replayed before the message that
    arrives "at the same time", producing a spurious missing-input or
    overlap error on one platform but not another. Starts are grouped
    by clustering *runs* closer than ``TIME_EPS`` (not by rounding to
    a fixed grid, which would still split a near-tie straddling a grid
    boundary); within a group, bus effects come before attempts. The
    anchored-run clustering itself lives in
    :func:`repro.utils.mathutils.eps_cluster_ids`, shared with the
    verifier's frozen-start bucketing.
    """
    ordered = sorted(entries, key=lambda e: (e.start, _kind_rank(e)))
    groups = eps_cluster_ids([entry.start for entry in ordered])
    keyed = [(group, _kind_rank(entry), entry.start, entry)
             for group, entry in zip(groups, ordered)]
    keyed.sort(key=lambda item: item[:3])
    return [item[3] for item in keyed]


def _check_attempt(entry, app, arch, mapping, policies, truth, known_at,
                   node_busy, delivered, segment_finish, attempt_finish,
                   completion, errors) -> None:
    attempt = entry.attempt
    key = (attempt.process, attempt.copy)
    node = entry.location

    # Guard decidability on this node.
    for literal in entry.guard.literals:
        known = known_at.get((literal.attempt, node))
        if known is None:
            errors.append(
                f"{attempt.label()} on {node}: guard literal {literal} "
                "is never known on this node")
        elif fgt(known, entry.start):
            errors.append(
                f"{attempt.label()} on {node}: starts at {entry.start} "
                f"but {literal} only known at {known}")

    # Processor exclusivity.
    if flt(entry.start, node_busy[node]):
        errors.append(
            f"{attempt.label()} overlaps on {node}: start {entry.start} "
            f"< busy-until {node_busy[node]}")
    node_busy[node] = max(node_busy[node], entry.end)

    # Continuity / inputs.
    if attempt.segment == 1 and attempt.attempt == 1:
        process = app.process(attempt.process)
        if flt(entry.start, process.release):
            errors.append(
                f"{attempt.label()} starts before its release "
                f"{process.release}")
        for message in app.inputs_of(attempt.process):
            at = delivered.get(message.name, {}).get(node)
            if at is None or fgt(at, entry.start):
                errors.append(
                    f"{attempt.label()} on {node} starts at {entry.start} "
                    f"without input {message.name!r} (available: {at})")
    elif attempt.attempt == 1:
        prev = segment_finish.get((key, attempt.segment - 1))
        if prev is None or fgt(prev, entry.start):
            errors.append(
                f"{attempt.label()} starts before segment "
                f"{attempt.segment - 1} finished ({prev})")
    else:
        prev_attempt = AttemptId(attempt.process, attempt.copy,
                                 attempt.segment, attempt.attempt - 1)
        prev = attempt_finish.get(prev_attempt)
        if prev is None or fgt(prev, entry.start):
            errors.append(
                f"retry {attempt.label()} starts before attempt "
                f"{attempt.attempt - 1} was detected faulty ({prev})")

    attempt_finish[attempt] = entry.end

    # Outcome.
    failed = truth.executed[attempt]
    if failed and not entry.can_fail:
        errors.append(
            f"{attempt.label()} was scheduled as fault-proof (no "
            "detection) but the plan injects a fault there")
    if not failed:
        segment_finish[(key, attempt.segment)] = entry.end
        plan_segments = policies.of(attempt.process).copies[
            attempt.copy].segments
        if attempt.segment == plan_segments and truth.copy_success[key]:
            completion[key] = entry.end
            _deliver_local(entry, app, mapping, delivered)


def _deliver_local(entry, app, mapping, delivered) -> None:
    """A successful copy's outputs are visible on its own node at its
    completion time."""
    attempt = entry.attempt
    for message in app.outputs_of(attempt.process):
        node = mapping.node_of(attempt.process, attempt.copy)
        slot = delivered.setdefault(message.name, {})
        if node not in slot or entry.end < slot[node]:
            slot[node] = entry.end


def _deliver_message(entry, app, mapping, truth, delivered, completion,
                     errors, arch) -> None:
    """A fired transmission delivers to every node iff its producer
    copy actually succeeded (fail-silent otherwise)."""
    message = app.message(entry.message)
    key = (message.src, entry.producer_copy)
    if not truth.copy_success.get(key, False):
        return  # dead copy: the reserved slot stays empty
    sent_at = completion.get(key)
    if sent_at is None or fgt(sent_at, entry.start):
        errors.append(
            f"message {entry.message!r} (copy {entry.producer_copy}) "
            f"transmitted at {entry.start} before its producer finished "
            f"({sent_at})")
    for node in arch.node_names:
        slot = delivered.setdefault(entry.message, {})
        if node not in slot or entry.end < slot[node]:
            slot[node] = entry.end
