"""Batched scenario kernel: many fault plans through one schedule.

:class:`BatchedSimulator` compiles one design's conditional schedule
into integer-indexed tables once (attempt-id universe, per-entry
static fields, guard literals as a CSR index array, copy →
guarded-entry adjacency) and then advances many
:class:`~repro.ftcpg.scenarios.FaultPlan` scenarios through the table
replay in one pass per plan:

* *delta ground truth* — the fault-free base truth is derived once;
  a plan patches only the state of its ≤ k faulty copies;
* *batched guard evaluation* — with numpy, all guards evaluate in one
  vectorized gather/compare/segment-AND over the literal CSR (the
  oracle re-filters every entry with a per-literal dict walk for
  every plan — the dominant cost of
  :func:`repro.runtime.simulator.simulate`); without numpy, only the
  entries whose guards mention a faulty copy are re-evaluated against
  the cached fault-free fired mask;
* *index replay* — the per-scenario invariant checks run over flat
  arrays keyed by attempt/copy/node indices instead of composite
  tuple keys.

The kernel follows the happy path only: the moment any invariant
check would produce an error (guard undecidable, overlap, missing
input, bus collision, deadline miss, …) the plan is **re-simulated
through the pure-Python oracle**, which produces the exact error
strings. Clean scenarios are materialized into
:class:`~repro.runtime.simulator.SimulationResult` objects that match
the oracle's byte for byte: the same completed-process dict in
declaration order, the same makespan float, and the original
:class:`~repro.schedule.table.TableEntry` objects in the identical
replay order.

numpy (when importable) accelerates only the int8/bool guard-state
masks — all float values flow through plain Python floats, so no
``np.float64`` can leak into results or JSON payloads; without numpy
the masks fall back to ``bytearray``.

:func:`replay_plans` is the entry point the scenario-replay loops go
through (``repro verify``, the campaign chunks, ``--certify`` sweeps,
``dse --verify-frontier`` and
:func:`repro.runtime.verify.verify_tolerance`): the batched kernel by
default, one-shot :func:`~repro.runtime.simulator.simulate` per plan
under ``REPRO_KERNELS=0``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.ftcpg.conditions import AttemptId
from repro.ftcpg.scenarios import FaultPlan
from repro.kernels import counters, kernels_enabled
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.policies.types import PolicyAssignment
from repro.runtime.simulator import SimulationResult, simulate
from repro.schedule.mapping import CopyMapping
from repro.schedule.table import EntryKind, ScheduleSet
from repro.utils.mathutils import eps_cluster_ids, fgt, flt

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is an optional speedup
    _np = None

CopyKey = tuple[str, int]

#: State encoding per attempt id: absent / executed-and-failed /
#: executed-and-succeeded (mirrors the oracle's ``executed`` dict
#: where presence maps to a ``failed`` bool).
_ABSENT, _FAILED, _OK = 0, 1, 2

#: Kind ranks matching :func:`repro.runtime.simulator._kind_rank`.
_KIND_RANK = {EntryKind.BROADCAST: 0, EntryKind.MESSAGE: 1,
              EntryKind.ATTEMPT: 2}


def _new_mask(size: int):
    if _np is not None:
        return _np.zeros(size, dtype=_np.int8)
    return bytearray(size)


def _copy_mask(mask):
    if _np is not None:
        return mask.copy()
    return bytearray(mask)


class BatchedSimulator:
    """Compiled batched scenario evaluation of one design."""

    def __init__(self, app: Application, arch: Architecture,
                 mapping: CopyMapping, policies: PolicyAssignment,
                 fault_model: FaultModel,
                 schedule: ScheduleSet) -> None:
        self._app = app
        self._arch = arch
        self._mapping = mapping
        self._policies = policies
        self._fault_model = fault_model
        self._schedule = schedule
        self._k = fault_model.k
        counters.schedules_compiled += 1

        node_names = tuple(arch.node_names)
        self._n_nodes = len(node_names)
        nid_of = {node: nid for nid, node in enumerate(node_names)}

        # -- copy registry ----------------------------------------------------
        copy_of: dict[CopyKey, int] = {}
        copy_segments: list[int] = []
        copy_recoveries: list[int] = []
        copy_nid: list[int] = []
        copy_pid: list[int] = []
        names = tuple(app.process_names)
        pid_of = {name: pid for pid, name in enumerate(names)}
        for process_name, policy in policies.items():
            for copy_index, copy_plan in enumerate(policy.copies):
                copy_of[(process_name, copy_index)] = len(copy_nid)
                copy_segments.append(copy_plan.segments)
                copy_recoveries.append(copy_plan.recoveries)
                copy_nid.append(
                    nid_of[mapping.node_of(process_name, copy_index)])
                copy_pid.append(pid_of[process_name])
        self._copy_of = copy_of
        self._copy_segments = copy_segments
        self._copy_recoveries = copy_recoveries
        self._copy_nid = copy_nid
        self._copy_pid_table = copy_pid
        # Stride packing (copy, segment) into one int key.
        self._seg_stride = max(copy_segments, default=1) + 2
        n_copies = len(copy_nid)

        # -- per-process tables -----------------------------------------------
        msg_of = {m: i for i, m in enumerate(app.message_names)}
        self._names = names
        self._releases = [app.process(n).release for n in names]
        self._deadlines = [app.process(n).deadline for n in names]
        self._proc_inputs = [
            [msg_of[m.name] for m in app.inputs_of(n)] for n in names]
        self._proc_outputs = [
            [msg_of[m.name] for m in app.outputs_of(n)] for n in names]
        self._proc_copies: list[list[int]] = [[] for _ in names]
        for key, cidx in copy_of.items():
            self._proc_copies[pid_of[key[0]]].append(cidx)

        # -- attempt-id universe ----------------------------------------------
        # Guard literal and attempt objects are massively shared across
        # entries (the synthesizer extends parent guards), so interning
        # memoizes on object identity first and only falls back to
        # (slow) dataclass hashing for the first sighting of each
        # object. Only objects reachable from the retained entries may
        # be id-memoized — a temporary's id would be recycled and
        # poison the memo.
        aid_of: dict[AttemptId, int] = {}
        att_memo: dict[int, int] = {}
        lit_memo: dict[int, tuple[int, int]] = {}

        def intern(attempt: AttemptId) -> int:
            aid = att_memo.get(id(attempt))
            if aid is None:
                aid = aid_of.get(attempt)
                if aid is None:
                    aid = len(aid_of)
                    aid_of[attempt] = aid
                att_memo[id(attempt)] = aid
            return aid

        # -- per-entry static tables (in global replay presort order) ---------
        entries = schedule.entries
        order = sorted(
            range(len(entries)),
            key=lambda i: (entries[i].start, _KIND_RANK[entries[i].kind]))
        self._entries = [entries[i] for i in order]
        n_entries = len(order)
        self._kind = [0] * n_entries
        self._start = [0.0] * n_entries
        self._end = [0.0] * n_entries
        self._lits: list[list[tuple[int, int]]] = [[] for _ in order]
        self._aid = [-1] * n_entries
        self._can_fail = [False] * n_entries
        self._loc_nid = [-1] * n_entries
        self._cidx = [-1] * n_entries
        self._segment = [0] * n_entries
        self._attempt_no = [0] * n_entries
        self._prev_aid = [-1] * n_entries
        self._is_last = [False] * n_entries
        self._msg = [-1] * n_entries
        self._frames: list[tuple[tuple[int, int], ...]] = \
            [()] * n_entries
        pending_prev: list[tuple[int, AttemptId]] = []
        for j, entry in enumerate(self._entries):
            self._kind[j] = _KIND_RANK[entry.kind]
            self._start[j] = entry.start
            self._end[j] = entry.end
            lits_j = self._lits[j]
            for literal in entry.guard.literals:
                pair = lit_memo.get(id(literal))
                if pair is None:
                    pair = (intern(literal.attempt),
                            _FAILED if literal.faulty else _OK)
                    lit_memo[id(literal)] = pair
                lits_j.append(pair)
            if entry.attempt is not None:
                self._aid[j] = intern(entry.attempt)
            if entry.kind is EntryKind.ATTEMPT:
                attempt = entry.attempt
                self._can_fail[j] = entry.can_fail
                self._loc_nid[j] = nid_of[entry.location]
                cidx = copy_of[(attempt.process, attempt.copy)]
                self._cidx[j] = cidx
                self._segment[j] = attempt.segment
                self._attempt_no[j] = attempt.attempt
                self._is_last[j] = (
                    attempt.segment == copy_segments[cidx])
                if attempt.attempt > 1:
                    pending_prev.append(
                        (j, AttemptId(attempt.process, attempt.copy,
                                      attempt.segment,
                                      attempt.attempt - 1)))
            else:
                self._frames[j] = tuple(
                    (frame.round_index, frame.slot_index)
                    for frame in entry.frames)
                if entry.kind is EntryKind.MESSAGE:
                    message = app.message(entry.message)
                    self._msg[j] = msg_of[entry.message]
                    self._cidx[j] = copy_of.get(
                        (message.src, entry.producer_copy), -1)
        # Resolve retry predecessors once the universe is complete; a
        # predecessor no entry or guard mentions stays -1 (such a retry
        # can only be an oracle-reported error anyway).
        for j, prev_attempt in pending_prev:
            self._prev_aid[j] = aid_of.get(prev_attempt, -1)
        self._n_aids = len(aid_of)

        # -- aid -> copy, copy -> aids / guarded entries ----------------------
        aid_cidx = [-1] * self._n_aids
        self._copy_aids: list[list[int]] = [[] for _ in range(n_copies)]
        self._copy_att_aid: list[dict[tuple[int, int], int]] = [
            {} for _ in range(n_copies)]
        for attempt, aid in aid_of.items():
            cidx = copy_of.get((attempt.process, attempt.copy))
            if cidx is None:
                continue
            aid_cidx[aid] = cidx
            self._copy_aids[cidx].append(aid)
            self._copy_att_aid[cidx][(attempt.segment,
                                      attempt.attempt)] = aid
        self._copy_entries: list[list[int]] = [
            [] for _ in range(n_copies)]
        for j in range(n_entries):
            seen: set[int] = set()
            for aid, _want in self._lits[j]:
                cidx = aid_cidx[aid]
                if cidx >= 0 and cidx not in seen:
                    seen.add(cidx)
                    self._copy_entries[cidx].append(j)

        # -- fault-free base state --------------------------------------------
        base_state = _new_mask(self._n_aids)
        for cidx in range(n_copies):
            att_aid = self._copy_att_aid[cidx]
            for segment in range(1, copy_segments[cidx] + 1):
                aid = att_aid.get((segment, 1))
                if aid is not None:
                    base_state[aid] = _OK
        self._base_state = base_state

        # -- guard evaluation backend -----------------------------------------
        if _np is not None:
            # Literal CSR: one flat (aid, wanted-state) array pair plus
            # per-entry offsets; a guard is satisfied iff the segment
            # minimum of (state[aid] == want) is 1 (AND of literals).
            counts = [len(lits) for lits in self._lits]
            self._lit_aids = _np.array(
                [aid for lits in self._lits for aid, _ in lits],
                dtype=_np.int64)
            self._lit_wants = _np.array(
                [want for lits in self._lits for _, want in lits],
                dtype=_np.int8)
            offsets = _np.cumsum([0] + counts, dtype=_np.int64)[:-1]
            self._nonempty = _np.array(counts, dtype=_np.int64) > 0
            self._ne_offsets = offsets[self._nonempty]
            self._base_fired = None
        else:
            # Pure-Python fallback: cache the fault-free fired mask and
            # re-evaluate only the guards mentioning a patched copy.
            base_fired = bytearray(n_entries)
            for j in range(n_entries):
                if self._guard_fires(j, base_state):
                    base_fired[j] = 1
            self._base_fired = base_fired

    # -- per-plan evaluation --------------------------------------------------

    def _guard_fires(self, j: int, state) -> bool:
        for aid, want in self._lits[j]:
            if state[aid] != want:
                return False
        return True

    def _fired_ids(self, state, patched: Iterable[int]) -> list[int]:
        """Indices of fired entries (presort order) for one state."""
        if _np is not None:
            fired = _np.ones(len(self._entries), dtype=bool)
            if self._ne_offsets.size:
                ok = state[self._lit_aids] == self._lit_wants
                minima = _np.minimum.reduceat(
                    ok.view(_np.int8), self._ne_offsets)
                fired[self._nonempty] = minima == 1
            return _np.nonzero(fired)[0].tolist()
        fired = _copy_mask(self._base_fired)
        stale: set[int] = set()
        for cidx in patched:
            stale.update(self._copy_entries[cidx])
        for j in stale:
            fired[j] = 1 if self._guard_fires(j, state) else 0
        return [j for j, flag in enumerate(fired) if flag]

    def _patch_copy(self, state, cidx: int,
                    counts: tuple[int, ...]) -> bool:
        """Apply one copy's fault distribution; return its success.

        Mirrors :func:`repro.runtime.simulator._copy_ground_truth`
        over the interned attempt universe (attempts no entry or guard
        references are unobservable and skipped).
        """
        for aid in self._copy_aids[cidx]:
            state[aid] = _ABSENT
        att_aid = self._copy_att_aid[cidx]
        segments = self._copy_segments[cidx]
        recoveries = self._copy_recoveries[cidx]
        local_faults = 0
        alive = True
        done = 0
        n_counts = len(counts)
        for segment in range(1, segments + 1):
            if not alive:
                break
            faults_here = counts[segment - 1] if segment <= n_counts \
                else 0
            for attempt in range(1, faults_here + 1):
                aid = att_aid.get((segment, attempt))
                if aid is not None:
                    state[aid] = _FAILED
                local_faults += 1
                if local_faults > recoveries:
                    alive = False
                    break
            if not alive:
                break
            aid = att_aid.get((segment, faults_here + 1))
            if aid is not None:
                state[aid] = _OK
            done = segment
        return alive and done == segments

    def results(self, plans: Iterable[FaultPlan],
                ) -> Iterator[SimulationResult]:
        """Simulate plans in order (kernel fast path, oracle escape)."""
        for plan in plans:
            yield self.simulate_plan(plan)

    def simulate_plan(self, plan: FaultPlan) -> SimulationResult:
        """One scenario: kernel replay, oracle fallback on violations."""
        result = None
        if type(plan) is FaultPlan \
                and plan.total_faults <= self._k:
            result = self._try_kernel(plan)
        if result is None:
            counters.oracle_fallbacks += 1
            return simulate(self._app, self._arch, self._mapping,
                            self._policies, self._fault_model,
                            self._schedule, plan)
        counters.batched_scenarios += 1
        return result

    def _try_kernel(self, plan: FaultPlan) -> SimulationResult | None:
        # -- delta ground truth + guard evaluation ----------------------------
        state = _copy_mask(self._base_state)
        success: dict[int, bool] = {}
        for key, counts in plan.faults.items():
            cidx = self._copy_of.get(key)
            if cidx is None:
                return None
            success[cidx] = self._patch_copy(state, cidx, counts)
        fired_ids = self._fired_ids(state, success)

        # -- per-plan replay order (subset eps-clustering) --------------------
        starts = self._start
        kinds = self._kind
        sub_starts = [starts[j] for j in fired_ids]
        groups = eps_cluster_ids(sub_starts)
        replay = sorted(
            range(len(fired_ids)),
            key=lambda i: (groups[i], kinds[fired_ids[i]],
                           sub_starts[i]))
        order = [fired_ids[i] for i in replay]

        # -- prime: condition-knowledge times ---------------------------------
        ends = self._end
        aids = self._aid
        n_nodes = self._n_nodes
        known: dict[int, float] = {}
        for j in order:
            kind = kinds[j]
            aid = aids[j]
            if kind == 2:
                if self._can_fail[j] and aid >= 0 \
                        and state[aid] != _ABSENT:
                    key = aid * n_nodes + self._loc_nid[j]
                    end = ends[j]
                    have = known.get(key)
                    if have is None or end < have:
                        known[key] = end
            elif kind == 0:
                if aid >= 0 and state[aid] != _ABSENT:
                    end = ends[j]
                    base = aid * n_nodes
                    for nid in range(n_nodes):
                        key = base + nid
                        have = known.get(key)
                        if have is None or end < have:
                            known[key] = end

        # -- replay -----------------------------------------------------------
        node_busy = [0.0] * n_nodes
        slot_owner: dict[tuple[int, int], int] = {}
        delivered: dict[int, float] = {}
        segment_finish: dict[int, float] = {}
        attempt_finish: dict[int, float] = {}
        completion: list[float | None] = [None] * len(self._copy_nid)
        copy_nid = self._copy_nid
        copy_pid = self._copy_pid_table
        seg_stride = self._seg_stride
        lits = self._lits
        for j in order:
            kind = kinds[j]
            start = starts[j]
            end = ends[j]
            if kind == 2:
                aid = aids[j]
                state_val = state[aid]
                if state_val == _ABSENT:
                    continue  # dead copy: the slot idles
                nid = self._loc_nid[j]
                for lit_aid, _want in lits[j]:
                    at = known.get(lit_aid * n_nodes + nid)
                    if at is None or fgt(at, start):
                        return None
                if flt(start, node_busy[nid]):
                    return None
                if end > node_busy[nid]:
                    node_busy[nid] = end
                cidx = self._cidx[j]
                segment = self._segment[j]
                attempt_no = self._attempt_no[j]
                pid = copy_pid[cidx]
                if segment == 1 and attempt_no == 1:
                    if flt(start, self._releases[pid]):
                        return None
                    for msg in self._proc_inputs[pid]:
                        at = delivered.get(msg * n_nodes + nid)
                        if at is None or fgt(at, start):
                            return None
                elif attempt_no == 1:
                    prev = segment_finish.get(
                        cidx * seg_stride + (segment - 1))
                    if prev is None or fgt(prev, start):
                        return None
                else:
                    prev_aid = self._prev_aid[j]
                    prev = (attempt_finish.get(prev_aid)
                            if prev_aid >= 0 else None)
                    if prev is None or fgt(prev, start):
                        return None
                attempt_finish[aid] = end
                if state_val == _FAILED:
                    if not self._can_fail[j]:
                        return None
                else:
                    segment_finish[cidx * seg_stride + segment] = end
                    if self._is_last[j] and success.get(cidx, True):
                        completion[cidx] = end
                        nd = copy_nid[cidx]
                        for msg in self._proc_outputs[pid]:
                            key = msg * n_nodes + nd
                            have = delivered.get(key)
                            if have is None or end < have:
                                delivered[key] = end
            else:
                for frame_key in self._frames[j]:
                    other = slot_owner.get(frame_key)
                    if other is not None and other != j:
                        return None
                    slot_owner[frame_key] = j
                if kind == 1:
                    cidx = self._cidx[j]
                    if cidx < 0 or not success.get(cidx, True):
                        continue  # dead copy: fail-silent
                    sent_at = completion[cidx]
                    if sent_at is None or fgt(sent_at, start):
                        return None
                    msg = self._msg[j]
                    for nid in range(n_nodes):
                        key = msg * n_nodes + nid
                        have = delivered.get(key)
                        if have is None or end < have:
                            delivered[key] = end

        # -- completion & deadline checks -------------------------------------
        completed: dict[str, float] = {}
        for pid, name in enumerate(self._names):
            best = None
            for cidx in self._proc_copies[pid]:
                finish = completion[cidx]
                if finish is not None and (best is None
                                           or finish < best):
                    best = finish
            if best is None:
                return None  # never completed: oracle reports it
            deadline = self._deadlines[pid]
            if deadline is not None and fgt(best, deadline):
                return None
            completed[name] = best
        makespan = max(completed.values()) if completed \
            else float("inf")
        if fgt(makespan, self._app.deadline):
            return None
        entries = self._entries
        return SimulationResult(
            plan=plan,
            completed=completed,
            makespan=makespan,
            errors=[],
            fired_entries=tuple(entries[j] for j in order),
        )


def replay_plans(app: Application, arch: Architecture,
                 mapping: CopyMapping, policies: PolicyAssignment,
                 fault_model: FaultModel, schedule: ScheduleSet,
                 plans: Iterable[FaultPlan],
                 ) -> Iterator[SimulationResult]:
    """Replay ``plans`` in order against one design's schedule tables.

    The only scenario-replay switch point: :class:`BatchedSimulator`
    when the kernels are enabled, the one-shot ``simulate()`` oracle
    per plan under ``REPRO_KERNELS=0``. Both yield bit-identical
    results (pinned by ``tests/test_oracle.py``), so callers fold the
    stream without knowing which path produced it.
    """
    if kernels_enabled():
        return BatchedSimulator(app, arch, mapping, policies,
                                fault_model, schedule).results(plans)
    return (simulate(app, arch, mapping, policies, fault_model,
                     schedule, plan) for plan in plans)
