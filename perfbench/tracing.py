"""Span tracing installed from outside the program.

The traced run wraps public layer entry points of :mod:`repro` with
thin recorders. A wrapper records one span (name, start, end, parent)
and passes arguments and the return value through unchanged. Spans
stay in memory in flat arrays until the run ends, then
:meth:`Tracer.write` stores them as a gzipped TSV file.

Module-level functions are often imported by name into other modules
(``from repro.synthesis.strategies import synthesize``), so a function
target is replaced in *every* loaded ``repro`` module that binds it.
Methods are replaced on their class. A target that no longer exists
is reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import statistics
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

#: Span name -> "module:attribute" or "module:Class.method". Generator
#: targets (``ftcpg.plans``) count items instead of recording spans.
TARGETS = {
    "synthesis.synthesize": "repro.synthesis.strategies:synthesize",
    "synthesis.tabu": "repro.synthesis.tabu:TabuSearch.optimize",
    "eval.estimate": "repro.eval.core:Evaluator.estimate_state",
    "eval.estimate_move": "repro.eval.core:Evaluator.estimate_move",
    "eval.compute": "repro.schedule.estimation:EstimatorState.compute",
    "eval.reevaluate":
        "repro.schedule.estimation:EstimatorState.reevaluate",
    "eval.exact_lookup": "repro.eval.core:Evaluator.exact_schedule",
    "eval.design": "repro.eval.core:Evaluator.evaluate_design",
    "eval.disk_get": "repro.eval.diskcache:DiskCache.get",
    "eval.disk_put": "repro.eval.diskcache:DiskCache.put",
    "comm.transmit": "repro.comm.tdma:TdmaBus.schedule_transmission",
    "schedule.exact": "repro.schedule.conditional:synthesize_schedule",
    "kernels.compile": "repro.kernels.batch:BatchedSimulator.__init__",
    "kernels.replay": "repro.kernels.batch:BatchedSimulator.simulate_plan",
    "runtime.simulate": "repro.runtime.simulator:simulate",
    "ftcpg.plans": "repro.ftcpg.scenarios:iter_fault_plans",
    "verify.chunk": "repro.verify.runner:run_verify_chunk",
    "campaigns.chunk": "repro.campaigns.runner:run_campaign_chunk",
    "dse.chunk": "repro.dse.explorer:run_dse_chunk",
    "dse.candidate": "repro.dse.explorer:evaluate_candidate",
    "engine.run": "repro.engine.runner:BatchEngine.run",
    "engine.job": "repro.engine.backends:execute_job",
}

#: Targets whose return value is inspected: span name -> counter name
#: and the function computing the increment.
RESULT_COUNTERS = {
    "synthesis.synthesize": ("synthesis.evaluations",
                             lambda result: result.evaluations),
    "schedule.exact": ("schedule.exact_entries",
                       lambda schedule: len(schedule.entries)),
}

#: The benchmark's own modules, which call some targets directly.
BENCHMARK_MODULES = {"workloads"}

#: Generator targets: counted per yielded item, no span.
COUNTED_GENERATORS = {"ftcpg.plans"}


class Tracer:
    """In-memory span store plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def _name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self) -> int:
        return len(self.start)

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (benchmark-level spans)."""
        index = self._open(self._name(name))
        try:
            yield
        finally:
            self._close(index)

    def _open(self, nid: int) -> int:
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """A recorder around ``fn`` that returns its value unchanged."""
        nid = self._name(name)
        counter = RESULT_COUNTERS.get(name)
        if name in COUNTED_GENERATORS:
            counters = self.counters

            def counting(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counters[name] += 1
                    yield item
            return counting

        stack, names, parents = self._stack, self.name_id, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter
        counters = self.counters

        def recorder(*args, **kwargs):
            index = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(index)
            try:
                value = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counters[counter[0]] += counter[1](value)
            return value

        recorder.__wrapped__ = fn
        return recorder

    def write(self, path: Path) -> None:
        """Store every span as ``name start_s end_s parent`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                out.write(f"{i}\t{names[self.name_id[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                          f"{self.parent[i]}\n")


class Installation:
    """Wrappers installed for one traced operation; undone on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.unmeasured: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Installation":
        for name, target in TARGETS.items():
            if not self._install(name, target):
                self.unmeasured.append(name)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def _install(self, name: str, target: str) -> bool:
        module_name, __, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." in path:
            class_name, method = path.split(".")
            cls = getattr(module, class_name, None)
            if cls is None or method not in cls.__dict__:
                return False
            raw = cls.__dict__[method]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.tracer.wrap(name, raw.__func__))
            else:
                wrapped = self.tracer.wrap(name, raw)
            self._undo.append((cls, method, raw))
            setattr(cls, method, wrapped)
            return True
        original = getattr(module, path, None)
        if original is None:
            return False
        wrapped = self.tracer.wrap(name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                    loaded_name == "repro"
                    or loaded_name.startswith("repro.")
                    or loaded_name in BENCHMARK_MODULES):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapped)
        return True


#: Per-layer metric -> (unit, better, span targets it depends on).
PER_LAYER = {
    "synthesis.tabu_s": ("s", "lower", ["synthesis.tabu"]),
    "synthesis.self_s": ("s", "lower", ["synthesis.synthesize"]),
    "synthesis.evaluations": ("count", "lower", ["synthesis.synthesize"]),
    "synthesis.fto_pct": ("%", "lower", []),
    "eval.estimate_calls": ("count", "lower",
                            ["eval.estimate", "eval.estimate_move"]),
    "eval.estimate_s": ("s", "lower",
                        ["eval.estimate", "eval.estimate_move"]),
    "eval.evals_per_s": ("1/s", "higher",
                         ["eval.estimate", "eval.estimate_move"]),
    "eval.estimate_hit_rate": ("ratio", "higher",
                               ["eval.estimate", "eval.estimate_move",
                                "eval.compute", "eval.reevaluate"]),
    "comm.transmissions": ("count", "lower", ["comm.transmit"]),
    "comm.transmit_s": ("s", "lower", ["comm.transmit"]),
    "schedule.exact_s": ("s", "lower", ["schedule.exact"]),
    "schedule.exact_entries": ("count", "lower", ["schedule.exact"]),
    "schedule.entries_per_s": ("1/s", "higher", ["schedule.exact"]),
    "kernels.replay_s": ("s", "lower", ["kernels.replay"]),
    "kernels.scenarios_per_s": ("1/s", "higher", ["kernels.replay"]),
    "kernels.oracle_fallbacks": ("count", "lower",
                                 ["kernels.replay", "runtime.simulate"]),
    "kernels.tables_compiled": ("count", "lower", ["kernels.compile"]),
    "ftcpg.plans": ("count", "lower", ["ftcpg.plans"]),
    "verify.chunk_s": ("s", "lower", ["verify.chunk"]),
    "verify.chunk_setup_s": ("s", "lower",
                             ["verify.chunk", "kernels.replay"]),
    "verify.bound_gap_pct": ("%", "lower", []),
    "campaigns.design_builds": ("count", "lower",
                                ["synthesis.synthesize"]),
    "dse.candidates": ("count", "lower", ["dse.candidate"]),
    "dse.candidate_s": ("s", "lower", ["dse.candidate"]),
    "eval.design_hit_rate": ("ratio", "higher",
                             ["eval.design", "eval.exact_lookup"]),
    "eval.disk_gets": ("count", "lower", ["eval.disk_get"]),
    "eval.disk_puts": ("count", "lower", ["eval.disk_put"]),
    "eval.disk_s": ("s", "lower", ["eval.disk_get", "eval.disk_put"]),
    "engine.run_s": ("s", "lower", ["engine.run"]),
    "engine.job_busy_s": ("s", "lower", ["engine.job"]),
    "engine.overhead_s": ("s", "lower", ["engine.run", "engine.job"]),
    "engine.journal_bytes": ("bytes", "lower", []),
    "trace.overhead_pct": ("%", "lower", []),
}


def op_totals(tracer: Tracer, lo: int, hi: int,
              counters: Counter) -> dict[str, float]:
    """Per-layer totals of one operation: spans ``[lo, hi)``.

    Self time is a span's duration minus the durations of its direct
    children (on one thread, children never overlap).
    """
    names = tracer.names
    nid, parent = tracer.name_id, tracer.parent
    start, end = tracer.start, tracer.end
    n = hi - lo
    dur = [end[i] - start[i] for i in range(lo, hi)]
    child = [0.0] * n
    kids: list[set[str] | None] = [None] * n
    for j in range(n):
        p = parent[lo + j]
        if p >= lo:
            child[p - lo] += dur[j]
            if kids[p - lo] is None:
                kids[p - lo] = set()
            kids[p - lo].add(names[nid[lo + j]])

    def ancestor(j: int, wanted: set[str]) -> str | None:
        p = parent[lo + j]
        while p >= lo:
            label = names[nid[p]]
            if label in wanted:
                return label
            p = parent[p]
        return None

    incl: Counter = Counter()
    self_: Counter = Counter()
    count: Counter = Counter()
    lookups = hits = designs = design_hits = fallbacks = 0
    builds = 0
    dse_candidates = 0
    dse_candidate_s = replay_in_chunks = 0.0
    sharded = {"bench.sharded_verify", "bench.campaign"}
    for j in range(n):
        label = names[nid[lo + j]]
        incl[label] += dur[j]
        self_[label] += dur[j] - child[j]
        count[label] += 1
        if label in ("eval.estimate", "eval.estimate_move"):
            lookups += 1
            if not (kids[j] and kids[j] & {"eval.compute",
                                           "eval.reevaluate"}):
                hits += 1
        elif label == "eval.design":
            designs += 1
            if not (kids[j] and "eval.exact_lookup" in kids[j]):
                design_hits += 1
        elif label == "runtime.simulate":
            p = parent[lo + j]
            if p >= lo and names[nid[p]] == "kernels.replay":
                fallbacks += 1
        elif label == "synthesis.synthesize":
            if ancestor(j, sharded):
                builds += 1
        elif label == "dse.candidate":
            if ancestor(j, {"bench.dse_cold"}):
                dse_candidates += 1
                dse_candidate_s += dur[j]
        elif label == "kernels.replay":
            if ancestor(j, {"verify.chunk"}):
                replay_in_chunks += dur[j]

    sharded_commands = count["bench.sharded_verify"] \
        + count["bench.campaign"]
    return {
        "synthesis.tabu_s": incl["synthesis.tabu"],
        "synthesis.self_s": self_["synthesis.synthesize"],
        "eval.estimate_calls": lookups,
        "eval.estimate_s": incl["eval.estimate"]
        + incl["eval.estimate_move"],
        "_eval.hits": hits,
        "comm.transmissions": count["comm.transmit"],
        "comm.transmit_s": incl["comm.transmit"],
        "schedule.exact_s": incl["schedule.exact"],
        "schedule.exact_entries": counters["schedule.exact_entries"],
        "synthesis.evaluations": counters["synthesis.evaluations"],
        "kernels.replay_s": incl["kernels.replay"],
        "_kernels.replays": count["kernels.replay"],
        "kernels.oracle_fallbacks": fallbacks,
        "kernels.tables_compiled": count["kernels.compile"],
        "ftcpg.plans": counters["ftcpg.plans"],
        "verify.chunk_s": incl["verify.chunk"],
        "verify.chunk_setup_s": incl["verify.chunk"] - replay_in_chunks,
        "campaigns.design_builds": (builds / sharded_commands
                                    if sharded_commands else 0),
        "dse.candidates": dse_candidates,
        "dse.candidate_s": dse_candidate_s,
        "_eval.designs": designs,
        "_eval.design_hits": design_hits,
        "eval.disk_gets": count["eval.disk_get"],
        "eval.disk_puts": count["eval.disk_put"],
        "eval.disk_s": incl["eval.disk_get"] + incl["eval.disk_put"],
        "engine.run_s": incl["engine.run"],
        "engine.job_busy_s": incl["engine.job"],
        "engine.overhead_s": self_["engine.run"],
    }


def per_layer_metrics(ops: list[dict[str, float]],
                      unmeasured: set[str]) -> dict[str, float | None]:
    """Medians over operations; rates from run-wide totals.

    A metric whose span targets could not be installed is None.
    """
    def med(key: str) -> float:
        return statistics.median(op[key] for op in ops)

    def total(key: str) -> float:
        return sum(op[key] for op in ops)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {key: med(key) for key in PER_LAYER
              if key in ops[0]}
    values["eval.evals_per_s"] = ratio(total("eval.estimate_calls"),
                                       total("eval.estimate_s"))
    values["eval.estimate_hit_rate"] = ratio(total("_eval.hits"),
                                             total("eval.estimate_calls"))
    values["schedule.entries_per_s"] = ratio(
        total("schedule.exact_entries"), total("schedule.exact_s"))
    values["kernels.scenarios_per_s"] = ratio(total("_kernels.replays"),
                                              total("kernels.replay_s"))
    values["eval.design_hit_rate"] = ratio(total("_eval.design_hits"),
                                           total("_eval.designs"))
    for key, (__, ___, needs) in PER_LAYER.items():
        if any(name in unmeasured for name in needs):
            values[key] = None
    return values
