"""The three benchmark workloads: instances, timed operations, checks.

Every workload is a closed loop with one client (this process): the
next operation starts only after the previous one returned and was
checked. Instances derive from the benchmark seed alone through
:func:`derive`, so the same seed always gives the same inputs; the
program under test receives generated models (``synth``) or
declarative generator specs and configs (``verify``, ``sweep``).

Each workload exposes the same small interface:

* ``instance(seed, index)`` builds the inputs of one operation;
* ``run(inst, ctx)`` executes the operation and returns an
  :class:`OpResult` with its timed sections and a canonical output;
* ``check(inst, result)`` validates the output (outside any timed
  section) and returns a list of failure messages;
* ``check_once(inst, result)`` runs the per-run oracle checks on the
  first operation's instance.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.campaigns.runner import (
    CampaignConfig,
    load_campaign_workload,
    run_campaign,
)
from repro.dse.explorer import DseConfig, run_dse
from repro.dse.space import SpaceConfig
from repro.engine.runner import EngineConfig
from repro.eval import CACHE_DIR_ENV, EvaluatorPool
from repro.ftcpg import count_fault_plans, iter_fault_plans
from repro.model import FaultModel
from repro.runtime.simulator import simulate
from repro.synthesis import TabuSettings, synthesize
from repro.utils.rng import derive_seed
from repro.verify import VerifyConfig, run_verification
from repro.workloads.generator import GeneratorConfig, generate_workload


def derive(seed: int, *parts: object) -> int:
    """A positive 31-bit seed for one input, a pure function of its
    arguments (independent of the program's own RNG helpers)."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") % 2_000_000_000 + 1


@dataclass
class OpResult:
    """One executed operation."""

    #: Timed sections in seconds, by metric name (``synth_s``, ...).
    times: dict[str, float]
    #: Canonical, timing-free output; equal inputs must give equal
    #: outputs on every backend, traced or not.
    output: object
    #: Fault-tolerance overhead of the synthesized design, in percent
    #: (deterministic; guards search quality).
    fto_pct: float
    #: Further deterministic figures shown in the summary table.
    extras: dict[str, float] = field(default_factory=dict)
    #: Objects the checks need (reports, designs); never compared.
    detail: dict = field(default_factory=dict)


@dataclass
class RunContext:
    """Per-run settings shared by every operation."""

    #: Scratch directory inside the checkout (journals, disk caches).
    workdir: Path
    #: Traced runs execute every engine command on the serial backend.
    serial: bool = False
    #: Called around every timed command as ``span(name)`` (a context
    #: manager); the traced run records a top-level span with it.
    span: object = None
    #: Bytes of engine checkpoint journals written, by command.
    journal_bytes: dict[str, int] = field(default_factory=dict)


@contextmanager
def _no_span(name: str):
    yield


def _timed(ctx: RunContext, name: str, fn):
    span = ctx.span or _no_span
    with span(f"bench.{name}"):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
    return value, elapsed


@contextmanager
def _cache_dir(path: Path | None):
    """Point the evaluation disk cache at ``path`` (None: off)."""
    saved = os.environ.pop(CACHE_DIR_ENV, None)
    if path is not None:
        os.environ[CACHE_DIR_ENV] = str(path)
    try:
        yield
    finally:
        os.environ.pop(CACHE_DIR_ENV, None)
        if saved is not None:
            os.environ[CACHE_DIR_ENV] = saved


def _fto_pct(estimate: float, nft: float) -> float:
    return (estimate - nft) / nft * 100.0


# -- synth ---------------------------------------------------------------------


class Synth:
    """Tabu mapping/policy search plus estimation, nothing else."""

    name = "synth"
    processes, nodes, k = 40, 4, 2
    settings = dict(iterations=16, neighborhood=12, bus_contention=True)

    def instance(self, seed: int, index: int) -> dict:
        app, arch = generate_workload(GeneratorConfig(
            processes=self.processes, nodes=self.nodes,
            seed=derive(seed, self.name, index, "instance")))
        settings = TabuSettings(
            seed=derive(seed, self.name, index, "tabu"), **self.settings)
        return {"app": app, "arch": arch, "settings": settings}

    def warmup_instance(self, seed: int) -> dict:
        app, arch = generate_workload(GeneratorConfig(
            processes=8, nodes=2, seed=derive(seed, "warmup")))
        return {"app": app, "arch": arch,
                "settings": TabuSettings(iterations=2, neighborhood=4,
                                         seed=1)}

    def run(self, inst: dict, ctx: RunContext) -> OpResult:
        app, arch = inst["app"], inst["arch"]
        fault_model = FaultModel(k=self.k)

        def op():
            return synthesize(app, arch, fault_model, "MXR",
                              settings=inst["settings"],
                              cache=EvaluatorPool(cache_dir=None))

        result, elapsed = _timed(ctx, "synth", op)
        output = (
            tuple((name, repr(result.policies.of(name)),
                   tuple(result.mapping.node_of(name, copy)
                         for copy in range(
                             len(result.policies.of(name).copies))))
                  for name in app.process_names),
            result.schedule_length, result.nft_length,
            result.evaluations)
        return OpResult(
            times={"synth_s": elapsed}, output=output,
            fto_pct=result.fto,
            extras={"evaluations": float(result.evaluations)},
            detail={"result": result})

    def check(self, inst: dict, res: OpResult) -> list[str]:
        app, arch = inst["app"], inst["arch"]
        result = res.detail["result"]
        errors = []
        for name in app.process_names:
            policy = result.policies.of(name)
            if not policy.tolerates(self.k):
                errors.append(f"policy of {name} does not tolerate "
                              f"k={self.k}")
            for copy in range(len(policy.copies)):
                try:
                    node = result.mapping.node_of(name, copy)
                except Exception as error:  # any lookup failure
                    errors.append(f"{name} copy {copy} unmapped: "
                                  f"{error}")
                    continue
                if node not in arch.node_names:
                    errors.append(f"{name} copy {copy} mapped to "
                                  f"unknown node {node!r}")
        fresh = EvaluatorPool(cache_dir=None).evaluator_for(
            app, arch, FaultModel(k=self.k)).estimate(
                result.policies, result.mapping,
                bus_contention=inst["settings"].bus_contention)
        if fresh.schedule_length != result.schedule_length:
            errors.append(
                f"schedule_length {result.schedule_length!r} != fresh "
                f"re-estimate {fresh.schedule_length!r}")
        return errors

    def check_once(self, inst: dict, res: OpResult) -> list[str]:
        return []


# -- verify --------------------------------------------------------------------


def _rebuild_design(config: VerifyConfig):
    """The design a verification chunk synthesizes for ``config``.

    Follows the documented derivation of
    ``repro.campaigns.runner.synthesize_campaign_design`` (tabu seed
    ``derive_seed(seed, "campaign-tabu", settings.seed)``) through the
    public :func:`repro.synthesis.synthesize` entry point.
    """
    app, arch = load_campaign_workload(config.workload)
    settings = replace(config.settings, seed=derive_seed(
        config.seed, "campaign-tabu", config.settings.seed))
    pool = EvaluatorPool(cache_dir=None)
    result = synthesize(app, arch, FaultModel(k=config.k),
                        config.strategy, settings=settings, cache=pool)
    return app, arch, result, pool


def check_verify_report(report, config: VerifyConfig,
                        design=None) -> list[str]:
    """Verdict, scenario count and soundness-triangle checks."""
    errors = []
    payload = report.to_jsonable()
    stats = report.stats
    if not report.ok or payload["certified"] is not True:
        errors.append("verification report is not ok/certified")
    if stats.failures != 0:
        errors.append(f"{stats.failures} failed scenarios")
    if stats.scenarios != report.scenarios_total:
        errors.append(f"simulated {stats.scenarios} of "
                      f"{report.scenarios_total} scenarios")
    app, arch, result, __ = design or _rebuild_design(config)
    if result.schedule_length != report.estimate \
            or result.nft_length != report.nft_length:
        errors.append("rebuilt design differs from the verified one")
    expected = count_fault_plans(app, result.policies, config.k)
    if report.scenarios_total != expected:
        errors.append(f"scenarios {report.scenarios_total} != "
                      f"count_fault_plans {expected}")
    if not (report.estimate_bound >= report.exact_worst_case
            >= stats.worst_makespan):
        errors.append(
            f"soundness triangle broken: bound {report.estimate_bound} "
            f"exact {report.exact_worst_case} "
            f"simulated {stats.worst_makespan}")
    return errors


class Verify:
    """Exact conditional tables plus exhaustive scenario replay."""

    name = "verify"
    processes, nodes, k = 12, 2, 3
    #: Seeded fault plans the per-run oracle replays besides the
    #: fault-free one.
    oracle_plans = 6

    def _config(self, seed: int, index: int, processes: int,
                nodes: int, k: int) -> VerifyConfig:
        return VerifyConfig(
            workload={"processes": processes, "nodes": nodes,
                      "seed": derive(seed, self.name, index,
                                     "instance")},
            k=k, chunks=1, seed=derive(seed, self.name, index, "config"))

    def instance(self, seed: int, index: int) -> dict:
        return {"config": self._config(seed, index, self.processes,
                                       self.nodes, self.k)}

    def warmup_instance(self, seed: int) -> dict:
        return {"config": self._config(seed, -1, 6, 2, 1)}

    def run(self, inst: dict, ctx: RunContext) -> OpResult:
        config = inst["config"]
        report, elapsed = _timed(ctx, "verify", lambda: run_verification(
            config, engine_config=EngineConfig(backend="serial")))
        gap = ((report.estimate_bound - report.exact_worst_case)
               / report.exact_worst_case * 100.0)
        return OpResult(
            times={"verify_s": elapsed}, output=report.to_json(),
            fto_pct=_fto_pct(report.estimate, report.nft_length),
            extras={"verify_bound_gap_pct": gap,
                    "scenarios": float(report.scenarios_total)},
            detail={"report": report})

    def check(self, inst: dict, res: OpResult) -> list[str]:
        design = _rebuild_design(inst["config"])
        res.detail["design"] = design
        return check_verify_report(res.detail["report"], inst["config"],
                                   design)

    def check_once(self, inst: dict, res: OpResult) -> list[str]:
        """Replay the fault-free plan and seeded plans through the
        table-replay oracle on the rebuilt design."""
        config = inst["config"]
        report = res.detail["report"]
        app, arch, result, pool = res.detail.get("design") \
            or _rebuild_design(config)
        fault_model = FaultModel(k=config.k)
        schedule = pool.evaluator_for(app, arch, fault_model) \
            .exact_schedule(result.policies, result.mapping, None,
                            max_contexts=config.max_contexts)
        errors = []
        if schedule.worst_case_length != report.exact_worst_case:
            errors.append("rebuilt tables differ from the verified ones")
        total = report.scenarios_total
        rng = random.Random(derive(config.seed, "oracle"))
        picks = sorted(rng.sample(range(1, total),
                                  min(self.oracle_plans, total - 1)))
        wanted = [0] + picks
        plans = iter_fault_plans(app, result.policies, config.k)
        chosen = [plan for index, plan in enumerate(
            itertools.islice(plans, wanted[-1] + 1)) if index in wanted]
        fault_free = simulate(app, arch, result.mapping, result.policies,
                              fault_model, schedule, chosen[0])
        if not chosen[0].is_fault_free:
            errors.append("first enumerated plan is not fault-free")
        if fault_free.makespan != report.stats.fault_free_makespan:
            errors.append(
                f"oracle fault-free makespan {fault_free.makespan!r} != "
                f"report {report.stats.fault_free_makespan!r}")
        for plan in chosen[1:]:
            outcome = simulate(app, arch, result.mapping,
                               result.policies, fault_model, schedule,
                               plan)
            if not outcome.ok:
                errors.append(f"oracle replay failed: {outcome.errors[0]}")
            if outcome.makespan > report.stats.worst_makespan:
                errors.append(
                    f"oracle makespan {outcome.makespan} exceeds the "
                    f"report's worst {report.stats.worst_makespan}")
        return errors


# -- sweep ---------------------------------------------------------------------


def _dominates(a, b) -> bool:
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


class Sweep:
    """Sharded commands through the batch engine: per-chunk set-up,
    process workers, checkpoint journals and the disk cache."""

    name = "sweep"
    processes, nodes, k = 12, 2, 2
    samples = 200
    dse_processes, dse_nodes = 8, 2
    chunks, workers = 4, 2
    #: Named transparency levels only: random and ladder vectors make
    #: the exact-scheduling cost of a candidate vary several-fold
    #: between instances, which would drown the engine's share.
    space = SpaceConfig(strategies=("MXR", "SFX"), k_values=(1,),
                        checkpoint_counts=(0, 1), transparency_samples=0,
                        ladder=False)
    commands = ("sharded_verify_s", "campaign_s", "dse_cold_s",
                "dse_warm_s")

    def _configs(self, seed: int, index: int, processes: int, nodes: int,
                 dse_processes: int, dse_nodes: int, samples: int):
        def spec(p, n, tag):
            return {"processes": p, "nodes": n,
                    "seed": derive(seed, self.name, index, tag)}

        run_seed = derive(seed, self.name, index, "config")
        shared = spec(processes, nodes, "instance")
        return {
            "verify": VerifyConfig(workload=shared, k=self.k,
                                   chunks=self.chunks, seed=run_seed),
            "campaign": CampaignConfig(workload=shared, k=self.k,
                                       samples=samples,
                                       chunks=self.chunks, seed=run_seed),
            "dse": DseConfig(workload=spec(dse_processes, dse_nodes,
                                           "dse"),
                             space=self.space, chunks=self.chunks,
                             seed=run_seed),
        }

    def instance(self, seed: int, index: int) -> dict:
        return self._configs(seed, index, self.processes, self.nodes,
                             self.dse_processes, self.dse_nodes,
                             self.samples)

    def warmup_instance(self, seed: int) -> dict:
        return self._configs(seed, -1, 5, 2, 5, 2, 20)

    def _engine(self, ctx: RunContext, tag: str) -> EngineConfig:
        journal = ctx.workdir / f"{tag}-{time.perf_counter_ns()}.jsonl"
        if ctx.serial:
            return EngineConfig(backend="serial", checkpoint_path=journal)
        return EngineConfig(backend="process", workers=self.workers,
                            checkpoint_path=journal)

    def _command(self, ctx: RunContext, tag: str, fn):
        engine = self._engine(ctx, tag)
        report, elapsed = _timed(ctx, tag, lambda: fn(engine))
        path = Path(engine.checkpoint_path)
        size = path.stat().st_size if path.exists() else 0
        ctx.journal_bytes[tag] = ctx.journal_bytes.get(tag, 0) + size
        path.unlink(missing_ok=True)
        return report, elapsed

    def run(self, inst: dict, ctx: RunContext) -> OpResult:
        cache = ctx.workdir / f"cache-{time.perf_counter_ns()}"
        with _cache_dir(None):
            verify, t_verify = self._command(
                ctx, "sharded_verify", lambda e: run_verification(
                    inst["verify"], engine_config=e))
            campaign, t_campaign = self._command(
                ctx, "campaign", lambda e: run_campaign(
                    inst["campaign"], engine_config=e))
        with _cache_dir(cache):
            cold, t_cold = self._command(
                ctx, "dse_cold", lambda e: run_dse(
                    inst["dse"], engine_config=e))
            warm, t_warm = self._command(
                ctx, "dse_warm", lambda e: run_dse(
                    inst["dse"], engine_config=e))
        shutil.rmtree(cache, ignore_errors=True)
        times = dict(zip(self.commands,
                         (t_verify, t_campaign, t_cold, t_warm)))
        output = (verify.to_json(), campaign.to_json(), cold.to_json(),
                  warm.to_json())
        gap = ((verify.estimate_bound - verify.exact_worst_case)
               / verify.exact_worst_case * 100.0)
        return OpResult(
            times=times, output=output,
            fto_pct=_fto_pct(verify.estimate, verify.nft_length),
            extras={"verify_bound_gap_pct": gap},
            detail={"verify": verify, "campaign": campaign,
                    "cold": cold, "warm": warm})

    def reference(self, inst: dict) -> tuple[str, str, str]:
        """Serial-backend reports of the same configs (no journal, no
        disk cache)."""
        serial = EngineConfig(backend="serial")
        with _cache_dir(None):
            return (run_verification(inst["verify"],
                                     engine_config=serial).to_json(),
                    run_campaign(inst["campaign"],
                                 engine_config=serial).to_json(),
                    run_dse(inst["dse"], engine_config=serial).to_json())

    def check(self, inst: dict, res: OpResult,
              reference: tuple[str, str, str] | None = None,
              ) -> list[str]:
        errors = []
        detail = res.detail
        verify_text, campaign_text, cold_text, warm_text = res.output
        if reference is None:
            reference = self.reference(inst)
        for label, text, ref in (("sharded verify", verify_text,
                                  reference[0]),
                                 ("campaign", campaign_text, reference[1]),
                                 ("dse cold", cold_text, reference[2]),
                                 ("dse warm", warm_text, reference[2])):
            if text != ref:
                errors.append(f"{label} report differs from the serial "
                              "reference")
        if cold_text != warm_text:
            errors.append("cold and warm DSE reports differ")
        if not detail["campaign"].ok:
            errors.append("campaign report is not ok")
        errors.extend(check_verify_report(detail["verify"],
                                          inst["verify"]))
        frontier = detail["cold"].frontier
        for a in frontier:
            for b in frontier:
                if a.group == b.group and _dominates(a.objectives,
                                                     b.objectives):
                    errors.append(f"frontier point {a.index} dominates "
                                  f"{b.index}")
        return errors

    def check_once(self, inst: dict, res: OpResult) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (Synth(), Verify(), Sweep())}
