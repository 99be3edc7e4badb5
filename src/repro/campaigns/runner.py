"""Monte Carlo fault-injection campaigns over synthesized schedules.

A *campaign* takes one workload, synthesizes a fault-tolerant design
for it (strategy + tabu budget, exactly as the experiments do), builds
the exact conditional schedule tables, and then stress-tests those
tables under a sampled set of concrete fault plans — turning the
per-scenario checker of :mod:`repro.runtime.simulator` into an
empirical validation pipeline in the spirit of the transparent-recovery
validation line of Kandasamy et al. (see
:mod:`repro.schedule.estimation`).

Execution model
---------------

The plan set is split into ``chunks`` stride slices
(:func:`repro.campaigns.sampling.chunk_slice`); each chunk is one pure
:class:`~repro.engine.jobs.BatchJob` fanned out through the PR 1
:class:`~repro.engine.runner.BatchEngine` — so campaigns inherit the
engine's process-pool parallelism, resumable JSONL checkpoints and
deterministic reports for free. Every chunk re-derives the same
synthesis and the same plan list from the campaign seed (workers share
nothing), simulates its slice, and returns streaming
:class:`~repro.campaigns.stats.CampaignStats`; the parent folds chunk
stats in job-submission order, which makes serial and parallel
campaign reports byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from collections.abc import Mapping

from repro.campaigns.sampling import (
    SAMPLERS,
    chunk_slice,
    sample_campaign_plans,
)
from repro.campaigns.stats import (
    HIST_BIN_PCT,
    CampaignStats,
    estimate_bound,
)
from repro.engine import journal
from repro.engine.grid import grid_jobs
from repro.engine.jobs import BatchJob
from repro.engine.runner import (
    BatchEngine,
    EngineConfig,
    ProgressCallback,
)
from repro.des.core import DesSimulator
from repro.errors import ToleranceViolationError
from repro.eval.core import EvaluatorPool
from repro.kernels import kernels_info
from repro.model.application import Application
from repro.model.architecture import Architecture
from repro.model.fault_model import FaultModel
from repro.runtime.faults import extend_fault_plans
from repro.schedule.estimation import FtEstimate
from repro.schedule.table import ScheduleSet
from repro.synthesis.strategies import StrategyResult, synthesize
from repro.synthesis.tabu import TabuSettings
from repro.utils.rng import derive_seed
from repro.workloads.generator import GeneratorConfig, generate_workload
from repro.workloads.presets import SIMPLE_PRESETS

#: Import-path runner reference resolved by engine workers.
CHUNK_RUNNER = "repro.campaigns.runner:run_campaign_chunk"

#: Named workloads a campaign can target (all transparency-free).
PRESET_WORKLOADS = tuple(SIMPLE_PRESETS)


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign: a workload, a design flow, and a sampling plan.

    ``workload`` is a JSON-able spec: ``{"preset": <name>}`` for one
    of :data:`PRESET_WORKLOADS`, or generator knobs
    ``{"processes": .., "nodes": .., "seed": ..}``. Keeping the spec
    declarative (instead of passing model objects) is what lets chunk
    jobs rebuild the instance inside worker processes and lets
    checkpoint files stay meaningful across runs.
    """

    workload: Mapping[str, object] = field(
        default_factory=lambda: {"processes": 8, "nodes": 2, "seed": 1})
    k: int = 2
    strategy: str = "MXR"
    sampler: str = "uniform"
    samples: int = 200
    chunks: int = 4
    seed: int = 0
    settings: TabuSettings = field(
        default_factory=lambda: TabuSettings(
            iterations=8, neighborhood=8, bus_contention=False))
    max_contexts: int = 200_000
    #: Certified mode: additionally run the exhaustive sharded
    #: verifier (:mod:`repro.verify`) on the very design the sampled
    #: plans stressed — same seed derivation, same chunk count — and
    #: fold the certificate into the report.
    certify: bool = False
    certify_max_scenarios: int = 200_000
    #: DES-only fault axes (docs/des.md): every sampled faulty plan is
    #: extended with this many intermittent fault windows …
    intermittent: int = 0
    #: … this many corrupted TDMA slot occurrences …
    slot_faults: int = 0
    #: … and per-process release jitter up to this many time units.
    #: Extended plans run through the event-driven simulator; the
    #: fault-free anchor plan stays pristine (oracle-checkable).
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.sampler not in SAMPLERS:
            raise ValueError(
                f"unknown sampler {self.sampler!r}, expected one of "
                f"{SAMPLERS}")
        if self.chunks < 1:
            raise ValueError(f"chunks must be >= 1, got {self.chunks}")
        if self.samples < 0:
            raise ValueError(
                f"samples must be >= 0, got {self.samples}")
        if self.intermittent < 0 or self.slot_faults < 0 \
                or self.jitter < 0:
            raise ValueError(
                "DES axes must be >= 0, got intermittent="
                f"{self.intermittent} slot_faults={self.slot_faults} "
                f"jitter={self.jitter}")

    @property
    def des_axes(self) -> dict:
        """The DES-only axis knobs as a JSON-able mapping."""
        return {
            "intermittent": self.intermittent,
            "jitter": self.jitter,
            "slot_faults": self.slot_faults,
        }

    @property
    def uses_des_axes(self) -> bool:
        """True when any DES-only axis is switched on."""
        return (self.intermittent > 0 or self.slot_faults > 0
                or self.jitter > 0)

    @property
    def label(self) -> str:
        """Stable id component naming the workload."""
        preset = self.workload.get("preset")
        if preset is not None:
            return str(preset)
        return (f"gen{self.workload.get('processes', 8)}p"
                f"{self.workload.get('nodes', 2)}n"
                f"s{self.workload.get('seed', 1)}")


def load_campaign_workload(spec: Mapping[str, object],
                           ) -> tuple[Application, Architecture]:
    """Rebuild the campaign's workload from its declarative spec."""
    unknown = set(spec) - {"preset", "processes", "nodes", "seed"}
    if unknown:
        raise ValueError(
            f"unknown workload spec key(s) {sorted(unknown)}; expected "
            "'preset' or generator knobs 'processes'/'nodes'/'seed'")
    preset = spec.get("preset")
    if preset is not None:
        if preset not in SIMPLE_PRESETS:
            raise ValueError(
                f"unknown campaign preset {preset!r}, expected one of "
                f"{PRESET_WORKLOADS}")
        return SIMPLE_PRESETS[preset]()
    return generate_workload(GeneratorConfig(
        processes=int(spec.get("processes", 8)),
        nodes=int(spec.get("nodes", 2)),
        seed=int(spec.get("seed", 1)),
    ))


def synthesize_campaign_design(app, arch, k: int, strategy: str,
                               settings: TabuSettings, seed: int, *,
                               pool: EvaluatorPool):
    """The design a campaign (or verification) seed produces.

    One shared derivation — tabu seed via
    ``derive_seed(seed, "campaign-tabu", settings.seed)`` — used by
    campaign chunks *and* the verification chunks of
    :mod:`repro.verify.runner`, so a certified campaign provably
    verifies the very design its sampled plans stressed: equal
    ``(workload, k, strategy, settings, seed)`` yields the identical
    synthesis on both sides.
    """
    fault_model = FaultModel(k=k)
    settings = replace(settings, seed=derive_seed(
        seed, "campaign-tabu", settings.seed))
    return synthesize(app, arch, fault_model, strategy,
                      settings=settings, cache=pool)


def campaign_jobs(config: CampaignConfig) -> list[BatchJob]:
    """One engine job per plan chunk."""
    return grid_jobs(
        CHUNK_RUNNER,
        {"chunk": tuple(range(config.chunks))},
        prefix=f"campaign/{config.label}/k={config.k}"
               f"/{config.strategy}/{config.sampler}",
        common={
            "workload": dict(config.workload),
            "k": config.k,
            "strategy": config.strategy,
            "sampler": config.sampler,
            "samples": config.samples,
            "chunks": config.chunks,
            "seed": config.seed,
            "settings": asdict(config.settings),
            "max_contexts": config.max_contexts,
            "intermittent": config.intermittent,
            "slot_faults": config.slot_faults,
            "jitter": config.jitter,
        },
    )


@dataclass
class CampaignDesign:
    """One fully evaluated campaign design context.

    Everything :func:`run_campaign_chunk` derives from the seed before
    it starts simulating: the instance, the synthesized design, the
    exact tables and the certified estimate bound. Exposed so
    in-process callers that need both the sampled campaign *and* an
    exhaustive verification of the same design (the certified sweep
    cells of :mod:`repro.experiments.campaign`) build it once instead
    of re-running the synthesis per phase.
    """

    app: Application
    arch: Architecture
    fault_model: FaultModel
    result: StrategyResult
    schedule: ScheduleSet
    certified: FtEstimate
    bound: float
    pool: EvaluatorPool


def build_campaign_design(params: Mapping[str, object],
                          ) -> CampaignDesign:
    """Derive the chunk's design context from its params (pure)."""
    app, arch = load_campaign_workload(params["workload"])
    k = int(params["k"])
    fault_model = FaultModel(k=k)
    pool = EvaluatorPool()
    result = synthesize_campaign_design(
        app, arch, k, str(params["strategy"]),
        TabuSettings(**params["settings"]), int(params["seed"]),
        pool=pool)
    evaluator = pool.evaluator_for(app, arch, fault_model)
    schedule = evaluator.exact_schedule(
        result.policies, result.mapping,
        max_contexts=int(params["max_contexts"]))
    # The soundness seam: simulations are held against the *budgeted*
    # slack-sharing estimate (sound for the replication hybrids the
    # search may pick — the default "max" rule is not; see
    # :func:`repro.schedule.estimation.estimate_ft_schedule`) plus the
    # condition-broadcast allowance the estimation model skips. The
    # estimator shares the exact scheduler's earliest-start-first
    # replica serialization, so the bound needs no exact-tables floor;
    # the tables built above serve simulation and the report's
    # exact_worst_case gap column only.
    certified = evaluator.estimate(
        result.policies, result.mapping, slack_sharing="budgeted")
    bound = estimate_bound(app, arch, certified, k)
    return CampaignDesign(app=app, arch=arch, fault_model=fault_model,
                          result=result, schedule=schedule,
                          certified=certified, bound=bound, pool=pool)


def run_campaign_chunk(params: Mapping[str, object],
                       design: CampaignDesign | None = None) -> dict:
    """One chunk: synthesize, build exact tables, simulate a slice.

    Pure function of its params (the engine's worker contract). The
    synthesis seed and the sampling seed are both derived from the
    campaign seed — *not* from the chunk index — so every chunk
    reproduces the identical design and plan list and only its stride
    slice differs. ``design`` lets an in-process caller hand in the
    :func:`build_campaign_design` context it already built (engine
    workers always rebuild from the params).
    """
    if design is None:
        design = build_campaign_design(params)
    app, arch = design.app, design.arch
    fault_model = design.fault_model
    result, schedule = design.result, design.schedule
    k = fault_model.k

    plans = sample_campaign_plans(
        app, result.policies, k,
        sampler=str(params["sampler"]),
        samples=int(params["samples"]),
        seed=derive_seed(int(params["seed"]), "campaign-plans"))
    # DES-only axes (docs/des.md): every chunk extends the *full* plan
    # list with the same derived seed before slicing, so the extended
    # scenarios — like the base plans — are a pure function of the
    # campaign seed and byte-identical across chunks.
    intermittent = int(params.get("intermittent", 0))
    slot_faults = int(params.get("slot_faults", 0))
    jitter = float(params.get("jitter", 0.0))
    plans = extend_fault_plans(
        plans,
        node_names=arch.node_names,
        process_names=app.process_names,
        horizon=schedule.worst_case_length,
        round_length=arch.bus.round_length,
        slots_per_round=len(arch.bus.slot_order),
        intermittent=intermittent,
        slot_faults=slot_faults,
        jitter=jitter,
        seed=derive_seed(int(params["seed"]), "campaign-des"))
    slice_plans = chunk_slice(plans, int(params["chunk"]),
                              int(params["chunks"]))

    if intermittent > 0 or slot_faults > 0 or jitter > 0:
        # The DES executes every plan: table-expressible ones
        # bit-identically to replay, extended ones forward.
        des = DesSimulator(app, arch, result.mapping, result.policies,
                           fault_model, schedule)
        outcomes = (des.simulate(plan) for plan in slice_plans)
    else:
        # Imported here, not at module level: the kernel module pulls
        # in numpy, which synthesis-only commands should not pay for.
        from repro.kernels.batch import replay_plans
        outcomes = replay_plans(app, arch, result.mapping,
                                result.policies, fault_model, schedule,
                                slice_plans)
    stats = CampaignStats()
    for outcome in outcomes:
        stats.observe(outcome, bound=design.bound,
                      ff_length=result.estimate.ff_length,
                      deadline=app.deadline,
                      expected_processes=len(app.process_names))
    cache_stats = design.pool.stats()
    return {
        "chunk": int(params["chunk"]),
        "plans_total": len(plans),
        "stats": stats.to_jsonable(),
        "cache_hits": cache_stats.estimates.hits,
        "cache_misses": cache_stats.estimates.misses,
        "cache_entries": cache_stats.estimates.entries,
        "estimate": result.estimate.schedule_length,
        "certified_estimate": design.certified.schedule_length,
        "estimate_bound": design.bound,
        "exact_worst_case": schedule.worst_case_length,
        "fault_free_length": result.estimate.ff_length,
        "nft_length": result.nft_length,
        "deadline": app.deadline,
        "processes": len(app.process_names),
        "nodes": len(arch.node_names),
    }


#: Scalars every chunk of one campaign must agree on (they all derive
#: from the same seed); a mismatch means a runner broke purity.
_CONSISTENT_KEYS = ("plans_total", "estimate", "certified_estimate",
                    "estimate_bound",
                    "exact_worst_case", "fault_free_length",
                    "nft_length", "deadline", "processes", "nodes")


@dataclass
class CampaignReport:
    """Merged outcome of one campaign (all chunks)."""

    config: CampaignConfig
    stats: CampaignStats
    estimate: float
    certified_estimate: float
    estimate_bound: float
    exact_worst_case: float
    fault_free_length: float
    nft_length: float
    deadline: float
    processes: int
    nodes: int
    plans_total: int
    cache_hits: int = 0
    cache_misses: int = 0
    executed_chunks: int = 0
    resumed_chunks: int = 0
    #: The exhaustive certificate of certified-mode campaigns
    #: (:class:`repro.verify.VerifyReport`), None otherwise.
    verification: object | None = None
    #: Why a requested certificate was skipped (scenario count beyond
    #: ``certify_max_scenarios``), None when it ran or was not asked.
    certify_skipped: str | None = None

    @property
    def ok(self) -> bool:
        """True when no plan violated an invariant, missed a deadline,
        or finished beyond the estimate bound — and, in certified
        mode, the exhaustive verification passed as well (a *skipped*
        certificate leaves the sampled verdict untouched, like a
        frontier design beyond the DSE scenario budget)."""
        certified = (self.verification is None
                     or self.verification.ok)
        return (self.stats.violations == 0
                and self.stats.deadline_misses == 0
                and self.stats.exceeded == 0
                and certified)

    # -- deterministic export -------------------------------------------------

    def to_jsonable(self) -> dict:
        """Timing-free report payload (byte-stable across runs)."""
        stats = self.stats.to_jsonable()
        stats["mean_makespan"] = self.stats.mean_makespan
        stats["mean_slack_utilization"] = \
            self.stats.mean_slack_utilization
        stats["deadline_miss_rate"] = self.stats.deadline_miss_rate
        payload = {
            "campaign": {
                "workload": self.config.label,
                "k": self.config.k,
                "strategy": self.config.strategy,
                "sampler": self.config.sampler,
                "samples": self.config.samples,
                "chunks": self.config.chunks,
                "seed": self.config.seed,
            },
            "des_axes": (self.config.des_axes
                         if self.config.uses_des_axes else None),
            "instance": {
                "processes": self.processes,
                "nodes": self.nodes,
                "deadline": self.deadline,
            },
            "schedule": {
                "estimate": self.estimate,
                "certified_estimate": self.certified_estimate,
                "estimate_bound": self.estimate_bound,
                "exact_worst_case": self.exact_worst_case,
                "fault_free_length": self.fault_free_length,
                "nft_length": self.nft_length,
            },
            "plans_total": self.plans_total,
            "gap_hist_bin_pct": HIST_BIN_PCT,
            "stats": stats,
            # One table set per design; DES-extended plans are not
            # batch-eligible (deterministic shape, not live counters).
            "kernels": kernels_info(
                compiled_tables=1,
                batched_scenarios=(0 if self.config.uses_des_axes
                                   else self.plans_total)),
        }
        if self.verification is not None:
            payload["verification"] = self.verification.to_jsonable()
        elif self.certify_skipped is not None:
            payload["verification"] = {"skipped": self.certify_skipped}
        return payload

    def to_json(self) -> str:
        """Canonical JSON text of the report."""
        return json.dumps(self.to_jsonable(), indent=2, sort_keys=True)

    def write_json(self, path: str | Path) -> None:
        """Write the canonical JSON report (atomic replace)."""
        journal.write_atomic_text(path, self.to_json() + "\n")

    def summary_lines(self) -> list[str]:
        """Human-readable aggregate summary (CLI output)."""
        stats = self.stats
        lines = [
            f"workload {self.config.label}: {self.processes} processes "
            f"on {self.nodes} nodes, k = {self.config.k}, "
            f"strategy {self.config.strategy}",
            f"{stats.plans} plans simulated "
            f"({self.config.sampler} sampler, {self.config.chunks} "
            f"chunk(s); {self.executed_chunks} executed, "
            f"{self.resumed_chunks} resumed; per-chunk synthesis "
            f"estimation cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses)",
            f"finish: worst {stats.worst_makespan:.1f}, "
            f"mean {stats.mean_makespan:.1f}, "
            f"fault-free {_fmt_opt(stats.fault_free_makespan)} "
            f"simulated ({self.fault_free_length:.1f} estimated), "
            f"deadline {self.deadline:.1f}",
            f"estimate {self.estimate:.1f} (certified "
            f"{self.certified_estimate:.1f}, bound "
            f"{self.estimate_bound:.1f}, exact worst case "
            f"{self.exact_worst_case:.1f})",
            f"slack utilization: mean "
            f"{stats.mean_slack_utilization * 100:.1f} %, "
            f"max {stats.util_max * 100:.1f} %",
            f"violations {stats.violations}, deadline misses "
            f"{stats.deadline_misses}, plans beyond the estimate "
            f"bound {stats.exceeded} (min gap "
            f"{0.0 if stats.min_gap is None else stats.min_gap:.1f})",
        ]
        if self.config.uses_des_axes:
            lines.append(
                f"DES axes per faulty plan: "
                f"{self.config.intermittent} intermittent window(s), "
                f"{self.config.slot_faults} corrupted slot(s), "
                f"jitter up to {self.config.jitter:g} "
                "(event-driven simulator; beyond the k-fault "
                "hypothesis)")
        if self.verification is not None:
            verify = self.verification
            verdict = ("CERTIFIED" if verify.ok
                       else "NOT certified")
            lines.append(
                f"certificate: {verify.stats.scenarios} scenarios "
                f"verified exhaustively, worst "
                f"{verify.stats.worst_makespan:.1f}, "
                f"{verify.stats.failures} failure(s) -> {verdict} "
                f"for k = {self.config.k}")
        elif self.certify_skipped is not None:
            lines.append(f"certificate: SKIPPED — "
                         f"{self.certify_skipped}")
        return lines


def _fmt_opt(value: float | None) -> str:
    """One-decimal float, or a dash when no plan anchored the value."""
    return "-" if value is None else f"{value:.1f}"


def run_campaign(config: CampaignConfig, *,
                 engine_config: EngineConfig | None = None,
                 progress: ProgressCallback | None = None,
                 ) -> CampaignReport:
    """Run (or resume) one campaign through the batch engine.

    In certified mode (``config.certify``) the sampled stress test is
    followed by an exhaustive sharded verification of the same design
    (same seed derivation, same engine configuration — distinct job
    ids, so a shared checkpoint file serves both phases) and the
    certificate lands in :attr:`CampaignReport.verification`.
    """
    engine = BatchEngine(engine_config or EngineConfig())
    batch = engine.run(campaign_jobs(config), progress=progress)
    cells = batch.results()

    first = cells[0]
    for cell in cells[1:]:
        for key in _CONSISTENT_KEYS:
            if cell[key] != first[key]:
                raise RuntimeError(
                    f"campaign chunks disagree on {key!r}: "
                    f"{cell[key]!r} != {first[key]!r} — a chunk "
                    "runner is not a pure function of the seed")

    verification = None
    certify_skipped = None
    if config.certify:
        # Imported lazily: repro.verify.runner imports this module
        # for the shared design derivation.
        from repro.verify.runner import (
            VerifyConfig,
            run_verification,
        )
        try:
            verification = run_verification(
                VerifyConfig(
                    workload=config.workload,
                    k=config.k,
                    strategy=config.strategy,
                    chunks=config.chunks,
                    seed=config.seed,
                    settings=config.settings,
                    max_contexts=config.max_contexts,
                    max_scenarios=config.certify_max_scenarios,
                ),
                engine_config=engine_config, progress=progress)
        except ToleranceViolationError as error:
            # Scenario count beyond the certify ceiling: keep the
            # sampled report, record why the certificate is missing
            # (same degrade-not-crash shape as the DSE frontier).
            certify_skipped = str(error)
        else:
            if verification.exact_worst_case != float(
                    cells[0]["exact_worst_case"]):
                raise RuntimeError(
                    "certified campaign verified a different design "
                    "than it sampled — the shared seed derivation "
                    f"broke ({verification.exact_worst_case!r} != "
                    f"{cells[0]['exact_worst_case']!r})")

    merged = CampaignStats()
    for cell in cells:
        merged.merge(CampaignStats.from_jsonable(cell["stats"]))
    return CampaignReport(
        config=config,
        stats=merged,
        estimate=float(first["estimate"]),
        certified_estimate=float(first["certified_estimate"]),
        estimate_bound=float(first["estimate_bound"]),
        exact_worst_case=float(first["exact_worst_case"]),
        fault_free_length=float(first["fault_free_length"]),
        nft_length=float(first["nft_length"]),
        deadline=float(first["deadline"]),
        processes=int(first["processes"]),
        nodes=int(first["nodes"]),
        plans_total=int(first["plans_total"]),
        cache_hits=sum(int(c.get("cache_hits", 0)) for c in cells),
        cache_misses=sum(int(c.get("cache_misses", 0))
                         for c in cells),
        executed_chunks=batch.executed,
        resumed_chunks=batch.resumed,
        verification=verification,
        certify_skipped=certify_skipped,
    )
