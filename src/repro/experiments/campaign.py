"""Estimate-vs-exact-vs-simulated sweep over the workload grid.

The paper's evaluation (Fig. 7/8) compares strategies by their
*estimated* overheads; this experiment closes the loop the paper
leaves open: for a grid of generated workloads it synthesizes a design
(:func:`repro.synthesis.strategies.synthesize`), builds the exact
conditional tables (:func:`repro.schedule.conditional.
synthesize_schedule`), stress-tests them under sampled fault plans
(:mod:`repro.campaigns`), and reports how the slack-sharing estimate
relates to both:

* **est dev %** — how far below the exact worst case the paper's
  ``"max"`` estimate sits (its optimism);
* **cert dev %** — ditto for the sound ``"budgeted"`` estimate
  (negative = conservative);
* **sim/exact %** — how much of the exact worst case the sampled
  plans actually reached (sampling coverage);
* **exceed** — sampled plans whose simulated finish exceeded the
  certified estimate bound (the soundness seam: must be 0).

Each grid cell is one single-chunk campaign run as a pure engine job,
so the sweep inherits workers/checkpointing via ``repro batch``-style
execution.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import asdict, dataclass, field
from collections.abc import Mapping, Sequence

from repro.campaigns.runner import (
    build_campaign_design,
    run_campaign_chunk,
)
from repro.campaigns.stats import CampaignStats
from repro.engine.backends import BACKENDS
from repro.engine.grid import grid_jobs
from repro.engine.jobs import BatchJob
from repro.engine.runner import BatchEngine, EngineConfig, JobOutcome
from repro.eval.diskcache import CACHE_DIR_ENV
from repro.ftcpg.scenarios import count_fault_plans, iter_fault_plans
from repro.experiments.reporting import (
    group_cells_by_size,
    mean,
    render_rows,
)
from repro.synthesis.tabu import TabuSettings
from repro.utils.rng import derive_seed

#: Import-path runner reference resolved by engine workers.
CELL_RUNNER = "repro.experiments.campaign:run_campaign_sweep_cell"


@dataclass(frozen=True)
class CampaignSweepConfig:
    """Sweep configuration (small sizes: every cell pays an exact
    conditional scheduling, which is exponential in ``k``)."""

    sizes: tuple[int, ...] = (5, 6, 8)
    seeds: tuple[int, ...] = (1, 2, 3)
    nodes: int = 2
    k: int = 2
    strategy: str = "MXR"
    sampler: str = "stratified"
    samples: int = 60
    sweep_seed: int = 0
    settings: TabuSettings = field(
        default_factory=lambda: TabuSettings(
            iterations=8, neighborhood=8, bus_contention=False))
    max_contexts: int = 200_000
    #: Also certify each cell's design exhaustively (the sweep sizes
    #: are small enough that the batched replay covers the whole
    #: scenario set); cells beyond the ceiling report ``None``.
    certify: bool = True
    certify_max_scenarios: int = 50_000

    @classmethod
    def quick(cls) -> "CampaignSweepConfig":
        """Small sweep for CI/benchmarks."""
        return cls(sizes=(5, 6), seeds=(1, 2), samples=30)

    @classmethod
    def full(cls) -> "CampaignSweepConfig":
        """The default grid."""
        return cls()


@dataclass
class CampaignRow:
    """Aggregates of one application size."""

    processes: int
    cells: int
    plans: int
    est_dev: float
    cert_dev: float
    sim_coverage: float
    exceeded: int
    violations: int
    #: Cells whose design passed exhaustive verification / cells
    #: certification was attempted on (0/0 with ``certify`` off).
    certified: int = 0
    certifiable: int = 0

    def as_cells(self) -> list:
        return [self.processes, self.cells, self.plans,
                f"{self.est_dev:.1f}", f"{self.cert_dev:.1f}",
                f"{self.sim_coverage:.1f}", self.exceeded,
                self.violations,
                f"{self.certified}/{self.certifiable}"]


#: Table header matching :meth:`CampaignRow.as_cells`.
ROW_HEADER = ["processes", "cells", "plans", "est dev %", "cert dev %",
              "sim/exact %", "exceed", "violations", "certified"]


def campaign_sweep_jobs(config: CampaignSweepConfig | None = None,
                        ) -> list[BatchJob]:
    """Expand the sweep into one engine job per (size, seed) cell."""
    config = config or CampaignSweepConfig()
    return grid_jobs(
        CELL_RUNNER,
        {"size": config.sizes, "seed": config.seeds},
        prefix="campaign-sweep",
        common={
            "nodes": config.nodes,
            "k": config.k,
            "strategy": config.strategy,
            "sampler": config.sampler,
            "samples": config.samples,
            "sweep_seed": config.sweep_seed,
            "settings": asdict(config.settings),
            "max_contexts": config.max_contexts,
            "certify": config.certify,
            "certify_max_scenarios": config.certify_max_scenarios,
        },
    )


def run_campaign_sweep_cell(params: Mapping[str, object]) -> dict:
    """One sweep cell: a single-chunk campaign on one workload.

    With ``certify`` the cell additionally sweeps **all** fault
    scenarios of the *same* design context the campaign sampled (one
    shared :func:`~repro.campaigns.runner.build_campaign_design` —
    synthesis and exact tables are built once, not per phase) and
    reports ``verify_ok`` / ``verified_scenarios`` — ``None`` / 0
    when the scenario count exceeds ``certify_max_scenarios``.
    """
    size = int(params["size"])
    seed = int(params["seed"])
    chunk_params = {
        "workload": {"processes": size, "nodes": int(params["nodes"]),
                     "seed": seed},
        "k": params["k"],
        "strategy": params["strategy"],
        "sampler": params["sampler"],
        "samples": params["samples"],
        "chunk": 0,
        "chunks": 1,
        "seed": derive_seed(int(params["sweep_seed"]),
                            "campaign-sweep", size, seed),
        "settings": params["settings"],
        "max_contexts": params["max_contexts"],
    }
    design = build_campaign_design(chunk_params)
    cell = run_campaign_chunk(chunk_params, design=design)
    cell["size"] = size
    cell["seed"] = seed
    if bool(params.get("certify", False)):
        from repro.kernels.batch import replay_plans
        from repro.verify.stats import VerificationStats
        policies = design.result.policies
        total = count_fault_plans(design.app, policies,
                                  design.fault_model.k)
        if total > int(params["certify_max_scenarios"]):
            cell["verify_ok"] = None
            cell["verified_scenarios"] = 0
        else:
            stats = VerificationStats()
            for outcome in replay_plans(
                    design.app, design.arch, design.result.mapping,
                    policies, design.fault_model, design.schedule,
                    iter_fault_plans(design.app, policies,
                                     design.fault_model.k)):
                stats.observe(outcome)
            cell["verify_ok"] = stats.ok
            cell["verified_scenarios"] = stats.scenarios
    return cell


def rows_from_cells(cells: Sequence[Mapping], *,
                    sizes: Sequence[int] | None = None,
                    ) -> list[CampaignRow]:
    """Aggregate per-cell results into one row per application size."""
    rows = []
    for size, group in group_cells_by_size(cells, sizes):
        stats = [CampaignStats.from_jsonable(c["stats"]) for c in group]
        rows.append(CampaignRow(
            processes=size,
            cells=len(group),
            plans=sum(s.plans for s in stats),
            est_dev=mean([
                (c["exact_worst_case"] - c["estimate"])
                / c["exact_worst_case"] * 100.0 for c in group]),
            cert_dev=mean([
                (c["exact_worst_case"] - c["certified_estimate"])
                / c["exact_worst_case"] * 100.0 for c in group]),
            sim_coverage=mean([
                s.worst_makespan / c["exact_worst_case"] * 100.0
                for c, s in zip(group, stats)]),
            exceeded=sum(s.exceeded for s in stats),
            violations=sum(s.violations for s in stats),
            certified=sum(1 for c in group
                          if c.get("verify_ok") is True),
            certifiable=sum(1 for c in group
                            if c.get("verify_ok") is not None),
        ))
    return rows


def _print_cell(outcome: JobOutcome) -> None:
    cell = outcome.result
    resumed = " (resumed)" if outcome.from_checkpoint else ""
    stats = CampaignStats.from_jsonable(cell["stats"])
    print(f"  size={cell['size']} seed={cell['seed']} "
          f"plans={stats.plans} worst={stats.worst_makespan:.1f} "
          f"exact={cell['exact_worst_case']:.1f} "
          f"exceeded={stats.exceeded}{resumed}")


def run_campaign_sweep(config: CampaignSweepConfig | None = None, *,
                       verbose: bool = False, workers: int = 1,
                       engine_config: EngineConfig | None = None,
                       ) -> list[CampaignRow]:
    """Run the sweep and return one row per application size."""
    config = config or CampaignSweepConfig()
    engine = BatchEngine(engine_config
                         or EngineConfig(workers=workers))
    report = engine.run(campaign_sweep_jobs(config),
                        progress=_print_cell if verbose else None)
    return rows_from_cells(report.results(), sizes=config.sizes)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: the full grid."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.campaign",
        description="Fault-injection campaign sweep over an "
                    "application-size grid")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (<=1 runs serially)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="JSONL checkpoint of completed cells "
                             "(enables resume)")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="executor backend (serial, process or "
                             "workdir); default auto-selects from "
                             "--workers/--workdir")
    parser.add_argument("--workdir", default=None, metavar="DIR",
                        help="shared directory of the workdir "
                             "backend; 'repro worker' processes may "
                             "join from any host sharing it")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent evaluation cache "
                             "(REPRO_EVAL_CACHE_DIR); repeated "
                             "sweeps warm-start from it")
    args = parser.parse_args(argv)

    if args.cache_dir:
        os.environ[CACHE_DIR_ENV] = str(args.cache_dir)
    engine_config = EngineConfig(workers=args.workers,
                                 checkpoint_path=args.checkpoint,
                                 backend=args.backend,
                                 workdir=args.workdir)
    rows = run_campaign_sweep(CampaignSweepConfig.full(),
                              verbose=True,
                              engine_config=engine_config)
    print()
    print("Campaign sweep — estimate vs exact vs simulated")
    print(render_rows(ROW_HEADER, [row.as_cells() for row in rows]))
    return 0


if __name__ == "__main__":
    main()
