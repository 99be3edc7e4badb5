"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``synth``
    Generate a synthetic workload (or load a preset) and run one
    synthesis strategy; optionally emit and verify the exact
    conditional schedule tables.
``tables``
    Print the conditional schedule tables for a preset with a naive
    mapping — a quick way to *see* paper Fig. 6-style output.
``verify``
    Synthesize a design and *prove* its tolerance claim: simulate
    every fault scenario within the budget, sharded through the batch
    engine (parallel workers, resumable checkpoints, byte-identical
    reports).
``fig7`` / ``fig8``
    Run the paper's evaluation sweeps (quick or paper profile).
``batch``
    Run a sweep through the batch engine: parallel workers, resumable
    JSONL checkpointing, JSON/CSV result export.
``campaign``
    Monte Carlo fault-injection campaign: synthesize a design, build
    the exact tables, stress-test them under sampled fault plans
    through the batch engine (parallel chunks, resumable checkpoints,
    estimate-gap report).
``dse``
    Pareto design-space exploration: evaluate strategy × k ×
    checkpoint-count × transparency-vector candidates exactly and
    report the epsilon-Pareto frontier over (worst-case length,
    transparency degree, FT memory overhead).
``worker``
    Join a ``--backend workdir`` sweep as an extra work-stealing
    worker: claim chunk leases from the shared directory, execute
    jobs, journal results — from the same machine or any host sharing
    the filesystem.

The sweep commands (``verify``/``batch``/``campaign``/``dse``) share
the engine flags: ``--backend`` selects serial, process-pool or
multi-host workdir execution (all byte-identical in their reports),
``--cache-dir`` attaches the persistent evaluation cache that lets
repeated sweeps over shared workloads warm-start across runs.

Examples
--------

::

    repro synth --processes 20 --nodes 3 --k 2 --strategy MXR
    repro synth --preset cruise --k 2 --strategy MXR --tables
    repro tables --preset fig5
    repro verify --processes 8 --nodes 2 --k 2 --chunks 4 --workers 4
    repro fig7 --profile quick
    repro batch --experiment fig7 --profile paper --workers 4 \
        --checkpoint fig7.ckpt.jsonl --out fig7.json --csv fig7.csv
    repro campaign --processes 8 --nodes 2 --k 2 --samples 200 \
        --sampler stratified --chunks 4 --workers 4 --out campaign.json
    repro dse --processes 8 --nodes 2 --k 2 --chunks 4 --workers 4 \
        --out pareto.json --csv pareto.csv
    repro dse --processes 8 --nodes 2 --k 2 --chunks 12 \
        --backend workdir --workdir sweep.wd --out pareto.json
    repro worker --workdir sweep.wd   # on any host sharing sweep.wd

(``repro`` is the installed console script; ``python -m repro`` works
from a source checkout. The full flag-by-flag reference lives in
``docs/cli.md``.)
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro.campaigns import (
    PRESET_WORKLOADS,
    SAMPLERS,
    CampaignConfig,
    run_campaign,
)
from repro.campaigns.stats import HIST_BIN_PCT
from repro.dse import (
    DEFAULT_EPSILONS,
    DSE_STRATEGIES,
    DseConfig,
    SpaceConfig,
    run_dse,
)
from repro.engine import BACKENDS, BatchEngine, EngineConfig
from repro.engine.workdir import DEFAULT_LEASE_TIMEOUT, work
from repro.errors import ReproError
from repro.eval import CACHE_DIR_ENV
from repro.kernels import KERNELS_ENV, kernels_info
from repro.lint import (
    RULE_IDS,
    lint_paths,
    render_json,
    render_text,
)
from repro import __version__
from repro.experiments import fig7 as fig7_mod
from repro.experiments import fig8 as fig8_mod
from repro.experiments.fig7 import COMPARED, Fig7Config, run_fig7
from repro.experiments.fig8 import Fig8Config, run_fig8
from repro.experiments.reporting import (
    cache_stats_from_cells,
    render_rows,
)
from repro.model import Application, Architecture, FaultModel, Transparency
from repro.policies import PolicyAssignment, ProcessPolicy
from repro.schedule import (
    render_schedule_set,
    schedule_metrics,
    synthesize_schedule,
)
from repro.synthesis import TabuSettings, initial_mapping, synthesize
from repro.verify import VerifyConfig, run_verification
from repro.workloads import (
    SIMPLE_PRESETS,
    GeneratorConfig,
    brake_by_wire,
    fig5_example,
    generate_workload,
)


def _load_workload(args) -> tuple[Application, Architecture,
                                  Transparency | None]:
    if args.preset == "fig5":
        app, arch, __, transparency, ___ = fig5_example()
        return app, arch, transparency
    if args.preset == "bbw":
        return brake_by_wire()
    if args.preset in SIMPLE_PRESETS:
        app, arch = SIMPLE_PRESETS[args.preset]()
        return app, arch, None
    app, arch = generate_workload(GeneratorConfig(
        processes=args.processes, nodes=args.nodes, seed=args.seed))
    return app, arch, None


def _settings(args) -> TabuSettings:
    return TabuSettings(iterations=args.iterations,
                        neighborhood=args.neighborhood,
                        seed=args.seed)


def _engine_config(args) -> EngineConfig:
    """The engine configuration of one sweep command.

    ``--cache-dir`` is exported through the environment (not job
    params) on purpose: worker processes inherit it, and reports stay
    byte-identical with and without the cache.
    """
    if args.cache_dir:
        os.environ[CACHE_DIR_ENV] = str(args.cache_dir)
    if getattr(args, "no_kernels", False):
        os.environ[KERNELS_ENV] = "0"
    return EngineConfig(
        workers=args.workers,
        checkpoint_path=args.checkpoint,
        resume=not args.no_resume,
        backend=args.backend,
        workdir=args.workdir,
        lease_size=args.lease_size,
        lease_timeout=args.lease_timeout,
    )


def _validate_engine_flags(parser: argparse.ArgumentParser,
                           args) -> None:
    """Reject invalid flag combinations at parse time.

    Value errors (``--workers 0`` and friends) are handled by the
    argparse types; cross-flag contradictions land here so the user
    gets a usage error instead of a deep traceback mid-sweep.
    """
    backend = getattr(args, "backend", None)
    workdir = getattr(args, "workdir", None)
    if backend == "workdir" and workdir is None:
        parser.error(
            "--backend workdir needs --workdir DIR (the shared "
            "directory workers claim leases from)")
    if backend in ("serial", "process") and workdir is not None:
        parser.error(
            f"--workdir only applies to the workdir backend "
            f"(got --backend {backend})")
    if workdir is not None \
            and getattr(args, "checkpoint", None) is not None:
        parser.error(
            "--checkpoint conflicts with --workdir: the workdir is "
            "the checkpoint (results live in <workdir>/results)")


def _cmd_synth(args) -> int:
    app, arch, __ = _load_workload(args)
    fault_model = FaultModel(k=args.k)
    result = synthesize(app, arch, fault_model, args.strategy,
                        settings=_settings(args))
    print(f"workload: {app.name} ({len(app)} processes, "
          f"{len(arch)} nodes), k = {args.k}")
    print(f"strategy {args.strategy}: "
          f"length {result.schedule_length:.1f} "
          f"(NFT {result.nft_length:.1f}, FTO {result.fto:.1f} %), "
          f"{result.evaluations} evaluations")
    for name, policy in result.policies.items():
        nodes = ",".join(result.mapping.node_of(name, c)
                         for c in range(len(policy.copies)))
        print(f"  {name}: {policy.kind.value} on {nodes}")
    if args.tables:
        schedule = synthesize_schedule(app, arch, result.mapping,
                                       result.policies, fault_model)
        print()
        print(render_schedule_set(schedule))
        metrics = schedule_metrics(schedule)
        print(f"\ntable memory: {metrics.total_memory_bytes} bytes over "
              f"{len(metrics.per_node)} locations")
    return 0


def _cmd_tables(args) -> int:
    app, arch, transparency = _load_workload(args)
    fault_model = FaultModel(k=args.k)
    policies = PolicyAssignment.uniform(
        app, ProcessPolicy.re_execution(args.k))
    if args.preset == "fig5":
        __, ___, fault_model, transparency, mapping = fig5_example()
    else:
        mapping = initial_mapping(app, arch, policies)
    schedule = synthesize_schedule(app, arch, mapping, policies,
                                   fault_model, transparency)
    print(render_schedule_set(schedule))
    return 0


def _cmd_verify(args) -> int:
    if args.preset is not None:
        workload: dict = {"preset": args.preset}
    else:
        workload = {"processes": args.processes, "nodes": args.nodes,
                    "seed": args.seed}
    config = VerifyConfig(
        workload=workload,
        k=args.k,
        strategy=args.strategy,
        chunks=args.chunks,
        seed=args.seed,
        settings=TabuSettings(iterations=args.iterations,
                              neighborhood=args.neighborhood,
                              bus_contention=False),
        max_scenarios=args.max_scenarios,
        des_scenarios=args.des_scenarios,
        intermittent=args.intermittent,
        slot_faults=args.slot_faults,
        jitter=args.jitter,
    )
    report = run_verification(config,
                              engine_config=_engine_config(args))
    for line in report.summary_lines():
        print(line)
    if args.out:
        report.write_json(args.out)
        print(f"report written to {args.out}")
    if report.ok:
        print("all scenarios tolerated")
        return 0
    for record in report.stats.failure_records[:5]:
        errors = record["errors"] or ["(no detail recorded)"]
        print(f"FAILED {record['plan']}: {errors[0]}")
    for violation in report.frozen_violations[:5]:
        print(f"TRANSPARENCY {violation}")
    return 1


def _cmd_fig7(args) -> int:
    config = (Fig7Config.paper() if args.profile == "paper"
              else Fig7Config.quick())
    rows = run_fig7(config, verbose=True, workers=args.workers)
    print(render_rows(
        ["processes", "samples", "FTO(MXR) %"]
        + [f"dev {s} %" for s in COMPARED],
        [row.as_cells() for row in rows]))
    return 0


def _cmd_fig8(args) -> int:
    config = (Fig8Config.paper() if args.profile == "paper"
              else Fig8Config.quick())
    rows = run_fig8(config, verbose=True, workers=args.workers)
    print(render_rows(
        ["processes", "samples", "FTO[27] %", "FTO[15] %",
         "deviation %"],
        [row.as_cells() for row in rows]))
    return 0


def _cmd_batch(args) -> int:
    if args.experiment == "fig7":
        config = (Fig7Config.paper() if args.profile == "paper"
                  else Fig7Config.quick())
        jobs = fig7_mod.fig7_jobs(config)
    else:
        config = (Fig8Config.paper() if args.profile == "paper"
                  else Fig8Config.quick())
        jobs = fig8_mod.fig8_jobs(config)

    engine = BatchEngine(_engine_config(args))
    report = engine.run(jobs)
    cells = report.results()

    if args.experiment == "fig7":
        rows = fig7_mod.rows_from_cells(cells, sizes=config.sizes)
        print(render_rows(
            ["processes", "samples", "FTO(MXR) %"]
            + [f"dev {s} %" for s in COMPARED],
            [row.as_cells() for row in rows]))
    else:
        rows = fig8_mod.rows_from_cells(cells, sizes=config.sizes)
        print(render_rows(
            ["processes", "samples", "FTO[27] %", "FTO[15] %",
             "deviation %"],
            [row.as_cells() for row in rows]))

    stats = cache_stats_from_cells(cells)
    print()
    print(f"{len(cells)} cells ({report.executed} executed, "
          f"{report.resumed} resumed) in {report.wall_time:.1f}s "
          f"with {args.workers} worker(s); "
          f"estimation cache hit rate {stats.hit_rate * 100.0:.1f}% "
          f"({stats.hits} hits / {stats.misses} misses)")
    report.extra_info["estimation_cache"] = {
        "hits": stats.hits,
        "misses": stats.misses,
        "entries": stats.entries,
        "hit_rate": stats.hit_rate,
    }
    # One compiled table set per sweep cell; batch sweeps evaluate
    # estimates only (deterministic shape, not live counters).
    report.extra_info["kernels"] = kernels_info(
        compiled_tables=len(cells), batched_scenarios=0)
    if args.out:
        report.write_json(args.out)
        print(f"results written to {args.out}")
    if args.csv:
        report.write_csv(args.csv)
        print(f"CSV written to {args.csv}")
    return 0


def _cmd_campaign(args) -> int:
    if args.preset is not None:
        workload: dict = {"preset": args.preset}
    else:
        workload = {"processes": args.processes, "nodes": args.nodes,
                    "seed": args.seed}
    config = CampaignConfig(
        workload=workload,
        k=args.k,
        strategy=args.strategy,
        sampler=args.sampler,
        samples=args.samples,
        chunks=args.chunks,
        seed=args.seed,
        settings=TabuSettings(iterations=args.iterations,
                              neighborhood=args.neighborhood,
                              bus_contention=False),
        certify=args.certify,
        certify_max_scenarios=args.certify_max_scenarios,
        intermittent=args.intermittent,
        slot_faults=args.slot_faults,
        jitter=args.jitter,
    )
    report = run_campaign(config, engine_config=_engine_config(args))
    for line in report.summary_lines():
        print(line)
    hist = report.stats.gap_hist
    if any(hist):
        print("estimate-gap histogram (% of bound):")
        for index, count in enumerate(hist):
            if not count:
                continue
            low = index * HIST_BIN_PCT
            high = low + HIST_BIN_PCT
            label = (f"{low:.0f}+" if index == len(hist) - 1
                     else f"{low:.0f}-{high:.0f}")
            print(f"  {label:>6} %: {count} plan(s)")
    if args.out:
        report.write_json(args.out)
        print(f"report written to {args.out}")
    return 0 if report.ok else 1


def _cmd_dse(args) -> int:
    if args.preset is not None:
        workload: dict = {"preset": args.preset}
    else:
        workload = {"processes": args.processes, "nodes": args.nodes,
                    "seed": args.seed}
    config = DseConfig(
        workload=workload,
        space=SpaceConfig(
            strategies=tuple(args.strategies),
            k_values=tuple(args.k),
            checkpoint_counts=tuple(args.checkpoint_counts),
            transparency_samples=args.transparency_samples,
            seed=args.seed,
        ),
        epsilons=(args.epsilon_length, args.epsilon_transparency,
                  args.epsilon_memory),
        chunks=args.chunks,
        seed=args.seed,
        settings=TabuSettings(iterations=args.iterations,
                              neighborhood=args.neighborhood,
                              bus_contention=False),
        verify_frontier=args.verify_frontier,
        verify_max_scenarios=args.verify_max_scenarios,
    )
    report = run_dse(config, engine_config=_engine_config(args))
    for line in report.summary_lines():
        print(line)
    print()
    print(report.frontier_table())
    if args.out:
        report.write_json(args.out)
        print(f"report written to {args.out}")
    if args.csv:
        report.write_csv(args.csv)
        print(f"CSV written to {args.csv}")
    return 0


def _cmd_lint(args) -> int:
    report = lint_paths(args.paths,
                        rules=args.rule or None,
                        path_filters=args.path or None)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return report.exit_code


def _cmd_worker(args) -> int:
    if args.cache_dir:
        os.environ[CACHE_DIR_ENV] = str(args.cache_dir)
    if args.no_kernels:
        os.environ[KERNELS_ENV] = "0"

    def announce(job, result, elapsed):
        print(f"  [{job.job_id}] done in {elapsed:.1f}s", flush=True)

    summary = work(args.workdir,
                   worker_id=args.worker_id,
                   lease_timeout=args.lease_timeout,
                   max_idle=args.max_idle,
                   wait_for_jobs=args.wait_for_jobs,
                   on_outcome=announce)
    print(f"worker {summary.worker_id}: {summary.claimed} lease(s) "
          f"claimed, {summary.executed} job(s) executed, "
          f"{summary.skipped} skipped, {summary.reclaimed} stale "
          f"lease(s) reclaimed, {summary.lost} lost")
    return 0


#: ``repro --help`` epilog — kept in sync with the subcommands above
#: (tests/test_docs.py audits every command named here against the
#: parser).
_EPILOG = """\
examples:
  repro synth --preset cruise --k 2 --strategy MXR --tables
  repro tables --preset fig5
  repro verify --processes 8 --nodes 2 --k 2 --chunks 4 --workers 4
  repro fig7 --profile quick --workers 4
  repro fig8 --profile quick --workers 4
  repro batch --experiment fig7 --profile paper --workers 4 \\
      --checkpoint fig7.ckpt.jsonl --out fig7.json --csv fig7.csv
  repro campaign --processes 8 --nodes 2 --k 2 --sampler stratified \\
      --samples 200 --chunks 4 --workers 4 --out campaign.json
  repro dse --processes 8 --nodes 2 --k 2 --chunks 4 --workers 4 \\
      --out pareto.json
  repro dse --processes 8 --nodes 2 --k 2 --chunks 12 \\
      --backend workdir --workdir sweep.wd --out pareto.json
  repro worker --workdir sweep.wd
  repro campaign --processes 8 --nodes 2 --k 2 --samples 200 \\
      --cache-dir ~/.cache/repro-eval --out campaign.json
  repro lint src/repro scripts

full reference: docs/cli.md
"""


def _positive_int(text: str) -> int:
    """Argparse type: integer >= 1, rejected at parse time."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a value >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type: float > 0, rejected at parse time."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a value > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synthesis of fault-tolerant embedded systems "
                    "(Eles et al., DATE 2008 reproduction)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version (from the installed "
             "distribution metadata, falling back to pyproject.toml "
             "in a source checkout) and exit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p):
        p.add_argument("--preset",
                       choices=("fig5", "bbw", *SIMPLE_PRESETS),
                       default=None,
                       help="use a built-in workload instead of a "
                            "synthetic one (fig5 and bbw carry "
                            "transparency requirements)")
        p.add_argument("--processes", type=int, default=12)
        p.add_argument("--nodes", type=int, default=3)
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--k", type=int, default=2,
                       help="transient fault budget per cycle")

    def add_search_args(p):
        p.add_argument("--strategy", default="MXR",
                       choices=("MXR", "MX", "MR", "SFX", "MC",
                                "MC_GLOBAL"))
        p.add_argument("--iterations", type=int, default=24)
        p.add_argument("--neighborhood", type=int, default=16)

    def add_engine_args(p):
        """The shared executor/cache flags of every sweep command."""
        p.add_argument("--backend", choices=BACKENDS, default=None,
                       help="where jobs execute: serial (in-process), "
                            "process (worker pool) or workdir "
                            "(multi-host work stealing over a shared "
                            "directory); default auto-selects from "
                            "--workers/--workdir — the report is "
                            "byte-identical either way")
        p.add_argument("--workdir", default=None, metavar="DIR",
                       help="shared directory of the workdir backend "
                            "(job list, chunk leases, per-worker "
                            "result journals); doubles as the "
                            "checkpoint, and extra 'repro worker' "
                            "processes may join from any host "
                            "sharing it")
        p.add_argument("--lease-size", type=_positive_int, default=1,
                       metavar="N",
                       help="jobs per workdir lease (the "
                            "work-stealing granularity)")
        p.add_argument("--lease-timeout", type=_positive_float,
                       default=DEFAULT_LEASE_TIMEOUT, metavar="SEC",
                       help="reclaim a workdir lease whose heartbeat "
                            "is older than this; must exceed the "
                            "longest single job")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent evaluation cache: sweeps "
                            "spill evaluated designs there and "
                            "warm-start from them across runs "
                            "(results are byte-identical with and "
                            "without it); also honored via the "
                            "REPRO_EVAL_CACHE_DIR environment "
                            "variable")
        p.add_argument("--no-kernels", action="store_true",
                       help="replay scenarios one plan at a time "
                            "through the pure-Python simulator instead "
                            "of the batched scenario-replay kernel "
                            "(exported as REPRO_KERNELS=0 so engine "
                            "workers inherit it); reports are "
                            "byte-identical either way")

    p_synth = sub.add_parser("synth", help="run one synthesis strategy")
    add_workload_args(p_synth)
    add_search_args(p_synth)
    p_synth.add_argument("--tables", action="store_true",
                         help="also print the conditional tables")
    p_synth.set_defaults(func=_cmd_synth)

    p_tables = sub.add_parser(
        "tables", help="print conditional schedule tables")
    add_workload_args(p_tables)
    p_tables.set_defaults(func=_cmd_tables)

    p_verify = sub.add_parser(
        "verify",
        help="synthesize and exhaustively verify: every fault "
             "scenario simulated, sharded through the batch engine")
    add_workload_args(p_verify)
    add_search_args(p_verify)
    p_verify.add_argument("--chunks", type=_positive_int, default=4,
                          help="contiguous scenario windows fanned "
                               "out as engine jobs; each chunk "
                               "re-runs the synthesis, so pick "
                               "roughly --workers (the report is "
                               "byte-identical either way)")
    p_verify.add_argument("--workers", type=_positive_int, default=4,
                          help="worker processes (1 runs serially); "
                               "serial and parallel reports are "
                               "byte-identical")
    p_verify.add_argument("--max-scenarios", type=int,
                          default=VerifyConfig().max_scenarios,
                          help="refuse instances beyond this many "
                               "fault scenarios instead of running "
                               "forever")
    p_verify.add_argument("--checkpoint", default=None, metavar="PATH",
                          help="JSONL checkpoint of completed "
                               "scenario windows (enables resume)")
    p_verify.add_argument("--no-resume", action="store_true",
                          help="ignore an existing checkpoint file")
    p_verify.add_argument("--out", default=None, metavar="PATH",
                          help="write the canonical JSON "
                               "verification report")
    p_verify.add_argument("--des-scenarios", type=int, default=0,
                          metavar="N",
                          help="additionally run N sampled scenarios "
                               "extended with DES-only fault axes "
                               "through the event-driven simulator "
                               "(reported, but beyond the k-fault "
                               "hypothesis, so they do not gate the "
                               "certificate)")
    p_verify.add_argument("--intermittent", type=int, default=1,
                          metavar="N",
                          help="intermittent fault windows per DES "
                               "scenario")
    p_verify.add_argument("--slot-faults", type=int, default=1,
                          metavar="N",
                          help="corrupted TDMA slot occurrences per "
                               "DES scenario")
    p_verify.add_argument("--jitter", type=float, default=0.0,
                          metavar="T",
                          help="maximum per-process release jitter "
                               "for DES scenarios (0 disables)")
    add_engine_args(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    for name, handler in (("fig7", _cmd_fig7), ("fig8", _cmd_fig8)):
        p_fig = sub.add_parser(name,
                               help=f"run the paper's {name} sweep")
        p_fig.add_argument("--profile", choices=("quick", "paper"),
                           default="quick")
        p_fig.add_argument("--workers", type=_positive_int, default=1,
                           help="worker processes for the sweep cells")
        p_fig.set_defaults(func=handler)

    p_batch = sub.add_parser(
        "batch",
        help="run a sweep through the parallel batch engine")
    p_batch.add_argument("--experiment", choices=("fig7", "fig8"),
                         required=True)
    p_batch.add_argument("--profile", choices=("quick", "paper"),
                         default="quick")
    p_batch.add_argument("--workers", type=_positive_int, default=1,
                         help="worker processes (1 runs serially)")
    p_batch.add_argument("--checkpoint", default=None, metavar="PATH",
                         help="JSONL checkpoint of completed cells "
                              "(enables resume)")
    p_batch.add_argument("--no-resume", action="store_true",
                         help="ignore an existing checkpoint file")
    p_batch.add_argument("--out", default=None, metavar="PATH",
                         help="write the full JSON report")
    p_batch.add_argument("--csv", default=None, metavar="PATH",
                         help="write one CSV row per sweep cell")
    add_engine_args(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_camp = sub.add_parser(
        "campaign",
        help="Monte Carlo fault-injection campaign on one design")
    p_camp.add_argument("--preset", choices=PRESET_WORKLOADS,
                        default=None,
                        help="use a built-in workload instead of a "
                             "synthetic one")
    p_camp.add_argument("--processes", type=int, default=8)
    p_camp.add_argument("--nodes", type=int, default=2)
    p_camp.add_argument("--seed", type=int, default=1,
                        help="workload seed; also seeds the campaign's "
                             "derived tabu/sampling streams")
    p_camp.add_argument("--k", type=int, default=2,
                        help="transient fault budget per cycle")
    p_camp.add_argument("--strategy", default="MXR",
                        choices=("MXR", "MX", "MR", "SFX", "MC",
                                 "MC_GLOBAL"))
    p_camp.add_argument("--iterations", type=int, default=8)
    p_camp.add_argument("--neighborhood", type=int, default=8)
    p_camp.add_argument("--sampler", choices=SAMPLERS,
                        default="stratified",
                        help="fault-plan sampling strategy")
    p_camp.add_argument("--samples", type=int, default=200,
                        help="faulty plans to sample (ignored by the "
                             "exhaustive sampler)")
    p_camp.add_argument("--chunks", type=_positive_int, default=4,
                        help="plan chunks fanned out as engine jobs; "
                             "each chunk re-runs the synthesis, so "
                             "pick roughly --workers (kept "
                             "independent of --workers because the "
                             "chunking determines the report's "
                             "deterministic fold order)")
    p_camp.add_argument("--workers", type=_positive_int, default=4,
                        help="worker processes (1 runs serially); "
                             "the default matches --chunks so the "
                             "per-chunk synthesis cost buys "
                             "parallelism")
    p_camp.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="JSONL checkpoint of completed chunks "
                             "(enables resume)")
    p_camp.add_argument("--no-resume", action="store_true",
                        help="ignore an existing checkpoint file")
    p_camp.add_argument("--out", default=None, metavar="PATH",
                        help="write the canonical JSON campaign report")
    p_camp.add_argument("--certify", action="store_true",
                        help="follow the sampled campaign with an "
                             "exhaustive sharded verification of the "
                             "same design and fold the certificate "
                             "into the report (exit code includes it)")
    p_camp.add_argument("--certify-max-scenarios", type=int,
                        default=CampaignConfig().certify_max_scenarios,
                        help="skip the certificate (keeping the "
                             "sampled report) when the design has "
                             "more fault scenarios than this")
    p_camp.add_argument("--intermittent", type=int, default=0,
                        metavar="N",
                        help="extend every sampled faulty plan with "
                             "N intermittent fault windows and route "
                             "the campaign through the event-driven "
                             "simulator")
    p_camp.add_argument("--slot-faults", type=int, default=0,
                        metavar="N",
                        help="corrupted TDMA slot occurrences per "
                             "sampled faulty plan (DES-only axis)")
    p_camp.add_argument("--jitter", type=float, default=0.0,
                        metavar="T",
                        help="maximum per-process release jitter per "
                             "sampled faulty plan (DES-only axis; "
                             "0 disables)")
    add_engine_args(p_camp)
    p_camp.set_defaults(func=_cmd_campaign)

    p_dse = sub.add_parser(
        "dse",
        help="Pareto design-space exploration over policy strategy, "
             "k, checkpoint counts and transparency vectors")
    p_dse.add_argument("--preset", choices=PRESET_WORKLOADS,
                       default=None,
                       help="use a built-in workload instead of a "
                            "synthetic one")
    p_dse.add_argument("--processes", type=int, default=8)
    p_dse.add_argument("--nodes", type=int, default=2)
    p_dse.add_argument("--seed", type=int, default=1,
                       help="workload seed; also seeds the derived "
                            "tabu and transparency-sampling streams")
    p_dse.add_argument("--k", type=int, nargs="+", default=[2],
                       metavar="K",
                       help="fault budget(s) to explore; designs are "
                            "only comparable at equal k, so each "
                            "budget gets its own frontier")
    p_dse.add_argument("--strategies", nargs="+",
                       choices=DSE_STRATEGIES,
                       default=list(DSE_STRATEGIES),
                       help="policy strategies to include")
    p_dse.add_argument("--checkpoint-counts", type=int, nargs="+",
                       default=[0, 1, 2], metavar="N",
                       help="uniform checkpoint counts applied to the "
                            "recovering copies (0 keeps the design "
                            "as synthesized)")
    p_dse.add_argument("--transparency-samples", type=int, default=4,
                       help="seeded random transparency vectors on "
                            "top of the structured families")
    p_dse.add_argument("--epsilon-length", type=float,
                       default=DEFAULT_EPSILONS[0],
                       help="epsilon-box edge for the schedule-length "
                            "objective (time units)")
    p_dse.add_argument("--epsilon-transparency", type=float,
                       default=DEFAULT_EPSILONS[1],
                       help="epsilon-box edge for the transparency "
                            "objective (fraction)")
    p_dse.add_argument("--epsilon-memory", type=float,
                       default=DEFAULT_EPSILONS[2],
                       help="epsilon-box edge for the FT memory "
                            "objective (bytes)")
    p_dse.add_argument("--iterations", type=int, default=8)
    p_dse.add_argument("--neighborhood", type=int, default=8)
    p_dse.add_argument("--chunks", type=_positive_int, default=4,
                       help="candidate chunks fanned out as engine "
                            "jobs; each chunk re-runs the "
                            "per-(strategy, k) synthesis, so pick "
                            "roughly --workers (the frontier is "
                            "independent of the layout either way)")
    p_dse.add_argument("--workers", type=_positive_int, default=4,
                       help="worker processes (1 runs serially); "
                            "serial and parallel frontiers are "
                            "byte-identical")
    p_dse.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="JSONL checkpoint of completed chunks "
                            "(enables resume)")
    p_dse.add_argument("--no-resume", action="store_true",
                       help="ignore an existing checkpoint file")
    p_dse.add_argument("--out", default=None, metavar="PATH",
                       help="write the canonical JSON report "
                            "(archive + frontier)")
    p_dse.add_argument("--csv", default=None, metavar="PATH",
                       help="write one CSV row per frontier point")
    p_dse.add_argument("--verify-frontier", action="store_true",
                       help="exhaustively verify every frontier "
                            "design and flag it certified/failed in "
                            "the table, JSON and CSV")
    p_dse.add_argument("--verify-max-scenarios", type=int,
                       default=DseConfig().verify_max_scenarios,
                       help="skip certifying frontier designs with "
                            "more fault scenarios than this (flagged "
                            "as '-' instead)")
    add_engine_args(p_dse)
    p_dse.set_defaults(func=_cmd_dse)

    p_lint = sub.add_parser(
        "lint",
        help="statically check the repo's determinism, seeded-RNG "
             "and crash-safe-I/O contracts (rules REP001-REP008; "
             "exit code = violation count, capped)")
    p_lint.add_argument("paths", nargs="+", metavar="PATH",
                        help="files or directories to scan "
                             "recursively for *.py modules")
    p_lint.add_argument("--rule", action="append", choices=RULE_IDS,
                        default=None, metavar="REP00x",
                        help="check only the named rule(s); "
                             "repeatable (default: all rules)")
    p_lint.add_argument("--path", action="append", default=None,
                        metavar="FRAGMENT",
                        help="only lint files whose path contains "
                             "this fragment; repeatable")
    p_lint.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="report format: flake8-style text or "
                             "canonical JSON")
    p_lint.set_defaults(func=_cmd_lint)

    p_worker = sub.add_parser(
        "worker",
        help="join a --backend workdir sweep as an extra "
             "work-stealing worker (claim leases, run jobs, journal "
             "results); run it on any host sharing the directory")
    p_worker.add_argument("--workdir", required=True, metavar="DIR",
                          help="the sweep's shared directory (as "
                               "passed to the coordinator's "
                               "--workdir)")
    p_worker.add_argument("--worker-id", default=None, metavar="ID",
                          help="stable worker identity (default: "
                               "host-pid-random); names this "
                               "worker's result journal and lease "
                               "claims")
    p_worker.add_argument("--lease-timeout", type=_positive_float,
                          default=DEFAULT_LEASE_TIMEOUT,
                          metavar="SEC",
                          help="reclaim other workers' leases whose "
                               "heartbeat is older than this; use "
                               "the coordinator's value")
    p_worker.add_argument("--max-idle", type=_positive_float,
                          default=None, metavar="SEC",
                          help="exit after this many consecutive "
                               "idle seconds with no claimable "
                               "lease (default: stay until every "
                               "chunk is done)")
    p_worker.add_argument("--wait-for-jobs", type=_positive_float,
                          default=60.0, metavar="SEC",
                          help="tolerate starting before the "
                               "coordinator published the job list "
                               "by polling this long for it")
    p_worker.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="persistent evaluation cache shared "
                               "with the coordinator (see the sweep "
                               "commands' --cache-dir)")
    p_worker.add_argument("--no-kernels", action="store_true",
                          help="force per-plan scenario replay (see "
                               "the sweep commands' --no-kernels)")
    p_worker.set_defaults(func=_cmd_worker)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    A library error (any :class:`~repro.errors.ReproError`, e.g. an
    invalid workload or an over-limit scenario count) prints one
    ``repro: error: ...`` line and exits 2 — the code argparse uses
    for usage errors — instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_engine_flags(parser, args)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
