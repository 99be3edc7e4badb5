"""Batch experiment engine: parallel sweeps with estimation caching.

The paper's evaluation figures are sweeps over grids of synthetic
applications; this package turns such sweeps into first-class batch
runs:

* :mod:`repro.engine.jobs` — the unit of work: a picklable, pure
  :class:`~repro.engine.jobs.BatchJob` referencing its runner by
  import path;
* :mod:`repro.engine.grid` — cartesian axis expansion into jobs with
  stable ids;
* :mod:`repro.engine.runner` — the :class:`~repro.engine.runner.
  BatchEngine`: pluggable execution backends, JSONL checkpointing of
  completed cells, resume, and deterministic JSON/CSV reports;
* :mod:`repro.engine.backends` — where jobs execute: ``serial``
  (in-process), ``process`` (single-host pool) and ``workdir``
  (multi-host work stealing over a shared directory,
  :mod:`repro.engine.workdir`); all three produce byte-identical
  reports;
* :mod:`repro.engine.journal` — torn-tail-safe JSONL journals shared
  by the checkpoint file and the workdir result files;
* evaluation caching — every sweep cell shares one
  :class:`~repro.eval.EvaluatorPool` (the unified evaluation core of
  :mod:`repro.eval`, re-exported here) memoizing the slack-sharing
  schedule estimate behind a canonical solution fingerprint — the
  dominant cost inside every cell — plus exact schedules and design
  metrics in deeper tiers.

The Fig. 7 / Fig. 8 harnesses of :mod:`repro.experiments` route
through this engine (``repro batch`` on the command line).
"""

from repro.engine.backends import (
    BACKENDS,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    WorkdirBackend,
    create_backend,
)
from repro.engine.grid import grid_jobs
from repro.engine.jobs import BatchJob, resolve_runner, run_job
from repro.engine.runner import (
    BatchEngine,
    BatchReport,
    EngineConfig,
    JobOutcome,
    run_batch,
)
from repro.engine.workdir import Workdir, WorkerSummary, work
from repro.eval import (
    CacheStats,
    Evaluator,
    EvaluatorPool,
    EvaluatorStats,
    solution_fingerprint,
)

__all__ = [
    "BACKENDS",
    "BatchEngine",
    "BatchJob",
    "BatchReport",
    "CacheStats",
    "EngineConfig",
    "Evaluator",
    "EvaluatorPool",
    "EvaluatorStats",
    "ExecutorBackend",
    "JobOutcome",
    "ProcessBackend",
    "SerialBackend",
    "Workdir",
    "WorkdirBackend",
    "WorkerSummary",
    "create_backend",
    "grid_jobs",
    "resolve_runner",
    "run_batch",
    "run_job",
    "solution_fingerprint",
    "work",
]
