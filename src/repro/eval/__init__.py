"""repro.eval — the unified incremental evaluation core.

One layer answers every "how good is this candidate?" question in the
synthesis flow:

* :class:`ScheduleProblem` interns the fixed context (application,
  architecture, fault model, PCP priorities) behind a canonical
  fingerprint;
* :class:`Evaluator` is the per-problem facade with a tiered cache —
  slack-sharing estimates (with **incremental** single-move
  re-evaluation via
  :class:`~repro.schedule.estimation.EstimatorState`), exact
  conditional schedules, and derived design metrics;
* :class:`EvaluatorPool` hands out evaluators per problem and is what
  sweep cells share across strategies and fault budgets.

The tabu engine (:mod:`repro.synthesis.tabu`), the policy-refinement
sweep and checkpoint descent (:mod:`repro.synthesis`), the Pareto
explorer (:mod:`repro.dse`) and the fault-injection campaigns
(:mod:`repro.campaigns`) are all wired through this layer.
"""

from repro.eval.core import (
    DEFAULT_MAX_ENTRIES,
    DEFAULT_MAX_SCHEDULES,
    CacheStats,
    DesignEvaluation,
    Evaluator,
    EvaluatorPool,
    EvaluatorStats,
)
from repro.eval.diskcache import (
    CACHE_DIR_ENV,
    DiskCache,
    DiskCacheStats,
    cache_dir_default,
)
from repro.eval.problem import (
    ScheduleProblem,
    problem_fingerprint,
    workload_fingerprint,
)
from repro.schedule.estimation import EstimatorState, solution_fingerprint

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MAX_SCHEDULES",
    "CacheStats",
    "DesignEvaluation",
    "DiskCache",
    "DiskCacheStats",
    "EstimatorState",
    "Evaluator",
    "EvaluatorPool",
    "EvaluatorStats",
    "ScheduleProblem",
    "cache_dir_default",
    "problem_fingerprint",
    "solution_fingerprint",
    "workload_fingerprint",
]
