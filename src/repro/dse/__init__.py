"""Pareto design-space exploration (``repro dse``).

The paper argues that transparency, fault-tolerance policy and
schedule length form a *trade-off surface* (§3.3: "the designer can
trade-off between the degree of transparency and the quality of the
schedules"), but its flow synthesizes one design at a time. This
package explores the surface:

* :mod:`repro.dse.space` — the candidate space: policy strategy
  (MXR/MX/MR/SFX), fault budget ``k``, uniform checkpoint counts, and
  per-process/per-message transparency vectors (named levels, a
  priority ladder, seeded random samples), enumerated in one
  deterministic numbered order;
* :mod:`repro.dse.archive` — the epsilon-dominance Pareto archive
  over (worst-case schedule length, transparency degree, FT memory
  overhead), one frontier per fault budget; the final frontier is a
  set function of the evaluated points, so merges are exact;
* :mod:`repro.dse.explorer` — the driver: candidate chunks fan out as
  pure jobs through the :mod:`repro.engine` batch engine (process-pool
  parallelism, resumable JSONL checkpoints, byte-identical serial vs
  parallel frontiers), each chunk sharing one
  :class:`~repro.eval.EvaluatorPool` across its synthesis calls.

See ``docs/dse.md`` for the full picture and
:mod:`repro.experiments.pareto` for the multi-workload sweep built on
top.
"""

from repro.dse.archive import DesignPoint, ParetoArchive, dominates
from repro.dse.explorer import (
    CHUNK_RUNNER,
    DEFAULT_EPSILONS,
    OBJECTIVE_NAMES,
    DseConfig,
    DseReport,
    apply_checkpoint_counts,
    certify_frontier,
    dse_jobs,
    evaluate_candidate,
    merge_dse_cells,
    run_dse,
    run_dse_chunk,
)
from repro.dse.space import (
    DSE_STRATEGIES,
    Candidate,
    SpaceConfig,
    TransparencySpec,
    enumerate_candidates,
    space_size,
    transparency_specs,
)

__all__ = [
    "CHUNK_RUNNER",
    "DEFAULT_EPSILONS",
    "DSE_STRATEGIES",
    "OBJECTIVE_NAMES",
    "Candidate",
    "DesignPoint",
    "DseConfig",
    "DseReport",
    "ParetoArchive",
    "SpaceConfig",
    "TransparencySpec",
    "apply_checkpoint_counts",
    "certify_frontier",
    "dominates",
    "dse_jobs",
    "enumerate_candidates",
    "evaluate_candidate",
    "merge_dse_cells",
    "run_dse",
    "run_dse_chunk",
    "space_size",
    "transparency_specs",
]
