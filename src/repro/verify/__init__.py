"""Scalable verification of synthesized schedule tables.

The proof side of the synthesis flow: where campaigns *sample* fault
scenarios, this package simulates **all** of them — sharded through
the batch engine and replayed through the batched scenario kernel —
and certifies the paper's central claim that the tables tolerate any
``k`` transient faults under the chosen transparency contract.
:mod:`repro.runtime.verify` remains as a thin serial shim over this
package.
"""

from repro.verify.core import chunk_bounds
from repro.verify.runner import (
    DEFAULT_MAX_SCENARIOS,
    VerifyConfig,
    VerifyReport,
    load_verify_workload,
    merge_verify_cells,
    run_verification,
    run_verify_chunk,
    verify_jobs,
)
from repro.verify.stats import (
    FaultCountBin,
    FrozenStartStat,
    VerificationStats,
)

__all__ = [
    "DEFAULT_MAX_SCENARIOS",
    "FaultCountBin",
    "FrozenStartStat",
    "VerificationStats",
    "VerifyConfig",
    "VerifyReport",
    "chunk_bounds",
    "load_verify_workload",
    "merge_verify_cells",
    "run_verification",
    "run_verify_chunk",
    "verify_jobs",
]
