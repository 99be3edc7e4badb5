"""Scheduling (paper §5 and §6).

Three schedulers share the same models:

* :mod:`repro.schedule.list_scheduler` — plain fault-free list
  scheduling; produces the non-fault-tolerant baseline length used in
  the FTO metric (paper §6).
* :mod:`repro.schedule.estimation` — fault-tolerant schedule *length
  estimation* with recovery-slack sharing; the cheap cost function
  driving design optimization, as in [13].
* :mod:`repro.schedule.conditional` — the exact quasi-static
  conditional scheduler; explores every fault context and emits the
  conditional schedule tables of paper §5.2 (Fig. 6).
"""

from repro.schedule.mapping import CopyMapping
from repro.schedule.priorities import partial_critical_path_priorities
from repro.schedule.list_scheduler import FaultFreeSchedule, schedule_fault_free
from repro.schedule.estimation import (
    EstimatorState,
    FtEstimate,
    estimate_ft_schedule,
    solution_fingerprint,
)
from repro.schedule.conditional import ConditionalScheduler, synthesize_schedule
from repro.schedule.table import EntryKind, ScheduleSet, TableEntry
from repro.schedule.render import render_node_table, render_schedule_set
from repro.schedule.analysis import fault_tolerance_overhead
from repro.schedule.metrics import (
    FtMemoryOverhead,
    NodeTableSize,
    ScheduleMetrics,
    ft_memory_overhead,
    process_state_bytes,
    schedule_metrics,
    transparency_degree,
)
from repro.schedule.serialization import (
    dump_schedule,
    load_schedule,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.schedule.validation import assert_valid_schedule, validate_schedule

# Last on purpose: repro.eval imports the scheduling modules above.
from repro.eval.core import CacheStats

__all__ = [
    "ConditionalScheduler",
    "CopyMapping",
    "EntryKind",
    "FaultFreeSchedule",
    "CacheStats",
    "EstimatorState",
    "FtEstimate",
    "FtMemoryOverhead",
    "solution_fingerprint",
    "NodeTableSize",
    "ScheduleMetrics",
    "ScheduleSet",
    "TableEntry",
    "assert_valid_schedule",
    "dump_schedule",
    "load_schedule",
    "schedule_from_dict",
    "schedule_metrics",
    "schedule_to_dict",
    "validate_schedule",
    "estimate_ft_schedule",
    "fault_tolerance_overhead",
    "ft_memory_overhead",
    "process_state_bytes",
    "transparency_degree",
    "partial_critical_path_priorities",
    "render_node_table",
    "render_schedule_set",
    "schedule_fault_free",
    "synthesize_schedule",
]
