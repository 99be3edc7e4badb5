"""Batched scenario-replay kernel (bit-identical).

The table-replay simulator in :mod:`repro.runtime.simulator` spends
most of its time rebuilding per-run context (ground-truth dictionaries,
guard evaluation) for every fault scenario of one design. This package
lowers one design's schedule into flat integer-indexed tables **once**
and advances many fault plans through them:

* :mod:`repro.kernels.batch` — a batched scenario kernel advancing
  many fault plans of one design through the table replay with
  delta ground truth and delta guard evaluation, behind
  :func:`~repro.kernels.batch.replay_plans`, the one switch point
  every scenario-replay loop goes through.

Bit-identity is the acceptance gate: the kernel performs the
*identical* IEEE arithmetic in the *identical* order as the
pure-Python replay, so every simulation result and report matches
byte for byte. ``REPRO_KERNELS=0`` forces per-plan
:func:`~repro.runtime.simulator.simulate` in ``replay_plans`` — the
library's only escape hatch, and the mode the differential tests in
``tests/test_oracle.py`` compare against.

Integer and float tables use plain Python ``list``/``array`` storage;
:mod:`numpy`, when importable, accelerates only the int8 guard/state
masks of the batched kernel (never float math — a leaked
``np.float64`` would poison JSON payloads and byte-identity).
"""

from __future__ import annotations

import os

__all__ = [
    "KERNELS_ENV",
    "KernelCounters",
    "counters",
    "kernels_enabled",
    "kernels_info",
]

#: Environment variable of the escape hatch (``0`` forces the oracle).
KERNELS_ENV = "REPRO_KERNELS"


def kernels_enabled() -> bool:
    """Process-wide switch for the batched scenario-replay kernel.

    ``REPRO_KERNELS=0`` (or ``false``/``off``/``no``) forces per-plan
    table replay in :func:`~repro.kernels.batch.replay_plans` — the
    mode the identity tests and benchmark baselines compare against.
    Read at every decision point, so tests can flip it per case and
    worker processes inherit the choice through their environment.
    """
    value = os.environ.get(KERNELS_ENV, "1")
    return value.strip().lower() not in ("0", "false", "off", "no")


def kernels_info(*, compiled_tables: int,
                 batched_scenarios: int) -> dict:
    """The ``kernels`` telemetry block reports embed.

    ``compiled_tables`` and ``batched_scenarios`` are deterministic
    functions of the workload shape (how many table sets the run
    implies and how many scenarios are batch-eligible), **not** live
    counters — so a report differs between kernels-on and
    ``REPRO_KERNELS=0`` runs in exactly one value: ``enabled``. The
    differential tests normalize that single key and assert the rest
    byte-identical.
    """
    return {
        "enabled": kernels_enabled(),
        "compiled_tables": compiled_tables,
        "batched_scenarios": batched_scenarios,
    }


class KernelCounters:
    """Process-local kernel telemetry (diagnostics, not reports).

    Reports derive their ``kernels`` block from deterministic workload
    shape (see ``docs/kernels.md``) so kernels-on and kernels-off runs
    stay byte-identical; these live counters exist for tests and
    interactive inspection only.
    """

    __slots__ = ("schedules_compiled", "batched_scenarios",
                 "oracle_fallbacks")

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.schedules_compiled = 0
        self.batched_scenarios = 0
        self.oracle_fallbacks = 0

    def snapshot(self) -> dict[str, int]:
        """Counter values as a plain dict."""
        return {
            "schedules_compiled": self.schedules_compiled,
            "batched_scenarios": self.batched_scenarios,
            "oracle_fallbacks": self.oracle_fallbacks,
        }


#: The process-wide counter instance.
counters = KernelCounters()
