"""Scenario windows of the sharded verifier.

``repro verify`` slices the :func:`repro.ftcpg.scenarios.
iter_fault_plans` order into **contiguous** windows, one per engine
chunk; each window is replayed through
:func:`repro.kernels.batch.replay_plans`. The window layout is part of
the report contract (every chunk records its ``start``/``stop``), so
it stays fixed.
"""

from __future__ import annotations


def chunk_bounds(total: int, chunk: int, chunks: int,
                 ) -> tuple[int, int]:
    """The contiguous scenario window ``[start, stop)`` of one shard.

    The windows partition ``range(total)`` exactly and differ in size
    by at most one.
    """
    if chunks < 1:
        raise ValueError(f"chunks must be >= 1, got {chunks}")
    if not 0 <= chunk < chunks:
        raise ValueError(f"chunk must be in [0, {chunks}), got {chunk}")
    return chunk * total // chunks, (chunk + 1) * total // chunks
