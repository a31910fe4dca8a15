"""Shard layout for per-EDP replay.

Every EDP's requests come from its own ``(EDP, slot)``-keyed
:class:`~repro.serve.stream.RequestStream` cells, so how EDPs are
grouped into replay shards never changes what any of them draws.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.runtime import partition_indices


def partition_edps(n_edps: int, n_shards: int) -> List[Tuple[int, ...]]:
    """Contiguous, near-even EDP groups for sharded replay.

    The shard *grouping* never affects results (each EDP's stream is
    self-contained); it only sets the parallel grain.  Shard counts
    beyond ``n_edps`` collapse to one EDP per shard, and zero EDPs
    yield zero shards (the engine itself still requires a non-empty
    population).  Delegates to the runtime's generic
    :func:`repro.runtime.partition_indices`.
    """
    if n_edps < 0:
        raise ValueError(f"EDP count cannot be negative, got {n_edps}")
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    return partition_indices(n_edps, n_shards)
