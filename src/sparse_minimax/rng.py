"""Counter-based random streams.

Every random draw in the package is addressed by (master_seed, stream_id, role):
the first two words form the Philox key, the role is planted in the top word of
the 256-bit counter. Replicate r of an experiment uses stream_id=r, so any
replicate can be regenerated in isolation, and the roles below keep the design,
noise, and auxiliary draws of one replicate on non-overlapping counter ranges.

Normal variates come from numpy's Generator.standard_normal (ziggurat); the
method is part of the reproducibility contract and must not be swapped.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

ROLE_DESIGN = 1
ROLE_NOISE = 2
ROLE_SUPPORT = 3
ROLE_RESTART = 4
ROLE_PROBE = 5
ROLE_CELL = 6

SUBSTREAMS = 16  # fixed ranges per parallel draw; see SeedSpec.generator

_U64 = 2**64


def map_indexed(fn, count: int, workers: int) -> list:
    """``[fn(i) for i in range(count)]``, in index order.

    Runs on the calling thread with one worker or at most one item, and on
    ``min(workers, count)`` pool threads otherwise. Every parallel draw in
    the package goes through here; when fn(i) depends on i alone, as a
    range drawing from its own slot does, the list does not depend on
    ``workers``.
    """
    if workers == 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=min(workers, count)) as pool:
        return list(pool.map(fn, range(count)))


def substream_edges(count: int) -> list[int]:
    """Bounds of the SUBSTREAMS ranges of ``count`` items: range j holds
    items edges[j] up to edges[j + 1] (the rule in SeedSpec.generator)."""
    return [count * j // SUBSTREAMS for j in range(SUBSTREAMS + 1)]


@dataclass(frozen=True)
class SeedSpec:
    """Address of one random stream: (master_seed, stream_id) -> bytes is pure."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.master_seed < _U64):
            raise ValueError(f"master_seed must be an unsigned 64-bit int, got {self.master_seed}")
        if not (0 <= self.stream_id < _U64):
            raise ValueError(f"stream_id must be an unsigned 64-bit int, got {self.stream_id}")

    def generator(self, role: int = 0, slot: int = 0) -> np.random.Generator:
        """Fresh generator for this stream.

        Distinct (role, slot) pairs never share counter ranges: the role
        sits in the top counter word, the slot one word below, and block
        increments only touch the bottom words. Slots index repeated draws
        of the same kind inside one stream (descent restarts, probe
        directions, grid cells).

        A draw that may run on several threads is split by one rule. Its
        ``count`` items (a design's columns, a registry cell's replicates)
        form SUBSTREAMS = 16 fixed contiguous ranges, range j holding items
        count*j//16 up to count*(j+1)//16 (``substream_edges``), and range
        j is drawn in item order from slot ``base + j``. The bytes then
        depend on neither the thread count nor any chunking inside a range.
        ``design.gen_design`` uses base 0 of the design role; tail-registry
        grid cell i uses base 16i of the cell role (``tails._chunked``).
        """
        if not (0 <= role < _U64):
            raise ValueError(f"role must be an unsigned 64-bit int, got {role}")
        if not (0 <= slot < _U64):
            raise ValueError(f"slot must be an unsigned 64-bit int, got {slot}")
        bitgen = np.random.Philox(
            counter=[0, 0, slot, role], key=[self.master_seed, self.stream_id]
        )
        return np.random.Generator(bitgen)
