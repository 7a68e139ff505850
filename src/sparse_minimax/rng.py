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

from dataclasses import dataclass

import numpy as np

ROLE_DESIGN = 1
ROLE_NOISE = 2
ROLE_SUPPORT = 3
ROLE_RESTART = 4
ROLE_PROBE = 5
ROLE_CELL = 6

_U64 = 2**64


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
        directions, grid cells). A tail-registry grid cell i owns the 16
        slots 16i ... 16i+15: a vector row draws the j-th of 16 fixed
        ranges of its replicates from slot 16i+j, and a matrix row draws
        every replicate from slot 16i.
        """
        if not (0 <= role < _U64):
            raise ValueError(f"role must be an unsigned 64-bit int, got {role}")
        if not (0 <= slot < _U64):
            raise ValueError(f"slot must be an unsigned 64-bit int, got {slot}")
        bitgen = np.random.Philox(
            counter=[0, 0, slot, role], key=[self.master_seed, self.stream_id]
        )
        return np.random.Generator(bitgen)
