"""Counter-based random streams, and how many threads and bytes a draw may use.

Every random draw in the package is addressed by (master_seed, stream_id, role):
the first two words form the Philox key, the role is planted in the top word of
the 256-bit counter. Replicate r of an experiment uses stream_id=r, so any
replicate can be regenerated in isolation, and the roles below keep the design,
noise, and auxiliary draws of one replicate on non-overlapping counter ranges.

Normal variates come from numpy's Generator.standard_normal (ziggurat); the
method is part of the reproducibility contract and must not be swapped.

A command's thread and memory policy lives here too: ``worker_count``
resolves the thread count, ``admit`` hands the freed C heap back to the OS
and then refuses a working set the memory budget cannot hold, and
``draw_ranges`` runs a draw's 16 fixed ranges on threads. No other module
starts a thread, reads the cgroup files or trims the C heap.
"""

from __future__ import annotations

import ctypes
import os
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

_THREADS_ENV = "SPARSE_MINIMAX_THREADS"


class CapacityError(RuntimeError):
    """A working set would not fit: more support subsets than the
    enumeration cap, or more bytes than the memory budget."""


def _read_cgroup_file(path: str) -> str | None:
    """Stripped contents of a cgroup control file (or of /proc/meminfo),
    or None if unreadable."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read().strip()
    except (OSError, UnicodeDecodeError):
        return None


def _cgroup_cpu_limit() -> int | None:
    """CPUs granted by the cgroup CPU quota, rounded up; None when no quota
    is set. Reads cgroup v2's cpu.max, else v1's cfs quota and period."""
    v2 = _read_cgroup_file("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        quota, _, period = v2.partition(" ")
    else:
        quota = _read_cgroup_file("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") or ""
        period = _read_cgroup_file("/sys/fs/cgroup/cpu/cpu.cfs_period_us") or ""
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max", or no cgroup files at all
        return None
    if quota_us <= 0 or period_us <= 0:  # v1 writes -1 for no quota
        return None
    return -(-quota_us // period_us)


def _memory_budget() -> int | None:
    """Bytes this process may use: the smaller of the cgroup memory limit
    (v2's memory.max, else v1's limit_in_bytes) and MemAvailable from
    /proc/meminfo; None when neither is readable."""
    limits = []
    raw = _read_cgroup_file("/sys/fs/cgroup/memory.max") or _read_cgroup_file(
        "/sys/fs/cgroup/memory/memory.limit_in_bytes"
    )
    try:
        limits.append(int(raw))
    except (TypeError, ValueError):  # no cgroup files at all, or "max"
        pass
    for line in (_read_cgroup_file("/proc/meminfo") or "").splitlines():
        key, _, value = line.partition(":")
        if key == "MemAvailable":
            try:
                limits.append(int(value.split()[0]) * 1024)  # reported in kB
            except (IndexError, ValueError):
                pass
    return min(limits) if limits else None


def _c_function(name: str, restype, *argtypes):
    """The C library's function ``name`` with its signature declared, or
    None where the library has none."""
    try:
        fn = getattr(ctypes.CDLL(None), name)
    except (OSError, AttributeError, TypeError):  # TypeError: no CDLL(None) on Windows
        return None
    fn.restype, fn.argtypes = restype, argtypes
    return fn


# glibc's, absent from other C libraries. glibc raises its mmap threshold
# to the size of any freed mmapped block (up to 32 MiB) and its trim
# threshold to twice that, so once a 30 MiB Gram matrix has been freed,
# blocks of that size and the 8 MB registry draw buffers come from the
# heap, and tens of MB of freed heap can stay with the process from one
# command to the next.
_malloc_trim = _c_function("malloc_trim", ctypes.c_int, ctypes.c_size_t)


def admit(need: int, what: str, held: str) -> None:
    """Raise CapacityError, before anything is allocated or drawn, when
    ``what`` needs ``need`` bytes (``held`` lists them) and the memory
    budget is smaller. An unreadable budget admits everything. The C
    heap's free pages go back to the OS first, so the budget counts them
    as available and the working set starts from a trimmed heap."""
    if _malloc_trim is not None:
        _malloc_trim(0)
    budget = _memory_budget()
    if budget is not None and need > budget:
        raise CapacityError(
            f"{what} needs about {need} bytes ({held}), more than the {budget} bytes available"
        )


def worker_count(requested: int | None = None, worker_bytes: int | None = None) -> int:
    """Thread count for a draw: SPARSE_MINIMAX_THREADS if set, otherwise
    ``requested``, otherwise the number of CPUs this process may run on,
    capped by the cgroup CPU quota. When each thread holds ``worker_bytes``
    of its own (a tail-registry draw buffer), every one of these is also
    capped by how many such threads fit in the memory budget (at least
    one). Results never depend on this."""
    raw = os.environ.get(_THREADS_ENV)
    if raw is not None:
        try:
            count = int(raw)
        except ValueError:
            raise ValueError(f"{_THREADS_ENV} must be an integer, got {raw!r}") from None
        if count < 1:
            raise ValueError(f"{_THREADS_ENV} must be at least 1, got {raw}")
    elif requested is not None:
        if requested < 1:
            raise ValueError(f"threads must be at least 1, got {requested}")
        count = requested
    else:
        if hasattr(os, "sched_getaffinity"):  # Linux: honours CPU affinity
            count = len(os.sched_getaffinity(0))
        else:
            count = os.cpu_count() or 1
        limit = _cgroup_cpu_limit()
        if limit is not None:
            count = min(count, limit)
    budget = _memory_budget() if worker_bytes else None
    if budget is not None:
        count = min(count, max(1, budget // worker_bytes))
    return count


def draw_ranges(count: int, fill, threads: int) -> None:
    """Split ``count`` items into the SUBSTREAMS ranges of
    ``SeedSpec.generator``'s rule and call ``fill(j, lo, hi, t)`` once for
    each range j, which holds items lo = count*j//16 up to
    hi = count*(j+1)//16.

    The ranges run on w = min(threads, 16) threads (``threads`` already
    resolved by ``worker_count``): thread t takes ranges t, t+w, ... in
    turn, so ``t`` can index a buffer of that thread's own. One thread runs
    them on the caller, without a pool. When fill(j, ...) depends on j
    alone, as a range drawing from its own slot does, the result does not
    depend on ``threads``.
    """
    workers = min(threads, SUBSTREAMS)

    def run(t: int) -> None:
        for j in range(t, SUBSTREAMS, workers):
            fill(j, count * j // SUBSTREAMS, count * (j + 1) // SUBSTREAMS, t)

    if workers == 1:
        run(0)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(workers)))  # list() re-raises a range's exception


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
        count*j//16 up to count*(j+1)//16, and range j is drawn in item
        order from slot ``base + j``; ``draw_ranges`` runs them. The bytes
        then depend on neither the thread count nor any chunking inside a
        range. ``design.gen_design`` uses base 0 of the design role;
        tail-registry grid cell i uses base 16i of the cell role
        (``tails._chunked``).
        """
        if not (0 <= role < _U64):
            raise ValueError(f"role must be an unsigned 64-bit int, got {role}")
        if not (0 <= slot < _U64):
            raise ValueError(f"slot must be an unsigned 64-bit int, got {slot}")
        bitgen = np.random.Philox(
            counter=[0, 0, slot, role], key=[self.master_seed, self.stream_id]
        )
        return np.random.Generator(bitgen)
