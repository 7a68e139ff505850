import ast
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import sparse_minimax
import sparse_minimax.rng as rng_mod
from sparse_minimax.rng import (
    ROLE_CELL,
    ROLE_DESIGN,
    ROLE_NOISE,
    ROLE_PROBE,
    ROLE_RESTART,
    ROLE_SUPPORT,
    CapacityError,
    SeedSpec,
    admit,
    draw_ranges,
)

ALL_ROLES = (ROLE_DESIGN, ROLE_NOISE, ROLE_SUPPORT, ROLE_RESTART, ROLE_PROBE, ROLE_CELL)


def test_same_spec_same_draws():
    a = SeedSpec(123, 4).generator(ROLE_DESIGN, 0).standard_normal(64)
    b = SeedSpec(123, 4).generator(ROLE_DESIGN, 0).standard_normal(64)
    assert np.array_equal(a, b)


def test_master_seed_changes_draws():
    a = SeedSpec(1).generator(ROLE_DESIGN, 0).standard_normal(32)
    b = SeedSpec(2).generator(ROLE_DESIGN, 0).standard_normal(32)
    assert not np.array_equal(a, b)


def test_stream_id_changes_draws():
    a = SeedSpec(9, 0).generator(ROLE_NOISE, 0).standard_normal(32)
    b = SeedSpec(9, 1).generator(ROLE_NOISE, 0).standard_normal(32)
    assert not np.array_equal(a, b)


def test_roles_are_disjoint_streams():
    spec = SeedSpec(42, 3)
    draws = [spec.generator(role, 0).standard_normal(16) for role in ALL_ROLES]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_slots_are_disjoint_streams():
    spec = SeedSpec(42, 3)
    a = spec.generator(ROLE_RESTART, 0).standard_normal(16)
    b = spec.generator(ROLE_RESTART, 1).standard_normal(16)
    assert not np.array_equal(a, b)


def test_role_draw_independent_of_consumption_order():
    # reading the noise stream first must not shift the design stream
    spec = SeedSpec(5, 2)
    design_only = spec.generator(ROLE_DESIGN, 0).standard_normal(100)
    spec2 = SeedSpec(5, 2)
    spec2.generator(ROLE_NOISE, 0).standard_normal(1000)
    design_after = spec2.generator(ROLE_DESIGN, 0).standard_normal(100)
    assert np.array_equal(design_only, design_after)


def test_replicate_streams_do_not_collide_across_slots():
    # slot s of replicate r must differ from slot s of replicate r+1
    a = SeedSpec(7, 1).generator(ROLE_RESTART, 5).standard_normal(16)
    b = SeedSpec(7, 2).generator(ROLE_RESTART, 5).standard_normal(16)
    assert not np.array_equal(a, b)


def test_spec_is_hashable_and_frozen():
    spec = SeedSpec(3, 1)
    assert hash(spec) == hash(SeedSpec(3, 1))
    with pytest.raises(AttributeError):
        spec.master_seed = 4  # type: ignore[misc]


@pytest.mark.parametrize("bad", [-1, 2**64, "0"])
def test_master_seed_must_be_u64(bad):
    with pytest.raises((ValueError, TypeError)):
        SeedSpec(bad)


def test_negative_slot_rejected():
    with pytest.raises(ValueError):
        SeedSpec(0).generator(ROLE_DESIGN, -1)


@pytest.mark.parametrize("count", [0, 1, 5, 16, 203])
@pytest.mark.parametrize("threads", [1, 2, 3, 17])
def test_draw_ranges_fills_each_range_once_by_the_rule(threads, count):
    # range j holds items count*j//16 up to count*(j+1)//16 and runs on
    # thread t = j mod min(threads, 16), one OS thread per t
    seen = []
    lock = threading.Lock()

    def fill(j, lo, hi, t):
        with lock:
            seen.append((j, lo, hi, t, threading.get_ident()))

    draw_ranges(count, fill, threads)
    workers = min(threads, 16)
    assert sorted(j for j, *_ in seen) == list(range(16))
    for j, lo, hi, t, _ in seen:
        assert (lo, hi, t) == (count * j // 16, count * (j + 1) // 16, j % workers)
    assert [lo for _, lo, *_ in sorted(seen)] + [count] == [0] + [hi for _, _, hi, *_ in sorted(seen)]
    assert all(len({ident for *_, t, ident in seen if t == u}) == 1 for u in range(workers))


@pytest.mark.parametrize("count", [0, 1, 4])
def test_draw_ranges_runs_on_the_calling_thread_with_one_thread(monkeypatch, count):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(rng_mod, "ThreadPoolExecutor", no_pool)
    seen = []
    draw_ranges(count, lambda j, lo, hi, t: seen.append((j, t, threading.get_ident())), 1)
    assert seen == [(j, 0, threading.get_ident()) for j in range(16)]


@pytest.mark.parametrize("threads", [1, 3])
def test_draw_ranges_raises_what_a_range_raises(threads):
    def fill(j, lo, hi, t):
        if j == 7:
            raise KeyError(j)

    with pytest.raises(KeyError):
        draw_ranges(100, fill, threads)


def _top_level_callers(tree: ast.Module, name: str) -> set[str]:
    callers = set()
    for node in tree.body:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Call) and getattr(inner.func, "id", getattr(inner.func, "attr", None)) == name:
                callers.add(getattr(node, "name", "<module>"))
    return callers


def test_only_rng_starts_threads_or_reads_the_machine_limits():
    # the thread and memory policy lives in rng.py: nothing else starts a
    # pool, reads the CPU affinity or the cgroup files, asks for the memory
    # budget or trims the C heap; worker_count runs only where a draw is split
    package = Path(sparse_minimax.__file__).resolve().parent
    callers = {}
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "rng.py":
            for token in (
                "ThreadPoolExecutor", "sched_getaffinity", "/sys/fs/cgroup", "_memory_budget(", "malloc_trim", "CDLL",
            ):
                assert token not in text, f"{path.name} holds {token}"
        for caller in _top_level_callers(ast.parse(text), "worker_count"):
            callers.setdefault(path.stem, set()).add(caller)
    assert callers == {"design": {"gen_design"}, "tails": {"_chunked"}}


def test_admit_releases_the_free_heap_before_it_reads_the_budget(monkeypatch):
    calls = []
    monkeypatch.setattr(rng_mod, "_malloc_trim", lambda pad: calls.append(("trim", pad)) or 1)
    monkeypatch.setattr(rng_mod, "_memory_budget", lambda: calls.append(("budget",)) or 1000)
    admit(1000, "a probe", "nothing")
    assert calls == [("trim", 0), ("budget",)]
    with pytest.raises(CapacityError, match="a probe needs about 1001 bytes"):
        admit(1001, "a probe", "nothing")


def test_a_c_library_without_malloc_trim_makes_the_release_a_no_op(monkeypatch):
    assert rng_mod._c_function("sparse_minimax_no_such_symbol", None) is None

    def no_library(name):
        raise OSError(f"cannot load {name}")

    monkeypatch.setattr(rng_mod.ctypes, "CDLL", no_library)
    assert rng_mod._c_function("malloc_trim", None) is None
    monkeypatch.setattr(rng_mod, "_malloc_trim", None)
    monkeypatch.setattr(rng_mod, "_memory_budget", lambda: 1000)
    admit(1000, "a probe", "nothing")
    with pytest.raises(CapacityError):
        admit(1001, "a probe", "nothing")


HEAP_PROBE = """
import numpy as np
from sparse_minimax import rng


def rss_kb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])


gram = np.ones(30 * 2**20 // 8)  # mmapped; freeing it raises glibc's mmap threshold
del gram
buffers = [np.ones(2**20) for _ in range(6)]  # 8 MB each, now from the heap
del buffers
before = rss_kb()
rng.admit(0, "a probe", "nothing")
print(before, rss_kb())
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or not Path("/proc/self/status").exists(), reason="glibc on Linux only"
)
def test_admit_hands_freed_heap_back_to_the_os():
    # 48 MB of freed 8 MB buffers stay in the heap until admit trims it
    src = str(Path(sparse_minimax.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", HEAP_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    before, after = map(int, proc.stdout.split())
    assert before - after > 32 * 1024, (before, after)
