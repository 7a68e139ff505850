import threading
import weakref

import numpy as np
import pytest

from sparse_minimax import design as design_mod
from sparse_minimax.design import gen_design, make_signal, synthesize
from sparse_minimax.risk import map_replicates
from sparse_minimax.rng import SeedSpec


@pytest.fixture
def make_instance():
    """Small synthetic instance factory with the true coefficient vector."""

    def build(n=80, p=24, k=3, sigma=1.0, amplitude=2.5, master_seed=7, rep=0):
        spec = SeedSpec(master_seed, rep)
        design = gen_design(n, p, spec)
        signal = make_signal(p, k, amplitude)
        inst = synthesize(design, signal, sigma, spec)
        return inst, signal.dense()

    return build


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def track_designs(monkeypatch):
    """Wraps ``gen_design`` in the given modules and records, per call, how
    many designs drawn earlier are still alive on entry, the thread count
    the draw resolved (what ``gen_design`` hands to ``draw_ranges``), and
    the calling thread. A design counts as alive while the array that owns
    its memory is, so a kept view or column slice counts. Returns
    ``track(*modules) -> calls``; the wrappers last as long as monkeypatch."""
    calls = []
    owners = []
    resolved = []
    real_ranges = design_mod.draw_ranges

    def recording_ranges(count, fill, threads):
        resolved.append(threads)
        return real_ranges(count, fill, threads)

    monkeypatch.setattr(design_mod, "draw_ranges", recording_ranges)

    def track(*modules):
        for module in modules:
            real = module.gen_design

            def tracking(n, p, seed, threads=None, real=real):
                alive = sum(ref() is not None for ref in owners)
                drawn = real(n, p, seed, threads)
                calls.append((alive, resolved.pop(), threading.get_ident()))
                owners.append(weakref.ref(drawn.entries.base))
                return drawn

            monkeypatch.setattr(module, "gen_design", tracking)
        return calls

    return track


@pytest.fixture
def design_tracker(monkeypatch):
    """:func:`track_designs` for the length of one test."""
    return track_designs(monkeypatch)


def shared_pass(n, p, seed, consumers, threads=None):
    """One ``risk.map_replicates`` pass that feeds several consumers, each
    on its own replicates: ``consumers`` maps a name to (reps, fn), and fn
    runs on replicates 0 .. reps - 1 of the pass. Returns each name's
    results in replicate order, as ``map_replicates(n, p, seed, reps, fn,
    threads)`` would alone."""
    def each(spec, design):
        return {name: fn(spec, design) for name, (reps, fn) in consumers.items() if spec.stream_id < reps}

    rows = map_replicates(n, p, seed, max(reps for reps, _ in consumers.values()), each, threads)
    return {name: [row[name] for row in rows if name in row] for name in consumers}
