"""Registry completeness, frozen bound arithmetic, cell-stream isolation,
and the dual exact/brute route for the support-correlation statistic."""

import dataclasses
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_minimax import rng as rng_mod
from sparse_minimax import tails
from sparse_minimax.events import resolvent_set
from sparse_minimax.estimators import CapacityError
from sparse_minimax.rng import ROLE_CELL, SeedSpec
from sparse_minimax.tails import (
    REGISTRY,
    _chunked,
    _kth_largest_abs,
    _median_ok,
    _order_stat_mean,
    _top_abs,
    binom_bound_check,
    check_tail_bound,
    sup_xtz_brute,
    sup_xtz_exact,
)

EXPECTED_ROWS = {
    "chi2_lower",
    "gauss_max",
    "order_mean",
    "order_conc",
    "topk_avg",
    "median_event",
    "gauss_sv",
    "resolvent_sv",
    "sup_xtz",
    "sre_event",
}


def test_registry_carries_every_expected_row():
    assert set(REGISTRY) == EXPECTED_ROWS


def test_registry_rows_are_well_formed():
    for lemma_id, spec in REGISTRY.items():
        assert spec.lemma_id == lemma_id
        assert spec.description
        assert spec.direction in ("freq_leq", "mean_leq", "freq_geq")
        assert len(spec.default_grid) >= 1
        for point in spec.default_grid:
            assert math.isfinite(float(spec.bound(point)))


def test_surrogate_rows_carry_a_note():
    assert "surrogate" in REGISTRY["sre_event"].note


def test_checker_rejects_unknown_row():
    with pytest.raises(ValueError, match="unknown lemma_id"):
        check_tail_bound("cauchy_tail")


def test_checker_rejects_tiny_rep_counts():
    with pytest.raises(ValueError, match="at least 100"):
        check_tail_bound("gauss_max", reps=50)


def test_chi2_bound_value():
    bound = REGISTRY["chi2_lower"].bound({"d": 50, "tau": 0.5})
    assert bound == pytest.approx(0.007997074321534473, rel=1e-13)


def test_order_mean_bound_value():
    bound = REGISTRY["order_mean"].bound({"p": 1000, "k": 10})
    assert bound == pytest.approx(3.2874542984521815, rel=1e-13)


def test_median_event_bound_value():
    bound = REGISTRY["median_event"].bound({"p": 1000, "k": 10, "delta1": 0.5})
    assert bound == pytest.approx(0.5637851248734104, rel=1e-12)


def test_topk_bound_value():
    bound = REGISTRY["topk_avg"].bound({"p": 1000, "s": 10, "t": 4.0})
    assert bound == pytest.approx(200.0 ** (1.0 - 12.0 / 8.0), rel=1e-13)


def test_gauss_sv_bound_value():
    bound = REGISTRY["gauss_sv"].bound({"N": 100, "n": 20, "t": 1.5})
    assert bound == pytest.approx(2.0 * math.exp(-1.125), rel=1e-14)


def test_order_stat_mean_of_one_normal_is_exact():
    mean, err = _order_stat_mean(1, 1)
    assert err < 1e-4
    assert abs(mean - math.sqrt(2.0 / math.pi)) <= err
    # the stated bound only assumes a decreasing integrand; the trapezoid's
    # own error here is its h^2 term, about 1e-9
    assert mean == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-9)


@pytest.mark.parametrize("p, k", sorted({(pt["p"], pt["k"]) for pt in REGISTRY["order_conc"].default_grid}))
def test_order_stat_mean_matches_monte_carlo(p, k):
    mean, err = _order_stat_mean(p, k)
    kth = _chunked(SeedSpec(17), 0, 20_000, p, lambda g, _: _kth_largest_abs(g, k))
    stderr = float(kth.std(ddof=1)) / math.sqrt(kth.size)
    assert abs(float(kth.mean()) - mean) <= 4.0 * stderr + err


def test_order_conc_draws_once_per_cell(monkeypatch):
    calls = []

    def counting(spec, slot, reps, width, f):
        calls.append((slot, reps, width))
        return _chunked(spec, slot, reps, width, f)

    monkeypatch.setattr(tails, "_chunked", counting)
    report = check_tail_bound("order_conc", reps=200, seed=1)
    assert calls == [(16 * i, 200, pt["p"]) for i, pt in enumerate(REGISTRY["order_conc"].default_grid)]
    assert report.passed


def test_order_conc_accepts_k_equal_to_p():
    # the k = p-th largest |g| is the smallest one
    assert check_tail_bound("order_conc", grid=[{"p": 10, "k": 10, "u": 0.5}], reps=1000).passed


@pytest.mark.parametrize("grid", [[{"p": 10, "k": 15, "u": 0.5}], [{"p": 10, "k": 5, "u": 0.5}, {"p": 10, "k": 15, "u": 0.5}]])
def test_order_conc_rejects_k_above_p_before_any_cell(monkeypatch, grid):
    def no_draws(*args):
        raise AssertionError("a cell was simulated before the grid was checked")

    monkeypatch.setitem(REGISTRY, "order_conc", dataclasses.replace(REGISTRY["order_conc"], simulate=no_draws))
    with pytest.raises(ValueError, match=r"need 1 <= k <= p, got k=15, p=10"):
        check_tail_bound("order_conc", grid=grid, reps=1000)


@pytest.mark.parametrize(
    "row, grid, message",
    [
        ("gauss_sv", [{"N": 100, "n": 20, "t": 1.5}, {"N": 10, "n": 20, "t": 1.0}], r"need n <= N, got n=20, N=10"),
        (
            "sre_event",
            [{"n": 1500, "p": 50, "k": 2, "eps": 2.0, "restarts": 2}, {"n": 30, "p": 10, "k": 20, "eps": 2.0, "restarts": 2}],
            r"need k < p, got k=20, p=10",
        ),
        (
            "resolvent_sv",
            [
                {"n": 20, "p": 10, "k": 2, "k_star": 4, "t": 0.15, "sigma": 1.0},
                {"n": 20, "p": 10, "k": 2, "k_star": 10, "t": 0.15, "sigma": 1.0},
            ],
            r"need k < k_star < p, got k=2, k_star=10, p=10",
        ),
        (
            "resolvent_sv",
            [{"n": 20, "p": 10, "k": 12, "k_star": 8, "t": 0.15, "sigma": 1.0}],
            r"need k < k_star < p, got k=12, k_star=8, p=10",
        ),
    ],
    ids=["gauss_sv-n-above-N", "sre_event-k-above-p", "resolvent_sv-k_star-at-p", "resolvent_sv-k-above-p"],
)
def test_matrix_rows_reject_points_outside_their_hypotheses_before_any_cell(monkeypatch, row, grid, message):
    def no_draws(*args):
        raise AssertionError("a cell was simulated before the grid was checked")

    monkeypatch.setitem(REGISTRY, row, dataclasses.replace(REGISTRY[row], simulate=no_draws))
    with pytest.raises(ValueError, match=message):
        check_tail_bound(row, grid=grid, reps=100)


def test_report_is_deterministic():
    a = check_tail_bound("gauss_max", reps=300, seed=1)
    b = check_tail_bound("gauss_max", reps=300, seed=1)
    assert a.to_json() == b.to_json()


def test_report_changes_with_seed():
    a = check_tail_bound("gauss_max", reps=300, seed=1)
    b = check_tail_bound("gauss_max", reps=300, seed=2)
    assert a.rows[0].empirical != b.rows[0].empirical or a.to_json() != b.to_json()


def test_grid_cells_use_isolated_streams():
    # dropping later cells must not change the first cell's draw
    grid2 = ({"p": 100, "u": 0.0}, {"p": 100, "u": 0.5})
    both = check_tail_bound("gauss_max", grid=grid2, reps=400, seed=5)
    first = check_tail_bound("gauss_max", grid=grid2[:1], reps=400, seed=5)
    assert both.rows[0].to_json() == first.rows[0].to_json()


@pytest.mark.parametrize("grid", [[], ()])
def test_empty_grid_is_rejected_before_any_cell(monkeypatch, grid):
    def no_draws(*args):
        raise AssertionError("a cell was simulated before the grid was checked")

    monkeypatch.setitem(REGISTRY, "gauss_max", dataclasses.replace(REGISTRY["gauss_max"], simulate=no_draws))
    with pytest.raises(ValueError, match=r"^gauss_max: grid must"):
        check_tail_bound("gauss_max", grid=grid, reps=100)


def test_a_grid_point_whose_bound_overflows_is_refused_before_any_cell(monkeypatch):
    # exp(-u^2/2) at u = 1e300; before, an OverflowError traceback
    def no_draws(*args):
        raise AssertionError("a cell was simulated before the grid was checked")

    monkeypatch.setitem(REGISTRY, "gauss_max", dataclasses.replace(REGISTRY["gauss_max"], simulate=no_draws))
    with pytest.raises(ValueError, match=r"^gauss_max: the bound overflows a float at grid point \{'p': 50, 'u': 1e\+300\}$"):
        check_tail_bound("gauss_max", grid=[{"p": 50, "u": 0.5}, {"p": 50, "u": 1e300}], reps=100)


def test_cheap_rows_pass_at_modest_reps():
    for lemma_id, reps in [("chi2_lower", 2000), ("gauss_max", 2000), ("topk_avg", 1000)]:
        report = check_tail_bound(lemma_id, reps=reps)
        assert report.passed, f"{lemma_id}: {[r.to_json() for r in report.rows]}"


def test_median_event_holds_at_modest_reps():
    report = check_tail_bound("median_event", grid=({"p": 1000, "k": 10, "delta1": 0.5},), reps=1000)
    assert report.passed
    row = report.rows[0]
    assert row.empirical + row.slack >= row.bound


def test_report_json_shape():
    report = check_tail_bound("gauss_max", grid=({"p": 50, "u": 0.5},), reps=200, seed=3)
    payload = report.to_json()
    assert payload["lemma_id"] == "gauss_max"
    assert payload["reps"] == 200
    assert payload["seed"] == 3
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert set(row) == {"params", "empirical", "bound", "slack", "margin", "passed"}


# one small point per vector row; the widths decide the chunk sizes below
SMALL_VECTOR_GRIDS = {
    "chi2_lower": ({"d": 50, "tau": 0.5}, {"d": 200, "tau": 0.2}),
    "gauss_max": ({"p": 100, "u": 0.0},),
    "order_mean": ({"p": 100, "k": 5},),
    "order_conc": ({"p": 100, "k": 10, "u": 1.0},),
    "topk_avg": ({"p": 200, "s": 5, "t": 4.0},),
    "median_event": ({"p": 200, "k": 5, "delta1": 0.5},),
}


# one small point per matrix row, each where its event fires on some
# replicates and not on others
SMALL_MATRIX_GRIDS = {
    "gauss_sv": ({"N": 20, "n": 5, "t": -0.5}, {"N": 30, "n": 10, "t": 0.5}),
    "resolvent_sv": ({"n": 20, "p": 30, "k": 2, "k_star": 4, "t": -0.05, "sigma": 1.0},),
    "sup_xtz": ({"n": 10, "p": 50, "k_star": 48, "sigma": 1.0},),
    "sre_event": ({"n": 120, "p": 10, "k": 2, "eps": 2.0, "restarts": 2},),
}


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    reps, budget = 1003, 3000
    for grid in SMALL_VECTOR_GRIDS.values():
        for point in grid:
            step = budget // point.get("d", point.get("p"))
            assert reps // step >= 10 and reps % step, point  # many chunks and a short last one
    default = {row: check_tail_bound(row, grid=grid, reps=reps, seed=4) for row, grid in SMALL_VECTOR_GRIDS.items()}
    monkeypatch.setattr(tails, "_CHUNK_BUDGET", budget)
    for row, grid in SMALL_VECTOR_GRIDS.items():
        assert check_tail_bound(row, grid=grid, reps=reps, seed=4).to_json() == default[row].to_json(), row


def _reference_draws(spec: SeedSpec, slot: int, reps: int, width: int) -> np.ndarray:
    # range j of 16 holds rows reps*j//16 .. reps*(j+1)//16, drawn in one
    # piece from slot + j
    return np.concatenate(
        [
            spec.generator(ROLE_CELL, slot + j).standard_normal((reps * (j + 1) // 16 - reps * j // 16, width))
            for j in range(16)
        ]
    )


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_chunked_draws_range_j_from_slot_plus_j(monkeypatch, threads):
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", threads)
    monkeypatch.setattr(tails, "_CHUNK_BUDGET", 40)  # five rows per block, several blocks per range
    spec, slot, reps, width = SeedSpec(9), 32, 1003, 8
    got = _chunked(spec, slot, reps, width, lambda block, _: block.sum(axis=1))
    assert np.array_equal(got, _reference_draws(spec, slot, reps, width).sum(axis=1))
    # each block comes with the index of its first row
    firsts = _chunked(spec, slot, reps, width, lambda block, first: first + np.arange(block.shape[0]))
    assert np.array_equal(firsts, np.arange(reps))


def test_chunked_shares_no_buffer_between_threads(monkeypatch):
    # a slow statistic that reads its block late sees another thread's draw
    # if two threads share a buffer
    owners = {}
    lock = threading.Lock()

    def slow_row_sums(block, _):
        with lock:
            owners.setdefault(block.__array_interface__["data"][0], set()).add(threading.get_ident())
        time.sleep(0.002)
        return block.sum(axis=1)

    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", "4")
    monkeypatch.setattr(tails, "_CHUNK_BUDGET", 40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _chunked(SeedSpec(11), 0, 103, 8, slow_row_sums)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, _reference_draws(SeedSpec(11), 0, 103, 8).sum(axis=1))
    assert len(owners) == 4 and all(len(threads) == 1 for threads in owners.values())


def test_registry_rows_do_not_depend_on_the_thread_count(monkeypatch):
    grids = {**SMALL_VECTOR_GRIDS, **SMALL_MATRIX_GRIDS}
    assert set(grids) == EXPECTED_ROWS
    reports = {}
    for threads in ("1", "2", "3", "17"):
        monkeypatch.setenv("SPARSE_MINIMAX_THREADS", threads)
        reports[threads] = {row: check_tail_bound(row, grid=grid, reps=1003, seed=4).to_json() for row, grid in grids.items()}
    assert reports["2"] == reports["1"] and reports["3"] == reports["1"] and reports["17"] == reports["1"]
    for row in SMALL_MATRIX_GRIDS:
        assert all(0.0 < cell["empirical"] < 1.0 for cell in reports["1"][row]["rows"]), row


@pytest.mark.parametrize("threads", ["1", "3"])
def test_a_matrix_row_draws_each_replicate_as_one_row(monkeypatch, threads):
    # resolvent_sv: X row-major, then z, in one row of width n*p + n
    (point,) = SMALL_MATRIX_GRIDS["resolvent_sv"]
    n, p, k, k_star, t = point["n"], point["p"], point["k"], point["k_star"], point["t"]
    width = n * p + n
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", threads)
    monkeypatch.setattr(tails, "_CHUNK_BUDGET", 3 * width)  # three rows per block, several blocks per range
    spec, reps = SeedSpec(4), 203
    vals, extra = REGISTRY["resolvent_sv"].simulate(point, spec, reps, 0)
    level = math.sqrt(1.0 - 1.0 / n) - math.sqrt(k_star / n) - t
    want = []
    for row in _reference_draws(spec, 0, reps, width):
        X, z = row[: n * p].reshape(n, p), row[n * p :]
        cols = X[:, resolvent_set(X, z, np.arange(k), k_star)]
        want.append(np.linalg.svd(cols, compute_uv=False)[-1] / math.sqrt(n) <= level)
    assert 0 < sum(want) < reps
    assert np.array_equal(vals, np.array(want, dtype=float)) and extra == 0.0


def test_a_cell_that_cannot_fit_is_refused_before_it_draws(monkeypatch):
    drawn = []
    generator = SeedSpec.generator
    monkeypatch.setattr(SeedSpec, "generator", lambda *args: drawn.append(args) or generator(*args))
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", "1")
    reps, d = 1000, 50
    need = 8 * reps + 8 * 63 * d  # the results and one buffer of ceil(1000/16) rows
    monkeypatch.setattr(rng_mod, "_memory_budget", lambda: need - 1)
    with pytest.raises(CapacityError, match=rf"reps={reps} .* needs about {need} bytes .* the {need - 1} bytes"):
        check_tail_bound("chi2_lower", grid=[{"d": d, "tau": 0.5}], reps=reps)
    assert drawn == []
    monkeypatch.setattr(rng_mod, "_memory_budget", lambda: need)
    assert check_tail_bound("chi2_lower", grid=[{"d": d, "tau": 0.5}], reps=reps).passed
    assert len(drawn) == 16


def test_median_shortcut_matches_the_sorted_route():
    p, k, d1 = 1000, 10, 0.5
    head_levels = 4.0 * np.sqrt(np.log(2.0 * p / np.arange(1, k + 1)))
    tail_level = (1.0 + d1) * math.sqrt(2.0 * math.log(p / k))
    levels = np.append(head_levels, tail_level)
    gen = np.random.default_rng(5)
    block = np.abs(gen.standard_normal((600, p))) * 0.3  # below every level
    block[50:70, 0] = [tail_level, np.nextafter(tail_level, 0.0)] * 10  # largest value at the shortcut's edge
    # between the tail level and every head level: k+1 such values fail, k pass
    block[70:85, : k + 1] = np.nextafter(tail_level, np.inf)
    block[85:100, :k] = np.nextafter(tail_level, np.inf)
    for row in block[100:]:
        # the top k+1 values sit just below, exactly at or just above their
        # levels; half the rows move one of them just above
        side = gen.integers(-1, 1, size=k + 1)
        if gen.random() < 0.5:
            side[gen.integers(k + 1)] = 1
        planted = np.where(side == 0, levels, np.nextafter(levels, np.where(side < 0, 0.0, np.inf)))
        row[gen.choice(p, size=k + 1, replace=False)] = planted
    got = _median_ok(block.copy(), head_levels, tail_level)
    top = _top_abs(block, k + 1)
    want = (top[:, :k] <= head_levels).all(axis=1) & (top[:, k] <= tail_level)
    assert np.array_equal(got, want)
    assert want[:70].all() and not want[70:85].any() and want[85:100].all()
    assert 150 < int((~want[100:]).sum()) < 350


def test_support_correlation_routes_agree(rng):
    for _ in range(10):
        n, p = 30, 12
        X = rng.standard_normal((n, p))
        z = rng.standard_normal(n)
        k_star = int(rng.integers(1, 6))
        assert sup_xtz_exact(X, z, k_star) == pytest.approx(sup_xtz_brute(X, z, k_star), rel=1e-12)


def test_support_correlation_closed_form(rng):
    X = rng.standard_normal((20, 8))
    z = rng.standard_normal(20)
    corr = X.T @ z
    expect = math.sqrt(np.sort(corr**2)[::-1][:3].sum())
    assert sup_xtz_exact(X, z, 3) == pytest.approx(expect, rel=1e-13)


def test_support_correlation_brute_capacity(rng):
    X = rng.standard_normal((10, 30))
    z = rng.standard_normal(10)
    with pytest.raises(CapacityError):
        sup_xtz_brute(X, z, 5)  # C(30,5) = 142506 over the cap


def test_binom_examples():
    exact, bound, holds = binom_bound_check(10, 3)
    assert exact == 120
    assert bound == pytest.approx(743.9087749328762, rel=1e-12)
    assert holds


def test_binom_overflow_goes_through_logs():
    exact, bound, holds = binom_bound_check(1000, 900)
    assert math.isinf(bound)
    assert holds
    assert exact == math.comb(1000, 900)


def test_binom_validation():
    with pytest.raises(ValueError):
        binom_bound_check(5, 0)
    with pytest.raises(ValueError):
        binom_bound_check(5, 6)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300), st.data())
def test_binom_bound_always_holds(p, data):
    s = data.draw(st.integers(min_value=1, max_value=p))
    _, _, holds = binom_bound_check(p, s)
    assert holds
