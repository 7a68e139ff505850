"""Solver correctness against closed forms, exhaustive search, scipy's
isotonic projection, and the optimality conditions each fit certifies."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

import sparse_minimax.estimators as estimators_mod
from sparse_minimax.design import GaussianDesign, Instance, NoiseVector, gen_design, make_signal, synthesize
from sparse_minimax import _kernels
from sparse_minimax.estimators import (
    BacktrackingError,
    CapacityError,
    LassoConfig,
    SlopeConfig,
    _spectral_bound,
    aggregated_estimate,
    lambda_eps,
    lasso_fit,
    lasso_kkt_residual,
    mle_best_subset,
    oracle_estimator,
    prox_sorted_l1,
    slope_fit,
    slope_lambda_seq,
    soft_threshold,
)
from sparse_minimax.rng import SeedSpec

finite_vec = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=1, max_size=20
)


def test_soft_threshold_values():
    u = np.array([3.0, -2.0, 0.5, 0.0, -0.4])
    out = soft_threshold(u, 0.5)
    assert np.allclose(out, [2.5, -1.5, 0.0, 0.0, 0.0])


def test_soft_threshold_rejects_negative_level():
    with pytest.raises(ValueError):
        soft_threshold(np.ones(3), -0.1)


@settings(max_examples=80, deadline=None)
@given(finite_vec, finite_vec, st.floats(min_value=0.0, max_value=50.0))
def test_soft_threshold_nonexpansive(a, b, lam):
    m = min(len(a), len(b))
    u, v = np.asarray(a[:m]), np.asarray(b[:m])
    assert np.linalg.norm(soft_threshold(u, lam) - soft_threshold(v, lam)) <= np.linalg.norm(u - v) + 1e-9


@settings(max_examples=60, deadline=None)
@given(finite_vec, st.floats(min_value=0.0, max_value=50.0))
def test_soft_threshold_moves_at_most_lam(a, lam):
    u = np.asarray(a)
    assert np.abs(soft_threshold(u, lam) - u).max() <= lam + 1e-12


def test_lambda_eps_desk_value():
    # (1+0.1) sqrt(2 log(1000) / 4000)
    assert lambda_eps(0.1, 1.0, 4000, 8000, 8) == pytest.approx(0.06464667001311199, abs=1e-15)


def test_lambda_eps_scales_linearly_in_sigma():
    assert lambda_eps(0.2, 3.0, 100, 50, 5) == pytest.approx(3.0 * lambda_eps(0.2, 1.0, 100, 50, 5))


@pytest.mark.parametrize("kw", [dict(k=0), dict(k=50), dict(sigma=0.0), dict(eps=-0.1), dict(n=0)])
def test_lambda_eps_rejects_bad_inputs(kw):
    args = dict(eps=0.1, sigma=1.0, n=100, p=50, k=5)
    args.update(kw)
    with pytest.raises(ValueError):
        lambda_eps(args["eps"], args["sigma"], args["n"], args["p"], args["k"])


def test_lasso_orthogonal_design_closed_form(rng):
    # X'X = n I makes the program separable: b_j = eta_lam((X'y)_j / n)
    n = 12
    X = math.sqrt(n) * np.eye(n)
    y = rng.standard_normal(n)
    lam = 0.3
    res = lasso_fit(X, y, LassoConfig(lam=lam))
    c = X.T @ y / n
    expect = np.sign(c) * np.maximum(np.abs(c) - lam, 0.0)
    assert res.converged
    assert np.allclose(res.beta_hat, expect, rtol=0, atol=1e-8)


def test_lasso_kkt_certificate(rng):
    X = rng.standard_normal((50, 30))
    y = rng.standard_normal(50) + X[:, 0] * 2.0
    lam = 0.2
    res = lasso_fit(X, y, LassoConfig(lam=lam))
    assert res.converged
    tol = 1e-8 * max(1.0, np.abs(X.T @ y).max() / 50)
    assert res.kkt_residual <= tol
    assert lasso_kkt_residual(X, y, res.beta_hat, lam) <= tol + 1e-9


def test_lasso_large_penalty_gives_zero(rng):
    X = rng.standard_normal((20, 8))
    y = rng.standard_normal(20)
    lam = 2.0 * np.abs(X.T @ y).max() / 20
    res = lasso_fit(X, y, LassoConfig(lam=lam))
    assert not res.beta_hat.any()
    assert res.converged


def test_lasso_rejects_zero_penalty(rng):
    X = rng.standard_normal((10, 4))
    with pytest.raises(ValueError):
        lasso_fit(X, np.zeros(10), LassoConfig(lam=0.0))


def test_lasso_config_validation():
    with pytest.raises(ValueError):
        LassoConfig(lam=-1.0)
    with pytest.raises(ValueError):
        LassoConfig(lam=1.0, tol=0.0)
    with pytest.raises(ValueError):
        LassoConfig(lam=1.0, max_iter=0)


def test_lasso_objective_never_increases_across_sweeps(rng):
    X = rng.standard_normal((40, 25))
    y = rng.standard_normal(40)
    lam = 0.05
    cfg = LassoConfig(lam=lam, tol=1e-12, max_iter=1)
    b = np.zeros(25)
    prev = 0.5 * float(y @ y) / 40
    for _ in range(8):
        res = lasso_fit(X, y, cfg, b0=b)
        assert res.objective <= prev + 1e-12 * max(1.0, prev)
        prev = res.objective
        b = res.beta_hat


def test_lasso_warm_start_agrees_with_cold(rng):
    X = rng.standard_normal((60, 20))
    y = X[:, 3] * 1.5 - X[:, 7] + 0.1 * rng.standard_normal(60)
    cfg = LassoConfig(lam=0.1)
    cold = lasso_fit(X, y, cfg)
    warm = lasso_fit(X, y, cfg, b0=cold.beta_hat)
    assert warm.converged
    assert np.allclose(warm.beta_hat, cold.beta_hat, rtol=0, atol=1e-7)


def test_lasso_reports_nonconvergence(rng):
    X = rng.standard_normal((40, 30))
    y = rng.standard_normal(40)
    res = lasso_fit(X, y, LassoConfig(lam=1e-4, tol=1e-14, max_iter=1))
    assert not res.converged
    assert res.kkt_residual > 1e-14


def test_prox_simple_separable_case():
    out = prox_sorted_l1(np.array([3.0, 1.0]), np.array([2.0, 0.5]))
    assert np.allclose(out, [1.0, 0.5])


def test_prox_pooling_case():
    # shrunk magnitudes (1.0, 2.4) violate the ordering, so they average
    out = prox_sorted_l1(np.array([3.0, 2.9]), np.array([2.0, 0.5]))
    assert np.allclose(out, [1.7, 1.7])


def test_prox_restores_signs_and_positions():
    v = np.array([-3.0, 0.0, 2.9])
    out = prox_sorted_l1(v, np.array([2.0, 0.5, 0.0]))
    assert np.allclose(out, [-1.7, 0.0, 1.7])


def test_prox_constant_weights_is_soft_threshold(rng):
    for _ in range(20):
        v = rng.standard_normal(rng.integers(1, 30))
        lam = float(rng.uniform(0, 2))
        out = prox_sorted_l1(v, np.full(v.size, lam))
        assert np.allclose(out, soft_threshold(v, lam), rtol=0, atol=1e-12)


def test_prox_matches_scipy_isotonic(rng):
    for _ in range(25):
        p = int(rng.integers(1, 40))
        v = rng.standard_normal(p) * 3
        lam = np.sort(rng.uniform(0, 2, p))[::-1]
        order = np.argsort(-np.abs(v), kind="stable")
        w = isotonic_regression(np.abs(v)[order] - lam, increasing=False).x
        expect = np.zeros(p)
        expect[order] = np.maximum(w, 0.0)
        expect *= np.sign(v)
        assert np.allclose(prox_sorted_l1(v, lam), expect, rtol=1e-12, atol=1e-12)


def test_prox_minimizes_its_objective(rng):
    def objective(x, v, lam):
        return 0.5 * np.sum((x - v) ** 2) + np.sort(np.abs(x))[::-1] @ lam

    for _ in range(10):
        p = int(rng.integers(2, 12))
        v = rng.standard_normal(p) * 2
        lam = np.sort(rng.uniform(0, 1.5, p))[::-1]
        x_star = prox_sorted_l1(v, lam)
        f_star = objective(x_star, v, lam)
        for _ in range(40):
            probe = x_star + 1e-3 * rng.standard_normal(p)
            assert f_star <= objective(probe, v, lam) + 1e-12


def test_prox_validation():
    with pytest.raises(ValueError):
        prox_sorted_l1(np.ones(3), np.array([0.1, 0.5, 0.2]))
    with pytest.raises(ValueError):
        prox_sorted_l1(np.ones(3), np.array([0.5, 0.2, -0.1]))
    with pytest.raises(ValueError):
        prox_sorted_l1(np.ones(3), np.ones(4))


def _prox_full_pava(v, lam):
    # the route before prefix PAVA: the isotonic fit of all p entries
    a = np.abs(v)
    order = np.argsort(-a, kind="stable")
    w = _kernels.pava_decreasing(a[order] - lam)
    np.maximum(w, 0.0, out=w)
    out = np.empty_like(v)
    out[order] = w
    out *= np.sign(v)
    return out


def _prox_cases(rng):
    for _ in range(300):
        p = int(rng.integers(1, 60))
        v = rng.standard_normal(p) * 2
        lam = np.sort(rng.uniform(0, 2, p))[::-1]
        yield "random", v, lam
        pool = rng.standard_normal(max(1, p // 3)) * 2  # tied magnitudes and tied weights
        v_tied = rng.choice(pool, p) * rng.choice([-1.0, 1.0], p)
        yield "ties", v_tied, np.sort(rng.choice(rng.uniform(0, 2, max(1, p // 4)), p))[::-1]
        yield "flat", v_tied, np.full(p, float(rng.uniform(0, 2)))
        # exact ties of partial sums: every value a multiple of 1/4
        yield "grid", rng.integers(-12, 13, p) / 4.0, np.sort(rng.integers(0, 9, p) / 4.0)[::-1]
        yield "K=0", v, np.abs(v).max() + np.sort(rng.uniform(0, 1, p))[::-1]
        yield "K=p", np.sign(v) * (5.0 + rng.uniform(0, 1, p)), np.sort(rng.uniform(0, 2, p))[::-1]
        yield "zero weights", v, np.zeros(p)


def test_prefix_pava_matches_the_full_route_bit_for_bit(rng, monkeypatch):
    lengths = []
    real = _kernels.pava_decreasing

    def recording(u):
        lengths.append(u.size)
        return real(u)

    monkeypatch.setattr(_kernels, "pava_decreasing", recording)
    seen = set()
    for name, v, lam in _prox_cases(rng):
        expect = _prox_full_pava(v, lam)
        lengths.clear()
        got = prox_sorted_l1(v, lam)
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64)), (name, v, lam)
        # PAVA ran on the K entries up to the first maximum of [0, cumsum(u)]
        u = np.sort(np.abs(v))[::-1] - lam
        K = int(np.argmax(np.concatenate(([0.0], np.cumsum(u)))))
        assert lengths == ([K] if K else []), name
        assert np.count_nonzero(got) <= K
        seen.add((name, K == 0, K == v.size))
    assert ("K=0", True, False) in seen and ("K=p", False, True) in seen
    assert {name for name, *_ in seen} == {"random", "ties", "flat", "grid", "K=0", "K=p", "zero weights"}


def test_prefix_pava_zeroes_rounding_residue_past_the_prefix(rng):
    # On a decimal grid, partial sums that tie exactly on paper differ in
    # the last bit, and the full route can leave +-1e-17 past the prefix
    # where the exact prox is 0. The prefix route writes 0 there and agrees
    # bit for bit everywhere else.
    moved = 0
    for _ in range(2000):
        p = int(rng.integers(1, 60))
        v = np.round(rng.standard_normal(p) * 2, 1)
        lam = np.round(np.sort(rng.uniform(0, 2, p))[::-1], 1)
        got, expect = prox_sorted_l1(v, lam), _prox_full_pava(v, lam)
        differ = got.view(np.uint64) != expect.view(np.uint64)
        assert not np.any(got[differ])
        assert np.abs(expect[differ]).max(initial=0.0) <= 1e-15
        moved += bool(differ.any())
    assert moved  # the probe reaches the case it describes


def _uncapped_slope(X, y, seq, tol):
    # slope_fit's outer loop as it was before capped growth: every nonzero
    # of the full-design prox step joins the working set at once
    n, p = X.shape
    t = 1.0 / _spectral_bound(X)
    b, r, work, tol_inner = np.zeros(p), y.copy(), np.zeros(0, dtype=np.intp), 0.3 * tol
    while True:
        pb = prox_sorted_l1(b + t * (X.T @ r) / n, t * seq)
        if np.abs(b - pb).max() / t <= tol:
            return b
        grown = np.union1d(work, np.flatnonzero(pb))
        if np.array_equal(grown, work):
            tol_inner *= 0.1
        work = grown
        bw, r, _, t = estimators_mod._fista_on_slab(
            X[:, work], y, seq[: work.size], b[work], t, tol_inner, 20_000, n
        )
        b = np.zeros(p)
        b[work] = bw


def test_slope_working_set_grows_from_the_largest_violators(monkeypatch):
    n, p = 150, 1200
    X = gen_design(n, p, SeedSpec(31)).entries
    beta = np.zeros(p)
    beta[:6] = 4.0
    y = X @ beta + np.random.default_rng(2).standard_normal(n)
    seq = 0.8 * slope_lambda_seq(0.1, 1.0, n, p, 0.5)
    tol = 1e-10
    t = 1.0 / _spectral_bound(X)
    first = prox_sorted_l1(t * (X.T @ y) / n, t * seq)
    assert np.count_nonzero(first) > 100

    sizes, first_rows = [], []
    real = estimators_mod._fista_on_slab

    def recording(Xw, y, lam_w, b_init, *rest):
        sizes.append(b_init.size)
        first_rows.append(Xw[0].copy())
        return real(Xw, y, lam_w, b_init, *rest)

    monkeypatch.setattr(estimators_mod, "_fista_on_slab", recording)
    res = slope_fit(X, y, SlopeConfig(lambda_seq=seq, tol=tol))
    monkeypatch.setattr(estimators_mod, "_fista_on_slab", real)
    assert sizes and sizes[0] <= 10
    # the first slab holds the ten largest entries of the first prox step
    # (a design row's entries are distinct, so they name the columns)
    largest = np.argsort(-np.abs(first), kind="stable")[:10]
    assert np.array_equal(np.flatnonzero(np.isin(X[0], first_rows[0])), np.sort(largest))
    for before, after in zip([0] + sizes, sizes):
        assert before <= after <= before + max(before, 10)
    assert res.converged and res.kkt_residual <= tol
    g = X.T @ (y - X @ res.beta_hat) / n
    assert np.abs(res.beta_hat - prox_sorted_l1(res.beta_hat + t * g, t * seq)).max() / t <= tol
    assert sizes[-1] < np.count_nonzero(first)
    assert np.allclose(res.beta_hat, _uncapped_slope(X, y, seq, tol), rtol=0, atol=1e-8)


def test_slope_lambda_seq_form():
    seq = slope_lambda_seq(0.1, 1.0, 100, 50, 0.5)
    assert seq.shape == (50,)
    assert np.all(seq > 0)
    assert np.all(np.diff(seq) < 0)
    assert seq[0] == pytest.approx(0.28334122339037904, abs=1e-14)


def test_slope_lambda_seq_validation():
    with pytest.raises(ValueError):
        slope_lambda_seq(0.1, 1.0, 100, 50, 1.0)
    with pytest.raises(ValueError):
        slope_lambda_seq(0.1, 0.0, 100, 50, 0.5)


def test_slope_constant_weights_matches_lasso(rng):
    X = rng.standard_normal((60, 20))
    y = X[:, 2] * 2.0 + 0.3 * rng.standard_normal(60)
    lam = 0.15
    lasso = lasso_fit(X, y, LassoConfig(lam=lam, tol=1e-11))
    slope = slope_fit(X, y, SlopeConfig(lambda_seq=np.full(20, lam), tol=1e-11))
    assert lasso.converged and slope.converged
    assert np.allclose(slope.beta_hat, lasso.beta_hat, rtol=0, atol=1e-6)
    assert slope.objective == pytest.approx(lasso.objective, abs=1e-11)


def test_slope_fixed_point_certificate_is_step_free(rng):
    # the residual vanishes at solutions for every step, so checking it at
    # unrelated steps must stay at solver tolerance
    X = rng.standard_normal((50, 15))
    y = rng.standard_normal(50)
    seq = slope_lambda_seq(0.1, 1.0, 50, 15, 0.5)
    res = slope_fit(X, y, SlopeConfig(lambda_seq=seq, tol=1e-10))
    assert res.converged
    b = res.beta_hat
    g = X.T @ (y - X @ b) / 50
    for t in (0.01, 0.1, 1.0):
        fp = np.abs(b - prox_sorted_l1(b + t * g, t * seq)).max() / t
        assert fp <= 1e-7


def test_slope_warm_start_agrees(rng):
    X = rng.standard_normal((40, 12))
    y = X[:, 0] - X[:, 5] + 0.2 * rng.standard_normal(40)
    seq = slope_lambda_seq(0.2, 1.0, 40, 12, 0.4)
    cold = slope_fit(X, y, SlopeConfig(lambda_seq=seq))
    warm = slope_fit(X, y, SlopeConfig(lambda_seq=seq), b0=cold.beta_hat)
    assert warm.converged
    assert np.allclose(warm.beta_hat, cold.beta_hat, rtol=0, atol=1e-7)


def test_slope_zero_design_shortcut():
    res = slope_fit(np.zeros((6, 3)), np.ones(6), SlopeConfig(lambda_seq=np.full(3, 0.5)))
    assert res.converged
    assert not res.beta_hat.any()
    assert res.objective == pytest.approx(0.5)


def test_slope_reports_nonconvergence(rng):
    X = rng.standard_normal((30, 25))
    y = rng.standard_normal(30)
    seq = np.full(25, 1e-4)
    res = slope_fit(X, y, SlopeConfig(lambda_seq=seq, tol=1e-14, max_iter=1))
    assert not res.converged


def test_slope_config_validation():
    with pytest.raises(ValueError):
        SlopeConfig(lambda_seq=np.array([0.1, 0.5]))
    with pytest.raises(ValueError):
        SlopeConfig(lambda_seq=np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        SlopeConfig(lambda_seq=np.empty(0))


def _naive_best_subset(X, y, k):
    best_rss, best_support, best_coef = np.inf, None, None
    for support in combinations(range(X.shape[1]), k):
        cols = X[:, list(support)]
        coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
        rss = float(np.sum((y - cols @ coef) ** 2))
        if rss < best_rss:
            best_rss, best_support, best_coef = rss, support, coef
    return best_support, best_coef, best_rss


@pytest.mark.parametrize("k", [1, 2, 3])
def test_mle_matches_exhaustive_search(rng, k):
    for trial in range(8):
        X = rng.standard_normal((25, 8))
        y = X[:, :k] @ np.full(k, 2.0) + rng.standard_normal(25)
        res = mle_best_subset(X, y, k)
        support, coef, rss = _naive_best_subset(X, y, k)
        assert tuple(np.flatnonzero(res.beta_hat)) == support
        assert res.objective == pytest.approx(rss, rel=1e-10, abs=1e-10)
        assert np.allclose(res.beta_hat[list(support)], coef, rtol=1e-8, atol=1e-10)


def test_mle_rss_equals_direct_residual(rng):
    X = rng.standard_normal((30, 7))
    y = rng.standard_normal(30)
    res = mle_best_subset(X, y, 2)
    direct = float(np.sum((y - X @ res.beta_hat) ** 2))
    assert res.objective == pytest.approx(direct, rel=1e-9)


def test_mle_tie_goes_to_first_support(rng):
    X = rng.standard_normal((20, 3))
    X[:, 1] = X[:, 0]  # identical columns tie exactly
    y = 1.5 * X[:, 0] + 0.1 * rng.standard_normal(20)
    res = mle_best_subset(X, y, 1)
    assert list(np.flatnonzero(res.beta_hat)) == [0]


def test_mle_enumeration_count_reported(rng):
    X = rng.standard_normal((15, 6))
    res = mle_best_subset(X, rng.standard_normal(15), 2)
    assert res.iterations == math.comb(6, 2)


def test_mle_capacity_cap():
    X = np.zeros((10, 30))
    with pytest.raises(CapacityError, match="exceeds enumeration cap"):
        mle_best_subset(X, np.zeros(10), 5, enum_cap=10_000)


def test_mle_k_beyond_n_rejected(rng):
    X = rng.standard_normal((3, 8))
    with pytest.raises(ValueError):
        mle_best_subset(X, np.zeros(3), 4)


def test_oracle_estimator_formula(rng):
    n, p = 30, 10
    X = rng.standard_normal((n, p))
    z = rng.standard_normal(n)
    beta = np.zeros(p)
    beta[:3] = 2.0
    lam = 0.4
    out = oracle_estimator(beta, X, z, lam)
    c = beta + X.T @ z / n
    assert np.allclose(out, np.sign(c) * np.maximum(np.abs(c) - lam, 0.0), rtol=0, atol=1e-13)


def test_oracle_estimator_noiseless_is_pure_shrinkage(rng):
    X = rng.standard_normal((20, 6))
    beta = np.array([3.0, -0.2, 0.0, 0.0, 1.0, 0.0])
    out = oracle_estimator(beta, X, np.zeros(20), 0.5)
    assert np.allclose(out, [2.5, 0.0, 0.0, 0.0, 0.5, 0.0])


def _manual_instance(entries, k, amplitude, sigma, seed=3):
    n, p = entries.shape
    design = GaussianDesign(n=n, p=p, entries=np.asfortranarray(entries))
    signal = make_signal(p, k, amplitude)
    if sigma > 0:
        z = sigma * SeedSpec(seed).generator(2).standard_normal(n)
    else:
        z = np.zeros(n)
    noise = NoiseVector(z=z, sigma=sigma)
    response = entries @ signal.dense() + z
    return Instance(design=design, noise=noise, signal=signal, response=response)


def test_aggregated_takes_lasso_branch_on_good_design():
    n = 20
    inst = _manual_instance(math.sqrt(n) * np.eye(n), k=2, amplitude=5.0, sigma=0.5)
    res, report = aggregated_estimate(inst, 2, 0.1, restarts=8)
    assert report.holds
    assert res.branch == "lasso"
    assert res.converged


def test_aggregated_falls_back_to_subset_search():
    # p > n leaves the cone constant near zero, failing the event
    spec = SeedSpec(11)
    design = gen_design(30, 35, spec)
    signal = make_signal(35, 2, 4.0)
    inst = synthesize(design, signal, 1.0, spec)
    res, report = aggregated_estimate(inst, 2, 0.1, restarts=8)
    assert not report.holds
    assert res.branch == "mle"


def test_aggregated_noiseless_needs_explicit_level():
    n = 20
    inst = _manual_instance(math.sqrt(n) * np.eye(n), k=2, amplitude=5.0, sigma=0.0)
    with pytest.raises(ValueError):
        aggregated_estimate(inst, 2, 0.1, restarts=4)
    res, report = aggregated_estimate(inst, 2, 0.1, restarts=4, lam=0.3)
    assert res.branch == "lasso"
    assert report.holds


def test_result_to_json_round_trip(rng):
    X = rng.standard_normal((15, 5))
    res = lasso_fit(X, rng.standard_normal(15), LassoConfig(lam=0.5))
    payload = res.to_json()
    assert set(payload) == {"beta_hat", "iterations", "kkt_residual", "objective", "converged"}
    assert payload["converged"] is True


def test_fits_reject_non_finite_response(rng):
    X = rng.standard_normal((20, 8))
    for bad in (math.nan, math.inf):
        y = rng.standard_normal(20)
        y[3] = bad
        with pytest.raises(ValueError, match="y must be finite"):
            lasso_fit(X, y, LassoConfig(lam=0.1))
        with pytest.raises(ValueError, match="y must be finite"):
            slope_fit(X, y, SlopeConfig(lambda_seq=np.full(8, 0.1)))
        with pytest.raises(ValueError, match="y must be finite"):
            mle_best_subset(X, y, 2)


def test_slope_step_search_is_bounded(rng):
    # X is not scanned for non-finite entries, so a NaN reaches the step
    # search, which used to halve the step to 0 and divide by it
    X = rng.standard_normal((20, 8))
    X[4, 2] = math.nan
    y = rng.standard_normal(20)
    with pytest.raises(BacktrackingError, match="halved the step"):
        slope_fit(X, y, SlopeConfig(lambda_seq=np.full(8, 0.1), lipschitz=1.0))


def test_slope_long_backtracking_still_converges(rng):
    # a start step 10^6 times too large needs about 20 halvings, well
    # inside the cap, and reaches the same solution
    X = rng.standard_normal((50, 15))
    y = X[:, 1] - X[:, 4] + 0.3 * rng.standard_normal(50)
    seq = slope_lambda_seq(0.1, 1.0, 50, 15, 0.5)
    ref = slope_fit(X, y, SlopeConfig(lambda_seq=seq, tol=1e-10))
    far = slope_fit(X, y, SlopeConfig(lambda_seq=seq, tol=1e-10, lipschitz=1e-6))
    assert ref.converged and far.converged
    assert np.allclose(far.beta_hat, ref.beta_hat, rtol=0, atol=1e-7)


def test_precomputed_design_quantities_change_no_bit(rng):
    X = np.asfortranarray(rng.standard_normal((40, 12)))
    z = rng.standard_normal(40)
    beta = np.zeros(12)
    beta[:2] = 1.5
    y = X @ beta + z
    col_sq = _kernels.col_sumsq(X)
    cold = lasso_fit(X, y, LassoConfig(lam=0.2))
    cached = lasso_fit(X, y, LassoConfig(lam=0.2), col_sq=col_sq)
    assert np.array_equal(cached.beta_hat, cold.beta_hat)
    assert cached.kkt_residual == cold.kkt_residual
    xtz = _kernels.xt_dot(X, z)
    assert np.array_equal(oracle_estimator(beta, X, z, 0.2, xtz=xtz), oracle_estimator(beta, X, z, 0.2))
    # X'y: the cold Lasso's first gradient, and the tol rule of the warm
    # Lasso and of SLOPE (cold and warm)
    xty = _kernels.xt_dot(X, y)
    warm_start = 0.5 * cold.beta_hat
    warm = lasso_fit(X, y, LassoConfig(lam=0.2), b0=warm_start)
    seq = slope_lambda_seq(0.1, 1.0, 40, 12, 0.5)
    slope_cold = slope_fit(X, y, SlopeConfig(lambda_seq=seq))
    slope_warm = slope_fit(X, y, SlopeConfig(lambda_seq=seq), b0=warm_start)
    for plain, shared in (
        (cold, lasso_fit(X, y, LassoConfig(lam=0.2), xty=xty)),
        (warm, lasso_fit(X, y, LassoConfig(lam=0.2), b0=warm_start, col_sq=col_sq, xty=xty)),
        (slope_cold, slope_fit(X, y, SlopeConfig(lambda_seq=seq), xty=xty)),
        (slope_warm, slope_fit(X, y, SlopeConfig(lambda_seq=seq), b0=warm_start, xty=xty)),
    ):
        assert np.array_equal(shared.beta_hat, plain.beta_hat)
        assert shared.kkt_residual == plain.kkt_residual
        assert shared.iterations == plain.iterations
    with pytest.raises(ValueError, match="col_sq"):
        lasso_fit(X, y, LassoConfig(lam=0.2), col_sq=col_sq[:5])
    with pytest.raises(ValueError, match="xtz"):
        oracle_estimator(beta, X, z, 0.2, xtz=xtz[:5])
    with pytest.raises(ValueError, match="xty"):
        lasso_fit(X, y, LassoConfig(lam=0.2), xty=xty[:5])
    with pytest.raises(ValueError, match="xty"):
        slope_fit(X, y, SlopeConfig(lambda_seq=seq), xty=xty[:5])


def test_gaussian_edge_tracks_the_spectral_norm():
    X = gen_design(400, 800, SeedSpec(21)).entries
    exact = float(np.linalg.svd(X, compute_uv=False)[0] ** 2) / 400
    assert _spectral_bound(X) == pytest.approx(exact, rel=0.10)
    # the same estimate from column norms the caller already has
    col_sq = _kernels.col_sumsq(X)
    assert _spectral_bound(X, col_sq) == _spectral_bound(X)


def test_slope_on_unit_norm_columns_past_the_svd_cutoff():
    # unit-norm columns make sigma_max(X)^2/n about n times smaller than
    # for raw N(0,1) entries; the start step must scale with them
    n, p = 300, 1000
    X = gen_design(n, p, SeedSpec(23)).entries
    X = np.asfortranarray(X / np.sqrt(_kernels.col_sumsq(X)))
    beta = np.zeros(p)
    beta[:4] = 3.0
    y = X @ beta + 0.05 * np.random.default_rng(5).standard_normal(n)
    seq = slope_lambda_seq(0.1, 0.05, n, p, 0.5) / math.sqrt(n)
    exact = float(np.linalg.svd(X, compute_uv=False)[0] ** 2) / n
    assert _spectral_bound(X) == pytest.approx(exact, rel=0.10)
    est = slope_fit(X, y, SlopeConfig(lambda_seq=seq, tol=1e-11))
    ref = slope_fit(X, y, SlopeConfig(lambda_seq=seq, tol=1e-11, lipschitz=exact))
    assert est.converged and ref.converged
    assert np.count_nonzero(est.beta_hat) >= 4
    assert np.allclose(est.beta_hat, ref.beta_hat, rtol=0, atol=1e-7)
    # an unscaled edge would start with a step n times too small: still
    # convergent, but in about 20 times the iterations
    assert est.iterations <= 2 * ref.iterations


def _recording_xt_dot(monkeypatch):
    """Replace the full-design product with one that logs (v, X'v)."""
    log = []
    real = _kernels.xt_dot

    def recording(x, v):
        out = real(x, v)
        log.append((np.array(v, copy=True), out))
        return out

    monkeypatch.setattr(_kernels, "xt_dot", recording)
    return log


def _carry_problem(rng):
    X = np.asfortranarray(rng.standard_normal((60, 30)))
    beta = np.zeros(30)
    beta[:3] = (2.0, -1.5, 1.0)
    y = X @ beta + 0.3 * rng.standard_normal(60)
    return X, y


@pytest.mark.parametrize("start", ["zeros", "random"])
@pytest.mark.parametrize("warm", [False, True])
def test_wrong_carried_gradient_still_converges_on_a_direct_certificate(rng, monkeypatch, start, warm):
    # g0 only steers the first step; convergence is declared on a direct
    # X'r at the returned coefficients, which is the result's gradient
    X, y = _carry_problem(rng)
    n, p = X.shape
    tol = 1e-10
    g0 = np.zeros(p) if start == "zeros" else 50.0 * rng.standard_normal(p)
    fits = (
        (lasso_fit, LassoConfig(lam=0.1, tol=tol)),
        (slope_fit, SlopeConfig(lambda_seq=slope_lambda_seq(0.1, 0.3, n, p, 0.5), tol=tol)),
    )
    for fit, cfg in fits:
        direct = fit(X, y, cfg)
        b0 = 0.5 * direct.beta_hat if warm else None
        log = _recording_xt_dot(monkeypatch)
        res = fit(X, y, cfg, b0=b0, g0=g0)
        monkeypatch.undo()
        assert res.converged and res.kkt_residual <= tol
        assert np.allclose(res.beta_hat, direct.beta_hat, rtol=0, atol=1e-8)
        v, out = log[-1]
        assert np.allclose(v, y - X @ res.beta_hat, rtol=0, atol=1e-10)
        assert res.gradient is out
        if fit is lasso_fit:
            assert estimators_mod._kkt_from_grad(out / n, res.beta_hat, cfg.lam) == res.kkt_residual


def test_slope_certifies_a_passing_carried_gradient_directly(rng, monkeypatch):
    # started at its own solution with its own gradient, the first check
    # passes on the carried gradient; a direct product still certifies it
    X, y = _carry_problem(rng)
    cfg = SlopeConfig(lambda_seq=slope_lambda_seq(0.1, 0.3, 60, 30, 0.5), tol=1e-10)
    ref = slope_fit(X, y, cfg)
    log = _recording_xt_dot(monkeypatch)
    res = slope_fit(X, y, cfg, b0=ref.beta_hat, g0=ref.gradient)
    assert res.converged and res.iterations == 0
    assert len(log) == 1 and res.gradient is log[0][1]
    assert np.array_equal(res.beta_hat, ref.beta_hat)


def test_start_points_and_gradients_are_checked_by_name(rng):
    X, y = _carry_problem(rng)
    p = X.shape[1]
    fits = (
        (lasso_fit, LassoConfig(lam=0.1)),
        (slope_fit, SlopeConfig(lambda_seq=np.full(p, 0.1))),
    )
    for fit, cfg in fits:
        with pytest.raises(ValueError, match=r"g0 has shape \(5,\)"):
            fit(X, y, cfg, g0=np.zeros(5))
        with pytest.raises(ValueError, match=r"b0 has shape \(5,\)"):
            fit(X, y, cfg, b0=np.zeros(5))
        for bad in (math.nan, math.inf, -math.inf):
            v = np.zeros(p)
            v[3] = bad
            with pytest.raises(ValueError, match="b0 must be finite"):
                fit(X, y, cfg, b0=v)
            with pytest.raises(ValueError, match="g0 must be finite"):
                fit(X, y, cfg, g0=v)
