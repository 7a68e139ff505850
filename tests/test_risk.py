"""Scalar risk closed form against quadrature and Monte Carlo, the ratio
predictions, and the replicate loop's exactness and determinism contracts."""

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

import sparse_minimax.risk as risk_mod
import sparse_minimax.rng as rng_mod
from sparse_minimax import _kernels, cli, design, tails
from sparse_minimax.config import lemma_config_from_mapping
from sparse_minimax.design import gen_design, make_signal, synthesize
from sparse_minimax.estimators import EstimatorResult, aggregated_estimate, lambda_eps, mle_best_subset
from sparse_minimax.risk import (
    ESTIMATOR_IDS,
    ExperimentConfig,
    empirical_risk,
    empirical_risks,
    minimax_denominator,
    mle_moment_estimate,
    oracle_risk_prediction,
    predicted_ratio,
    slope_highprob_check,
    st_risk_bounds_check,
    st_risk_exact,
)
from sparse_minimax.rng import SeedSpec, worker_count


def quad_st_risk(mu, tau):
    def integrand(w):
        x = mu + w
        eta = math.copysign(max(abs(x) - tau, 0.0), x)
        return (eta - mu) ** 2 * math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)

    knots = [-40.0] + sorted(t for t in (-tau - mu, tau - mu) if -40 < t < 40) + [40.0]
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        val, _ = quad(integrand, a, b, limit=200)
        total += val
    return total


@pytest.mark.parametrize(
    "mu,tau", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.5), (2.0, 2.0), (5.0, 1.0), (0.5, 4.0)]
)
def test_scalar_risk_matches_quadrature(mu, tau):
    assert st_risk_exact(mu, tau) == pytest.approx(quad_st_risk(mu, tau), abs=1e-9)


def test_scalar_risk_matches_monte_carlo(rng):
    mu, tau = 1.0, 2.0
    w = rng.standard_normal(400_000)
    x = mu + w
    eta = np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)
    draws = (eta - mu) ** 2
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(st_risk_exact(mu, tau) - draws.mean()) < 5 * se


def test_scalar_risk_no_threshold_is_unit():
    for mu in (0.0, 0.7, 3.0, -2.0):
        assert st_risk_exact(mu, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_scalar_risk_symmetric_in_mu():
    for mu, tau in [(0.5, 1.0), (2.0, 0.3), (4.0, 2.5)]:
        assert st_risk_exact(mu, tau) == pytest.approx(st_risk_exact(-mu, tau), rel=1e-13)


def test_scalar_risk_monotone_in_signal():
    tau = 1.5
    vals = [st_risk_exact(mu, tau) for mu in np.linspace(0, 5, 21)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_scalar_risk_saturates_from_below():
    assert st_risk_exact(10.0, 2.0) < 5.0
    assert 5.0 - 1e-9 <= st_risk_exact(50.0, 2.0) <= 5.0


def test_scalar_risk_zero_signal_bound():
    for tau in (0.5, 1.0, 2.0, 4.0):
        assert st_risk_exact(0.0, tau) <= math.exp(-0.5 * tau * tau)


def test_scalar_risk_rejects_negative_threshold():
    with pytest.raises(ValueError):
        st_risk_exact(1.0, -0.1)


def test_bounds_report_structure():
    report = st_risk_bounds_check([(0.0, 1.0), (2.0, 0.5)])
    assert report.all_hold
    assert report.rows[0]["bound_at_zero"] is not None
    assert report.rows[1]["bound_at_zero"] is None
    payload = report.to_json()
    assert payload["all_hold"] is True
    assert len(payload["rows"]) == 2


def test_denominator_desk_value():
    assert minimax_denominator(4000, 8000, 8, 1.0) == pytest.approx(0.027631021115928547, rel=1e-14)


def test_denominator_validation():
    with pytest.raises(ValueError):
        minimax_denominator(100, 10, 10, 1.0)
    with pytest.raises(ValueError):
        minimax_denominator(0, 10, 2, 1.0)


def test_predicted_ratio_desk_value():
    assert predicted_ratio(4000, 8000, 8, 0.1) == pytest.approx(1.282382413650542, rel=1e-14)


def test_predicted_ratio_is_prediction_over_denominator():
    # sigma cancels between the two closed forms
    for sigma in (0.5, 1.0, 3.0):
        direct = oracle_risk_prediction(500, 600, 4, sigma, 0.2) / minimax_denominator(500, 600, 4, sigma)
        assert predicted_ratio(500, 600, 4, 0.2) == pytest.approx(direct, rel=1e-12)


def _oracle_config(**kw):
    base = dict(
        n=60,
        p=30,
        k=3,
        sigma=0.0,
        eps=0.1,
        estimator_id="oracle",
        amplitudes=(4.0,),
        reps=3,
        master_seed=17,
        noise_scale=1.0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_noiseless_oracle_risk_is_pure_shrinkage():
    # z = 0 and amplitude above the threshold leave exactly k*lam^2
    cfg = _oracle_config()
    report = empirical_risk(cfg, threads=1)
    lam = lambda_eps(cfg.eps, 1.0, cfg.n, cfg.p, cfg.k)
    expect = cfg.k * lam * lam
    assert report.means[0] == pytest.approx(expect, rel=1e-12)
    assert report.stderrs[0] == 0.0
    assert report.minimax_ratio == pytest.approx((1.0 + cfg.eps) ** 2, rel=1e-12)
    assert report.flagged == 0


def test_report_is_thread_count_invariant():
    cfg = ExperimentConfig(
        n=50,
        p=25,
        k=2,
        sigma=1.0,
        eps=0.1,
        estimator_id="lasso",
        amplitudes=(2.0, 4.0),
        reps=6,
        master_seed=3,
    )
    a = empirical_risk(cfg, threads=1)
    b = empirical_risk(cfg, threads=4)
    assert a.to_json() == b.to_json()


def test_replicates_and_amplitudes_fill_error_matrix():
    cfg = _oracle_config(sigma=1.0, noise_scale=None, amplitudes=(1.0, 3.0, 5.0), reps=4)
    report = empirical_risk(cfg, threads=1)
    assert report.errors.shape == (3, 4)
    assert report.flags.shape == (3, 4)
    assert len(report.means) == 3
    assert max(report.means) / report.denominator == report.minimax_ratio


def test_nonconvergence_aborts(monkeypatch):
    def refuse(X, y, config, b0=None, col_sq=None, xty=None, gram=None):
        return EstimatorResult(np.zeros(X.shape[1]), 0, 1.0, 0.0, False)

    monkeypatch.setattr(risk_mod, "lasso_fit", refuse)
    cfg = ExperimentConfig(
        n=20,
        p=10,
        k=2,
        sigma=1.0,
        eps=0.1,
        estimator_id="lasso",
        amplitudes=(2.0,),
        reps=2,
        master_seed=0,
    )
    with pytest.raises(RuntimeError, match="failed to converge"):
        empirical_risk(cfg, threads=1)


def test_mle_never_loses_to_the_truth():
    # best subset over supports of the true size beats the true coefficients
    n, p, k, sigma = 50, 16, 2, 1.0
    scale = sigma * math.sqrt(2.0 * math.log(p / k) / n)
    for rep in range(30):
        spec = SeedSpec(41, rep)
        design = gen_design(n, p, spec)
        signal = make_signal(p, k, 4.0 * scale)
        inst = synthesize(design, signal, sigma, spec)
        res = mle_best_subset(design.entries, inst.response, k)
        truth_rss = float(inst.noise.z @ inst.noise.z)
        assert res.objective <= truth_rss + 1e-9


def test_moment_estimate_at_two_matches_mean_ratio():
    cfg = ExperimentConfig(
        n=25,
        p=8,
        k=2,
        sigma=1.0,
        eps=0.1,
        estimator_id="mle",
        amplitudes=(2.0, 4.0),
        reps=4,
        master_seed=9,
    )
    report = empirical_risk(cfg, threads=1)
    assert mle_moment_estimate(cfg, 2) == pytest.approx(2.0 * report.minimax_ratio, rel=1e-12)


def test_moment_estimate_validation():
    with pytest.raises(ValueError):
        mle_moment_estimate(_oracle_config(), 0)


def test_slope_exceedance_is_total_when_noiseless():
    # sigma = 0 zeroes the threshold, so any residual bias counts
    cfg = _oracle_config(estimator_id="slope", reps=2, p=20, n=40, k=2)
    assert slope_highprob_check(cfg) == 1.0


def test_slope_exceedance_is_a_fraction():
    cfg = ExperimentConfig(
        n=40,
        p=20,
        k=2,
        sigma=1.0,
        eps=0.1,
        estimator_id="slope",
        amplitudes=(3.0,),
        reps=3,
        master_seed=2,
    )
    out = slope_highprob_check(cfg, q=0.4)
    assert 0.0 <= out <= 1.0


def test_config_validation():
    good = dict(
        n=20,
        p=10,
        k=2,
        sigma=1.0,
        eps=0.1,
        estimator_id="lasso",
        amplitudes=(1.0,),
        reps=1,
        master_seed=0,
    )
    ExperimentConfig(**good)
    for bad in (
        dict(k=10),
        dict(k=0),
        dict(reps=0),
        dict(amplitudes=()),
        dict(estimator_id="ridge"),
        dict(sigma=-1.0),
        dict(eps=-0.5),
        dict(slope_q=1.0),
        dict(noise_scale=0.0),
        dict(amplitude_unit="decibel"),
        dict(support_rule="last_k"),
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, **bad})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "sigma": 0.0})  # needs noise_scale


def test_amplitude_units():
    cfg = ExperimentConfig(
        n=100,
        p=50,
        k=5,
        sigma=2.0,
        eps=0.1,
        estimator_id="oracle",
        amplitudes=(3.0,),
        reps=1,
        master_seed=0,
    )
    assert cfg.amplitude_scale == pytest.approx(2.0 * math.sqrt(2 * math.log(10.0) / 100))
    absolute = replace(cfg, amplitude_unit="absolute")
    assert absolute.amplitude_scale == 1.0


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", "0")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.delenv("SPARSE_MINIMAX_THREADS")
    assert worker_count() >= 1


def test_worker_count_resolution(monkeypatch):
    # a pure function of the environment, the request and the CPU affinity
    monkeypatch.delenv("SPARSE_MINIMAX_THREADS", raising=False)
    monkeypatch.setattr(rng_mod.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    monkeypatch.setattr(rng_mod, "_read_cgroup_file", lambda path: None)
    assert worker_count() == 3
    assert worker_count(7) == 7
    with pytest.raises(ValueError, match="threads must be at least 1"):
        worker_count(0)
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", "many")
    with pytest.raises(ValueError, match="SPARSE_MINIMAX_THREADS must be an integer"):
        worker_count(7)


@pytest.mark.parametrize(
    "files, expected",
    [
        ({"/sys/fs/cgroup/cpu.max": "max 100000"}, 3),
        ({"/sys/fs/cgroup/cpu.max": "150000 100000"}, 2),  # 1.5 CPUs round up
        ({"/sys/fs/cgroup/cpu.max": "50000 100000"}, 1),
        ({"/sys/fs/cgroup/cpu.max": "800000 100000"}, 3),  # the affinity is smaller
        ({"/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "-1", "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000"}, 3),
        ({"/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "200000", "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000"}, 2),
        ({"/sys/fs/cgroup/cpu.max": "garbage"}, 3),
        ({}, 3),
    ],
)
def test_worker_count_honours_the_cgroup_cpu_quota(monkeypatch, files, expected):
    monkeypatch.delenv("SPARSE_MINIMAX_THREADS", raising=False)
    monkeypatch.setattr(rng_mod.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    monkeypatch.setattr(rng_mod, "_read_cgroup_file", files.get)
    assert worker_count() == expected
    assert worker_count(7) == 7  # an explicit request is not capped


_GB = 2**30
_MEMINFO = "MemTotal:       16000000 kB\nMemAvailable:    {} kB\nBuffers:          100 kB"


@pytest.mark.parametrize(
    "files, expected",
    [
        ({}, 3),  # nothing readable: no memory cap
        ({"/proc/meminfo": _MEMINFO.format(2 * _GB // 1024)}, 2),
        ({"/proc/meminfo": _MEMINFO.format(_GB // 2048)}, 1),  # less than one design: still one worker
        ({"/sys/fs/cgroup/memory.max": str(_GB)}, 1),
        ({"/sys/fs/cgroup/memory.max": "max", "/proc/meminfo": _MEMINFO.format(64 * _GB // 1024)}, 3),
        ({"/sys/fs/cgroup/memory.max": str(2 * _GB), "/proc/meminfo": _MEMINFO.format(64 * _GB // 1024)}, 2),
        ({"/sys/fs/cgroup/memory.max": str(64 * _GB), "/proc/meminfo": _MEMINFO.format(_GB // 1024)}, 1),
        ({"/sys/fs/cgroup/memory/memory.limit_in_bytes": str(2 * _GB)}, 2),
        ({"/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712"}, 3),  # v1: no limit
        ({"/sys/fs/cgroup/memory.max": "garbage", "/proc/meminfo": "MemAvailable: lots"}, 3),
    ],
)
def test_worker_count_honours_the_memory_budget(monkeypatch, files, expected):
    # each worker holds one 1 GiB design; the budget is the smaller of the
    # cgroup memory limit and MemAvailable
    monkeypatch.delenv("SPARSE_MINIMAX_THREADS", raising=False)
    monkeypatch.setattr(rng_mod.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    monkeypatch.setattr(rng_mod, "_read_cgroup_file", files.get)
    assert worker_count(worker_bytes=_GB) == expected
    assert worker_count() == 3  # no per-worker size, no memory cap
    # an explicit request is clamped to the designs that fit, and so is the
    # environment; every budget here fits either fewer than 3 designs or
    # more than 7
    memory_cap = expected if expected < 3 else None
    assert worker_count(7, worker_bytes=_GB) == (memory_cap or 7)
    assert worker_count(7) == 7
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", "5")
    assert worker_count(worker_bytes=_GB) == (memory_cap or 5)
    assert worker_count() == 5


def test_every_parallel_draw_runs_through_draw_ranges(monkeypatch):
    # the replicate loops run on the calling thread; only a design's column
    # ranges and a registry cell's replicate ranges go to threads, each
    # with the count that worker_count resolved
    callers = []
    real = rng_mod.draw_ranges

    def spy(count, fill, threads):
        callers.append((fill.__qualname__.split(".")[0], threads))
        return real(count, fill, threads)

    for module in (design, tails):
        monkeypatch.setattr(module, "draw_ranges", spy)
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", "2")
    cfg = ExperimentConfig(
        n=30, p=50, k=2, sigma=1.0, eps=0.1, estimator_id="oracle", amplitudes=(1.0,), reps=2, master_seed=3
    )
    empirical_risks(cfg, ("oracle",))
    settings = lemma_config_from_mapping({"n": "40", "p": "20", "k": "2", "sigma": "1.0", "eps": "0.1"})
    cli._produce_check_lemma({"lemma": "gap", "reps": 2, "seed": 3, "settings": settings})
    tails.check_tail_bound("chi2_lower", grid=[{"d": 5, "tau": 0.5}], reps=100)
    assert callers == [("gen_design", 2)] * 4 + [("_chunked", 2)]


@pytest.mark.parametrize("requested, env, expected", [(None, None, None), (3, None, 3), (3, "2", 2)])
def test_empirical_risks_passes_the_resolved_thread_count_to_each_draw(
    monkeypatch, design_tracker, requested, env, expected
):
    if env is None:
        monkeypatch.delenv("SPARSE_MINIMAX_THREADS", raising=False)
    else:
        monkeypatch.setenv("SPARSE_MINIMAX_THREADS", env)
    calls = design_tracker(risk_mod)
    cfg = ExperimentConfig(
        n=30, p=50, k=2, sigma=1.0, eps=0.1, estimator_id="oracle", amplitudes=(1.0,), reps=2, master_seed=3
    )
    empirical_risks(cfg, ("oracle",), threads=requested)
    resolved = expected or worker_count()
    assert [threads for _, threads, _ in calls] == [resolved, resolved]


@pytest.mark.parametrize("threads", ["1", "2", "3"])
def test_sweep_holds_no_design_when_it_draws_the_next(monkeypatch, design_tracker, threads):
    monkeypatch.setenv("SPARSE_MINIMAX_THREADS", threads)
    calls = design_tracker(risk_mod)
    cfg = ExperimentConfig(
        n=40, p=20, k=2, sigma=1.0, eps=0.1, estimator_id="oracle", amplitudes=(1.0, 3.0), reps=4, master_seed=5
    )
    reports = empirical_risks(cfg, ESTIMATOR_IDS)
    main = threading.get_ident()
    assert calls == [(0, int(threads), main)] * cfg.reps
    assert set(reports) == set(ESTIMATOR_IDS)


def test_shared_replicate_loop_draws_each_design_once(monkeypatch):
    drawn = []
    real_gen_design = risk_mod.gen_design

    def counting_gen_design(n, p, seed, threads=None):
        drawn.append(seed)
        return real_gen_design(n, p, seed, threads)

    monkeypatch.setattr(risk_mod, "gen_design", counting_gen_design)
    cfg = ExperimentConfig(
        n=40,
        p=20,
        k=2,
        sigma=1.0,
        eps=0.1,
        estimator_id="oracle",
        amplitudes=(1.0, 3.0, 6.0),
        reps=3,
        master_seed=5,
    )
    reports = empirical_risks(cfg, ["oracle", "lasso", "slope"], threads=1)
    assert len(drawn) == cfg.reps
    assert list(reports) == ["oracle", "lasso", "slope"]
    for est, report in reports.items():
        alone = empirical_risk(replace(cfg, estimator_id=est), threads=1)
        assert report.to_json() == alone.to_json()


def test_aggregated_checks_the_event_once_per_replicate(monkeypatch):
    import sparse_minimax.diagnostics as diag_mod

    calls = []
    real_check = diag_mod.event_a_check

    def counting_check(*args, **kw):
        calls.append(args[1:])
        return real_check(*args, **kw)

    monkeypatch.setattr(diag_mod, "event_a_check", counting_check)
    cfg = ExperimentConfig(
        n=60,
        p=20,
        k=2,
        sigma=1.0,
        eps=0.1,
        estimator_id="aggregated",
        amplitudes=(1.0, 3.0, 6.0),
        reps=2,
        master_seed=5,
    )
    report = empirical_risk(cfg, threads=1)
    assert len(calls) == cfg.reps
    assert report.flagged == 0


@pytest.mark.parametrize("n, p, eps", [(1000, 40, 2.0), (30, 12, 0.1)])
@pytest.mark.parametrize("threads", [1, 2])
def test_the_sweep_takes_the_branch_of_aggregated_estimate_on_every_replicate(n, p, eps, threads):
    # the library rule, run on each amplitude's instance from a cold start,
    # picks the column the sweep reports; best subset agrees to the bit, and
    # the warm-started Lasso within what both fits' KKT tolerance allows
    cfg = ExperimentConfig(
        n=n, p=p, k=2, sigma=1.0, eps=eps, estimator_id="aggregated",
        amplitudes=(2.0, 4.0, 8.0), reps=3, master_seed=11,
    )
    reports = empirical_risks(cfg, ("lasso", "mle", "aggregated"), threads=threads)
    lam = lambda_eps(cfg.eps, cfg.sigma, n, p, cfg.k)
    for r in range(cfg.reps):
        spec = SeedSpec(cfg.master_seed, r)
        design = gen_design(n, p, spec)
        X = design.entries
        curvature = np.linalg.eigvalsh(X.T @ X / n)[0]
        for a, amp in enumerate(cfg.amplitudes):
            inst = synthesize(design, make_signal(p, cfg.k, amp * cfg.amplitude_scale), cfg.sigma, spec)
            res, _ = aggregated_estimate(inst, cfg.k, cfg.eps, seed=spec, lam=lam)
            got = reports["aggregated"].errors[a, r]
            assert got == reports[res.branch].errors[a, r]
            diff = res.beta_hat - inst.signal.dense()
            if res.branch == "mle":
                assert got == diff @ diff
            else:
                # a KKT residual of at most tol in every coordinate puts a fit
                # within sqrt(p) tol / curvature of the solution
                tol = 1e-8 * max(1.0, np.abs(X.T @ inst.response).max() / n)
                assert abs(math.sqrt(got) - math.sqrt(diff @ diff)) <= 2.0 * math.sqrt(p) * tol / curvature


def test_empirical_risks_validation():
    cfg = _oracle_config()
    with pytest.raises(ValueError, match="at least one"):
        empirical_risks(cfg, [])
    with pytest.raises(ValueError, match="'ridge'"):
        empirical_risks(cfg, ["oracle", "ridge"])
    # a repeated id is fitted once
    assert list(empirical_risks(cfg, ["oracle", "oracle"], threads=1)) == ["oracle"]


def test_slope_past_the_svd_cutoff_needs_no_power_iteration(monkeypatch):
    # 300 x 900 is past the exact-SVD size, so the start step comes from the
    # Gaussian edge; no full-design X v product is made anywhere in the run
    calls = []
    real_x_dot_dense = _kernels.x_dot_dense

    def counting_x_dot_dense(x, b):
        calls.append(x.shape)
        return real_x_dot_dense(x, b)

    monkeypatch.setattr(_kernels, "x_dot_dense", counting_x_dot_dense)
    cfg = ExperimentConfig(
        n=300,
        p=900,
        k=3,
        sigma=1.0,
        eps=0.1,
        estimator_id="slope",
        amplitudes=(1.0, 4.0),
        reps=2,
        master_seed=11,
    )
    report = empirical_risks(cfg, ["lasso", "slope"], threads=1)["slope"]
    assert calls == []
    assert report.flagged == 0


def test_an_amplitude_with_every_fit_flagged_is_an_error(monkeypatch):
    # one flagged fit in 100 stays inside the 1% rule, but with one
    # replicate it leaves its amplitude with no fit to average
    real = risk_mod.lasso_fit
    seen = []

    def flag_first(X, y, config, **kw):
        res = real(X, y, config, **kw)
        seen.append(None)
        return replace(res, converged=len(seen) > 1)

    monkeypatch.setattr(risk_mod, "lasso_fit", flag_first)
    cfg = ExperimentConfig(
        n=20,
        p=10,
        k=2,
        sigma=1.0,
        eps=0.1,
        estimator_id="lasso",
        amplitudes=tuple(0.5 + 0.1 * i for i in range(100)),
        reps=1,
        master_seed=0,
    )
    with pytest.raises(RuntimeError, match=r"every fit at amplitude 0\.5 failed to converge"):
        empirical_risk(cfg, threads=1)


# small versions of the desk sweep's shapes: first_k at two seeds, a random
# support with a zero and a negative amplitude, noiseless, and n > p
_CARRY_BASE = dict(
    n=150, p=300, k=4, sigma=1.0, eps=0.1, estimator_id="oracle",
    amplitudes=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0), reps=2, master_seed=1,
)
_CARRY_CASES = {
    "first_k": {},
    "first_k_seed_7919": dict(master_seed=7919),
    "random_support": dict(support_rule="random", amplitudes=(8.0, 4.0, 0.0, 1.0, -2.0, 0.5)),
    "noiseless": dict(sigma=0.0, noise_scale=1.0),
    "n_above_p": dict(n=300, p=150),
}


def _direct_fit(fit):
    """``fit`` as if run alone: the sweep's carried X'y and its shared Gram
    block replaced by a direct X'y and the fit's own block, the reference
    every sweep must match."""

    def run(X, y, config, b0=None, xty=None, gram=None, **kw):
        return fit(X, y, config, b0=b0, **kw)

    return run


@pytest.mark.filterwarnings("ignore:amplitude 0 gives an empty signal")
@pytest.mark.parametrize("case", sorted(_CARRY_CASES))
def test_carried_gradients_change_no_bit(monkeypatch, case):
    cfg = ExperimentConfig(**{**_CARRY_BASE, **_CARRY_CASES[case]})
    ids = ("oracle", "lasso", "slope")
    carried = {t: empirical_risks(cfg, ids, threads=t) for t in (1, 2)}
    monkeypatch.setattr(risk_mod, "lasso_fit", _direct_fit(risk_mod.lasso_fit))
    monkeypatch.setattr(risk_mod, "slope_fit", _direct_fit(risk_mod.slope_fit))
    direct = empirical_risks(cfg, ids, threads=1)
    for est in ids:
        assert direct[est].flagged == 0
        for reports in carried.values():
            assert reports[est].errors.tobytes() == direct[est].errors.tobytes()
            assert np.array_equal(reports[est].flags, direct[est].flags)
            assert reports[est].to_json() == direct[est].to_json()


def test_sweep_makes_a_pinned_number_of_products(monkeypatch):
    # per replicate: one full-design X'z, then block products only: one
    # for the support S behind h = X'X_S 1, and one per batch of columns
    # that the Lasso's and SLOPE's supports add across the six amplitudes
    # (here batches of 1, 4 and 2 columns, then of 1 and 1)
    calls = []
    for name in ("xt_dot", "gram_block"):
        real = getattr(_kernels, name)

        def counting(x, v, real=real, name=name):
            calls.append((name, np.size(v)))
            return real(x, v)

        monkeypatch.setattr(_kernels, name, counting)
    cfg = ExperimentConfig(**_CARRY_BASE)
    reports = empirical_risks(cfg, ("oracle", "lasso", "slope"), threads=1)
    assert all(r.flagged == 0 for r in reports.values())
    start = [("xt_dot", cfg.n), ("gram_block", cfg.k)]
    grown = [[("gram_block", m) for m in batches] for batches in ((1, 4, 2), (1, 1))]
    assert calls == start + grown[0] + start + grown[1]
