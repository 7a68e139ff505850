"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line to the real terminal (outside
pytest's capture) so a full run leaves a scannable scorecard. The two
xfail tests probe asymptotic statements at a fixed desk-scale problem
size where they measurably do not hold; they are strict, so silently
starting to pass would itself fail the suite.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import quad

from sparse_minimax.cli import run
from sparse_minimax.design import gen_design, make_signal, synthesize
from sparse_minimax.diagnostics import event_a_check, sparse_min_eig
from sparse_minimax.estimators import (
    LassoConfig,
    lambda_eps,
    lasso_fit,
    mle_best_subset,
    oracle_estimator,
)
from sparse_minimax.events import b_delta_check, oracle_lasso_gap_check
from sparse_minimax.risk import (
    ExperimentConfig,
    empirical_risks,
    mle_moment_estimate,
    predicted_ratio,
    slope_highprob_check,
    st_risk_bounds_check,
    st_risk_exact,
    worker_count,
)
from sparse_minimax.rng import SeedSpec
from sparse_minimax.tails import REGISTRY, binom_bound_check, check_tail_bound

# the reference problem size for the at-scale checks
DESK = dict(
    n=4000,
    p=8000,
    k=8,
    sigma=1.0,
    eps=0.1,
    amplitudes=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
    reps=200,
    master_seed=20260819,
)

MATRIX_ROWS = {"gauss_sv", "resolvent_sv", "sup_xtz", "sre_event"}


@pytest.fixture
def announce(capfd):
    def _announce(name: str, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)

    return _announce


@pytest.fixture(scope="module")
def desk_reports():
    """Oracle and Lasso risk at the desk size from one pass that fits both on
    each replicate's design, and the wall time of that pass."""
    cfg = ExperimentConfig(estimator_id="oracle", **DESK)
    t0 = time.monotonic()
    reports = empirical_risks(cfg, ("oracle", "lasso"))
    return cfg, reports["oracle"], reports["lasso"], time.monotonic() - t0


def _quad_st_risk(mu: float, tau: float) -> float:
    """Adaptive quadrature of E (eta_tau(mu + w) - mu)^2 over w ~ N(0,1),
    with the integrand's kinks handed to quad as breakpoints."""

    def integrand(w: float) -> float:
        u = mu + w
        est = math.copysign(max(abs(u) - tau, 0.0), u)
        return (est - mu) ** 2 * math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)

    knots = [x for x in (-tau - mu, tau - mu) if -40.0 < x < 40.0]
    val, _ = quad(integrand, -40.0, 40.0, points=sorted(set(knots)) or None, limit=200)
    return val


def test_st_risk_matches_quadrature(announce):
    t0 = time.monotonic()
    grid = [(mu, tau) for mu in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0) for tau in (0.0, 0.5, 1.0, 2.0, 4.0)]
    worst = max(abs(st_risk_exact(mu, tau) - _quad_st_risk(mu, tau)) for mu, tau in grid)
    bounds = st_risk_bounds_check(grid)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and bounds.all_hold and elapsed < 5.0
    announce(
        "st-risk-closed-form",
        ok,
        f"max|closed-quad|={worst:.2e} bounds_hold={bounds.all_hold} elapsed={elapsed:.2f}s",
    )
    assert worst <= 1e-8
    assert bounds.all_hold
    assert elapsed < 5.0


def test_oracle_hits_predicted_constant(desk_reports, announce):
    cfg, rep_o, _, elapsed = desk_reports
    ratio = rep_o.minimax_ratio
    target = predicted_ratio(cfg.n, cfg.p, cfg.k, cfg.eps)
    ok = abs(ratio - target) <= 0.10 and elapsed <= 600.0
    announce(
        "oracle-constant",
        ok,
        f"ratio={ratio:.4f} predicted={target:.4f} window=0.10 elapsed={elapsed:.0f}s",
    )
    assert abs(ratio - target) <= 0.10
    assert elapsed <= 600.0


def test_lasso_tracks_oracle(desk_reports, announce):
    _, rep_o, rep_l, elapsed = desk_reports
    ratio_o = rep_o.minimax_ratio
    ratio_l = rep_l.minimax_ratio
    gap = abs(ratio_l - ratio_o)
    ok = gap <= 0.15 and elapsed <= 1800.0
    announce(
        "lasso-tracks-oracle",
        ok,
        f"lasso={ratio_l:.4f} oracle={ratio_o:.4f} gap={gap:.4f} window=0.15 elapsed={elapsed:.0f}s",
    )
    assert gap <= 0.15
    assert elapsed <= 1800.0


def test_oracle_lasso_gap_at_scale(announce):
    n, p, k, sigma, eps = DESK["n"], DESK["p"], DESK["k"], DESK["sigma"], DESK["eps"]
    k_star = 2 * k
    lam = lambda_eps(eps, sigma, n, p, k)
    amp = 4.0 * sigma * math.sqrt(2.0 * math.log(p / k) / n)  # mid-sweep signal level
    reps = 100

    def replicate(rep: int):
        spec = SeedSpec(DESK["master_seed"], rep)
        design = gen_design(n, p, spec)
        signal = make_signal(p, k, amp, seed=spec)
        inst = synthesize(design, signal, sigma, spec)
        beta = signal.dense()
        res = lasso_fit(design.entries, inst.response, LassoConfig(lam=lam))
        beta_o = oracle_estimator(beta, design.entries, inst.noise.z, lam)
        report = b_delta_check(inst, res.beta_hat, beta_o, k_star)
        check = oracle_lasso_gap_check(beta, res.beta_hat, beta_o, report)
        return report.contains_all, check.vacuous, check.holds

    # each worker holds its own desk design; pool.map returns by index
    with ThreadPoolExecutor(max_workers=worker_count(worker_bytes=8 * n * p)) as pool:
        results = list(pool.map(replicate, range(reps)))
    contained = sum(c for c, _, _ in results)
    checked = sum(not v for _, v, _ in results)
    violations = sum(not v and not h for _, v, h in results)
    rate = contained / reps
    ok = violations == 0 and checked > 0 and rate >= 0.90
    announce(
        "oracle-lasso-gap",
        ok,
        f"non_vacuous={checked}/{reps} violations={violations} containment={rate:.2f} needed>=0.90",
    )
    assert violations == 0
    assert checked > 0
    assert rate >= 0.90


def _naive_best_rss(X: np.ndarray, y: np.ndarray, k: int) -> float:
    best = math.inf
    for support in combinations(range(X.shape[1]), k):
        cols = X[:, list(support)]
        coef = np.linalg.lstsq(cols, y, rcond=None)[0]
        resid = y - cols @ coef
        best = min(best, float(resid @ resid))
    return best


def test_best_subset_exact_and_bounded(announce):
    n, p, k, sigma = 50, 16, 2, 1.0
    amp = 4.0 * sigma * math.sqrt(2.0 * math.log(p / k) / n)
    reps = 500
    max_gap = 0.0
    basic = 0
    for rep in range(reps):
        spec = SeedSpec(DESK["master_seed"], rep)
        design = gen_design(n, p, spec)
        signal = make_signal(p, k, amp, seed=spec)
        inst = synthesize(design, signal, sigma, spec)
        res = mle_best_subset(design.entries, inst.response, k)
        max_gap = max(max_gap, abs(res.objective - _naive_best_rss(design.entries, inst.response, k)))
        basic += res.objective <= float(inst.noise.z @ inst.noise.z) + 1e-9
    cfg = ExperimentConfig(estimator_id="mle", n=n, p=p, k=k, sigma=sigma, eps=0.1,
                           amplitudes=DESK["amplitudes"], reps=reps, master_seed=DESK["master_seed"])
    moment = mle_moment_estimate(cfg, 4)
    ok = max_gap <= 1e-10 and basic == reps and moment <= 10.0
    announce(
        "best-subset-exact",
        ok,
        f"max|rss-naive|={max_gap:.2e} basic_inequality={basic}/{reps} m4_moment={moment:.3f} cap=10",
    )
    assert max_gap <= 1e-10
    assert basic == reps
    assert moment <= 10.0


def test_concentration_registry(announce):
    t0 = time.monotonic()
    failing = []
    for lemma_id in sorted(REGISTRY):
        reps = 1_000 if lemma_id in MATRIX_ROWS else 100_000
        report = check_tail_bound(lemma_id, reps=reps, seed=0)
        if not report.passed:
            failing.append(lemma_id)
    binom_bad = sum(
        not binom_bound_check(pp, s)[2] for pp in range(1, 61) for s in range(1, pp + 1)
    )
    elapsed = time.monotonic() - t0
    ok = not failing and binom_bad == 0 and elapsed <= 600.0
    announce(
        "tail-registry",
        ok,
        f"rows_failing={failing or 'none'} binom_violations={binom_bad} elapsed={elapsed:.0f}s cap=600s",
    )
    assert not failing
    assert binom_bad == 0
    assert elapsed <= 600.0


def test_sparse_floor_monotone(announce):
    sizes = [(10 + 2 * (i % 11), 6 + i % 9) for i in range(50)]  # p ranges over 6..14
    worst = 0.0
    for i, (n, p) in enumerate(sizes):
        X = gen_design(n, p, SeedSpec(777, i)).entries
        vals = [sparse_min_eig(X, s) for s in range(1, p + 1)]
        worst = max(worst, max(vals[j + 1] - vals[j] for j in range(len(vals) - 1)))
    ok = worst <= 1e-12
    announce("sparse-floor-monotone", ok, f"designs=50 max_increase={worst:.2e}")
    assert worst <= 1e-12


def test_event_holds_on_orthogonal_design(announce):
    n = p = 24
    X = math.sqrt(n) * np.eye(p)
    eps_grid = (0.05, 0.1, 0.5, 1.0, 2.0)
    held = [event_a_check(X, 3, eps, restarts=8, seed=SeedSpec(3)).holds for eps in eps_grid]
    ok = all(held)
    announce("event-on-orthogonal", ok, f"eps_grid={eps_grid} held={sum(held)}/{len(held)}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="column-norm headroom 1+delta0 is asymptotic: at n=4000, p=200, eps=0.1 "
    "some column of a Gaussian draw exceeds it almost every time, so the "
    "conditioning event essentially never holds at this size",
)
def test_event_rate_on_gaussian_design(announce):
    n, p, k, eps = 4000, 200, 5, 0.1
    held = 0
    reps = 100
    for rep in range(reps):
        spec = SeedSpec(DESK["master_seed"], rep)
        X = gen_design(n, p, spec).entries
        held += event_a_check(X, k, eps, restarts=16, seed=spec).holds
    rate = held / reps
    ok = rate >= 0.95
    announce("event-rate-gaussian", ok, f"rate={rate:.2f} needed>=0.95 (strict xfail)")
    assert rate >= 0.95


@pytest.mark.xfail(
    strict=True,
    reason="the (2+6 eps) high-probability level for the sorted penalty is an "
    "asymptotic statement; at n=4000, p=8000 the worst-amplitude error exceeds "
    "it on around 40% of replicates, far above the 10% allowance",
)
def test_slope_error_level(announce):
    cfg = ExperimentConfig(estimator_id="slope", **{**DESK, "reps": 100})
    frac = slope_highprob_check(cfg, q=0.5)
    ok = frac <= 0.10
    announce("slope-error-level", ok, f"exceedance={frac:.2f} needed<=0.10 (strict xfail)")
    assert frac <= 0.10


def test_thread_count_reproducibility(tmp_path, announce):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "n = 200\np = 100\nk = 4\nsigma = 1.0\neps = 0.1\nestimator_id = lasso\n"
        "amplitudes = 2.0, 4.0\nreps = 8\nmaster_seed = 7\n"
    )
    outs = {}
    for threads in (1, 8):
        out = tmp_path / f"t{threads}"
        out.mkdir()
        code = run(["simulate-risk", "--config", str(cfg), "--out", str(out), "--threads", str(threads)])
        assert code == 0
        outs[threads] = out
    identical = (outs[1] / "risk_lasso.csv").read_bytes() == (outs[8] / "risk_lasso.csv").read_bytes()
    replay_ok = all(run(["replay", str(outs[t] / "manifest.json")]) == 0 for t in (1, 8))
    ok = identical and replay_ok
    announce("thread-reproducibility", ok, f"csv_identical={identical} replay_ok={replay_ok}")
    assert identical
    assert replay_ok
