"""Monte Carlo risk estimation and the minimax-ratio experiment.

The central quantity is the squared-error risk of an estimator over fresh
Gaussian designs and noise, swept over signal amplitudes as a stand-in for
the supremum over k-sparse signals, and normalized by the target level
2 sigma^2 k log(p/k) / n.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr

from . import _kernels as _k
from .design import gen_design, make_signal, synthesize
from .estimators import (
    LassoConfig,
    SlopeConfig,
    _spectral_bound,
    aggregated_estimate,
    lambda_eps,
    lasso_fit,
    mle_best_subset,
    oracle_estimator,
    slope_fit,
    slope_lambda_seq,
)
from .rng import SeedSpec

ESTIMATOR_IDS = ("lasso", "slope", "mle", "oracle", "aggregated")

_THREADS_ENV = "SPARSE_MINIMAX_THREADS"


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


def worker_count(requested: int | None = None, worker_bytes: int | None = None) -> int:
    """Thread count for replicate loops: SPARSE_MINIMAX_THREADS if set,
    otherwise ``requested``, otherwise the number of CPUs this process may
    run on, capped by the cgroup CPU quota and, when each worker holds
    ``worker_bytes`` (e.g. its own design), by how many such workers fit in
    the memory budget (at least one). Results never depend on this."""
    raw = os.environ.get(_THREADS_ENV)
    if raw is not None:
        try:
            count = int(raw)
        except ValueError:
            raise ValueError(f"{_THREADS_ENV} must be an integer, got {raw!r}") from None
        if count < 1:
            raise ValueError(f"{_THREADS_ENV} must be at least 1, got {raw}")
        return count
    if requested is not None:
        if requested < 1:
            raise ValueError(f"threads must be at least 1, got {requested}")
        return requested
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


@dataclass(frozen=True)
class ExperimentConfig:
    """A complete description of one risk experiment.

    ``amplitudes`` are multiples of the threshold scale
    sigma*sqrt(2 log(p/k)/n) by default (``amplitude_unit="threshold"``);
    set ``amplitude_unit="absolute"`` to pass raw coefficient values.
    ``noise_scale`` supplies the scale for penalty levels and the risk
    denominator when sigma is 0, so noiseless runs stay meaningful.
    """

    n: int
    p: int
    k: int
    sigma: float
    eps: float
    estimator_id: str
    amplitudes: tuple[float, ...]
    reps: int
    master_seed: int
    slope_q: float = 0.5
    noise_scale: float | None = None
    amplitude_unit: str = "threshold"
    support_rule: str = "first_k"

    def __post_init__(self) -> None:
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))
        for name in ("sigma", "eps", "slope_q", "noise_scale"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for a in self.amplitudes:
            if not math.isfinite(a):
                raise ValueError(f"amplitudes must be finite, got {a}")
        if not 1 <= self.k < self.p:
            raise ValueError(f"need 1 <= k < p, got k={self.k}, p={self.p}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        if not self.amplitudes:
            raise ValueError("amplitudes must be nonempty")
        if self.estimator_id not in ESTIMATOR_IDS:
            raise ValueError(f"estimator_id must be one of {ESTIMATOR_IDS}, got {self.estimator_id!r}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.eps < 0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if not 0 < self.slope_q < 1:
            raise ValueError(f"slope_q must lie in (0, 1), got {self.slope_q}")
        if self.noise_scale is not None and not self.noise_scale > 0:
            raise ValueError(f"noise_scale must be positive, got {self.noise_scale}")
        if self.sigma == 0 and self.noise_scale is None:
            raise ValueError("sigma = 0 needs noise_scale to set penalty levels and the risk denominator")
        if self.amplitude_unit not in ("threshold", "absolute"):
            raise ValueError(f"amplitude_unit must be 'threshold' or 'absolute', got {self.amplitude_unit!r}")
        if self.support_rule not in ("first_k", "random"):
            raise ValueError(f"support_rule must be 'first_k' or 'random', got {self.support_rule!r}")

    @property
    def sigma_eff(self) -> float:
        """Scale used for penalties and normalization: sigma, or
        noise_scale when running noiseless."""
        return self.sigma if self.sigma > 0 else float(self.noise_scale)  # type: ignore[arg-type]

    @property
    def amplitude_scale(self) -> float:
        if self.amplitude_unit == "absolute":
            return 1.0
        return self.sigma_eff * math.sqrt(2.0 * math.log(self.p / self.k) / self.n)


@dataclass(frozen=True)
class RiskReport:
    """Per-amplitude squared-error summaries plus the headline ratio.

    ``errors`` has shape (n_amplitudes, reps) and keeps every replicate;
    ``flags`` marks fits that failed to converge, which are excluded from
    the means. ``stderrs`` are sample std / sqrt(reps used).
    ``minimax_ratio`` is the largest mean over ``denominator``, the level
    2 sigma^2 k log(p/k) / n (sigma taken from noise_scale when 0).
    """

    amplitudes: tuple[float, ...]
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    errors: np.ndarray
    flags: np.ndarray
    flagged: int
    denominator: float
    minimax_ratio: float

    def to_json(self) -> dict:
        return {
            "amplitudes": [float(a) for a in self.amplitudes],
            "means": [float(m) for m in self.means],
            "stderrs": [float(s) for s in self.stderrs],
            "errors": [[float(e) for e in row] for row in self.errors],
            "flags": [[bool(f) for f in row] for row in self.flags],
            "flagged": int(self.flagged),
            "denominator": float(self.denominator),
            "minimax_ratio": float(self.minimax_ratio),
        }


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def st_risk_exact(mu: float, tau: float) -> float:
    """E(eta_tau(mu + w) - mu)^2 for w ~ N(0,1), in closed form.

    Symmetric in mu; equals 1 at tau=0 and approaches 1 + tau^2 as
    |mu| grows. Validated against adaptive quadrature of the defining
    integral in the test suite.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    a = float(ndtr(tau - mu) - ndtr(-tau - mu))
    return (
        1.0
        + tau * tau
        + (mu * mu - tau * tau - 1.0) * a
        - (tau - mu) * _phi(tau + mu)
        - (tau + mu) * _phi(tau - mu)
    )


@dataclass(frozen=True)
class StRiskBoundsReport:
    rows: tuple[dict, ...]
    all_hold: bool

    def to_json(self) -> dict:
        return {"rows": [dict(r) for r in self.rows], "all_hold": bool(self.all_hold)}


def st_risk_bounds_check(grid) -> StRiskBoundsReport:
    """Check r(0;tau) <= exp(-tau^2/2) and r(mu;tau) <= 1 + tau^2 on a grid
    of (mu, tau) pairs, using the closed form."""
    rows = []
    ok_all = True
    for mu, tau in grid:
        risk = st_risk_exact(mu, tau)
        global_bound = 1.0 + tau * tau
        ok = risk <= global_bound + 1e-12
        zero_bound = None
        if mu == 0.0:
            zero_bound = math.exp(-0.5 * tau * tau)
            ok = ok and risk <= zero_bound + 1e-12
        rows.append(
            {
                "mu": float(mu),
                "tau": float(tau),
                "risk": float(risk),
                "bound_global": float(global_bound),
                "bound_at_zero": None if zero_bound is None else float(zero_bound),
                "ok": bool(ok),
            }
        )
        ok_all = ok_all and ok
    return StRiskBoundsReport(tuple(rows), ok_all)


def minimax_denominator(n: int, p: int, k: int, sigma: float) -> float:
    """The target risk level 2 sigma^2 k log(p/k) / n."""
    if not 1 <= k < p:
        raise ValueError(f"need 1 <= k < p, got k={k}, p={p}")
    if n < 1 or sigma < 0:
        raise ValueError(f"need n >= 1 and sigma >= 0, got n={n}, sigma={sigma}")
    return 2.0 * sigma * sigma * k * math.log(p / k) / n


def oracle_risk_prediction(n: int, p: int, k: int, sigma: float, eps: float) -> float:
    """Finite-n prediction for the oracle estimator's worst-case risk:
    k sigma^2/n from the support coordinates' noise plus k lambda_eps^2
    from their shrinkage."""
    lam = lambda_eps(eps, sigma, n, p, k)
    return k * sigma * sigma / n + k * lam * lam


def predicted_ratio(n: int, p: int, k: int, eps: float) -> float:
    """oracle_risk_prediction over minimax_denominator, which collapses to
    (1+eps)^2 + 1/(2 log(p/k)) independent of sigma."""
    if not 1 <= k < p:
        raise ValueError(f"need 1 <= k < p, got k={k}, p={p}")
    return (1.0 + eps) ** 2 + 1.0 / (2.0 * math.log(p / k))


def _replicate_errors(config: ExperimentConfig, ids, rep: int, lam: float, seq, amps_abs):
    """Squared errors and convergence flags, each (len(ids), n_amplitudes),
    for one replicate of every estimator in ``ids``.

    Pure function of (config, ids, rep): the design, noise, and any support
    draw all come from the replicate's own stream. The design is drawn once,
    and its column norms, X'z and SLOPE's start step are computed once per
    replicate; each depends only on the design and the noise, which every
    amplitude shares (z is the noise role's slot 0, and the support role
    redraws the same support).

    Every amplitude's response is y_a = X_S (a 1) + z on one support S, so
    with h = X'(X_S 1), taken once, X'y_a = X'z + a h, and the Lasso's and
    SLOPE's start gradients X'(y_a - X b) at the previous amplitude's
    solution b are that fit's final ``gradient`` plus (a - a_prev) h. Both
    fits take those as ``xty`` and ``g0`` instead of full-design products;
    each still certifies its result on a direct product, and an amplitude
    whose support is not h's gets direct products and starts the carry
    afresh. Each estimator's bytes are as when it runs alone.
    """
    spec = SeedSpec(config.master_seed, rep)
    design = gen_design(config.n, config.p, spec)
    X = design.entries
    iterative = "lasso" in ids or "slope" in ids  # the fits that use col_sq and X'y
    col_sq = _k.col_sumsq(X) if iterative else None
    lip = _spectral_bound(X, col_sq) if "slope" in ids else None
    xtz = h = h_support = None
    coef_prev = None  # the signal value that the carried gradients belong to

    errs = np.empty((len(ids), len(amps_abs)))
    flags = np.zeros((len(ids), len(amps_abs)), dtype=bool)
    warm = [None] * len(ids)  # previous amplitude's solution; same design, so a good start
    grads = [None] * len(ids)  # X'(y - X warm) at the previous amplitude
    for a, amp in enumerate(amps_abs):
        signal = make_signal(config.p, config.k, amp, config.support_rule, spec)
        inst = synthesize(design, signal, config.sigma, spec)
        beta = signal.dense()
        if xtz is None and (iterative or "oracle" in ids):
            xtz = _k.xt_dot(X, inst.noise.z)
        if iterative:
            support = signal.support
            if support.size and h is None:
                h_support = support
                h = _k.xt_dot(X, _k.x_dot_sparse(X, support, np.ones(support.size)))
            # amplitude 0 has an empty support and y = z
            coef = amp if support.size == 0 or np.array_equal(support, h_support) else None
            if coef is None:
                xty = _k.xt_dot(X, inst.response)
                shift = None
            else:
                xty = xtz + coef * h if coef else xtz
                shift = None if coef_prev is None else coef - coef_prev
            coef_prev = coef
        for e, est in enumerate(ids):
            if est == "oracle":
                beta_hat = oracle_estimator(beta, X, inst.noise.z, lam, xtz=xtz)
            elif est in ("lasso", "slope"):
                g0 = None
                if grads[e] is not None and shift is not None:
                    g0 = grads[e] + shift * h if shift else grads[e]
                if est == "lasso":
                    res = lasso_fit(
                        X, inst.response, LassoConfig(lam=lam), b0=warm[e], col_sq=col_sq, xty=xty, g0=g0
                    )
                else:
                    res = slope_fit(
                        X, inst.response, SlopeConfig(lambda_seq=seq, lipschitz=lip), b0=warm[e], xty=xty, g0=g0
                    )
                beta_hat = warm[e] = res.beta_hat
                grads[e] = res.gradient
                flags[e, a] = not res.converged
            elif est == "mle":
                beta_hat = mle_best_subset(X, inst.response, config.k).beta_hat
            else:
                res, _ = aggregated_estimate(inst, config.k, config.eps, seed=spec, lam=lam)
                beta_hat = res.beta_hat
                flags[e, a] = not res.converged
            diff = beta_hat - beta
            errs[e, a] = float(diff @ diff)
    return errs, flags


def _risk_report(config: ExperimentConfig, est: str, errors: np.ndarray, flags: np.ndarray) -> RiskReport:
    flagged = int(flags.sum())
    total = flags.size
    if flagged > 0.01 * total:
        raise RuntimeError(
            f"{est}: {flagged} of {total} fits failed to converge (> 1%); "
            "raise max_iter or loosen tol instead of trusting these means"
        )

    means = []
    stderrs = []
    for a in range(errors.shape[0]):
        vals = errors[a][~flags[a]]
        if vals.size == 0:
            raise RuntimeError(
                f"{est}: every fit at amplitude {config.amplitudes[a]} failed to converge; "
                "that amplitude has no mean"
            )
        means.append(float(np.mean(vals)))
        if vals.size >= 2:
            stderrs.append(float(np.std(vals, ddof=1) / math.sqrt(vals.size)))
        else:
            stderrs.append(0.0)

    denom = minimax_denominator(config.n, config.p, config.k, config.sigma_eff)
    return RiskReport(
        amplitudes=config.amplitudes,
        means=tuple(means),
        stderrs=tuple(stderrs),
        errors=errors,
        flags=flags,
        flagged=flagged,
        denominator=denom,
        minimax_ratio=max(means) / denom,
    )


def empirical_risks(config: ExperimentConfig, estimator_ids, threads: int | None = None) -> dict[str, RiskReport]:
    """Mean squared error per amplitude over fresh (X, z) draws, for each
    estimator in ``estimator_ids`` (``config.estimator_id`` is not used).

    Every estimator sees the same replicates: replicate r draws its design
    once from stream r of the master seed and fits every estimator on it.
    Results land in a preallocated array by index and means use numpy's
    pairwise sums, so each report is bit-identical for any thread count and
    to an :func:`empirical_risk` run of that estimator alone. Non-converged
    fits are flagged and excluded from the means; more than 1% flagged for
    any estimator aborts the run.
    """
    ids = tuple(dict.fromkeys(estimator_ids))
    if not ids:
        raise ValueError("estimator_ids must name at least one estimator")
    for est in ids:
        if est not in ESTIMATOR_IDS:
            raise ValueError(f"estimator ids must be among {ESTIMATOR_IDS}, got {est!r}")
    threads = worker_count(threads, worker_bytes=8 * config.n * config.p)  # a float64 design each
    needs_lam = any(est in ("lasso", "oracle", "aggregated") for est in ids)
    lam = lambda_eps(config.eps, config.sigma_eff, config.n, config.p, config.k) if needs_lam else 0.0
    seq = (
        slope_lambda_seq(config.eps, config.sigma_eff, config.n, config.p, config.slope_q)
        if "slope" in ids
        else None
    )
    scale = config.amplitude_scale
    amps_abs = tuple(a * scale for a in config.amplitudes)

    shape = (len(ids), len(amps_abs), config.reps)
    errors = np.empty(shape)
    flags = np.zeros(shape, dtype=bool)

    def run(rep: int):
        return rep, *_replicate_errors(config, ids, rep, lam, seq, amps_abs)

    if threads == 1 or config.reps == 1:
        for rep, errs, flg in map(run, range(config.reps)):
            errors[:, :, rep] = errs
            flags[:, :, rep] = flg
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for rep, errs, flg in pool.map(run, range(config.reps)):
                errors[:, :, rep] = errs
                flags[:, :, rep] = flg

    return {est: _risk_report(config, est, errors[e], flags[e]) for e, est in enumerate(ids)}


def empirical_risk(config: ExperimentConfig, threads: int | None = None) -> RiskReport:
    """:func:`empirical_risks` for the one estimator ``config.estimator_id``."""
    return empirical_risks(config, (config.estimator_id,), threads)[config.estimator_id]


def slope_highprob_check(config: ExperimentConfig, q: float | None = None) -> float:
    """Worst-amplitude fraction of replicates whose squared error exceeds
    (2+6 eps) sigma^2 k log(p/k) / n, with the estimator forced to SLOPE.

    The threshold uses the true noise level sigma (zero when noiseless),
    matching the statement being probed."""
    cfg = replace(config, estimator_id="slope", slope_q=config.slope_q if q is None else q)
    report = empirical_risk(cfg)
    threshold = (
        (2.0 + 6.0 * cfg.eps) * cfg.sigma**2 * cfg.k * math.log(cfg.p / cfg.k) / cfg.n
    )
    worst = 0.0
    for a in range(len(report.amplitudes)):
        vals = report.errors[a][~report.flags[a]]
        if vals.size:
            worst = max(worst, float(np.mean(vals > threshold)))
    return worst


def mle_moment_estimate(config: ExperimentConfig, m: int) -> float:
    """Worst-amplitude empirical (E ||err||^m)^(2/m), normalized by
    sigma^2 k log(p/k) / n, with the estimator forced to best-subset."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    cfg = replace(config, estimator_id="mle")
    report = empirical_risk(cfg)
    worst = 0.0
    for a in range(len(report.amplitudes)):
        vals = report.errors[a][~report.flags[a]]
        if vals.size:
            worst = max(worst, float(np.mean(vals ** (m / 2.0)) ** (2.0 / m)))
    if worst == 0.0:
        return 0.0
    s = cfg.sigma_eff
    return worst / (s * s * cfg.k * math.log(cfg.p / cfg.k) / cfg.n)
