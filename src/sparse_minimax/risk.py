"""Monte Carlo risk estimation and the minimax-ratio experiment.

The central quantity is the squared-error risk of an estimator over fresh
Gaussian designs and noise, swept over signal amplitudes as a stand-in for
the supremum over k-sparse signals, and normalized by the target level
2 sigma^2 k log(p/k) / n. Every replicate design, here and in the proof
drivers, is drawn by :func:`map_replicates`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import _kernels as _k
from . import diagnostics
from ._special import norm_cdf
from .design import gen_design, make_signal, synthesize
from .estimators import (
    LassoConfig,
    SlopeConfig,
    _spectral_bound,
    lambda_eps,
    lasso_fit,
    mle_best_subset,
    oracle_estimator,
    slope_fit,
    slope_lambda_seq,
)
from .rng import SeedSpec

ESTIMATOR_IDS = ("lasso", "slope", "mle", "oracle", "aggregated")


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
        check_response_energy(
            "amplitudes", self.n, self.p, self.k, self.sigma, max(abs(a) for a in self.amplitudes),
            None if self.amplitude_unit == "absolute" else self.sigma_eff,
        )
        predicted_ratio(self.n, self.p, self.k, self.eps)  # refuses an eps it cannot report

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
    a = norm_cdf(tau - mu) - norm_cdf(-tau - mu)
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
    try:
        return (1.0 + eps) ** 2 + 1.0 / (2.0 * math.log(p / k))
    except OverflowError:
        raise ValueError(f"eps is too large: (1 + eps)^2 overflows a float, got eps={eps}") from None


def check_response_energy(
    field: str, n: int, p: int, k: int, sigma: float, amplitude: float, unit_sigma: float | None
) -> None:
    """Refuse settings whose response energy n (sigma^2 + k a^2) overflows
    a float, naming sigma and ``field``; their draws would overflow in the
    fits and reports, or lose the noise in rounding. a is the largest
    absolute amplitude: |amplitude| in units of the threshold scale
    unit_sigma sqrt(2 log(p/k) / n), or in absolute units when unit_sigma
    is None."""
    try:
        a = abs(amplitude) * (1.0 if unit_sigma is None else unit_sigma * math.sqrt(2.0 * math.log(p / k) / n))
        energy = n * (sigma * sigma + k * a * a)
    except OverflowError:  # n or p beyond a float
        energy = math.inf
    if not math.isfinite(energy):
        raise ValueError(
            f"sigma={sigma!r} and {field}={amplitude!r} give a response energy n(sigma^2 + k a^2) that overflows"
            f" a float (n={n}, k={k}, a the largest absolute amplitude)"
        )


def map_replicates(n: int, p: int, seed: int, reps: int, fn, threads: int | None = None) -> list:
    """``[fn(spec, design) for each replicate r < reps]``, where replicate r
    has ``spec = SeedSpec(seed, r)`` and the design ``gen_design(n, p, spec,
    threads)``.

    This is the one place a replicate becomes a design: the risk sweep and
    every proof driver go through it. Replicates run one at a time on the
    calling thread, and ``threads``, the command's request, only splits each
    design's draw. Only fn's result is kept, so fn must return small values
    that do not hold the design. The design is passed to fn as a temporary
    that nothing here names, so it is freed when fn returns, before the
    next one is drawn. (A generator of designs would not do: its frame and
    the loop variable both hold design r while design r+1 is drawn.)
    """
    results = []
    for rep in range(reps):
        spec = SeedSpec(seed, rep)
        results.append(fn(spec, gen_design(n, p, spec, threads)))
    return results


def _replicate_errors(config: ExperimentConfig, ids, lam: float, seq, amps_abs, spec: SeedSpec, design):
    """Squared errors and convergence flags, each (len(ids), n_amplitudes),
    for one replicate of every estimator in ``ids``.

    Pure function of (config, ids, spec, design). One ``make_signal`` and
    one ``synthesize`` draw the replicate's support S (``first_k``, or the
    support role's slot 0 for ``random``) and noise z (the noise role's
    slot 0); amplitude a has the response y_a = X_S (a 1) + z, formed as
    ``synthesize`` forms it (y = z at a = 0). The column norms, X'z,
    SLOPE's start step and the event check are computed once per replicate
    too. The aggregated column is the Lasso's where the event holds and
    best subset's where it fails, and each distinct fit runs once per
    amplitude, however many ids ask for it.

    With h = X'(X_S 1), taken once at the first nonzero amplitude,
    X'y_a = X'z + a h, and the Lasso's and SLOPE's start gradients
    X'(y_a - X b) at the previous amplitude's solution b are that fit's
    final ``gradient`` plus (a - a_prev) h. Both fits take those as ``xty``
    and ``g0`` instead of full-design products; each still certifies its
    result on a direct product. Each estimator's bytes are as when it runs
    alone.
    """
    X = design.entries
    if "aggregated" in ids:  # looked up at call time, so a wrapper of diagnostics' check sees it
        branch = "lasso" if diagnostics.event_a_check(X, config.k, config.eps, seed=spec).holds else "mle"
    column = {est: branch if est == "aggregated" else est for est in ids}
    fits = tuple(dict.fromkeys(column.values()))
    iterative = "lasso" in fits or "slope" in fits  # the fits that use col_sq and X'y
    col_sq = _k.col_sumsq(X) if iterative else None
    lip = _spectral_bound(X, col_sq) if "slope" in fits else None
    signal = make_signal(config.p, config.k, 1.0, config.support_rule, spec)  # S for every amplitude
    z = synthesize(design, signal, config.sigma, spec).noise.z
    support = signal.support
    X_S = X[:, support]
    xtz = _k.xt_dot(X, z) if iterative or "oracle" in fits else None
    h = None

    errs = np.empty((len(fits), len(amps_abs)))
    flags = np.zeros((len(fits), len(amps_abs)), dtype=bool)
    warm = [None] * len(fits)  # previous amplitude's solution; same design, so a good start
    grads = [None] * len(fits)  # X'(y - X warm) at the previous amplitude
    for a, amp in enumerate(amps_abs):
        y = X_S @ np.full(config.k, amp) + z if amp else z
        beta = np.zeros(config.p)
        beta[support] = amp
        if iterative:
            if amp and h is None:
                h = _k.xt_dot(X, _k.x_dot_sparse(X, support, np.ones(support.size)))
            xty = xtz + amp * h if amp else xtz
            shift = amp - amps_abs[a - 1] if a else 0.0  # the first amplitude carries no gradient
        for e, est in enumerate(fits):
            if est == "oracle":
                beta_hat = oracle_estimator(beta, X, z, lam, xtz=xtz)
            elif est == "mle":
                beta_hat = mle_best_subset(X, y, config.k).beta_hat
            else:
                g0 = grads[e]
                if g0 is not None and shift:
                    g0 = g0 + shift * h
                if est == "lasso":
                    res = lasso_fit(X, y, LassoConfig(lam=lam), b0=warm[e], col_sq=col_sq, xty=xty, g0=g0)
                else:
                    res = slope_fit(X, y, SlopeConfig(lambda_seq=seq, lipschitz=lip), b0=warm[e], xty=xty, g0=g0)
                beta_hat = warm[e] = res.beta_hat
                grads[e] = res.gradient
                flags[e, a] = not res.converged
            diff = beta_hat - beta
            errs[e, a] = float(diff @ diff)
    rows = [fits.index(column[est]) for est in ids]
    return errs[rows], flags[rows]


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


def _estimator_ids(estimator_ids) -> tuple[str, ...]:
    ids = tuple(dict.fromkeys(estimator_ids))
    if not ids:
        raise ValueError("estimator_ids must name at least one estimator")
    for est in ids:
        if est not in ESTIMATOR_IDS:
            raise ValueError(f"estimator ids must be among {ESTIMATOR_IDS}, got {est!r}")
    return ids


def risk_replicate(config: ExperimentConfig, estimator_ids):
    """The risk sweep's replicate function for :func:`map_replicates`:
    ``fn(spec, design)`` returns the replicate's (errors, flags), each
    (len(ids), n_amplitudes), for the estimators in ``estimator_ids``
    (``config.estimator_id`` is not used). :func:`risk_reports` reduces
    the results of replicates 0 .. config.reps - 1."""
    ids = _estimator_ids(estimator_ids)
    needs_lam = any(est in ("lasso", "oracle", "aggregated") for est in ids)
    lam = lambda_eps(config.eps, config.sigma_eff, config.n, config.p, config.k) if needs_lam else 0.0
    seq = (
        slope_lambda_seq(config.eps, config.sigma_eff, config.n, config.p, config.slope_q)
        if "slope" in ids
        else None
    )
    scale = config.amplitude_scale
    amps_abs = tuple(a * scale for a in config.amplitudes)
    return partial(_replicate_errors, config, ids, lam, seq, amps_abs)


def risk_reports(config: ExperimentConfig, estimator_ids, results) -> dict[str, RiskReport]:
    """One report per estimator from :func:`risk_replicate`'s results, in
    replicate order. Non-converged fits are flagged and excluded from the
    means; more than 1% flagged for any estimator aborts the run."""
    ids = _estimator_ids(estimator_ids)
    errors = np.stack([errs for errs, _ in results], axis=-1)  # (estimator, amplitude, replicate)
    flags = np.stack([flag for _, flag in results], axis=-1)
    return {est: _risk_report(config, est, errors[e], flags[e]) for e, est in enumerate(ids)}


def empirical_risks(config: ExperimentConfig, estimator_ids, threads: int | None = None) -> dict[str, RiskReport]:
    """Mean squared error per amplitude over fresh (X, z) draws, for each
    estimator in ``estimator_ids`` (``config.estimator_id`` is not used).

    Every estimator sees the same replicates: :func:`map_replicates` draws
    replicate r's design once from stream r of the master seed, with
    ``threads`` splitting the draw, and every estimator is fitted on it.
    One design is alive at a time, and the fits use numpy's own BLAS
    threads. Means use numpy's pairwise sums over the replicates in order,
    so each report is bit-identical for any thread count and to an
    :func:`empirical_risk` run of that estimator alone.
    """
    results = map_replicates(
        config.n, config.p, config.master_seed, config.reps, risk_replicate(config, estimator_ids), threads
    )
    return risk_reports(config, estimator_ids, results)


def empirical_risk(config: ExperimentConfig, threads: int | None = None) -> RiskReport:
    """:func:`empirical_risks` for the one estimator ``config.estimator_id``."""
    return empirical_risks(config, (config.estimator_id,), threads)[config.estimator_id]


def slope_highprob_check(config: ExperimentConfig, q: float | None = None) -> float:
    """Worst-amplitude fraction of replicates whose squared error exceeds
    (2+6 eps) sigma^2 k log(p/k) / n, with the estimator forced to SLOPE
    (at sorted-penalty level ``q`` when given); see :func:`slope_exceedance`."""
    cfg = replace(config, estimator_id="slope", slope_q=config.slope_q if q is None else q)
    return slope_exceedance(cfg, empirical_risk(cfg))


def slope_exceedance(config: ExperimentConfig, report: RiskReport) -> float:
    """Worst-amplitude fraction of the converged replicates in ``report``
    whose squared error exceeds (2+6 eps) sigma^2 k log(p/k) / n.

    The threshold uses the true noise level sigma (zero when noiseless),
    matching the statement being probed."""
    threshold = (
        (2.0 + 6.0 * config.eps) * config.sigma**2 * config.k * math.log(config.p / config.k) / config.n
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
