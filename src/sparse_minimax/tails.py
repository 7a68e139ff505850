"""Registry of tail inequalities checked by Monte Carlo.

Every row names a sampler, a statistic, and a bound. Frequencies compare
against the bound with three binomial standard errors of slack; these are
theorems, so a failure beyond slack is a build-breaking bug rather than
bad luck. The one exception is sre_event, whose reference statement has
existential constants only; its level is a calibrated surrogate and the
row says so.

Every row, vector or matrix, draws through one sampler, _chunked: one
replicate is one row of standard normals (a matrix row reshapes its row
into a design, and a noise vector where it has one), grid cell i draws
from its own 16 counter slots by the rule stated in SeedSpec.generator,
and the draws run on worker threads without changing any report.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._special import binom_tail, binom_tail_error, erfc_grid
from .design import _as_design, _as_vector
from .diagnostics import event_a_check
from .estimators import _enum_count
from .events import resolvent_set
from .rng import ROLE_CELL, SUBSTREAMS, SeedSpec, admit, draw_ranges, worker_count

_CHUNK_BUDGET = 1_000_000  # doubles per draw buffer (8 MB)
_QUAD_INTERVALS = 1 << 16  # trapezoid intervals for the exact order-statistic mean
_TAIL_CUT = 1e-12  # largest integrand mass left beyond that quadrature's cut


@dataclass(frozen=True)
class LemmaSpec:
    """One registered inequality: how to sample it, what to compare, which
    way the comparison goes ('freq_leq', 'mean_leq', or 'freq_geq')."""

    lemma_id: str
    description: str
    simulate: Callable[[dict, SeedSpec, int, int], tuple[np.ndarray, float]]
    bound: Callable[[dict], float]
    direction: str
    default_grid: tuple[dict, ...]
    note: str = ""


@dataclass(frozen=True)
class TailRow:
    params: dict
    empirical: float
    bound: float
    slack: float
    margin: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "params": dict(self.params),
            "empirical": float(self.empirical),
            "bound": float(self.bound),
            "slack": float(self.slack),
            "margin": float(self.margin),
            "passed": bool(self.passed),
        }


@dataclass(frozen=True)
class TailReport:
    lemma_id: str
    rows: tuple[TailRow, ...]
    passed: bool
    reps: int
    seed: int
    note: str = ""

    def to_json(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "rows": [r.to_json() for r in self.rows],
            "passed": bool(self.passed),
            "reps": int(self.reps),
            "seed": int(self.seed),
            "note": self.note,
        }


def _chunked(spec: SeedSpec, slot: int, reps: int, width: int, f) -> np.ndarray:
    """The registry's one sampler: ``f(block, first)`` applied to
    (chunk, width) standard-normal blocks of ``reps`` rows, where ``first``
    is the index of the block's first row and each row is one replicate.

    Grid cell i owns the counter slots 16i ... 16i+15 and passes
    ``slot = 16i``; the rows are the items of ``draw_ranges``, range j is
    drawn row-major from ``spec.generator(ROLE_CELL, slot + j)``, and the
    result depends on neither the chunk size nor the thread count.

    Each thread of ``draw_ranges`` has its own buffer of at most
    _CHUNK_BUDGET doubles (one row if a row is wider), allocated once here;
    it draws a block into its buffer and runs f on it before drawing the
    next, and f may overwrite the block. The results and the buffers are
    admitted against the memory budget before anything is allocated.
    """
    step = min(-(-reps // SUBSTREAMS), max(1, _CHUNK_BUDGET // max(width, 1)))  # a range has at most ceil(reps/16) rows
    threads = min(worker_count(worker_bytes=8 * step * width), SUBSTREAMS)
    admit(
        8 * reps + threads * 8 * step * width,
        f"a tail-registry cell of reps={reps} rows of width {width}",
        f"its results and {threads} draw buffers",
    )
    out = np.empty(reps)
    buffers = [np.empty((step, width)) for _ in range(threads)]

    def fill(j: int, lo: int, hi: int, t: int) -> None:
        gen = spec.generator(ROLE_CELL, slot + j)
        for pos in range(lo, hi, step):
            block = buffers[t][: min(step, hi - pos)]
            gen.standard_normal(out=block)
            out[pos : pos + block.shape[0]] = f(block, pos)

    draw_ranges(reps, fill, threads)
    return out


def _top_abs(block: np.ndarray, count: int) -> np.ndarray:
    """Per-row 'count' largest |values|, sorted descending."""
    a = np.abs(block)
    p = a.shape[1]
    part = np.partition(a, p - count, axis=1)[:, p - count :]
    return -np.sort(-part, axis=1)


def _kth_largest_abs(g: np.ndarray, k: int) -> np.ndarray:
    """Per-row k-th largest |value|; overwrites g."""
    p = g.shape[1]
    np.abs(g, out=g)
    g.partition(p - k, axis=1)
    return g[:, p - k]


def _median_ok(a: np.ndarray, head_levels: np.ndarray, tail_level: float) -> np.ndarray:
    """Per-row indicator of the median event on a block of |g| values: the
    sorted top k at most head_levels and the (k+1)-th at most tail_level.
    A row whose largest value is at most every level passes outright, so
    only the rare other rows are sorted."""
    k = head_levels.size
    ok = a.max(axis=1) <= min(float(head_levels.min()), tail_level)
    rest = np.flatnonzero(~ok)
    if rest.size:
        top = _top_abs(a[rest], k + 1)
        ok[rest] = (top[:, :k] <= head_levels).all(axis=1) & (top[:, k] <= tail_level)
    return ok


# --- samplers ---------------------------------------------------------------


def _sim_chi2_lower(point, spec, reps, slot):
    d, tau = point["d"], point["tau"]
    level = d * (1.0 - tau)
    vals = _chunked(spec, slot, reps, d, lambda g, _: (np.multiply(g, g, out=g).sum(axis=1) < level).astype(float))
    return vals, 0.0


def _bound_chi2_lower(point):
    d, tau = point["d"], point["tau"]
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    return math.exp((d / 2.0) * (tau + math.log(1.0 - tau)))


def _sim_gauss_max(point, spec, reps, slot):
    p, u = point["p"], point["u"]
    level = math.sqrt(2.0 * math.log(p)) + u
    vals = _chunked(spec, slot, reps, p, lambda g, _: (np.abs(g, out=g).max(axis=1) >= level).astype(float))
    return vals, 0.0


def _sim_order_mean(point, spec, reps, slot):
    p, k = point["p"], point["k"]
    vals = _chunked(spec, slot, reps, p, lambda g, _: _kth_largest_abs(g, k))
    return vals, 0.0


def _bound_order_mean(point):
    p, k = point["p"], point["k"]
    if not 2 <= k <= p:
        raise ValueError(f"need 2 <= k <= p, got k={k}, p={p}")
    return math.sqrt(2.0 * math.log(2.0 * p / (k - 1)))


def _order_stat_mean(p: int, k: int) -> tuple[float, float]:
    """E[k-th largest |g| among p standard normals] by quadrature, and a
    bound on the error of the returned value.

    E = integral_0^inf P(X_(k) > x) dx, and X_(k) > x exactly when at least
    k of the p values exceed x in modulus, so the integrand is
    P(Bin(p, q) >= k) with q = 2 Phi(-x) = erfc(x/sqrt 2). The tail is
    ``_special.binom_tail``: each point's largest term in log space, then
    a recurrence over the smaller side of the binomial, one pass over the
    grid per term, with at most max(k, p-k+1) terms and O(sqrt(p)) where
    k is near the mode pq. The integral is cut at
    a = sqrt(2 log(p/_TAIL_CUT)). Past a the
    integrand is at most p q, whose integral is at most 2 p phi(a)/a^2
    (Mills' ratio), below _TAIL_CUT. On [0, a] the integrand is a survival
    function, hence decreasing, so the left and right Riemann sums bracket
    its integral; the trapezoid value is their mean and lies within half
    their difference, h (f(0) - f(a)) / 2 <= h/2, of it. The integrand's
    evaluation error adds at most a times its per-point bound: the tail's
    own, ``binom_tail_error(p)``, plus k (3 a^2 + 4) eps from q, whose
    relative error is under (3 a^2 + 4) eps after erfc's conditioning
    (below a^2 + 1 on [0, a]) and to which the tail's sensitivity,
    q d/dq P(Bin(p, q) >= k) = k P(Bin(p, q) = k), is at most k.
    """
    a = math.sqrt(2.0 * math.log(p / _TAIL_CUT))
    h = a / _QUAD_INTERVALS
    f = binom_tail(p, k, erfc_grid(np.linspace(0.0, a, _QUAD_INTERVALS + 1) / math.sqrt(2.0)))
    mean = h * (float(f.sum()) - 0.5 * float(f[0] + f[-1]))
    tail = 2.0 * p * math.exp(-0.5 * a * a) / (math.sqrt(2.0 * math.pi) * a * a)
    evaluation = a * (binom_tail_error(p) + k * (3.0 * a * a + 4.0) * math.ulp(1.0))
    return mean, 0.5 * h * float(f[0] - f[-1]) + tail + evaluation


def _sim_order_conc(point, spec, reps, slot):
    p, k, u = point["p"], point["k"], point["u"]
    mu, mu_err = _order_stat_mean(p, k)
    kth = _chunked(spec, slot, reps, p, lambda g, _: _kth_largest_abs(g, k))
    vals = (kth - mu >= u).astype(float)
    # the mean's error moves the event threshold by at most mu_err; fold it
    # into the frequency slack
    return vals, mu_err


def _bound_order_conc(point):
    p, k = point["p"], point["k"]
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={p}")
    return math.exp(-point["u"] ** 2 / 2.0)


def _sim_topk_avg(point, spec, reps, slot):
    p, s, t = point["p"], point["s"], point["t"]
    level = t * math.log(2.0 * p / s)

    def stat(g, _):
        np.multiply(g, g, out=g)
        g.partition(p - s, axis=1)
        return (g[:, p - s :].mean(axis=1) > level).astype(float)

    vals = _chunked(spec, slot, reps, p, stat)
    return vals, 0.0


def _bound_topk_avg(point):
    p, s, t = point["p"], point["s"], point["t"]
    if not 1 <= s <= p:
        raise ValueError(f"need 1 <= s <= p, got s={s}, p={p}")
    return (2.0 * p / s) ** (1.0 - 3.0 * t / 8.0)


def _sim_median_event(point, spec, reps, slot):
    p, k, d1 = point["p"], point["k"], point["delta1"]
    head_levels = 4.0 * np.sqrt(np.log(2.0 * p / np.arange(1, k + 1)))
    tail_level = (1.0 + d1) * math.sqrt(2.0 * math.log(p / k))
    vals = _chunked(spec, slot, reps, p, lambda g, _: _median_ok(np.abs(g, out=g), head_levels, tail_level).astype(float))
    return vals, 0.0


def _bound_median_event(point):
    p, k, d1 = point["p"], point["k"], point["delta1"]
    if not 1 <= k < p:
        raise ValueError(f"need 1 <= k < p, got k={k}, p={p}")
    if d1 <= 0:
        raise ValueError(f"delta1 must be positive, got {d1}")
    gap = (1.0 + d1) * math.sqrt(2.0 * math.log(p / k)) - math.sqrt(2.0 * math.log(2.0 * p / k))
    return 1.0 - k / (2.0 * p) - math.exp(-0.5 * gap * gap)


def _bound_gauss_sv(point):
    big_n, n = point["N"], point["n"]
    if n > big_n:
        raise ValueError(f"need n <= N, got n={n}, N={big_n}")
    return 2.0 * math.exp(-point["t"] ** 2 / 2.0)


def _sim_gauss_sv(point, spec, reps, slot):
    big_n, n, t = point["N"], point["n"], point["t"]
    lo = math.sqrt(big_n) - math.sqrt(n) - t
    hi = math.sqrt(big_n) + math.sqrt(n) + t

    def stat(block, _):
        s = np.linalg.svd(block.reshape(-1, big_n, n), compute_uv=False)
        return (s[:, -1] < lo) | (s[:, 0] > hi)

    return _chunked(spec, slot, reps, big_n * n, stat), 0.0


def _sim_resolvent_sv(point, spec, reps, slot):
    n, p, k, k_star, t, sigma = (
        point["n"],
        point["p"],
        point["k"],
        point["k_star"],
        point["t"],
        point["sigma"],
    )
    level = math.sqrt(1.0 - 1.0 / n) - math.sqrt(k_star / n) - t
    support = np.arange(k)

    def event(row):
        X = row[: n * p].reshape(n, p)  # a replicate draws X row-major, then z
        s_star = resolvent_set(X, sigma * row[n * p :], support, k_star)
        return np.linalg.svd(X[:, s_star], compute_uv=False)[-1] / math.sqrt(n) <= level

    return _chunked(spec, slot, reps, n * p + n, lambda block, _: [event(row) for row in block]), 0.0


def _bound_resolvent_sv(point):
    p, k, k_star = point["p"], point["k"], point["k_star"]
    if not k < k_star < p:
        raise ValueError(f"need k < k_star < p, got k={k}, k_star={k_star}, p={p}")
    n, t = point["n"], point["t"]
    return math.exp(-n * t * t / 2.0)


def _sim_sup_xtz(point, spec, reps, slot):
    n, p, k_star, sigma = point["n"], point["p"], point["k_star"], point["sigma"]
    level = sigma * math.sqrt(32.0 * n * k_star * math.log(p / k_star))

    def event(row):
        return sup_xtz_exact(row[: n * p].reshape(n, p), sigma * row[n * p :], k_star) > level

    return _chunked(spec, slot, reps, n * p + n, lambda block, _: [event(row) for row in block]), 0.0


def _bound_sup_xtz(point):
    n, p, k_star = point["n"], point["p"], point["k_star"]
    if not 1 <= k_star < p:
        raise ValueError(f"need 1 <= k_star < p, got k_star={k_star}, p={p}")
    return math.exp(-n / 2.0) + (math.sqrt(2.0) * math.e * k_star / p) ** k_star


def sup_xtz_exact(X, z, k_star: int) -> float:
    """sup over supports |T| = k_star of ||X_T' z||_2, computed separably
    as the top k_star squared column correlations. The brute enumeration
    equivalent is sup_xtz_brute, for cross-checks; the separable form is
    exact because the squared norm is a sum over T's members."""
    X = _as_design(X)
    n, p = X.shape
    z = _as_vector(z, n, "z")
    if not 1 <= k_star <= p:
        raise ValueError(f"need 1 <= k_star <= p, got k_star={k_star}, p={p}")
    corr = X.T @ z
    sq = corr * corr
    top = np.partition(sq, p - k_star)[p - k_star :]
    return math.sqrt(float(top.sum()))


def sup_xtz_brute(X, z, k_star: int, enum_cap: int = 10**5) -> float:
    """Exhaustive version of sup_xtz_exact, for oracle cross-checks."""
    from itertools import combinations

    X = _as_design(X)
    n, p = X.shape
    z = _as_vector(z, n, "z")
    _enum_count(p, k_star, enum_cap, "sup_xtz_brute")
    corr = X.T @ z
    best = 0.0
    for support in combinations(range(p), k_star):
        v = float(sum(corr[j] ** 2 for j in support))
        if v > best:
            best = v
    return math.sqrt(best)


def _sim_sre_event(point, spec, reps, slot):
    n, p, k, eps, restarts = (
        point["n"],
        point["p"],
        point["k"],
        point["eps"],
        point["restarts"],
    )

    def event(row, r):
        # replicate r's descent restarts draw from their own stream
        sub = SeedSpec(spec.master_seed, (slot << 32) | (r + 1))
        return not event_a_check(row.reshape(n, p), k, eps, restarts=restarts, seed=sub).holds

    def stat(block, first):
        return [event(row, first + i) for i, row in enumerate(block)]

    return _chunked(spec, slot, reps, n * p, stat), 0.0


def _bound_sre_event(point):
    p, k = point["p"], point["k"]
    if not k < p:
        raise ValueError(f"need k < p, got k={k}, p={p}")
    return 0.05


REGISTRY: dict[str, LemmaSpec] = {
    "chi2_lower": LemmaSpec(
        lemma_id="chi2_lower",
        description="sum of d squared normals below d(1-tau)",
        simulate=_sim_chi2_lower,
        bound=_bound_chi2_lower,
        direction="freq_leq",
        default_grid=(
            {"d": 50, "tau": 0.5},
            {"d": 50, "tau": 0.3},
            {"d": 200, "tau": 0.2},
        ),
    ),
    "gauss_max": LemmaSpec(
        lemma_id="gauss_max",
        description="max |g_i| of p normals above sqrt(2 log p) + u",
        simulate=_sim_gauss_max,
        bound=lambda point: math.exp(-point["u"] ** 2 / 2.0),
        direction="freq_leq",
        default_grid=(
            {"p": 100, "u": 0.0},
            {"p": 100, "u": 0.5},
            {"p": 1000, "u": 1.0},
        ),
    ),
    "order_mean": LemmaSpec(
        lemma_id="order_mean",
        description="mean of the k-th largest |g| among p normals",
        simulate=_sim_order_mean,
        bound=_bound_order_mean,
        direction="mean_leq",
        default_grid=(
            {"p": 1000, "k": 10},
            {"p": 100, "k": 5},
        ),
    ),
    "order_conc": LemmaSpec(
        lemma_id="order_conc",
        description="k-th largest |g| exceeding its exact mean (by quadrature) by u",
        simulate=_sim_order_conc,
        bound=_bound_order_conc,
        direction="freq_leq",
        default_grid=(
            {"p": 100, "k": 10, "u": 1.0},
            {"p": 100, "k": 10, "u": 0.5},
            {"p": 1000, "k": 20, "u": 0.5},
        ),
    ),
    "topk_avg": LemmaSpec(
        lemma_id="topk_avg",
        description="average of the top s squared normals above t log(2p/s)",
        simulate=_sim_topk_avg,
        bound=_bound_topk_avg,
        direction="freq_leq",
        default_grid=(
            {"p": 1000, "s": 10, "t": 4.0},
            {"p": 200, "s": 5, "t": 4.0},
        ),
    ),
    "median_event": LemmaSpec(
        lemma_id="median_event",
        description="joint order-statistic event holding with probability above its explicit lower bound",
        simulate=_sim_median_event,
        bound=_bound_median_event,
        direction="freq_geq",
        default_grid=(
            {"p": 1000, "k": 10, "delta1": 0.5},
            {"p": 1000, "k": 10, "delta1": 1.0},
            {"p": 10000, "k": 10, "delta1": 0.5},
        ),
    ),
    "gauss_sv": LemmaSpec(
        lemma_id="gauss_sv",
        description="extreme singular values of an N x n Gaussian outside sqrt(N) -/+ sqrt(n) -/+ t",
        simulate=_sim_gauss_sv,
        bound=_bound_gauss_sv,
        direction="freq_leq",
        default_grid=(
            {"N": 100, "n": 20, "t": 1.5},
            {"N": 100, "n": 20, "t": 2.5},
            {"N": 400, "n": 40, "t": 2.0},
        ),
    ),
    "resolvent_sv": LemmaSpec(
        lemma_id="resolvent_sv",
        description="smallest singular value of the resolvent columns below sqrt(1-1/n) - sqrt(k*/n) - t",
        simulate=_sim_resolvent_sv,
        bound=_bound_resolvent_sv,
        direction="freq_leq",
        default_grid=(
            {"n": 200, "p": 400, "k": 2, "k_star": 8, "t": 0.15, "sigma": 1.0},
            {"n": 200, "p": 400, "k": 2, "k_star": 8, "t": 0.25, "sigma": 1.0},
        ),
    ),
    "sup_xtz": LemmaSpec(
        lemma_id="sup_xtz",
        description="largest k*-support correlation norm above sigma sqrt(32 n k* log(p/k*))",
        simulate=_sim_sup_xtz,
        bound=_bound_sup_xtz,
        direction="freq_leq",
        default_grid=(
            {"n": 100, "p": 40, "k_star": 3, "sigma": 1.0},
            {"n": 50, "p": 100, "k_star": 5, "sigma": 2.0},
        ),
    ),
    "sre_event": LemmaSpec(
        lemma_id="sre_event",
        description="conditioning event failing on a fresh Gaussian design",
        simulate=_sim_sre_event,
        bound=_bound_sre_event,
        direction="freq_leq",
        default_grid=({"n": 1500, "p": 50, "k": 2, "eps": 2.0, "restarts": 8},),
        note="surrogate level: the reference statement has existential constants only; 0.05 is calibrated by pilot runs",
    ),
}


def _check_point(lemma_id: str, template: dict, point: dict) -> None:
    """Require ``point`` to have the keys of ``template``, a row's first
    default point: integers >= 1 where it has integers, finite numbers
    where it has floats."""
    missing = sorted(set(template) - set(point))
    unknown = sorted(set(point) - set(template))
    if missing or unknown:
        raise ValueError(
            f"{lemma_id}: grid point {point} must have exactly the fields {sorted(template)}"
            f" (missing {missing}, unknown {unknown})"
        )
    for key, example in template.items():
        value = point[key]
        if isinstance(example, int):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{lemma_id}: grid field {key} must be an integer >= 1, got {value!r}")
        elif isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
            raise ValueError(f"{lemma_id}: grid field {key} must be a finite number, got {value!r}")


def check_tail_bound(lemma_id: str, grid=None, reps: int = 10_000, seed: int = 0) -> TailReport:
    """Run one registry row over its parameter grid.

    Frequencies pass when empirical <= bound + slack (or >= bound - slack
    for lower bounds); means pass when mean - slack <= bound, so only a
    mean beyond the bound by more than its slack fails. Slack is three
    standard errors (binomial for a frequency, the sample's for a mean)
    plus any sampler-reported term. Every row draws through _chunked, so
    grid cell i draws from its own counter slots 16i ... 16i+15 by the
    rule stated in SeedSpec.generator: cells are independent and individually
    reproducible, no report depends on the thread count, and a cell whose
    draws cannot fit in memory raises CapacityError before it draws. Every
    grid point is checked against the row's default points and by the
    row's bound before any cell runs; a bad one, or an empty grid, raises
    ValueError.
    """
    if lemma_id not in REGISTRY:
        raise ValueError(f"unknown lemma_id {lemma_id!r}; registered: {sorted(REGISTRY)}")
    if reps < 100:
        raise ValueError(f"reps must be at least 100, got {reps}")
    row_spec = REGISTRY[lemma_id]
    points = row_spec.default_grid if grid is None else tuple(dict(pt) for pt in grid)
    if not points:
        raise ValueError(f"{lemma_id}: grid must hold at least one point")
    for point in points:
        _check_point(lemma_id, row_spec.default_grid[0], point)
    bounds = []
    for point in points:
        try:
            bounds.append(float(row_spec.bound(point)))
        except OverflowError:
            raise ValueError(f"{lemma_id}: the bound overflows a float at grid point {point}") from None
    spec = SeedSpec(seed)

    rows = []
    for i, (point, bound) in enumerate(zip(points, bounds)):
        vals, extra = row_spec.simulate(point, spec, reps, i * SUBSTREAMS)
        if row_spec.direction == "mean_leq":
            emp = float(vals.mean())
            slack = 3.0 * float(vals.std(ddof=1)) / math.sqrt(vals.size) + extra
            margin = bound - emp + slack
            passed = emp - slack <= bound
        else:
            emp = float(vals.mean())
            slack = 3.0 * math.sqrt(max(emp * (1.0 - emp), 0.0) / vals.size) + extra
            if row_spec.direction == "freq_leq":
                margin = bound + slack - emp
                passed = emp <= bound + slack
            elif row_spec.direction == "freq_geq":
                margin = emp + slack - bound
                passed = emp + slack >= bound
            else:
                raise AssertionError(f"bad direction {row_spec.direction!r}")
        rows.append(TailRow(dict(point), emp, bound, slack, margin, bool(passed)))

    return TailReport(
        lemma_id=lemma_id,
        rows=tuple(rows),
        passed=all(r.passed for r in rows),
        reps=reps,
        seed=seed,
        note=row_spec.note,
    )


def binom_bound_check(p: int, s: int) -> tuple[int, float, bool]:
    """Exact C(p,s) against (e p / s)^s; holds for every valid pair, so a
    failure means broken arithmetic. The bound is returned as +inf when it
    overflows a float; the comparison itself runs in logs."""
    if not 1 <= s <= p:
        raise ValueError(f"need 1 <= s <= p, got s={s}, p={p}")
    exact = math.comb(p, s)
    log_bound = s * (1.0 + math.log(p / s))
    bound = math.exp(log_bound) if log_bound < 700 else math.inf
    holds = math.log(exact) <= log_bound + 1e-9
    return exact, bound, holds
