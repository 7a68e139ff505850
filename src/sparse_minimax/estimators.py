"""Coefficient estimators: soft thresholding, Lasso, SLOPE, best-subset
search, the oracle estimator, and the Lasso/MLE aggregate.

All fits are pure functions of their inputs. Design matrices are converted
to Fortran order float64 on entry (a copy when the input is C-ordered), so
column access in the sweep kernels is contiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np
from scipy.special import ndtri

from . import _kernels as _k


class CapacityError(RuntimeError):
    """Support enumeration would exceed the configured cap."""


class BacktrackingError(RuntimeError):
    """A step-size search halved its step the maximum number of times
    without passing the majorization test (non-finite inputs or overflow)."""


# Halvings allowed per step search: 2**-60 of the start step is far below
# any step a finite problem needs, and well above zero.
_MAX_HALVINGS = 60

# SLOPE's working set may grow by max(|W|, _MIN_GROWTH) columns per outer
# step: at most doubling keeps the slab near the support, and the floor lets
# a cold start grow past one column at a time.
_MIN_GROWTH = 10


def _enum_count(p: int, s: int, cap: int, what: str) -> int:
    count = math.comb(p, s)
    if count > cap:
        raise CapacityError(f"{what}: C({p},{s}) = {count} exceeds enumeration cap {cap}")
    return count


@dataclass(frozen=True)
class LassoConfig:
    """Penalty level and stopping rule for :func:`lasso_fit`.

    ``tol`` is the KKT residual target; ``None`` selects
    1e-8 * max(1, ||X'y/n||_inf) at fit time. ``max_iter`` caps the total
    number of coordinate sweeps.
    """

    lam: float
    tol: float | None = None
    max_iter: int = 100_000

    def __post_init__(self) -> None:
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class SlopeConfig:
    """Weight sequence and stopping rule for :func:`slope_fit`.

    ``lambda_seq`` must be finite, non-increasing and nonnegative.
    ``lipschitz`` is the start value of the curvature estimate behind the
    step 1/lipschitz, e.g. sigma_max(X)^2/n or a bound shared across fits
    on one design; the step search halves the step whenever it fails the
    majorization test, so the value need not be an upper bound. ``None``
    starts from :func:`_spectral_bound` of the design.
    """

    lambda_seq: np.ndarray
    tol: float | None = None
    max_iter: int = 20_000
    lipschitz: float | None = None

    def __post_init__(self) -> None:
        seq = np.asarray(self.lambda_seq, dtype=np.float64)
        if seq.ndim != 1 or seq.size == 0:
            raise ValueError("lambda_seq must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(seq)):
            raise ValueError("lambda_seq must be finite")
        if np.any(np.diff(seq) > 0):
            raise ValueError("lambda_seq must be non-increasing")
        if seq[-1] < 0:
            raise ValueError("lambda_seq must be nonnegative")
        object.__setattr__(self, "lambda_seq", seq)
        if self.tol is not None and not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.lipschitz is not None and not 0 < self.lipschitz < math.inf:
            raise ValueError(f"lipschitz must be finite and positive when given, got {self.lipschitz}")


@dataclass(frozen=True)
class EstimatorResult:
    """A fit's coefficients, work and certificate.

    ``gradient`` is X'(y - X beta_hat), unscaled, from the fit's last
    full-design product when that product was taken at ``beta_hat``
    (always for a converged Lasso or SLOPE fit); None otherwise. A caller
    can carry it to the next fit on the same design as ``g0``. It is not
    part of :meth:`to_json`.
    """

    beta_hat: np.ndarray
    iterations: int
    kkt_residual: float
    objective: float
    converged: bool
    branch: str | None = None
    gradient: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        out = {
            "beta_hat": [float(v) for v in self.beta_hat],
            "iterations": int(self.iterations),
            "kkt_residual": float(self.kkt_residual),
            "objective": float(self.objective),
            "converged": bool(self.converged),
        }
        if self.branch is not None:
            out["branch"] = self.branch
        return out


def soft_threshold(u, lam: float) -> np.ndarray:
    """Elementwise sign(u) * max(|u| - lam, 0)."""
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    u = np.asarray(u, dtype=np.float64)
    return np.sign(u) * np.maximum(np.abs(u) - lam, 0.0)


def lambda_eps(eps: float, sigma: float, n: int, p: int, k: int) -> float:
    """Lasso tuning level (1+eps) * sigma * sqrt(2 log(p/k) / n)."""
    if k < 1 or p <= k:
        raise ValueError(f"need 1 <= k < p, got k={k}, p={p}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    return (1.0 + eps) * sigma * math.sqrt(2.0 * math.log(p / k) / n)


def _as_design(X) -> np.ndarray:
    X = np.asfortranarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"design must be 2-D, got shape {X.shape}")
    return X


def _as_response(y, n: int) -> np.ndarray:
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    return y


def _kkt_from_grad(gn: np.ndarray, b: np.ndarray, lam: float) -> float:
    """Max subgradient violation given gn = X'(y-Xb)/n."""
    on = b != 0.0
    viol = np.abs(gn) - lam
    np.maximum(viol, 0.0, out=viol)
    if np.any(on):
        viol[on] = np.abs(gn[on] - lam * np.sign(b[on]))
    return float(viol.max(initial=0.0))


def _design_vector(v, p: int, name: str) -> np.ndarray:
    """A caller-supplied per-column quantity of the design, shape-checked."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (p,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({p},)")
    return v


def _finite_vector(v, p: int, name: str) -> np.ndarray:
    """A caller-supplied start point or gradient: shape-checked and finite."""
    v = _design_vector(v, p, name)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    return v


def lasso_fit(X, y, config: LassoConfig, b0=None, col_sq=None, xty=None, g0=None) -> EstimatorResult:
    """Solve argmin_b (1/2n)||y - Xb||^2 + lam*||b||_1 by cyclic coordinate
    minimization over an active set that grows on KKT violations.

    The returned ``kkt_residual`` is checked against the full design, so a
    ``converged`` result certifies every coordinate, not just active ones.
    ``b0`` warm-starts the sweep. ``col_sq`` supplies the squared column
    norms of X and ``xty`` the product X'y when the caller already has
    them (e.g. reused across fits on one design or one response). ``g0``
    supplies the start gradient X'(y - X b0) (X'y without ``b0``), e.g.
    carried from an earlier fit's ``gradient``; it only picks the first
    active set, since every KKT check takes a direct product after the
    sweeps, so a wrong ``g0`` costs sweeps, not correctness. The result's
    ``gradient`` is the product behind ``kkt_residual``.
    """
    X = _as_design(X)
    n, p = X.shape
    y = _as_response(y, n)
    if config.lam <= 0:
        raise ValueError("lasso_fit requires lam > 0; zero penalty is plain least squares")

    lam = config.lam
    lam_n = lam * n
    col_sq = _design_vector(_k.col_sumsq(X) if col_sq is None else col_sq, p, "col_sq")
    if xty is not None:
        xty = _design_vector(xty, p, "xty")
    if b0 is None:
        w = np.zeros(p)
        r = y.copy()
    else:
        w = _finite_vector(b0, p, "b0").copy()
        idx = np.flatnonzero(w)
        r = y - _k.x_dot_sparse(X, idx.astype(np.intp), w[idx])
    if g0 is not None:
        g = _finite_vector(g0, p, "g0")
    elif b0 is None:
        g = xty = _k.xt_dot(X, y) if xty is None else xty
    else:
        g = _k.xt_dot(X, r)

    tol = config.tol
    if tol is None:
        if xty is None:
            xty = _k.xt_dot(X, y)
        tol = 1e-8 * max(1.0, np.abs(xty).max(initial=0.0) / n)

    active = np.union1d(np.flatnonzero(np.abs(g) > lam_n), np.flatnonzero(w)).astype(np.intp)
    delta_tol = 0.1 * tol * n / max(1.0, float(col_sq.max(initial=0.0)))
    total = 0
    converged = False
    kkt = math.inf
    while True:
        if active.size:
            budget = config.max_iter - total
            if budget <= 0:
                break
            total += int(_k.cd_sweeps(X, r, w, active, lam_n, col_sq, delta_tol, budget))
        g = _k.xt_dot(X, r)
        kkt = _kkt_from_grad(g / n, w, lam)
        if kkt <= tol:
            converged = True
            break
        if total >= config.max_iter:
            break
        grown = np.union1d(active, np.flatnonzero(np.abs(g) > lam_n)).astype(np.intp)
        if grown.size == active.size:
            delta_tol *= 0.1
            if delta_tol < 1e-300:
                break
        active = grown

    objective = 0.5 * float(r @ r) / n + lam * float(np.abs(w).sum())
    return EstimatorResult(w, total, kkt, objective, converged, gradient=g)


def lasso_kkt_residual(X, y, b, lam: float) -> float:
    """Max KKT violation of b for the Lasso program at level lam."""
    X = _as_design(X)
    y = np.ascontiguousarray(y, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    n = X.shape[0]
    idx = np.flatnonzero(b).astype(np.intp)
    r = y - _k.x_dot_sparse(X, idx, b[idx])
    gn = _k.xt_dot(X, r) / n
    return _kkt_from_grad(gn, b, lam)


def slope_lambda_seq(eps: float, sigma: float, n: int, p: int, q: float) -> np.ndarray:
    """Quantile weight sequence sigma*(1+eps)*Phi^{-1}(1 - iq/(2p))/sqrt(n).

    Strictly decreasing and positive for every i because iq/(2p) < 1/2
    whenever q < 1. The reference analysis takes eps in (0,1); values
    outside that range are accepted as long as eps >= 0, since the formula
    stays well defined.
    """
    if not 0 < q < 1:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if n < 1 or p < 1:
        raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
    i = np.arange(1, p + 1, dtype=np.float64)
    return sigma * (1.0 + eps) / math.sqrt(n) * ndtri(1.0 - i * q / (2.0 * p))


def prox_sorted_l1(v, lambda_seq) -> np.ndarray:
    """Exact prox of b -> sum_i lambda_i |b|_(i) at point v.

    Sort |v| descending, subtract the weights, project onto the
    non-increasing cone by pool-adjacent-violators, clamp at zero, undo the
    sort, restore signs. With u = |v|_sorted - lambda and K the first index
    at which [0, cumsum(u)] attains its maximum, the clamped projection is
    zero beyond K and equals the projection of u[:K] on 1..K (every block
    average reaching past K is at most zero), so PAVA runs on the prefix
    u[:K] only.
    """
    v = np.ascontiguousarray(v, dtype=np.float64)
    lam = np.ascontiguousarray(lambda_seq, dtype=np.float64)
    if v.shape != lam.shape or v.ndim != 1:
        raise ValueError(f"v and lambda_seq must be equal-length vectors, got {v.shape} and {lam.shape}")
    if np.any(np.diff(lam) > 0) or (lam.size and lam[-1] < 0):
        raise ValueError("lambda_seq must be non-increasing and nonnegative")
    a = np.abs(v)
    order = np.argsort(-a, kind="stable")
    u = a[order] - lam
    # argmax takes the first maximum, and a NaN as the maximum, so
    # non-finite input still reaches PAVA
    K = int(np.argmax(np.concatenate(([0.0], np.cumsum(u)))))
    w = np.zeros_like(v)
    if K:
        w[:K] = _k.pava_decreasing(u[:K])
        np.maximum(w, 0.0, out=w)
    out = np.empty_like(v)
    out[order] = w
    out *= np.sign(v)
    return out


def _slope_objective(r: np.ndarray, b: np.ndarray, lam: np.ndarray, n: int) -> float:
    pen = float(np.sort(np.abs(b))[::-1] @ lam)
    return 0.5 * float(r @ r) / n + pen


def _spectral_bound(X: np.ndarray, col_sq=None) -> float:
    """Start value for SLOPE's curvature estimate, near sigma_max(X)^2 / n.

    Exact (by SVD) for small matrices. Otherwise the Gaussian edge
    (1 + sqrt(p/n))^2, which sigma_max(X)^2/n approaches for i.i.d. N(0,1)
    entries (Davidson & Szarek 2001), scaled by the mean squared column norm
    over n so that designs with rescaled columns get a step of the right
    order. It is an estimate, not a bound: the FISTA step search backtracks
    from it. ``col_sq`` supplies the squared column norms when the caller
    already has them.
    """
    n, p = X.shape
    if n * p <= 250_000:
        s = np.linalg.svd(X, compute_uv=False)
        return float(s[0] ** 2) / n if s.size else 0.0
    col_sq = _design_vector(_k.col_sumsq(X) if col_sq is None else col_sq, p, "col_sq")
    return (1.0 + math.sqrt(p / n)) ** 2 * float(col_sq.sum()) / (n * p)


def _fista_on_slab(Xw, y, lam_w, b_init, t, tol_inner, it_cap, n):
    """FISTA with backtracking and gradient restarts on a dense column slab.

    Returns (b, residual, iterations, t) where t is the (possibly shrunk)
    step that every accepted update satisfied the majorization test at.
    """
    b = b_init.copy()
    zv = b.copy()
    rb = y - Xw @ b
    rz = rb.copy()
    s = 1.0
    it = 0
    while it < it_cap:
        gz = (Xw.T @ rz) / n
        fz = 0.5 * float(rz @ rz) / n
        for _ in range(_MAX_HALVINGS):
            cand = prox_sorted_l1(zv + t * gz, t * lam_w)
            d = cand - zv
            rc = y - Xw @ cand
            fc = 0.5 * float(rc @ rc) / n
            if fc <= fz - float(gz @ d) + float(d @ d) / (2.0 * t) + 1e-12 * max(1.0, fz):
                break
            t *= 0.5
        else:
            raise BacktrackingError(
                f"SLOPE step search halved the step {_MAX_HALVINGS} times (now {t:.3g}); "
                "X, y or the weights are not finite, or the objective overflowed"
            )
        it += 1
        if float((zv - cand) @ (cand - b)) > 0.0:
            s = 1.0
            zv = cand.copy()
            rz = rc.copy()
        else:
            s_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * s * s))
            mom = (s - 1.0) / s_next
            zv = cand + mom * (cand - b)
            rz = rc + mom * (rc - rb)
            s = s_next
        b = cand
        rb = rc
        gb = (Xw.T @ rb) / n
        fp = float(np.abs(b - prox_sorted_l1(b + t * gb, t * lam_w)).max(initial=0.0)) / t
        if fp <= tol_inner:
            break
    return b, rb, it, t


def slope_fit(X, y, config: SlopeConfig, b0=None, xty=None, g0=None) -> EstimatorResult:
    """Solve argmin_b (1/2n)||y - Xb||^2 + sum_i lambda_i |b|_(i).

    Proximal gradient (FISTA) on a working set of columns, with the prox of
    the sorted-l1 norm computed exactly. Restricting weights to the first
    |W| entries of lambda_seq is exact for vectors supported on W: the
    off-set zeros absorb the smallest weights at zero cost. Each outer step
    takes one full-design prox step and admits at most max(|W|, 10) of its
    nonzeros outside W, largest magnitude first, so the slab stays near
    the support instead of taking every column one step lights up.
    Convergence is certified on the full design: kkt_residual is the
    prox-gradient fixed-point residual ||b - prox_{t J}(b + t X'r/n)||_inf
    / t, which vanishes exactly at solutions for any step t > 0; the cap
    changes the path to it, not the stopping rule. ``xty`` supplies
    X'y when the caller already has it (e.g. shared with a Lasso fit on the
    same response); a cold fit takes it as its first gradient. ``g0``
    supplies the start gradient X'(y - X b0) (X'y without ``b0``), e.g.
    carried from an earlier fit's ``gradient``, in place of the first
    outer step's product. A supplied gradient only steers the first step:
    if the check on it passes, a direct product is taken before
    convergence is declared, so every certificate, and the result's
    ``gradient``, is a direct full-design product.
    """
    X = _as_design(X)
    n, p = X.shape
    y = _as_response(y, n)
    lam = config.lambda_seq
    if lam.shape != (p,):
        raise ValueError(f"lambda_seq has length {lam.size}, expected {p}")

    b = np.zeros(p) if b0 is None else _finite_vector(b0, p, "b0").copy()
    idx = np.flatnonzero(b).astype(np.intp)
    r = y - _k.x_dot_sparse(X, idx, b[idx])

    if xty is not None:
        xty = _design_vector(xty, p, "xty")
    if g0 is not None:
        g0 = _finite_vector(g0, p, "g0")
    tol = config.tol
    if tol is None:
        if xty is None:
            xty = _k.xt_dot(X, y)
        tol = 1e-8 * max(1.0, float(np.abs(xty).max(initial=0.0)) / n)
    if g0 is None and b0 is None:
        g0 = xty  # r = y, so X'r = X'y

    lip = config.lipschitz if config.lipschitz is not None else _spectral_bound(X)
    if lip <= 0.0:
        # Zero design: the data term is constant, so 0 minimizes the penalty.
        return EstimatorResult(np.zeros(p), 0, 0.0, _slope_objective(y, np.zeros(p), lam, n), True)
    t = 1.0 / lip

    total = 0
    converged = False
    fp = math.inf
    work = np.flatnonzero(b)
    tol_inner = 0.3 * tol
    xr = g0  # X'r at b; a supplied one is used once, for the first step
    while True:
        direct = xr is None
        if direct:
            xr = _k.xt_dot(X, r)
        g = xr / n
        pb = prox_sorted_l1(b + t * g, t * lam)
        fp = float(np.abs(b - pb).max(initial=0.0)) / t
        if fp <= tol:
            if not direct:
                xr = None  # certify on a direct product, at the same b
                continue
            converged = True
            break
        if total >= config.max_iter:
            break
        new = np.setdiff1d(np.flatnonzero(pb), work, assume_unique=True)
        if new.size == 0:
            tol_inner *= 0.1
        else:
            cap = max(work.size, _MIN_GROWTH)
            if new.size > cap:
                new = new[np.argsort(-np.abs(pb[new]), kind="stable")[:cap]]
            work = np.union1d(work, new)
        if work.size == 0:
            # prox keeps everything at zero yet fp > tol: numerically stuck
            break
        Xw = X[:, work]
        bw, rw, it, t = _fista_on_slab(
            Xw, y, lam[: work.size], b[work], t, tol_inner, config.max_iter - total, n
        )
        total += it
        b = np.zeros(p)
        b[work] = bw
        r = rw
        xr = None

    objective = _slope_objective(r, b, lam, n)
    return EstimatorResult(b, total, fp, objective, converged, gradient=xr if direct else None)


def mle_best_subset(X, y, k: int, enum_cap: int = 10**6) -> EstimatorResult:
    """Exact best-subset least squares over all supports of size k.

    Supports are visited in lexicographic order and ties kept at the first
    minimizer, so the reported support is the lexicographically smallest.
    Rank-deficient subproblems fall back to minimum-norm least squares.
    """
    X = _as_design(X)
    n, p = X.shape
    y = _as_response(y, n)
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={p}")
    if k > n:
        raise ValueError(f"need k <= n for least squares on supports, got k={k}, n={n}")
    count = _enum_count(p, k, enum_cap, "mle_best_subset")

    c = X.T @ y
    yty = float(y @ y)
    gram = X.T @ X

    best_rss = math.inf
    best_support: tuple[int, ...] | None = None
    best_coef: np.ndarray | None = None
    for support in combinations(range(p), k):
        s = list(support)
        gs = gram[np.ix_(s, s)]
        cs = c[s]
        coef = None
        try:
            coef = np.linalg.solve(gs, cs)
            if not np.all(np.isfinite(coef)) or float(
                np.abs(gs @ coef - cs).max(initial=0.0)
            ) > 1e-8 * max(1.0, float(np.abs(cs).max(initial=0.0))):
                coef = None
        except np.linalg.LinAlgError:
            coef = None
        if coef is None:
            coef = np.linalg.lstsq(X[:, s], y, rcond=None)[0]
        rss = yty - 2.0 * float(coef @ cs) + float(coef @ (gs @ coef))
        rss = max(rss, 0.0)
        if rss < best_rss:
            best_rss = rss
            best_support = support
            best_coef = coef

    assert best_support is not None and best_coef is not None
    beta = np.zeros(p)
    beta[list(best_support)] = best_coef
    s = list(best_support)
    kkt = float(np.abs(X[:, s].T @ (y - X[:, s] @ best_coef)).max(initial=0.0)) / n
    return EstimatorResult(beta, count, kkt, best_rss, True)


def oracle_estimator(beta, X, z, lam: float, xtz=None) -> np.ndarray:
    """Soft-threshold the noise-corrupted truth: eta_lam(beta + X'z/n).

    ``xtz`` supplies X'z when the caller already has it (e.g. reused
    across signals on one design and noise draw)."""
    X = _as_design(X)
    beta = np.ascontiguousarray(beta, dtype=np.float64)
    z = np.ascontiguousarray(z, dtype=np.float64)
    n, p = X.shape
    if beta.shape != (p,) or z.shape != (n,):
        raise ValueError(f"shape mismatch: X {X.shape}, beta {beta.shape}, z {z.shape}")
    xtz = _design_vector(_k.xt_dot(X, z) if xtz is None else xtz, p, "xtz")
    return soft_threshold(beta + xtz / n, lam)


def aggregated_estimate(
    instance, k: int, eps: float, restarts: int = 64, seed=0, lam: float | None = None
):
    """Lasso at level lambda_eps when the conditioning event holds, exact
    best-subset search otherwise.

    Returns (EstimatorResult, EventAReport). The event's cone constant is
    exact when the cone is the whole space; on a narrower cone it is an
    upper-bound estimate and the branch decision is a proxy (see
    event_a_check). Both branches are valid estimators either way, and the
    report records which test failed. ``lam`` overrides the Lasso level,
    for callers that set it from a reference scale instead of the
    instance's own noise level.
    """
    from .diagnostics import event_a_check

    X = instance.design.entries
    y = instance.response
    n, p = X.shape
    report = event_a_check(X, k, eps, restarts=restarts, seed=seed)
    if report.holds:
        if lam is None:
            sigma = instance.noise.sigma
            if sigma <= 0:
                raise ValueError("lasso branch needs sigma > 0 to set its penalty level")
            lam = lambda_eps(eps, sigma, n, p, k)
        result = lasso_fit(X, y, LassoConfig(lam=lam))
        branch = "lasso"
    else:
        result = mle_best_subset(X, y, k)
        branch = "mle"
    return replace(result, branch=branch), report
