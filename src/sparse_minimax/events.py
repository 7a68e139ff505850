"""Executable forms of the proof-side machinery: resolvent supports, the
Gram-window event, the oracle-to-Lasso distance inequality, the H/G
stochastic error functionals, and the closed-form l2/moment bounds with
their explicit constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels as _k
from .design import _as_design, _as_vector
from .diagnostics import max_column_norm
from .rng import ROLE_PROBE, SeedSpec


@dataclass(frozen=True)
class ResolventReport:
    """Resolvent support S* with the containment flag and the spectral
    deviation of its normalized Gram from the identity."""

    s_star: np.ndarray
    k_star: int
    contains_all: bool
    delta_emp: float


@dataclass(frozen=True)
class StochasticErrorParams:
    """Slack levels (delta0..delta3) for the stochastic error event; each
    must lie strictly between 0 and 1."""

    delta0: float
    delta1: float
    delta2: float
    delta3: float

    def __post_init__(self) -> None:
        for name in ("delta0", "delta1", "delta2", "delta3"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")


@dataclass(frozen=True)
class StochasticErrorCheck:
    """Share of probed directions satisfying the noise-correlation bound.

    ``applicable`` is False when the design violates the column-norm
    hypothesis the bound is stated under; the fractions are still reported
    but carry no meaning for the bound in that case.
    """

    fraction: float
    all_hold: bool
    applicable: bool
    n_samples: int


@dataclass(frozen=True)
class GapCheck:
    """Result of the oracle-to-Lasso distance inequality on one instance.

    ``holds`` is None when the premise failed (support escaped S* or the
    Gram deviation reached 1), in which case the inequality asserts
    nothing.
    """

    lhs: float
    rhs: float
    holds: bool | None
    vacuous: bool

    def to_json(self) -> dict:
        return {
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "holds": None if self.holds is None else bool(self.holds),
            "vacuous": bool(self.vacuous),
        }


def resolvent_set(X, z, S, k_star: int, xtz=None) -> np.ndarray:
    """S together with the k*-|S| columns outside S most correlated with
    z, measured by |X_i'z|; ties go to the smaller index. Returns the
    sorted union. ``xtz`` supplies X'z when the caller already has it."""
    X = _as_design(X)
    n, p = X.shape
    z = _as_vector(z, n, "z")
    base = np.sort(np.asarray(S, dtype=np.intp), axis=None)
    keep = np.ones(base.size, dtype=bool)
    keep[1:] = base[1:] != base[:-1]
    base = base[keep]  # np.unique(S), without np.unique's numpy.ma import
    if base.size and (base.min() < 0 or base.max() >= p):
        raise ValueError(f"S must index columns of a p={p} design")
    if k_star <= base.size:
        raise ValueError(f"k_star must exceed |S|={base.size}, got {k_star}")
    if k_star >= p:
        raise ValueError(f"k_star must be smaller than p={p}, got {k_star}")

    score = np.abs(_k.xt_dot(X, z) if xtz is None else _as_vector(xtz, p, "xtz"))
    ranked = np.lexsort((np.arange(p), -score))
    outside = ranked[~np.isin(ranked, base)]
    extra = outside[: k_star - base.size]
    return np.sort(np.concatenate([base, extra])).astype(np.intp)


def _spectral_gram_deviation(X: np.ndarray, idx: np.ndarray) -> float:
    cols = X[:, idx]
    m = (cols.T @ cols) / X.shape[0]
    m[np.diag_indices_from(m)] -= 1.0
    eigs = np.linalg.eigvalsh(m)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def b_delta_check(instance, beta_L, beta_O, k_star: int, xtz=None) -> ResolventReport:
    """Build the resolvent set from the instance's own noise and check that
    the truth, the Lasso fit, and the oracle fit are all supported inside
    it; delta_emp is the spectral norm of X_{S*}'X_{S*}/n - I. ``xtz``
    supplies X'z for the instance's noise z, as in ``resolvent_set``."""
    X = _as_design(instance.design.entries)
    p = X.shape[1]
    s_star = resolvent_set(X, instance.noise.z, instance.signal.support, k_star, xtz=xtz)
    members = set(int(i) for i in s_star)
    supports = np.concatenate(
        [
            np.flatnonzero(_as_vector(beta_L, p, "beta_L")),
            np.flatnonzero(_as_vector(beta_O, p, "beta_O")),
            np.asarray(instance.signal.support, dtype=np.intp),
        ]
    )
    contains_all = all(int(j) in members for j in supports)
    delta_emp = _spectral_gram_deviation(X, s_star)
    return ResolventReport(s_star, k_star, contains_all, delta_emp)


def oracle_lasso_gap_check(beta, beta_L, beta_O, report: ResolventReport, tol: float = 1e-8) -> GapCheck:
    """On instances where the resolvent premise holds, test
    ||beta_O - beta_L||_2 <= delta/(1-delta) * ||beta_O - beta||_2 with
    delta = report.delta_emp, allowing 10*tol*sqrt(p) of solver slack."""
    beta = _as_vector(beta, np.size(beta), "beta")
    beta_L = _as_vector(beta_L, beta.size, "beta_L")
    beta_O = _as_vector(beta_O, beta.size, "beta_O")
    lhs = float(np.linalg.norm(beta_O - beta_L))
    if not report.contains_all or report.delta_emp >= 1.0:
        return GapCheck(lhs, math.inf, None, True)
    ratio = report.delta_emp / (1.0 - report.delta_emp)
    rhs = ratio * float(np.linalg.norm(beta_O - beta))
    slack = 10.0 * tol * math.sqrt(beta.size)
    return GapCheck(lhs, rhs, lhs <= rhs + slack, False)


def h_func(u, k: int, n: int, sigma: float, delta1: float, delta2: float) -> float:
    """Weighted sorted-magnitude functional: the top k order statistics of
    |u| pay 4 sqrt(log(2p/j)/n) each, the rest pay the flat rate
    (1+delta1) sqrt(2 log(p/k)/n), all scaled by sigma (1+delta2)."""
    u = _as_vector(u, np.size(u), "u")
    p = u.size
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={p}")
    if n < 1 or sigma < 0 or delta1 < 0 or delta2 < 0:
        raise ValueError("need n >= 1, sigma >= 0, delta1 >= 0, delta2 >= 0")
    a = np.sort(np.abs(u))[::-1]
    j = np.arange(1, k + 1, dtype=np.float64)
    head = float(a[:k] @ (4.0 * np.sqrt(np.log(2.0 * p / j) / n)))
    tail = 0.0
    if k < p:
        tail = (1.0 + delta1) * math.sqrt(2.0 * math.log(p / k) / n) * float(a[k:].sum())
    return sigma * (1.0 + delta2) * (head + tail)


def g_func(u, X, sigma: float, delta0: float, delta2: float, delta3: float) -> float:
    """Design-dependent companion to h_func:
    sigma (1+delta2)/delta2 * sqrt(2 log(1/delta3)) * ||Xu||_2 / (n (1+delta0))."""
    if sigma < 0 or delta0 < 0:
        raise ValueError("need sigma >= 0 and delta0 >= 0")
    if not 0.0 < delta2:
        raise ValueError(f"delta2 must be positive, got {delta2}")
    if not 0.0 < delta3 < 1.0:
        raise ValueError(f"delta3 must lie in (0, 1), got {delta3}")
    X = _as_design(X)
    n, p = X.shape
    u = _as_vector(u, p, "u")
    xu = _k.x_dot_dense(X, u)
    return (
        sigma
        * (1.0 + delta2)
        / delta2
        * math.sqrt(2.0 * math.log(1.0 / delta3))
        * float(np.linalg.norm(xu))
        / (n * (1.0 + delta0))
    )


def stochastic_u_samples(X, z, k: int, m: int, seed: int | SeedSpec = 0) -> np.ndarray:
    """Probe directions for the stochastic error event: cycles through
    random k-sparse vectors, dense Gaussians, and adversarial sign vectors
    aligned with X'z on its top-j coordinates (j doubling from k). The
    event inequality is scale-free, so no normalization is applied."""
    X = _as_design(X)
    n, p = X.shape
    z = _as_vector(z, n, "z")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={p}")
    spec = seed if isinstance(seed, SeedSpec) else SeedSpec(seed)
    g = _k.xt_dot(X, z)
    rank = np.lexsort((np.arange(p), -np.abs(g)))

    out = np.empty((m, p))
    top = k
    for t in range(m):
        fam = t % 3
        if fam == 0:
            gen = spec.generator(ROLE_PROBE, t)
            u = np.zeros(p)
            support = np.sort(gen.choice(p, size=min(k, p), replace=False))
            u[support] = gen.standard_normal(support.size)
            if not np.any(u):
                u[support[0]] = 1.0
        elif fam == 1:
            gen = spec.generator(ROLE_PROBE, t)
            u = gen.standard_normal(p)
        else:
            head = rank[: min(top, p)]
            u = np.zeros(p)
            signs = np.sign(g[head])
            signs[signs == 0.0] = 1.0
            u[head] = signs
            top = min(top * 2, p)
        out[t] = u
    return out


def stochastic_error_event_check(
    X, z, params: StochasticErrorParams, u_samples, k: int, sigma: float
) -> StochasticErrorCheck:
    """Fraction of probe directions u satisfying
    z'Xu/n <= (1+delta0) max(H(u), G(u)).

    The bound presumes max column norm at most (1+delta0) sqrt(n) and a
    large p/k aspect; the first is checked exactly, by
    ``diagnostics.max_column_norm``, which refuses a non-finite design, and
    failure flags the report not-applicable; the second is the caller's
    responsibility since the reference constant is unspecified.
    """
    X = _as_design(X)
    n, p = X.shape
    z = _as_vector(z, n, "z")
    samples = np.atleast_2d(np.asarray(u_samples, dtype=np.float64))
    if samples.shape[1] != p:
        raise ValueError(f"u_samples must have {p} columns, got {samples.shape[1]}")

    applicable = max_column_norm(X) <= (1.0 + params.delta0) * math.sqrt(n)

    zx = _k.xt_dot(X, z)
    held = 0
    for u in samples:
        lhs = float(zx @ u) / n
        bound = (1.0 + params.delta0) * max(
            h_func(u, k, n, sigma, params.delta1, params.delta2),
            g_func(u, X, sigma, params.delta0, params.delta2, params.delta3),
        )
        if lhs <= bound + 1e-12 * max(1.0, abs(bound)):
            held += 1
    frac = held / samples.shape[0]
    return StochasticErrorCheck(frac, held == samples.shape[0], applicable, samples.shape[0])


def lasso_l2_constants(eps: float, delta0: float, delta2: float) -> tuple[float, float]:
    """The pair (C1, C2) multiplying the two terms of the l2 bound:
    C1 = (8(1+delta0)(1+delta2) + sqrt(2)(1+eps)) / (1-delta0)^2,
    C2 = (4 sqrt(2)(1+delta0)(1+delta2) + 1 + eps) / (16 sqrt(2)(1+delta0)^2 delta2^2).
    C2 is infinite at delta2 = 0."""
    if not 0.0 <= delta0 < 1.0:
        raise ValueError(f"delta0 must lie in [0, 1), got {delta0}")
    if delta2 < 0 or eps < 0:
        raise ValueError("need delta2 >= 0 and eps >= 0")
    c1 = (8.0 * (1.0 + delta0) * (1.0 + delta2) + math.sqrt(2.0) * (1.0 + eps)) / (1.0 - delta0) ** 2
    if delta2 == 0.0:
        return c1, math.inf
    c2 = (4.0 * math.sqrt(2.0) * (1.0 + delta0) * (1.0 + delta2) + 1.0 + eps) / (
        16.0 * math.sqrt(2.0) * (1.0 + delta0) ** 2 * delta2**2
    )
    return c1, c2


def lasso_l2_bound(
    k: int,
    n: int,
    p: int,
    sigma: float,
    eps: float,
    delta0: float,
    delta2: float,
    delta3: float,
    delta1: float | None = None,
) -> float:
    """High-probability l2 error level for the tuned Lasso:
    C1 sigma sqrt(k log(p/k)/n) + C2 sigma log(1/delta3)/sqrt(n k log(p/k)).

    Requires p >= 2k and (1+eps) > (1+delta0)(1+delta1)(1+delta2); pass
    delta1 to check the full product, otherwise it is taken as 0 (the
    weakest version of the constraint).
    """
    if p < 2 * k or k < 1:
        raise ValueError(f"need p >= 2k with k >= 1, got p={p}, k={k}")
    if n < 1 or sigma <= 0:
        raise ValueError(f"need n >= 1 and sigma > 0, got n={n}, sigma={sigma}")
    if not 0.0 < delta3 < 1.0:
        raise ValueError(f"delta3 must lie in (0, 1), got {delta3}")
    if delta2 <= 0:
        raise ValueError(f"delta2 must be positive, got {delta2}")
    d1 = 0.0 if delta1 is None else delta1
    if not (1.0 + eps) > (1.0 + delta0) * (1.0 + d1) * (1.0 + delta2):
        raise ValueError("need (1+eps) > (1+delta0)(1+delta1)(1+delta2)")
    c1, c2 = lasso_l2_constants(eps, delta0, delta2)
    rate = math.sqrt(k * math.log(p / k) / n)
    return c1 * sigma * rate + c2 * sigma * math.log(1.0 / delta3) / math.sqrt(n * k * math.log(p / k))


def lasso_moment_bound(
    q: float, k: int, n: int, p: int, sigma: float, eps: float, delta0: float, delta2: float
) -> float:
    """Moment-level version of the l2 bound:
    c_q sigma^q [ (C1 sqrt(k log(p/k)/n))^q + (C2 / sqrt(n k log(p/k)))^q ]
    with the tail-integration constant c_q = 1 + q 2^(q-2) (1 + Gamma(q))."""
    if q < 2:
        raise ValueError(f"q must be at least 2, got {q}")
    if p <= k or k < 1:
        raise ValueError(f"need p > k >= 1, got p={p}, k={k}")
    if n < 1 or sigma <= 0:
        raise ValueError(f"need n >= 1 and sigma > 0, got n={n}, sigma={sigma}")
    c1, c2 = lasso_l2_constants(eps, delta0, delta2)
    cq = 1.0 + q * 2.0 ** (q - 2.0) * (1.0 + math.gamma(q))
    rate = math.sqrt(k * math.log(p / k) / n)
    return cq * sigma**q * (
        (c1 * rate) ** q + (c2 / math.sqrt(n * k * math.log(p / k))) ** q
    )
