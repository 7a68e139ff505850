"""Conditioning checks on realized designs: column norms, the cone
constant of the sparse restricted eigenvalue condition, exact sparse
minimal eigenvalues, the combined well-conditioning event, and Gram
eigenvalue windows on a fixed support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import _kernels as _k
from .design import _as_design, _as_vector
from .estimators import _enum_count, soft_threshold
from .rng import ROLE_RESTART, SeedSpec

# Wider designs than this use matrix-free products instead of an explicit
# Gram matrix inside the cone descent.
_GRAM_LIMIT = 1200


@dataclass(frozen=True)
class SreEstimate:
    """The cone constant theta(k, c0) at a witness: exact when the cone is
    the whole space, an upper bound otherwise.

    ``argmin_vector`` is a unit vector inside the cone
    {||d||_1 <= (1+c0) sqrt(k) ||d||_2} and ``theta_upper`` equals
    ||X d||_2 / sqrt(n) at that witness. When (1+c0) sqrt(k) >= sqrt(p) the
    witness is a minimizer, so the value is exact. ``restarts`` counts the
    descents actually run (0 on the exact route).
    """

    theta_upper: float
    restarts: int
    argmin_vector: np.ndarray


@dataclass(frozen=True)
class EventAReport:
    """Outcome of the two-part design conditioning check.

    ``holds`` is the conjunction of the exact column-norm test and the cone
    test, which is exact when the cone is the whole space and a proxy
    otherwise; ``max_col_norm`` and ``theta_upper`` carry the measured values
    behind the flags.
    """

    delta0: float
    c0: float
    max_col_norm_ok: bool
    theta_ok: bool
    holds: bool
    max_col_norm: float
    theta_upper: float

    def to_json(self) -> dict:
        return {
            "delta0": float(self.delta0),
            "c0": float(self.c0),
            "max_col_norm_ok": bool(self.max_col_norm_ok),
            "theta_ok": bool(self.theta_ok),
            "holds": bool(self.holds),
            "max_col_norm": float(self.max_col_norm),
            "theta_upper": float(self.theta_upper),
        }


def _finite_col_sumsq(X: np.ndarray) -> np.ndarray:
    """Column sums of squares of a converted design. A NaN or infinite
    entry makes their sum non-finite, so the check costs no extra pass."""
    col_sq = _k.col_sumsq(X)
    if not math.isfinite(float(col_sq.sum())):
        raise ValueError("X must be finite: its column sums of squares are not")
    return col_sq


def max_column_norm(X) -> float:
    """Largest Euclidean column norm of X."""
    X = _as_design(X)
    if X.shape[1] == 0:
        return 0.0
    return math.sqrt(float(_finite_col_sumsq(X).max()))


def delta_consts(eps: float) -> tuple[float, float]:
    """The slack pair (delta0, c0) driven by a single aggressiveness knob:
    delta0 = (1+eps/2)^(1/3) - 1 and
    c0 = 8 sqrt(2) (1+eps/2)^(2/3) / eps + 2/eps + 2.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    delta0 = (1.0 + eps / 2.0) ** (1.0 / 3.0) - 1.0
    c0 = 8.0 * math.sqrt(2.0) * (1.0 + eps / 2.0) ** (2.0 / 3.0) / eps + 2.0 / eps + 2.0
    return delta0, c0


def c0_general(delta0: float, delta1: float, delta2: float, eps: float) -> float:
    """Cone width (4 sqrt(2) (1+delta0)(1+delta2) + 1 + eps) / ((1+eps) -
    (1+delta0)(1+delta1)(1+delta2)), defined while the denominator is
    positive."""
    den = (1.0 + eps) - (1.0 + delta0) * (1.0 + delta1) * (1.0 + delta2)
    if den <= 0:
        raise ValueError(f"slack products must leave (1+eps) - prod(1+delta) > 0, got {den}")
    num = 4.0 * math.sqrt(2.0) * (1.0 + delta0) * (1.0 + delta2) + 1.0 + eps
    return num / den


def sparse_min_eig(X, s: int, enum_cap: int = 10**6) -> float:
    """Exact min over size-s supports of the smallest eigenvalue of
    X_S' X_S / n, i.e. the worst sparse Rayleigh quotient."""
    X = _as_design(X)
    n, p = X.shape
    if not 1 <= s <= p:
        raise ValueError(f"need 1 <= s <= p, got s={s}, p={p}")
    _enum_count(p, s, enum_cap, "sparse_min_eig")

    gram = (X.T @ X) / n if p <= 2048 else None
    best = math.inf
    for support in combinations(range(p), s):
        idx = list(support)
        if gram is not None:
            gs = gram[np.ix_(idx, idx)]
        else:
            cols = X[:, idx]
            gs = (cols.T @ cols) / n
        lam_min = float(np.linalg.eigvalsh(gs)[0]) if s > 1 else float(gs[0, 0])
        if lam_min < best:
            best = lam_min
    return max(best, 0.0)


def _project_cone(v: np.ndarray, rho: float, tol: float = 1e-10) -> np.ndarray:
    """Push v inside {||w||_1 <= rho ||w||_2} by soft thresholding at the
    smallest level that restores the ratio, found by bisection.

    Norms here and in _cone_descent are sqrt(x.dot(x)), which is what
    numpy.linalg.norm computes for a real 1-D array, without its per-call
    overhead (these vectors can be as short as p=50)."""
    a = np.abs(v)
    l2 = math.sqrt(float(v.dot(v)))
    if l2 == 0.0 or float(a.sum()) <= rho * l2:
        return v.copy()
    lo, hi = 0.0, float(a.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        w = np.maximum(a - mid, 0.0)
        gap = float(w.sum()) - rho * math.sqrt(float(w.dot(w)))
        if gap > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(1.0, hi):
            break
    out = soft_threshold(v, hi)
    if not np.any(out):
        spike = np.zeros_like(v)
        j = int(np.argmax(a))
        spike[j] = math.copysign(1.0, v[j]) if v[j] != 0 else 1.0
        return spike
    return out


def _cone_descent(matvec, v0: np.ndarray, rho: float, iters: int) -> tuple[float, np.ndarray]:
    """Projected descent of d'X'Xd/n on the unit sphere inside the cone.
    Returns (value, unit witness); only ever decreases the objective, so
    the result is a certified upper bound at its witness. Each point is
    multiplied once: the accepted candidate's product is the next
    gradient."""
    v = _project_cone(v0, rho)
    nv = math.sqrt(float(v.dot(v)))
    if nv == 0.0:
        v = np.zeros_like(v0)
        v[0] = 1.0
        nv = 1.0
    v = v / nv
    mv = matvec(v)
    f = float(v @ mv)
    for _ in range(iters):
        g = 2.0 * mv
        d = g - float(g @ v) * v
        if math.sqrt(float(d.dot(d))) < 1e-15:
            break
        eta = 0.5
        improved = False
        for _ in range(25):
            cand = _project_cone(v - eta * d, rho)
            nc = math.sqrt(float(cand.dot(cand)))
            if nc > 0.0:
                cand = cand / nc
                mc = matvec(cand)
                fc = float(cand @ mc)
                if fc < f - 1e-15:
                    v, f, mv = cand, fc, mc
                    improved = True
                    break
            eta *= 0.5
        if not improved:
            break
    return f, v


def _bottom_eigvec(X: np.ndarray, col_sq: np.ndarray, spec: SeedSpec) -> np.ndarray:
    """Unnormalized bottom eigenvector of G = X'X/n: the smallest eigenvalue
    from eigvalsh, then one inverse-iteration solve from a Gaussian start on
    the restart stream. The shift sits eps * trace(G) below that eigenvalue,
    so G - shift I stays invertible when the eigenvalue is exact (a scaled
    identity), while the other eigenvectors are damped by about
    eps * trace(G) / gap."""
    n, p = X.shape
    gram = X.T @ X
    gram /= n
    lam0 = float(np.linalg.eigvalsh(gram)[0])
    trace = float(col_sq.sum()) / n
    offset = np.finfo(np.float64).eps * trace if trace > 0.0 else 1.0  # X = 0: any vector
    gram.flat[:: p + 1] -= lam0 - offset
    return np.linalg.solve(gram, spec.generator(ROLE_RESTART, 0).standard_normal(p))


def _whole_space_theta(X: np.ndarray, col_sq: np.ndarray, spec: SeedSpec) -> tuple[float, np.ndarray]:
    """theta over the whole space, sigma_min(X)/sqrt(n), reported as
    ||X d||/sqrt(n) at a unit minimizer d whose largest-magnitude entry is
    positive. For p > n the minimum is 0, attained at a null vector of the
    first n+1 columns."""
    n, p = X.shape
    if p <= n:
        d = _bottom_eigvec(X, col_sq, spec)
    else:
        d = np.zeros(p)
        d[n] = -1.0
        try:
            d[:n] = np.linalg.solve(X[:, :n], X[:, n])
        except np.linalg.LinAlgError:  # exactly singular leading block
            d[: n + 1] = _bottom_eigvec(X[:, : n + 1], col_sq[: n + 1], spec)
    d /= math.sqrt(float(d.dot(d)))
    if d[int(np.argmax(np.abs(d)))] < 0.0:
        d = -d
    xd = X @ d
    return math.sqrt(float(xd.dot(xd))) / math.sqrt(n), d


def sre_theta_estimate(
    X, k: int, c0: float, restarts: int = 64, seed: int | SeedSpec = 0, col_sq=None
) -> SreEstimate:
    """The cone constant theta(k, c0) = min over the cone
    {||d||_1 <= (1+c0) sqrt(k) ||d||_2} of ||Xd||_2 / (sqrt(n) ||d||_2),
    exact when the cone is the whole space and an upper bound otherwise.

    Since ||d||_1 <= sqrt(p) ||d||_2 for every d, the cone is the whole space
    when (1+c0) sqrt(k) >= sqrt(p); theta is then sigma_min(X)/sqrt(n) (0
    when p > n) and is computed exactly, with no descent.

    Otherwise, multi-start projected descent: the first start is the
    minimum-norm column direction, the second the most correlated signed
    column pair (when the Gram matrix is small enough to form), the rest
    alternate random k-sparse and dense directions. Each restart draws from
    its own stream, so the reduce is order-insensitive; exact value ties are
    broken by the lexicographically smallest witness bytes.

    ``col_sq`` supplies X's finite column sums of squares when the caller
    already has them.
    """
    X = _as_design(X)
    n, p = X.shape
    if p == 0:
        raise ValueError("design must have at least one column")
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if not (math.isfinite(c0) and c0 >= 0):
        raise ValueError(f"c0 must be finite and non-negative, got {c0}")
    spec = seed if isinstance(seed, SeedSpec) else SeedSpec(seed)
    rho = (1.0 + c0) * math.sqrt(k)
    col_sq = _finite_col_sumsq(X) if col_sq is None else _as_vector(col_sq, p, "col_sq")
    if rho >= math.sqrt(p):
        theta, witness = _whole_space_theta(X, col_sq, spec)
        return SreEstimate(theta, 0, witness)

    gram = None
    if p <= _GRAM_LIMIT:
        gram = (X.T @ X) / n

        def matvec(v: np.ndarray) -> np.ndarray:
            return gram @ v

        iters = 150
    else:

        def matvec(v: np.ndarray) -> np.ndarray:
            return _k.xt_dot(X, _k.x_dot_dense(X, v)) / n

        iters = 60

    def start_vector(slot: int) -> np.ndarray:
        if slot == 0:
            v = np.zeros(p)
            v[int(np.argmin(col_sq))] = 1.0
            return v
        if slot == 1 and gram is not None and p >= 2:
            scale = np.sqrt(np.maximum(col_sq / n, 1e-300))
            corr = gram / np.outer(scale, scale)
            np.fill_diagonal(corr, 0.0)
            flat = int(np.argmax(np.abs(corr)))
            i, j = divmod(flat, p)
            v = np.zeros(p)
            v[i] = 1.0
            v[j] = -math.copysign(1.0, corr[i, j])
            return v
        gen = spec.generator(ROLE_RESTART, slot)
        if slot % 2 == 0:
            support = np.sort(gen.choice(p, size=min(k, p), replace=False))
            v = np.zeros(p)
            v[support] = gen.standard_normal(support.size)
            if not np.any(v):
                v[support[0]] = 1.0
            return v
        return gen.standard_normal(p)

    best_f = math.inf
    best_key: bytes | None = None
    best_v: np.ndarray | None = None
    for slot in range(restarts):
        f, v = _cone_descent(matvec, start_vector(slot), rho, iters)
        key = v.tobytes()
        if f < best_f or (f == best_f and (best_key is None or key < best_key)):
            best_f, best_key, best_v = f, key, v

    assert best_v is not None
    return SreEstimate(math.sqrt(max(best_f, 0.0)), restarts, best_v)


def event_a_check(X, k: int, eps: float, restarts: int = 64, seed: int | SeedSpec = 0) -> EventAReport:
    """Check the conditioning event behind the Lasso branch: every column
    norm at most (1+delta0) sqrt(n), and cone constant at least 1-delta0.

    The column-norm branch is exact. The cone branch is exact when the
    cone is the whole space, (1+c0) sqrt(k) >= sqrt(p), as at every size the
    acceptance tests and the benchmark use; on a narrower cone it compares
    the descent's upper bound against the target, so it can only fail to
    reject. The report carries both measurements for the caller to judge.
    """
    X = _as_design(X)
    n = X.shape[0]
    delta0, c0 = delta_consts(eps)
    col_sq = _finite_col_sumsq(X)  # one pass serves both branches
    mc = math.sqrt(float(col_sq.max(initial=0.0)))
    norm_ok = mc <= (1.0 + delta0) * math.sqrt(n)
    est = sre_theta_estimate(X, k, c0, restarts=restarts, seed=seed, col_sq=col_sq)
    theta_ok = est.theta_upper >= 1.0 - delta0
    return EventAReport(
        delta0=delta0,
        c0=c0,
        max_col_norm_ok=norm_ok,
        theta_ok=theta_ok,
        holds=norm_ok and theta_ok,
        max_col_norm=mc,
        theta_upper=est.theta_upper,
    )


def gram_eig_window(X, S, delta: float) -> tuple[float, float, bool]:
    """Extreme eigenvalues of X_S' X_S / n and whether they fit inside
    [1-delta, 1+delta]. A support larger than n is rank deficient by
    counting, so the window check fails outright."""
    X = _as_design(X)
    n, p = X.shape
    idx = np.asarray(S, dtype=np.intp)
    if idx.ndim != 1 or idx.size == 0:
        raise ValueError("S must be a nonempty 1-D index collection")
    ordered = np.sort(idx)
    if np.any(ordered[1:] == ordered[:-1]):  # as np.unique would, without its numpy.ma import
        raise ValueError("S must not contain duplicate indices")
    if idx.min() < 0 or idx.max() >= p:
        raise ValueError(f"S must index columns of a p={p} design")
    cols = X[:, idx]
    eigs = np.linalg.eigvalsh((cols.T @ cols) / n)
    lam_min = max(float(eigs[0]), 0.0)
    lam_max = max(float(eigs[-1]), 0.0)
    if idx.size > n:
        return 0.0, lam_max, False
    ok = (1.0 - delta) <= lam_min and lam_max <= (1.0 + delta)
    return lam_min, lam_max, bool(ok)
