"""Seed-addressable generation of Gaussian designs, sparse signals, noise, and
full regression instances for the model y = X beta + z.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import ROLE_DESIGN, ROLE_NOISE, ROLE_SUPPORT, SeedSpec, draw_ranges, worker_count


@dataclass(frozen=True)
class GaussianDesign:
    """An n x p matrix of i.i.d. N(0,1) entries.

    `entries` is column-contiguous (Fortran order): the solvers walk columns.
    """

    n: int
    p: int
    entries: np.ndarray


@dataclass(frozen=True)
class NoiseVector:
    z: np.ndarray
    sigma: float

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")


@dataclass(frozen=True)
class SparseSignal:
    """A p-vector given by its support and the values on it."""

    p: int
    support: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.support)
        if s.size and (np.any(np.diff(s) <= 0) or s[0] < 0 or s[-1] >= self.p):
            raise ValueError("support must be strictly increasing indices in [0, p)")
        if np.asarray(self.values).shape != s.shape:
            raise ValueError("values and support must have matching shapes")
        if np.any(np.asarray(self.values) == 0):
            raise ValueError("values on the support must be nonzero")

    @property
    def k(self) -> int:
        return int(np.asarray(self.support).size)

    def dense(self) -> np.ndarray:
        beta = np.zeros(self.p)
        beta[self.support] = self.values
        return beta


@dataclass(frozen=True)
class Instance:
    """One synthetic regression problem, response bound to its components."""

    design: GaussianDesign
    noise: NoiseVector
    signal: SparseSignal
    response: np.ndarray = field(repr=False)


def _as_design(X) -> np.ndarray:
    """X as a 2-D float64 array with contiguous columns, the layout of
    ``GaussianDesign.entries``; copied only when it is not one already."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"design must be 2-D, got shape {X.shape}")
    return np.asfortranarray(X)


def _as_vector(v, length: int, name: str) -> np.ndarray:
    """v as a contiguous float64 vector of ``length`` entries; copied only
    when it is not one already."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (length,):
        raise ValueError(f"{name} has shape {v.shape}, expected ({length},)")
    return np.ascontiguousarray(v)


def gen_design(n: int, p: int, seed: SeedSpec, threads: int | None = None) -> GaussianDesign:
    """Draw an n x p standard normal design, bit-identical for equal seeds.

    The design is drawn as a (p, n) C-order array, one row per column, and
    transposed, which leaves the columns contiguous. Its p columns are the
    items of ``draw_ranges``: range j is drawn from
    ``seed.generator(ROLE_DESIGN, j)``, column by column, on the threads
    that ``worker_count(threads)`` resolves; the bytes do not depend on
    them. A bad thread request raises before anything is allocated.
    """
    if n < 1 or p < 1:
        raise ValueError(f"design dimensions must be positive, got n={n}, p={p}")
    threads = worker_count(threads)
    rows = np.empty((p, n))

    def fill(j: int, lo: int, hi: int, t: int) -> None:
        seed.generator(ROLE_DESIGN, j).standard_normal(out=rows[lo:hi])

    draw_ranges(p, fill, threads)
    return GaussianDesign(n=n, p=p, entries=rows.T)


def make_signal(
    p: int,
    k: int,
    amplitude: float,
    support_rule: str = "first_k",
    seed: SeedSpec | None = None,
) -> SparseSignal:
    """Equal-magnitude k-sparse signal; amplitude 0 degenerates to the zero vector."""
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={p}")
    if not np.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    if amplitude == 0:
        warnings.warn("amplitude 0 gives an empty signal (beta = 0)", stacklevel=2)
        return SparseSignal(p=p, support=np.empty(0, dtype=np.intp), values=np.empty(0))
    if support_rule == "first_k":
        support = np.arange(k, dtype=np.intp)
    elif support_rule == "random":
        if seed is None:
            raise ValueError("support_rule='random' needs a seed")
        support = np.sort(seed.generator(ROLE_SUPPORT).choice(p, size=k, replace=False))
    else:
        raise ValueError(f"unknown support_rule {support_rule!r}")
    return SparseSignal(p=p, support=support, values=np.full(k, float(amplitude)))


def synthesize(
    design: GaussianDesign, signal: SparseSignal, sigma: float, seed: SeedSpec
) -> Instance:
    """Bind design + signal + fresh noise into an instance with y = X beta + z."""
    if signal.p != design.p:
        raise ValueError(f"signal dimension {signal.p} != design p {design.p}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    z = sigma * seed.generator(ROLE_NOISE).standard_normal(design.n) if sigma > 0 else np.zeros(design.n)
    noise = NoiseVector(z=z, sigma=float(sigma))
    response = design.entries[:, signal.support] @ signal.values + z
    return Instance(design=design, noise=noise, signal=signal, response=response)

