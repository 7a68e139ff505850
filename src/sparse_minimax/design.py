"""Seed-addressable generation of Gaussian designs, sparse signals, noise, and
full regression instances for the model y = X beta + z.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import ROLE_DESIGN, ROLE_NOISE, ROLE_SUPPORT, SeedSpec


@dataclass(frozen=True)
class GaussianDesign:
    """An n x p matrix of i.i.d. N(0,1) entries plus the seed that made it.

    `entries` is column-contiguous (Fortran order): the solvers walk columns.
    """

    n: int
    p: int
    entries: np.ndarray
    seed: SeedSpec | None = None


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


def gen_design(n: int, p: int, seed: SeedSpec) -> GaussianDesign:
    """Draw an n x p standard normal design, bit-identical for equal seeds.

    Entry (i, j) is draw number j*n + i of the stream's design role; the draw
    is shaped (p, n) and transposed, which leaves the columns contiguous.
    """
    if n < 1 or p < 1:
        raise ValueError(f"design dimensions must be positive, got n={n}, p={p}")
    entries = seed.generator(ROLE_DESIGN).standard_normal((p, n)).T
    return GaussianDesign(n=n, p=p, entries=entries, seed=seed)


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


_DUMP_MAGIC = "sparse-minimax-instance-v1"


def dump_instance(instance: Instance, path: str) -> None:
    """Binary dump: one JSON header line, then float64 little-endian payloads of
    X (row-major), z, beta (dense), y, in that order.
    """
    header = {
        "format": _DUMP_MAGIC,
        "n": instance.design.n,
        "p": instance.design.p,
        "sigma": instance.noise.sigma,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode())
        fh.write(np.ascontiguousarray(instance.design.entries, dtype="<f8").tobytes())
        fh.write(np.asarray(instance.noise.z, dtype="<f8").tobytes())
        fh.write(np.asarray(instance.signal.dense(), dtype="<f8").tobytes())
        fh.write(np.asarray(instance.response, dtype="<f8").tobytes())


def load_instance(path: str) -> Instance:
    """Read a :func:`dump_instance` file. The header's n and p must be
    positive integers and its sigma finite and nonnegative; each payload
    must have exactly the length the header implies, nothing may follow y,
    and every payload must be finite: a loaded file is the one way a design
    enters from outside, and the solvers do not scan X."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        if header.get("format") != _DUMP_MAGIC:
            raise ValueError(f"not an instance dump: {path}")
        n, p, sigma = header.get("n"), header.get("p"), header.get("sigma")
        for name, dim in (("n", n), ("p", p)):
            if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
                raise ValueError(f"{path}: header {name} must be a positive integer, got {dim!r}")
        if not isinstance(sigma, (int, float)) or isinstance(sigma, bool) or not (0 <= sigma < math.inf):
            raise ValueError(f"{path}: header sigma must be finite and nonnegative, got {sigma!r}")
        payloads = {}
        for name, count in (("X", n * p), ("z", n), ("beta", p), ("y", n)):
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise ValueError(f"{path}: {name} payload has {len(raw)} bytes, expected {8 * count}")
            payloads[name] = np.frombuffer(raw, dtype="<f8")
        if fh.read(1):
            raise ValueError(f"{path}: unexpected bytes after the y payload")
    for name, payload in payloads.items():
        if not np.all(np.isfinite(payload)):
            raise ValueError(f"{path}: {name} must be finite")
    x, beta = payloads["X"].reshape(n, p), payloads["beta"]
    design = GaussianDesign(n=n, p=p, entries=np.asfortranarray(x), seed=None)
    support = np.flatnonzero(beta).astype(np.intp)
    signal = SparseSignal(p=p, support=support, values=beta[support].copy())
    noise = NoiseVector(z=payloads["z"].copy(), sigma=float(sigma))
    return Instance(design=design, noise=noise, signal=signal, response=payloads["y"].copy())
