"""Hot numeric kernels: design products, column norms, Lasso coordinate
sweeps and the decreasing isotonic fit behind the sorted-L1 prox.

They stay separate named functions, looked up through this module at every
call site, so that a profiler or a test can replace one name and see every
call to that layer.
"""

from __future__ import annotations

import numpy as np


def xt_dot(x, v):
    return x.T @ v


def x_dot_sparse(x, idx, vals):
    if idx.size == 0:
        return np.zeros(x.shape[0])
    return x[:, idx] @ vals


def x_dot_dense(x, b):
    return x @ b


def col_sumsq(x):
    return np.einsum("ij,ij->j", x, x)


def cd_sweeps(x, r, w, active, lam_n, col_sq, delta_tol, max_sweeps):
    sweeps = 0
    while sweeps < max_sweeps:
        delta = 0.0
        for j in active:
            cj = col_sq[j]
            if cj <= 0.0:
                continue
            xj = x[:, j]
            u = xj @ r + cj * w[j]
            au = abs(u) - lam_n
            nw = 0.0 if au <= 0.0 else (au if u > 0.0 else -au) / cj
            d = nw - w[j]
            if d != 0.0:
                r -= d * xj
                w[j] = nw
                if abs(d) > delta:
                    delta = abs(d)
        sweeps += 1
        if delta <= delta_tol:
            break
    return sweeps


def pava_decreasing(u):
    sums = []
    counts = []
    for ui in u:
        sums.append(ui)
        counts.append(1)
        while len(sums) > 1 and sums[-1] * counts[-2] >= sums[-2] * counts[-1]:
            sums[-2] += sums[-1]
            counts[-2] += counts[-1]
            sums.pop()
            counts.pop()
    out = np.empty(len(u))
    pos = 0
    for s, c in zip(sums, counts):
        out[pos : pos + c] = s / c
        pos += c
    return out
