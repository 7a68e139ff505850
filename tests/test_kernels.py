"""The numeric kernels against plain BLAS products, the scalar Lasso update,
and scipy's isotonic regression."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from sparse_minimax import _kernels as k


def _design(rng, n=40, p=17):
    return np.asfortranarray(rng.standard_normal((n, p)))


def test_xt_dot_matches_blas(rng):
    x = _design(rng)
    v = rng.standard_normal(40)
    assert np.allclose(k.xt_dot(x, v), x.T @ v, rtol=1e-13, atol=1e-13)


def test_col_sumsq_matches_blas(rng):
    x = _design(rng)
    assert np.allclose(k.col_sumsq(x), (x**2).sum(axis=0), rtol=1e-13, atol=1e-13)


def test_x_dot_dense_matches_blas(rng):
    x = _design(rng)
    b = rng.standard_normal(17)
    b[::3] = 0.0
    assert np.allclose(k.x_dot_dense(x, b), x @ b, rtol=1e-13, atol=1e-13)


def test_x_dot_sparse_matches_blas(rng):
    x = _design(rng)
    idx = np.array([2, 5, 11], dtype=np.int64)
    vals = rng.standard_normal(3)
    assert np.allclose(k.x_dot_sparse(x, idx, vals), x[:, idx] @ vals, rtol=1e-13, atol=1e-13)


def test_x_dot_sparse_empty_support(rng):
    x = _design(rng)
    out = k.x_dot_sparse(x, np.empty(0, dtype=np.int64), np.empty(0))
    assert out.shape == (40,)
    assert not out.any()


def test_cd_sweep_is_one_soft_threshold_pass(rng):
    # one sweep over a single active coordinate is the scalar lasso update
    x = _design(rng, n=30, p=4)
    y = rng.standard_normal(30)
    col_sq = (x**2).sum(axis=0)
    lam_n = 0.4 * 30
    r = y.copy()
    w = np.zeros(4)
    k.cd_sweeps(x, r, w, np.array([2], dtype=np.int64), lam_n, col_sq, 0.0, 1)
    u = x[:, 2] @ y
    expect = np.sign(u) * max(abs(u) - lam_n, 0.0) / col_sq[2]
    assert w[2] == pytest.approx(expect, rel=1e-12)
    assert np.allclose(r, y - x[:, 2] * w[2], rtol=0, atol=1e-12)


def test_cd_sweeps_keeps_residual_consistent(rng):
    x = _design(rng, n=50, p=10)
    y = rng.standard_normal(50)
    col_sq = (x**2).sum(axis=0)
    r = y.copy()
    w = np.zeros(10)
    active = np.arange(10, dtype=np.int64)
    sweeps = k.cd_sweeps(x, r, w, active, 0.05 * 50, col_sq, 1e-12, 500)
    assert 1 <= sweeps <= 500
    assert np.allclose(r, y - x @ w, rtol=0, atol=1e-10)


def test_cd_sweeps_skips_zero_columns():
    x = np.asfortranarray(np.zeros((10, 2)))
    y = np.ones(10)
    r = y.copy()
    w = np.zeros(2)
    k.cd_sweeps(x, r, w, np.array([0, 1], dtype=np.int64), 1.0, np.zeros(2), 0.0, 3)
    assert not w.any()
    assert np.array_equal(r, y)


def test_pava_matches_scipy(rng):
    for _ in range(25):
        v = rng.standard_normal(rng.integers(1, 40))
        ours = k.pava_decreasing(v)
        ref = isotonic_regression(v, increasing=False).x
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=30))
def test_pava_properties(vals):
    v = np.asarray(vals)
    out = k.pava_decreasing(v)
    assert np.all(np.diff(out) <= 1e-9 * np.maximum(1.0, np.abs(out[:-1])))
    assert out.sum() == pytest.approx(v.sum(), rel=1e-9, abs=1e-6)
    again = k.pava_decreasing(out)
    assert np.allclose(again, out, rtol=1e-12, atol=1e-9)


def test_pava_already_decreasing_is_identity():
    v = np.array([5.0, 3.0, 1.0, -2.0])
    assert np.array_equal(k.pava_decreasing(v), v)


def test_pava_single_block_average():
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(k.pava_decreasing(v), [2.0, 2.0, 2.0])
