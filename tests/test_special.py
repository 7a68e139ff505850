"""The package's numpy-only special functions against scipy.special, which
the tests may import and the package may not."""

import math

import numpy as np
import pytest
from scipy.special import betainc, erfc, ndtr, ndtri

from sparse_minimax._special import binom_tail, binom_tail_error, erfc_grid, norm_cdf, norm_ppf
from sparse_minimax.tails import _QUAD_INTERVALS, _TAIL_CUT, _order_stat_mean

EPS = np.finfo(np.float64).eps


def _quadrature_q(p: int) -> np.ndarray:
    """The q = erfc(x/sqrt 2) grid that _order_stat_mean integrates over."""
    a = math.sqrt(2.0 * math.log(p / _TAIL_CUT))
    return erfc(np.linspace(0.0, a, _QUAD_INTERVALS + 1) / math.sqrt(2.0))


def test_norm_cdf_matches_ndtr():
    x = np.linspace(-38.0, 38.0, 76_001)
    ref = ndtr(x)
    got = np.array([norm_cdf(float(v)) for v in x])
    keep = ref > 1e-300
    rel = np.abs(got[keep] - ref[keep]) / ref[keep]
    # Phi's relative condition number is about x^2 in the lower tail, so
    # rounding x/sqrt(2) alone moves any implementation, scipy's included,
    # by up to x^2 eps there; elsewhere the two agree to 1e-14
    assert np.all(rel <= 1e-14 + 2.0 * x[keep] ** 2 * EPS)
    assert np.max(rel[np.abs(x[keep]) <= 5.0]) <= 1e-14


@pytest.mark.parametrize("p, q", [(50, 0.5), (8000, 0.5), (8000, 0.1)])
def test_norm_ppf_matches_ndtri_on_the_slope_arguments(p, q):
    u = 1.0 - np.arange(1, p + 1, dtype=np.float64) * q / (2.0 * p)
    ref = ndtri(u)
    assert np.max(np.abs(norm_ppf(u) - ref) / np.abs(ref)) <= 4e-15


def test_erfc_grid_matches_scipy():
    # up to 26, where scipy's erfc has not yet flushed to zero; past the
    # quadrature grids' largest argument (6.3 at p = 10^4) scipy rounds x^2
    # inside exp(-x^2), which costs it up to x^2 eps
    x = np.linspace(0.0, 26.0, 10_001)
    ref = erfc(x)
    rel = np.abs(erfc_grid(x) - ref) / ref
    assert np.all(rel <= 1e-14 + 2.0 * x**2 * EPS)
    assert np.max(rel[x <= 7.0]) <= 1e-14


@pytest.mark.parametrize("p, k", [(100, 10), (1000, 20), (100, 5), (1, 1), (50, 50), (10**4, 10), (10**4, 5000)])
def test_binom_tail_matches_betainc_on_the_quadrature_grid(p, k):
    q = _quadrature_q(p)
    err = np.max(np.abs(binom_tail(p, k, q) - betainc(k, p - k + 1, q)))
    assert err <= 1e-11
    assert err <= binom_tail_error(p)


def test_binom_tail_ends_and_edges():
    q = np.array([0.0, 1e-300, 0.3, 1.0 - 1e-16, 1.0])
    for p, k in [(1, 1), (7, 1), (7, 4), (7, 7)]:
        got = binom_tail(p, k, q)
        assert got[0] == 0.0 and got[-1] == 1.0
        assert np.allclose(got, betainc(k, p - k + 1, q), rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError, match="1 <= k <= p"):
        binom_tail(5, 0, q)
    with pytest.raises(ValueError, match="1 <= k <= p"):
        binom_tail(5, 6, q)


@pytest.mark.parametrize("p, k", [(100, 10), (1000, 20), (1, 1), (50, 50), (10**4, 5000)])
def test_order_stat_mean_agrees_with_the_betainc_quadrature(p, k):
    mean, err = _order_stat_mean(p, k)
    a = math.sqrt(2.0 * math.log(p / _TAIL_CUT))
    h = a / _QUAD_INTERVALS
    f = betainc(k, p - k + 1, _quadrature_q(p))
    ref = h * (float(f.sum()) - 0.5 * float(f[0] + f[-1]))
    assert abs(mean - ref) <= err
    # the two differ only in how the integrand is evaluated
    assert abs(mean - ref) <= a * binom_tail_error(p)
