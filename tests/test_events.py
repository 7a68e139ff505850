"""Resolvent supports, the oracle-to-Lasso gap inequality, the H/G
functionals against independent recomputations, and the closed-form
constants behind the l2 and moment bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_minimax.design import GaussianDesign, Instance, NoiseVector, make_signal
from sparse_minimax.estimators import LassoConfig, lasso_fit, oracle_estimator
from sparse_minimax.events import (
    GapCheck,
    ResolventReport,
    StochasticErrorParams,
    b_delta_check,
    g_func,
    h_func,
    lasso_l2_bound,
    lasso_l2_constants,
    lasso_moment_bound,
    oracle_lasso_gap_check,
    resolvent_set,
    stochastic_error_event_check,
    stochastic_u_samples,
)
from sparse_minimax.rng import SeedSpec


def test_resolvent_picks_most_correlated_columns():
    X = np.eye(4)
    z = np.array([0.0, 5.0, 1.0, 9.0])
    out = resolvent_set(X, z, [0], 2)
    assert list(out) == [0, 3]


def test_resolvent_breaks_ties_by_smaller_index():
    X = np.eye(5)
    out = resolvent_set(X, np.zeros(5), [2], 3)
    assert list(out) == [0, 1, 2]


def _naive_resolvent(X, z, S, k_star):
    score = np.abs(X.T @ z)
    order = sorted(range(len(score)), key=lambda j: (-score[j], j))
    extra = [j for j in order if j not in set(S)][: k_star - len(set(S))]
    return sorted(set(S) | set(extra))


def test_resolvent_matches_naive_sort(rng):
    for _ in range(15):
        n, p = 20, 12
        X = rng.standard_normal((n, p))
        z = rng.standard_normal(n)
        S = sorted(rng.choice(p, size=3, replace=False).tolist())
        k_star = int(rng.integers(4, 9))
        out = resolvent_set(X, z, S, k_star)
        assert list(out) == _naive_resolvent(X, z, S, k_star)


def test_resolvent_permutation_equivariant(rng):
    n, p = 15, 8
    X = rng.standard_normal((n, p))
    z = rng.standard_normal(n)
    perm = rng.permutation(p)
    base = resolvent_set(X, z, [1, 4], 5)
    permuted = resolvent_set(X[:, perm], z, np.flatnonzero(np.isin(perm, [1, 4])), 5)
    assert sorted(perm[j] for j in permuted) == sorted(base)


def test_resolvent_validation(rng):
    X = rng.standard_normal((10, 6))
    z = rng.standard_normal(10)
    with pytest.raises(ValueError):
        resolvent_set(X, z, [0, 1], 2)  # k_star must exceed |S|
    with pytest.raises(ValueError):
        resolvent_set(X, z, [0], 6)  # k_star must stay below p
    with pytest.raises(ValueError):
        resolvent_set(X, z, [7], 3)  # out-of-range support
    with pytest.raises(ValueError):
        resolvent_set(X, rng.standard_normal(9), [0], 3)


def _noiseless_orthogonal_instance(n, k, amplitude):
    entries = np.asfortranarray(math.sqrt(n) * np.eye(n))
    design = GaussianDesign(n=n, p=n, entries=entries)
    signal = make_signal(n, k, amplitude)
    z = np.zeros(n)
    return Instance(
        design=design,
        noise=NoiseVector(z=z, sigma=0.0),
        signal=signal,
        response=entries @ signal.dense(),
    )


def test_gap_inequality_tight_case_noiseless():
    # zero Gram deviation forces the two fits to coincide
    inst = _noiseless_orthogonal_instance(8, 2, 5.0)
    lam = 0.4
    beta = inst.signal.dense()
    beta_l = lasso_fit(inst.design.entries, inst.response, LassoConfig(lam=lam)).beta_hat
    beta_o = oracle_estimator(beta, inst.design.entries, inst.noise.z, lam)
    report = b_delta_check(inst, beta_l, beta_o, 4)
    assert report.contains_all
    assert report.delta_emp == pytest.approx(0.0, abs=1e-12)
    check = oracle_lasso_gap_check(beta, beta_l, beta_o, report)
    assert not check.vacuous
    assert check.holds
    assert check.lhs == pytest.approx(0.0, abs=1e-8)


def test_gap_check_vacuous_when_support_escapes():
    report = ResolventReport(np.array([0, 1]), 2, False, 0.3)
    check = oracle_lasso_gap_check(np.zeros(4), np.zeros(4), np.zeros(4), report)
    assert check.vacuous
    assert check.holds is None
    assert math.isinf(check.rhs)


def test_gap_check_vacuous_at_unit_deviation():
    report = ResolventReport(np.array([0, 1]), 2, True, 1.0)
    check = oracle_lasso_gap_check(np.zeros(4), np.zeros(4), np.zeros(4), report)
    assert check.vacuous
    assert check.holds is None


def test_gap_check_json_fields():
    check = GapCheck(0.1, 0.5, True, False)
    assert check.to_json() == {"lhs": 0.1, "rhs": 0.5, "holds": True, "vacuous": False}


def _naive_h(u, k, n, sigma, d1, d2):
    a = sorted((abs(x) for x in u), reverse=True)
    p = len(u)
    head = sum(a[j - 1] * 4.0 * math.sqrt(math.log(2.0 * p / j) / n) for j in range(1, k + 1))
    tail = sum(a[j - 1] * (1.0 + d1) * math.sqrt(2.0 * math.log(p / k) / n) for j in range(k + 1, p + 1))
    return sigma * (1.0 + d2) * (head + tail)


def test_h_matches_two_loop_recomputation(rng):
    for _ in range(10):
        p = int(rng.integers(2, 40))
        k = int(rng.integers(1, p))
        u = rng.standard_normal(p) * 3
        ours = h_func(u, k, 50, 1.3, 0.05, 0.02)
        assert ours == pytest.approx(_naive_h(u, k, 50, 1.3, 0.05, 0.02), rel=1e-12, abs=1e-12)


def test_h_on_basis_vector():
    p, n = 16, 25
    u = np.zeros(p)
    u[5] = 1.0
    expect = 1.0 * (1.0 + 0.02) * 4.0 * math.sqrt(math.log(2.0 * p) / n)
    assert h_func(u, 1, n, 1.0, 0.1, 0.02) == pytest.approx(expect, rel=1e-14)


def test_h_at_zero_is_zero():
    assert h_func(np.zeros(10), 3, 20, 1.0, 0.1, 0.1) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=20),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_h_is_positively_homogeneous(vals, t):
    u = np.asarray(vals)
    k = max(1, len(vals) // 2)
    a = h_func(t * u, k, 30, 1.0, 0.05, 0.05)
    b = t * h_func(u, k, 30, 1.0, 0.05, 0.05)
    assert a == pytest.approx(b, rel=1e-10, abs=1e-10)


def test_h_is_permutation_invariant(rng):
    u = rng.standard_normal(12)
    perm = rng.permutation(12)
    assert h_func(u, 4, 30, 1.0, 0.1, 0.1) == pytest.approx(h_func(u[perm], 4, 30, 1.0, 0.1, 0.1), rel=1e-13)


def test_h_validation():
    with pytest.raises(ValueError):
        h_func(np.ones(5), 0, 10, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        h_func(np.ones(5), 6, 10, 1.0, 0.1, 0.1)


def test_g_matches_direct_formula(rng):
    n, p = 30, 8
    X = rng.standard_normal((n, p))
    u = rng.standard_normal(p)
    d0, d2, d3 = 0.02, 0.05, 0.1
    sigma = 1.4
    expect = (
        sigma * (1 + d2) / d2 * math.sqrt(2 * math.log(1 / d3)) * np.linalg.norm(X @ u) / (n * (1 + d0))
    )
    assert g_func(u, X, sigma, d0, d2, d3) == pytest.approx(expect, rel=1e-13)


def test_g_at_zero_is_zero(rng):
    X = rng.standard_normal((10, 4))
    assert g_func(np.zeros(4), X, 1.0, 0.1, 0.1, 0.1) == 0.0


def test_g_validation(rng):
    X = rng.standard_normal((10, 4))
    u = np.ones(4)
    with pytest.raises(ValueError):
        g_func(u, X, 1.0, 0.1, 0.0, 0.1)
    with pytest.raises(ValueError):
        g_func(u, X, 1.0, 0.1, 0.1, 1.5)


def test_params_validation():
    with pytest.raises(ValueError):
        StochasticErrorParams(0.0, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        StochasticErrorParams(0.1, 0.1, 0.1, 1.0)
    StochasticErrorParams(0.1, 0.1, 0.1, 0.5)


def test_probe_directions_shape_and_determinism(rng):
    X = rng.standard_normal((20, 10))
    z = rng.standard_normal(20)
    a = stochastic_u_samples(X, z, 3, 7, SeedSpec(4))
    b = stochastic_u_samples(X, z, 3, 7, SeedSpec(4))
    assert a.shape == (7, 10)
    assert np.array_equal(a, b)
    assert all(np.any(row) for row in a)


def test_probe_directions_include_adversarial_signs(rng):
    X = rng.standard_normal((20, 10))
    z = rng.standard_normal(20)
    out = stochastic_u_samples(X, z, 3, 4, SeedSpec(0))
    adv = out[2]
    assert set(np.unique(adv)) <= {-1.0, 0.0, 1.0}
    assert np.count_nonzero(adv) == 3
    top = np.argsort(-np.abs(X.T @ z))[:3]
    assert set(np.flatnonzero(adv)) == set(top)


def test_probe_directions_validation(rng):
    X = rng.standard_normal((10, 5))
    z = rng.standard_normal(10)
    with pytest.raises(ValueError):
        stochastic_u_samples(X, z, 3, 0)
    with pytest.raises(ValueError):
        stochastic_u_samples(X, z, 6, 2)


def test_event_check_trivial_noise(rng):
    X = rng.standard_normal((20, 10))
    params = StochasticErrorParams(0.1, 0.1, 0.1, 0.1)
    samples = stochastic_u_samples(X, np.zeros(20), 2, 5)
    out = stochastic_error_event_check(X, np.zeros(20), params, samples, 2, 1.0)
    assert out.fraction == 1.0
    assert out.all_hold
    assert out.n_samples == 5


def test_event_check_zero_direction_holds(rng):
    X = rng.standard_normal((15, 6))
    z = rng.standard_normal(15)
    params = StochasticErrorParams(0.1, 0.1, 0.1, 0.1)
    out = stochastic_error_event_check(X, z, params, np.zeros((1, 6)), 2, 1.0)
    assert out.all_hold


def test_event_check_flags_oversized_columns(rng):
    X = rng.standard_normal((15, 6))
    X[:, 0] *= 10.0
    z = rng.standard_normal(15)
    params = StochasticErrorParams(0.05, 0.1, 0.1, 0.1)
    samples = stochastic_u_samples(X, z, 2, 3)
    out = stochastic_error_event_check(X, z, params, samples, 2, 1.0)
    assert not out.applicable


def test_event_check_refuses_a_nan_design_by_name(rng):
    # before, the column-norm hypothesis read NaN as not holding:
    # applicable=False, fraction=0.0
    X = rng.standard_normal((30, 10))
    z = rng.standard_normal(30)
    samples = stochastic_u_samples(X, z, 2, 3)
    X[4, 7] = math.nan
    with pytest.raises(ValueError, match="X must be finite"):
        stochastic_error_event_check(X, z, StochasticErrorParams(0.1, 0.1, 0.1, 0.1), samples, 2, 1.0)


def test_l2_constants_collapse():
    c1, c2 = lasso_l2_constants(0.0, 0.0, 0.0)
    assert c1 == pytest.approx(8.0 + math.sqrt(2.0), rel=1e-15)
    assert math.isinf(c2)


def test_l2_constants_reference_formulas():
    eps, d0, d2 = 0.1, 0.02, 0.05
    c1, c2 = lasso_l2_constants(eps, d0, d2)
    assert c1 == pytest.approx((8 * 1.02 * 1.05 + math.sqrt(2) * 1.1) / 0.98**2, rel=1e-14)
    assert c2 == pytest.approx((4 * math.sqrt(2) * 1.02 * 1.05 + 1.1) / (16 * math.sqrt(2) * 1.02**2 * 0.05**2), rel=1e-14)


def test_l2_bound_assembles_its_two_terms():
    k, n, p, sigma, eps, d0, d2 = 4, 200, 400, 1.5, 0.3, 0.02, 0.03
    d3 = math.exp(-1.0)  # log(1/d3) = 1 isolates the raw constants
    c1, c2 = lasso_l2_constants(eps, d0, d2)
    rate = math.sqrt(k * math.log(p / k) / n)
    expect = c1 * sigma * rate + c2 * sigma / math.sqrt(n * k * math.log(p / k))
    assert lasso_l2_bound(k, n, p, sigma, eps, d0, d2, d3) == pytest.approx(expect, rel=1e-13)


def test_l2_bound_preconditions():
    with pytest.raises(ValueError):
        lasso_l2_bound(4, 100, 7, 1.0, 0.3, 0.02, 0.03, 0.1)  # p < 2k
    with pytest.raises(ValueError):
        lasso_l2_bound(4, 100, 400, 1.0, 0.05, 0.03, 0.03, 0.1, delta1=0.02)


def test_moment_bound_q2_constant_is_five():
    k, n, p, sigma, eps, d0, d2 = 8, 4000, 8000, 1.0, 0.1, 0.016, 0.02
    c1, c2 = lasso_l2_constants(eps, d0, d2)
    x = k * math.log(p / k) / n
    manual = 5.0 * sigma**2 * (c1**2 * x + c2**2 / (n * k * math.log(p / k)))
    assert lasso_moment_bound(2.0, k, n, p, sigma, eps, d0, d2) == pytest.approx(manual, rel=1e-13)


def test_moment_bound_grows_with_q():
    vals = [lasso_moment_bound(q, 8, 4000, 8000, 1.0, 0.1, 0.016, 0.02) for q in (2, 3, 4, 5, 6)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_moment_bound_validation():
    with pytest.raises(ValueError):
        lasso_moment_bound(1.5, 8, 100, 200, 1.0, 0.1, 0.02, 0.02)
