"""Design conditioning checks: exact small cases, dual-route eigenvalue
computations, and the certified directions of the cone estimate."""

import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from sparse_minimax import _kernels, diagnostics
from sparse_minimax.design import gen_design
from sparse_minimax.diagnostics import (
    c0_general,
    delta_consts,
    event_a_check,
    gram_eig_window,
    max_column_norm,
    sparse_min_eig,
    sre_theta_estimate,
)
from sparse_minimax.estimators import CapacityError
from sparse_minimax.rng import SeedSpec


def test_delta_consts_reference_point():
    delta0, c0 = delta_consts(0.1)
    assert delta0 == pytest.approx(0.01639635681485352, abs=1e-15)
    assert c0 == pytest.approx(138.8775728512174, rel=1e-14)


def test_delta_consts_monotone_in_eps():
    d_small, c_small = delta_consts(0.05)
    d_big, c_big = delta_consts(1.0)
    assert d_small < d_big
    assert c_small > c_big  # looser target needs a narrower cone


def test_delta_consts_rejects_nonpositive_eps():
    for eps in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="eps"):
            delta_consts(eps)


def test_c0_general_collapse():
    # all slacks at zero: (4 sqrt(2) + 1 + eps) / eps
    assert c0_general(0.0, 0.0, 0.0, 1.0) == pytest.approx(4.0 * math.sqrt(2.0) + 2.0)


def test_c0_general_needs_positive_denominator():
    with pytest.raises(ValueError):
        c0_general(0.3, 0.3, 0.3, 0.1)


def test_max_column_norm_exact(rng):
    X = rng.standard_normal((20, 6))
    assert max_column_norm(X) == pytest.approx(np.linalg.norm(X, axis=0).max(), rel=1e-13)
    assert max_column_norm(np.zeros((4, 0))) == 0.0


def _min_eig_by_svd(X, s):
    # independent route: smallest singular value of each column block
    n = X.shape[0]
    best = np.inf
    for sup in combinations(range(X.shape[1]), s):
        sv = np.linalg.svd(X[:, list(sup)], compute_uv=False)
        best = min(best, float(sv[-1] ** 2) / n)
    return best


@pytest.mark.parametrize("s", [1, 2, 3])
def test_sparse_min_eig_matches_svd_route(rng, s):
    X = rng.standard_normal((15, 7))
    assert sparse_min_eig(X, s) == pytest.approx(_min_eig_by_svd(X, s), rel=1e-10, abs=1e-12)


def test_sparse_min_eig_identity_design():
    n = 9
    X = math.sqrt(n) * np.eye(n)
    for s in (1, 2, 5):
        assert sparse_min_eig(X, s) == pytest.approx(1.0, rel=1e-12)


def test_sparse_min_eig_monotone_in_s(rng):
    X = rng.standard_normal((18, 8))
    vals = [sparse_min_eig(X, s) for s in range(1, 9)]
    assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(7))


def test_sparse_min_eig_capacity(rng):
    X = rng.standard_normal((10, 30))
    with pytest.raises(CapacityError):
        sparse_min_eig(X, 5, enum_cap=1000)


def test_sparse_min_eig_validation(rng):
    X = rng.standard_normal((10, 5))
    with pytest.raises(ValueError):
        sparse_min_eig(X, 0)
    with pytest.raises(ValueError):
        sparse_min_eig(X, 6)


def test_theta_estimate_identity_design():
    # every eigenvalue of X'X/n is 1: the shifted solve must not be singular
    for n in (9, 16, 24):
        X = math.sqrt(n) * np.eye(n)
        est = sre_theta_estimate(X, 2, 10.0, restarts=4)
        assert est.theta_upper == pytest.approx(1.0, abs=1e-9)
        assert est.restarts == 0
        assert np.linalg.norm(est.argmin_vector) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("shape", [(10, 5), (5, 10)])
def test_theta_estimate_zero_design(shape):
    est = sre_theta_estimate(np.zeros(shape), 2, 10.0)
    assert est.theta_upper == 0.0
    assert np.linalg.norm(est.argmin_vector) == pytest.approx(1.0, abs=1e-12)


def test_theta_estimate_is_sandwiched(rng):
    # certified from above by the 1-sparse start, from below by sigma_min
    X = rng.standard_normal((30, 12))
    est = sre_theta_estimate(X, 3, 5.0, restarts=8)
    v1 = math.sqrt((X**2).sum(axis=0).min() / 30)
    smin = float(np.linalg.svd(X, compute_uv=False)[-1]) / math.sqrt(30)
    assert est.theta_upper <= v1 + 1e-12
    assert est.theta_upper >= smin - 1e-9


def test_theta_witness_is_consistent(rng):
    X = rng.standard_normal((25, 10))
    est = sre_theta_estimate(X, 2, 3.0, restarts=8)
    v = est.argmin_vector
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
    rho = (1.0 + 3.0) * math.sqrt(2)
    assert np.abs(v).sum() <= rho * np.linalg.norm(v) + 1e-9
    assert np.linalg.norm(X @ v) / math.sqrt(25) == pytest.approx(est.theta_upper, abs=1e-12)


def test_theta_estimate_deterministic(rng):
    X = rng.standard_normal((20, 9))
    a = sre_theta_estimate(X, 2, 4.0, restarts=6, seed=SeedSpec(5))
    b = sre_theta_estimate(X, 2, 4.0, restarts=6, seed=SeedSpec(5))
    assert a.theta_upper == b.theta_upper
    assert np.array_equal(a.argmin_vector, b.argmin_vector)


def test_theta_estimate_improves_with_restarts(rng):
    # restart slots are a prefix, so more restarts can only lower the bound
    X = rng.standard_normal((20, 15))
    lo = sre_theta_estimate(X, 2, 4.0, restarts=3, seed=SeedSpec(5))
    hi = sre_theta_estimate(X, 2, 4.0, restarts=12, seed=SeedSpec(5))
    assert hi.theta_upper <= lo.theta_upper + 1e-15


def _descent_multiplying_twice(matvec, v0, rho, iters):
    """The cone descent with a fresh product for every gradient, as it was
    before the accepted candidate's product was reused."""
    v = diagnostics._project_cone(v0, rho)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        v = np.zeros_like(v0)
        v[0] = 1.0
        nv = 1.0
    v = v / nv
    f = float(v @ matvec(v))
    for _ in range(iters):
        g = 2.0 * matvec(v)
        d = g - float(g @ v) * v
        if float(np.linalg.norm(d)) < 1e-15:
            break
        eta = 0.5
        for _ in range(25):
            cand = diagnostics._project_cone(v - eta * d, rho)
            nc = float(np.linalg.norm(cand))
            if nc > 0.0:
                cand = cand / nc
                fc = float(cand @ matvec(cand))
                if fc < f - 1e-15:
                    v, f = cand, fc
                    break
            eta *= 0.5
        else:
            break
    return f, v


def test_cone_descent_multiplies_each_point_once(monkeypatch):
    X = gen_design(60, 1300, SeedSpec(3)).entries
    assert X.shape[1] > diagnostics._GRAM_LIMIT  # matrix-free products
    with monkeypatch.context() as m:
        m.setattr(diagnostics, "_cone_descent", _descent_multiplying_twice)
        reference = sre_theta_estimate(X, 2, 4.0, restarts=2, seed=SeedSpec(5))

    points, evaluated = [], []
    x_dot_dense, project_cone = _kernels.x_dot_dense, diagnostics._project_cone

    def counting_x_dot_dense(X, v):
        points.append(np.asarray(v).tobytes())
        return x_dot_dense(X, v)

    def counting_project_cone(v, rho, tol=1e-10):
        out = project_cone(v, rho, tol)
        evaluated.append(bool(np.any(out)))  # starts and candidates with nonzero norm
        return out

    monkeypatch.setattr(_kernels, "x_dot_dense", counting_x_dot_dense)
    monkeypatch.setattr(diagnostics, "_project_cone", counting_project_cone)
    est = sre_theta_estimate(X, 2, 4.0, restarts=2, seed=SeedSpec(5))
    assert len(points) == sum(evaluated) == len(set(points)) > 2
    assert est.theta_upper == reference.theta_upper
    assert np.array_equal(est.argmin_vector, reference.argmin_vector)


def test_theta_estimate_validation(rng):
    X = rng.standard_normal((10, 4))
    with pytest.raises(ValueError):
        sre_theta_estimate(X, 0, 1.0)
    with pytest.raises(ValueError):
        sre_theta_estimate(X, 2, 1.0, restarts=0)


@pytest.mark.parametrize("c0", [math.nan, math.inf, -5.0, -1e-300])
def test_theta_estimate_rejects_bad_c0_by_name(rng, c0):
    X = rng.standard_normal((30, 12))
    with pytest.raises(ValueError, match="c0"):
        sre_theta_estimate(X, 3, c0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_design_is_rejected_by_name(rng, bad):
    X = rng.standard_normal((30, 12))
    X[4, 7] = bad
    with pytest.raises(ValueError, match="X must be finite"):
        sre_theta_estimate(X, 2, 5.0)
    with pytest.raises(ValueError, match="X must be finite"):
        max_column_norm(X)
    with pytest.raises(ValueError, match="X must be finite"):
        event_a_check(X, 2, 0.1, restarts=2)


# (n, p, k, c0) with (1+c0) sqrt(k) >= sqrt(p): the cone is the whole space
VACUOUS = [(30, 12, 3, 5.0), (25, 10, 2, 3.0), (50, 40, 2, 50.0), (100, 20, 1, 4.0), (200, 150, 8, 138.9)]


@pytest.mark.parametrize("n,p,k,c0", VACUOUS)
def test_descent_never_reports_below_the_exact_value_on_vacuous_cones(n, p, k, c0):
    X = gen_design(n, p, SeedSpec(n, p)).entries
    rho = (1.0 + c0) * math.sqrt(k)
    assert rho >= math.sqrt(p)
    exact = sre_theta_estimate(X, k, c0, seed=SeedSpec(4))
    smin = float(np.linalg.svd(X, compute_uv=False)[-1]) / math.sqrt(n)
    assert exact.theta_upper == pytest.approx(smin, rel=1e-10)

    gram = (X.T @ X) / n
    rng = np.random.default_rng(p)
    starts = [np.eye(p)[int(np.argmin((X * X).sum(axis=0)))]] + [rng.standard_normal(p) for _ in range(7)]
    for v0 in starts:
        f, v = diagnostics._cone_descent(lambda u: gram @ u, v0, rho, 150)
        # the descent's value is certified by its witness ...
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        assert f == pytest.approx(float(np.linalg.norm(X @ v)) ** 2 / n, rel=1e-10, abs=1e-15)
        # ... so it can never undercut the exact minimum
        assert math.sqrt(max(f, 0.0)) >= exact.theta_upper - 1e-12


@pytest.mark.parametrize("n,p,k,c0", VACUOUS)
def test_exact_witness_is_a_unit_vector_at_the_reported_value(n, p, k, c0):
    X = gen_design(n, p, SeedSpec(n, p)).entries
    est = sre_theta_estimate(X, k, c0, restarts=5)
    v = est.argmin_vector
    assert est.restarts == 0
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert float(np.linalg.norm(X @ v)) / math.sqrt(n) == est.theta_upper
    assert v[int(np.argmax(np.abs(v)))] > 0.0  # sign fixed by the largest entry


@pytest.mark.parametrize("shape", [(60, 1300), (1300, 1250)])
def test_exact_route_runs_no_descent(monkeypatch, shape):
    # without the exact route both sizes would take the matrix-free descent
    X = gen_design(*shape, SeedSpec(3)).entries
    assert X.shape[1] > diagnostics._GRAM_LIMIT
    calls = []
    descent, x_dot_dense = diagnostics._cone_descent, _kernels.x_dot_dense

    def counting_descent(*args):
        calls.append("_cone_descent")
        return descent(*args)

    def counting_x_dot_dense(*args):
        calls.append("x_dot_dense")
        return x_dot_dense(*args)

    monkeypatch.setattr(diagnostics, "_cone_descent", counting_descent)
    monkeypatch.setattr(_kernels, "x_dot_dense", counting_x_dot_dense)
    est = sre_theta_estimate(X, 2, 40.0, restarts=2)
    assert calls == []
    assert est.restarts == 0


@pytest.mark.parametrize("zero_column", [None, 3])
def test_wide_design_has_zero_theta(zero_column):
    X = gen_design(30, 40, SeedSpec(8)).entries.copy(order="F")
    if zero_column is not None:
        X[:, zero_column] = 0.0  # the leading 30x30 block is exactly singular
    est = sre_theta_estimate(X, 2, 10.0)
    assert est.theta_upper <= 1e-10
    assert np.linalg.norm(est.argmin_vector) == pytest.approx(1.0, abs=1e-12)
    assert est.restarts == 0


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.5, 1.0, 2.0])
def test_event_holds_on_scaled_identity(eps):
    n = 24
    X = math.sqrt(n) * np.eye(n)
    report = event_a_check(X, 2, eps, restarts=4)
    assert report.max_col_norm_ok
    assert report.theta_ok
    assert report.holds
    assert report.max_col_norm == pytest.approx(math.sqrt(n), rel=1e-14)


def test_event_rejects_oversized_columns():
    n = 24
    X = math.sqrt(n) * np.eye(n)
    X[:, 0] *= 3.0
    report = event_a_check(X, 2, 0.1, restarts=4)
    assert not report.max_col_norm_ok
    assert not report.holds


def test_event_rejects_wide_design():
    spec = SeedSpec(8)
    X = gen_design(30, 40, spec).entries
    report = event_a_check(X, 2, 0.1, restarts=6)
    assert not report.theta_ok
    assert not report.holds
    assert report.theta_upper <= 1e-10


def test_event_report_json_fields():
    n = 10
    report = event_a_check(math.sqrt(n) * np.eye(n), 1, 0.5, restarts=2)
    payload = report.to_json()
    assert set(payload) == {
        "delta0",
        "c0",
        "max_col_norm_ok",
        "theta_ok",
        "holds",
        "max_col_norm",
        "theta_upper",
    }


def test_gram_window_identity():
    n = 12
    X = math.sqrt(n) * np.eye(n)
    lam_min, lam_max, ok = gram_eig_window(X, [0, 3, 7], 0.01)
    assert lam_min == pytest.approx(1.0, rel=1e-12)
    assert lam_max == pytest.approx(1.0, rel=1e-12)
    assert ok


def test_gram_window_duplicate_columns_fail(rng):
    X = rng.standard_normal((20, 4))
    X[:, 1] = X[:, 0]
    lam_min, lam_max, ok = gram_eig_window(X, [0, 1], 0.5)
    assert lam_min == pytest.approx(0.0, abs=1e-10)
    assert not ok


def test_gram_window_oversized_support_fails_by_counting(rng):
    X = rng.standard_normal((3, 6))
    lam_min, lam_max, ok = gram_eig_window(X, [0, 1, 2, 3], 0.9)
    assert lam_min == 0.0
    assert not ok


def test_gram_window_validation(rng):
    X = rng.standard_normal((10, 5))
    with pytest.raises(ValueError):
        gram_eig_window(X, [], 0.1)
    with pytest.raises(ValueError):
        gram_eig_window(X, [0, 0], 0.1)
    with pytest.raises(ValueError):
        gram_eig_window(X, [0, 9], 0.1)


_GRAM_WINDOW_PROBE = """
import sys
import numpy as np
from sparse_minimax.diagnostics import gram_eig_window
before = "numpy.ma" in sys.modules
gram_eig_window(np.eye(6), [4, 0, 2], 0.5)
try:
    gram_eig_window(np.eye(6), [1, 3, 1], 0.5)
except ValueError as exc:
    message = str(exc)
print(before, sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]), message)
"""


def test_gram_window_finds_duplicates_without_loading_numpy_ma():
    # numpy 2.4's np.unique imports numpy.ma; the duplicate check sorts
    # instead, and still refuses a repeated index with the same error
    src = str(Path(diagnostics.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _GRAM_WINDOW_PROBE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False [] S must not contain duplicate indices"


@pytest.mark.parametrize("n, p, k, eps", [(30, 12, 2, 0.1), (60, 400, 1, 2.0)])
def test_event_check_takes_one_column_norm_pass(monkeypatch, n, p, k, eps):
    # the first case's cone is the whole space, the second's is not
    X = gen_design(n, p, SeedSpec(5)).entries
    expected = event_a_check(X, k, eps, restarts=2, seed=SeedSpec(5))
    passes = []
    real = _kernels.col_sumsq
    monkeypatch.setattr(_kernels, "col_sumsq", lambda x: passes.append(x.shape) or real(x))
    report = event_a_check(X, k, eps, restarts=2, seed=SeedSpec(5))
    assert passes == [(n, p)]
    assert report == expected
    assert report.max_col_norm == max_column_norm(X)
    _, c0 = delta_consts(eps)
    assert report.theta_upper == sre_theta_estimate(X, k, c0, restarts=2, seed=SeedSpec(5)).theta_upper
