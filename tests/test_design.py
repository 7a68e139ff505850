import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse_minimax
from sparse_minimax.design import _as_design, _as_vector, gen_design, make_signal, synthesize
from sparse_minimax.diagnostics import gram_eig_window, sparse_min_eig, sre_theta_estimate
from sparse_minimax.estimators import lasso_kkt_residual
from sparse_minimax.events import (
    ResolventReport,
    StochasticErrorParams,
    oracle_lasso_gap_check,
    stochastic_error_event_check,
    stochastic_u_samples,
)
from sparse_minimax.rng import ROLE_DESIGN, SeedSpec
from sparse_minimax.tails import sup_xtz_exact


def test_design_shape_and_layout():
    d = gen_design(30, 12, SeedSpec(0))
    assert d.entries.shape == (30, 12)
    assert d.entries.flags.f_contiguous
    assert d.n == 30 and d.p == 12


def test_design_regeneration_is_bit_identical():
    a = gen_design(50, 20, SeedSpec(99, 3))
    b = gen_design(50, 20, SeedSpec(99, 3))
    assert np.array_equal(a.entries, b.entries)


def test_design_entries_standard_normal_scale():
    d = gen_design(400, 100, SeedSpec(1))
    flat = d.entries.ravel()
    assert abs(flat.mean()) < 0.02
    assert abs(flat.std() - 1.0) < 0.02


@pytest.mark.parametrize("n, p", [(37, 203), (5, 16), (9, 7), (4, 1)])
def test_design_bytes_do_not_depend_on_the_thread_count(n, p):
    spec = SeedSpec(17, 2)
    one = gen_design(n, p, spec).entries
    for threads in (2, 3, 17):
        assert gen_design(n, p, spec, threads).entries.tobytes(order="F") == one.tobytes(order="F")


@pytest.mark.parametrize("n, p", [(37, 203), (6, 7)])
def test_design_range_j_is_drawn_from_slot_j(n, p):
    # columns p*j//16 up to p*(j+1)//16 come from slot j, column by column;
    # with p < 16 most ranges are empty
    spec = SeedSpec(17, 2)
    X = gen_design(n, p, spec, threads=3).entries
    filled = 0
    for j in range(16):
        lo, hi = p * j // 16, p * (j + 1) // 16
        block = spec.generator(ROLE_DESIGN, j).standard_normal((hi - lo, n))
        assert np.array_equal(X[:, lo:hi], block.T)
        filled += hi - lo
    assert filled == p


def test_replicates_get_fresh_designs():
    a = gen_design(20, 8, SeedSpec(5, 0))
    b = gen_design(20, 8, SeedSpec(5, 1))
    assert not np.array_equal(a.entries, b.entries)


def test_first_k_signal():
    sig = make_signal(10, 3, 2.5)
    assert list(sig.support) == [0, 1, 2]
    assert sig.k == 3
    dense = sig.dense()
    assert dense.shape == (10,)
    assert np.array_equal(dense[:3], [2.5, 2.5, 2.5])
    assert not dense[3:].any()


def test_random_support_is_sorted_and_within_bounds():
    sig = make_signal(40, 5, 1.0, "random", SeedSpec(3, 2))
    s = np.asarray(sig.support)
    assert s.size == 5
    assert np.all(np.diff(s) > 0)
    assert s.min() >= 0 and s.max() < 40


def test_random_support_needs_a_seed():
    with pytest.raises(ValueError):
        make_signal(40, 5, 1.0, "random")


def test_zero_amplitude_warns():
    with pytest.warns(UserWarning):
        make_signal(10, 2, 0.0)


@pytest.mark.parametrize("k", [0, 11])
def test_signal_k_out_of_range(k):
    with pytest.raises(ValueError):
        make_signal(10, k, 1.0)


def test_response_is_design_times_signal_plus_noise():
    spec = SeedSpec(12, 1)
    design = gen_design(25, 9, spec)
    sig = make_signal(9, 2, 3.0)
    inst = synthesize(design, sig, 0.7, spec)
    expect = design.entries @ sig.dense() + inst.noise.z
    assert np.allclose(inst.response, expect, rtol=0, atol=1e-12)
    assert inst.noise.sigma == 0.7


def test_noiseless_synthesis():
    spec = SeedSpec(12, 1)
    design = gen_design(25, 9, spec)
    sig = make_signal(9, 2, 3.0)
    inst = synthesize(design, sig, 0.0, spec)
    assert not inst.noise.z.any()
    assert np.allclose(inst.response, design.entries @ sig.dense())


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=2, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_random_signal_properties(p, seed, data):
    k = data.draw(st.integers(min_value=1, max_value=p - 1))
    sig = make_signal(p, k, 1.25, "random", SeedSpec(seed))
    dense = sig.dense()
    assert np.count_nonzero(dense) == k
    assert np.all(dense[np.asarray(sig.support)] == 1.25)


def test_array_arguments_keep_a_conforming_input_and_convert_the_rest():
    X = gen_design(6, 4, SeedSpec(0)).entries
    assert _as_design(X) is X
    C = np.ascontiguousarray(X)
    converted = _as_design(C)
    assert converted.flags.f_contiguous and np.array_equal(converted, C)
    assert _as_design(np.ones((3, 2), dtype=np.int64)).dtype == np.float64
    v = np.arange(4.0)
    assert _as_vector(v, 4, "v") is v
    strided = _as_vector(np.arange(8.0)[::2], 4, "v")
    assert strided.flags.c_contiguous and list(strided) == [0.0, 2.0, 4.0, 6.0]
    with pytest.raises(ValueError, match=r"^design must be 2-D, got shape \(\)$"):
        _as_design(1.0)
    with pytest.raises(ValueError, match=r"^b0 has shape \(\), expected \(1,\)$"):
        _as_vector(1.0, 1, "b0")


def test_only_design_chooses_an_array_layout():
    # the layout of a design and a vector is decided in design's two
    # helpers, which every public function converts its arguments through
    package = Path(sparse_minimax.__file__).resolve().parent
    users = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("asfortranarray", "ascontiguousarray"):
                users.add(path.stem)
    assert users == {"design"}


_RNG = np.random.default_rng(5)
_X = _RNG.standard_normal((30, 10))
_Z = _RNG.standard_normal(30)
_BETA = np.zeros(10)
_BETA[:2] = 3.0
_SHORT_B = np.zeros(9)
_SHORT_B[3] = 1.0
_PARAMS = StochasticErrorParams(0.1, 0.1, 0.1, 0.1)
_REPORT = ResolventReport(np.arange(4), 4, True, 0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: sre_theta_estimate(_X[:, 0], 2, 1.0), "design must be 2-D", id="sre_theta_estimate"),
        pytest.param(lambda: sparse_min_eig(_X[:, 0], 1), "design must be 2-D", id="sparse_min_eig"),
        pytest.param(lambda: gram_eig_window(_X[:, 0], [0], 0.5), "design must be 2-D", id="gram_eig_window"),
        pytest.param(lambda: stochastic_u_samples(_X, _Z[:-1], 2, 3), "z has shape", id="stochastic_u_samples"),
        pytest.param(
            lambda: stochastic_error_event_check(_X, _Z[:-1], _PARAMS, np.ones((2, 10)), 2, 1.0),
            "z has shape",
            id="stochastic_error_event_check",
        ),
        pytest.param(lambda: sup_xtz_exact(_X, _Z[:-1], 2), "z has shape", id="sup_xtz_exact"),
        pytest.param(
            lambda: oracle_lasso_gap_check(_BETA, _BETA[:-1], _BETA, _REPORT), "beta_L has shape", id="oracle_lasso_gap_check"
        ),
        pytest.param(lambda: lasso_kkt_residual(_X, _Z, np.zeros(9), 0.1), "b has shape", id="lasso_kkt_residual-zero-b"),
        pytest.param(lambda: lasso_kkt_residual(_X, _Z, _SHORT_B, 0.1), "b has shape", id="lasso_kkt_residual-nonzero-b"),
    ],
)
def test_a_malformed_array_argument_is_refused_by_name(call, message):
    # before, numpy's own errors (unpacking, matmul, broadcasting, an
    # IndexError) or, for a zero b one entry short, a residual
    with pytest.raises(ValueError, match=message):
        call()
