import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_minimax.design import gen_design, make_signal, synthesize
from sparse_minimax.rng import ROLE_DESIGN, SeedSpec


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
