import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparse_minimax.design import (
    dump_instance,
    gen_design,
    load_instance,
    make_signal,
    synthesize,
)
from sparse_minimax.rng import SeedSpec


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


def test_instance_round_trip(tmp_path):
    spec = SeedSpec(31, 7)
    inst = synthesize(gen_design(18, 11, spec), make_signal(11, 3, 2.0, "random", spec), 0.5, spec)
    path = tmp_path / "inst.bin"
    dump_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.design.entries, inst.design.entries)
    assert np.array_equal(back.noise.z, inst.noise.z)
    assert back.noise.sigma == inst.noise.sigma
    assert np.array_equal(back.signal.support, inst.signal.support)
    assert np.array_equal(back.signal.values, inst.signal.values)
    assert np.array_equal(back.response, inst.response)


def test_dump_is_deterministic(tmp_path):
    spec = SeedSpec(31, 7)
    inst = synthesize(gen_design(10, 5, spec), make_signal(5, 2, 1.0), 1.0, spec)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    dump_instance(inst, p1)
    dump_instance(inst, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("field", ["X", "z", "beta", "y"])
def test_load_rejects_non_finite_payloads(tmp_path, field):
    n, p = 9, 4
    spec = SeedSpec(31, 7)
    inst = synthesize(gen_design(n, p, spec), make_signal(p, 2, 1.0), 1.0, spec)
    path = tmp_path / "inst.bin"
    dump_instance(inst, path)
    raw = bytearray(path.read_bytes())
    header_end = raw.index(b"\n") + 1
    start = {"X": 0, "z": n * p, "beta": n * p + n, "y": n * p + n + p}[field]
    at = header_end + 8 * (start + 1)  # second entry of the payload
    raw[at : at + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        load_instance(path)


def _dump(tmp_path, n=9, p=4):
    spec = SeedSpec(31, 7)
    inst = synthesize(gen_design(n, p, spec), make_signal(p, 2, 1.0), 1.0, spec)
    path = tmp_path / "inst.bin"
    dump_instance(inst, path)
    return path


def test_load_rejects_a_truncated_y(tmp_path):
    path = _dump(tmp_path)
    path.write_bytes(path.read_bytes()[:-16])  # y used to load with shape (7,)
    with pytest.raises(ValueError, match="y payload has 56 bytes, expected 72"):
        load_instance(path)


def test_load_rejects_a_short_x(tmp_path):
    path = _dump(tmp_path)
    raw = path.read_bytes()
    header_end = raw.index(b"\n") + 1
    path.write_bytes(raw[: header_end + 8 * 30])
    with pytest.raises(ValueError, match="X payload has 240 bytes, expected 288"):
        load_instance(path)


def test_load_rejects_a_trailing_byte(tmp_path):
    path = _dump(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="after the y payload"):
        load_instance(path)


@pytest.mark.parametrize(
    "field, value",
    [("sigma", float("nan")), ("sigma", -1.0), ("sigma", "1"), ("n", 0), ("n", 9.0), ("p", True), ("p", None)],
)
def test_load_rejects_bad_headers(tmp_path, field, value):
    path = _dump(tmp_path)
    raw = path.read_bytes()
    header_end = raw.index(b"\n") + 1
    header = json.loads(raw[:header_end])
    header[field] = value
    path.write_bytes((json.dumps(header) + "\n").encode() + raw[header_end:])
    with pytest.raises(ValueError, match=f"header {field} must be"):
        load_instance(path)


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not an instance payload")
    with pytest.raises(ValueError):
        load_instance(path)


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
