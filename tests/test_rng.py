import numpy as np
import pytest

from sparse_minimax.rng import (
    ROLE_CELL,
    ROLE_DESIGN,
    ROLE_NOISE,
    ROLE_PROBE,
    ROLE_RESTART,
    ROLE_SUPPORT,
    SeedSpec,
)

ALL_ROLES = (ROLE_DESIGN, ROLE_NOISE, ROLE_SUPPORT, ROLE_RESTART, ROLE_PROBE, ROLE_CELL)


def test_same_spec_same_draws():
    a = SeedSpec(123, 4).generator(ROLE_DESIGN, 0).standard_normal(64)
    b = SeedSpec(123, 4).generator(ROLE_DESIGN, 0).standard_normal(64)
    assert np.array_equal(a, b)


def test_master_seed_changes_draws():
    a = SeedSpec(1).generator(ROLE_DESIGN, 0).standard_normal(32)
    b = SeedSpec(2).generator(ROLE_DESIGN, 0).standard_normal(32)
    assert not np.array_equal(a, b)


def test_stream_id_changes_draws():
    a = SeedSpec(9, 0).generator(ROLE_NOISE, 0).standard_normal(32)
    b = SeedSpec(9, 1).generator(ROLE_NOISE, 0).standard_normal(32)
    assert not np.array_equal(a, b)


def test_roles_are_disjoint_streams():
    spec = SeedSpec(42, 3)
    draws = [spec.generator(role, 0).standard_normal(16) for role in ALL_ROLES]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert not np.array_equal(draws[i], draws[j])


def test_slots_are_disjoint_streams():
    spec = SeedSpec(42, 3)
    a = spec.generator(ROLE_RESTART, 0).standard_normal(16)
    b = spec.generator(ROLE_RESTART, 1).standard_normal(16)
    assert not np.array_equal(a, b)


def test_role_draw_independent_of_consumption_order():
    # reading the noise stream first must not shift the design stream
    spec = SeedSpec(5, 2)
    design_only = spec.generator(ROLE_DESIGN, 0).standard_normal(100)
    spec2 = SeedSpec(5, 2)
    spec2.generator(ROLE_NOISE, 0).standard_normal(1000)
    design_after = spec2.generator(ROLE_DESIGN, 0).standard_normal(100)
    assert np.array_equal(design_only, design_after)


def test_replicate_streams_do_not_collide_across_slots():
    # slot s of replicate r must differ from slot s of replicate r+1
    a = SeedSpec(7, 1).generator(ROLE_RESTART, 5).standard_normal(16)
    b = SeedSpec(7, 2).generator(ROLE_RESTART, 5).standard_normal(16)
    assert not np.array_equal(a, b)


def test_spec_is_hashable_and_frozen():
    spec = SeedSpec(3, 1)
    assert hash(spec) == hash(SeedSpec(3, 1))
    with pytest.raises(AttributeError):
        spec.master_seed = 4  # type: ignore[misc]


@pytest.mark.parametrize("bad", [-1, 2**64, "0"])
def test_master_seed_must_be_u64(bad):
    with pytest.raises((ValueError, TypeError)):
        SeedSpec(bad)


def test_negative_slot_rejected():
    with pytest.raises(ValueError):
        SeedSpec(0).generator(ROLE_DESIGN, -1)
