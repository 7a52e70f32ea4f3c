import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouphess.partition import (
    Partition,
    broadcast,
    canonical_partition,
    custom_partition,
    discrete_partition,
    group_sum,
    mask,
    trivial_partition,
)


def test_trivial_partition():
    part = trivial_partition(3)
    assert part.size == 1
    assert part.groups == ((0, 1, 2),)
    assert trivial_partition(1).groups == ((0,),)
    assert trivial_partition(10**6).size == 1


def test_discrete_partition():
    assert discrete_partition(3).groups == ((0,), (1,), (2,))
    assert discrete_partition(1).groups == ((0,),)
    assert discrete_partition(2).groups == ((0,), (1,))


def test_partition_rejects_empty():
    with pytest.raises(ValueError):
        trivial_partition(0)
    with pytest.raises(ValueError):
        discrete_partition(0)


def test_canonical_partition_mlp_counts():
    # 10 dense layers, weight + bias each
    shapes = []
    for _ in range(10):
        shapes += [(4, 4), (4,)]
    part = canonical_partition(shapes)
    assert part.size == 20
    assert part.total == 10 * (16 + 4)


def test_canonical_partition_single_tensor_is_trivial():
    part = canonical_partition([(4,)])
    assert part.size == 1
    assert part.groups == trivial_partition(4).groups


def test_canonical_partition_flattening_order():
    part = canonical_partition([(2, 3), (3,)])
    assert part.groups == (tuple(range(0, 6)), tuple(range(6, 9)))


def test_group_sum_examples():
    part = custom_partition([(0, 1), (2,)])
    assert np.array_equal(group_sum([1.0, 2.0, 3.0], part), [3.0, 3.0])
    dp = discrete_partition(4)
    v = np.array([4.0, -1.0, 0.5, 2.0])
    assert np.array_equal(group_sum(v, dp), v)
    assert np.array_equal(group_sum(np.zeros(3), part), np.zeros(2))


def test_broadcast_examples():
    part = custom_partition([(0, 1), (2,)])
    assert np.array_equal(broadcast([3.0, 3.0], part), [3.0, 3.0, 3.0])
    dp = discrete_partition(3)
    eta = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(broadcast(eta, dp), eta)
    assert np.array_equal(broadcast([2.5], trivial_partition(4)), np.full(4, 2.5))


def test_mask_examples():
    part = custom_partition([(0, 1), (2,)])
    v = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(mask(v, part, 0), [1.0, 2.0, 0.0])
    assert np.array_equal(mask(v, part, 0) + mask(v, part, 1), v)
    assert np.array_equal(mask(v, trivial_partition(3), 0), v)
    with pytest.raises(ValueError):
        mask(v, part, 2)
    # -0.0 and NaN are kept inside the group, and +0.0 is written outside it
    w = np.array([-0.0, np.nan, -0.0, np.nan])
    halves = custom_partition([(0, 1), (2, 3)])
    inside, outside = mask(w, halves, 0), mask(w, halves, 1)
    assert np.signbit(inside).tolist() == [True, False, False, False]
    assert np.isnan(inside).tolist() == [False, True, False, False]
    assert np.signbit(outside).tolist() == [False, False, True, False]
    assert np.isnan(outside).tolist() == [False, False, False, True]


def test_length_validation():
    part = custom_partition([(0, 1), (2,)])
    with pytest.raises(ValueError):
        group_sum(np.zeros(4), part)
    with pytest.raises(ValueError):
        broadcast(np.zeros(3), part)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(((0, 1), (1, 2)))  # overlap
    with pytest.raises(ValueError):
        Partition(((0,), (2,)))  # gap
    with pytest.raises(ValueError):
        Partition(((0,), ()))  # empty group
    with pytest.raises(ValueError):
        Partition(((0, 1),), labels=("a", "b"))  # wrong label count


def test_json_round_trip_is_one_based():
    part = custom_partition([(2, 0), (1,)], labels=("w", "b"))
    text = part.to_json()
    assert '"groups": [[3, 1], [2]]' in text
    back = Partition.from_json(text)
    assert back.groups == part.groups
    assert back.labels == ("w", "b")
    assert back.kind == "custom"


@st.composite
def partitions(draw):
    p = draw(st.integers(min_value=1, max_value=12))
    perm = draw(st.permutations(range(p)))
    cuts = sorted(draw(st.sets(st.integers(1, p - 1), max_size=4)) if p > 1 else [])
    bounds = [0] + cuts + [p]
    groups = tuple(tuple(perm[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))
    return custom_partition(groups)


@settings(max_examples=60, deadline=None)
@given(partitions(), st.data())
def test_adjointness_property(part, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=part.total)
    eta = rng.normal(size=part.size)
    lhs = float(np.dot(broadcast(eta, part), v))
    rhs = float(np.dot(eta, group_sum(v, part)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(partitions(), st.data())
def test_group_sum_of_broadcast_scales_by_sizes(part, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    eta = rng.normal(size=part.size)
    out = group_sum(broadcast(eta, part), part)
    assert np.allclose(out, part.group_sizes() * eta, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(partitions(), st.data())
def test_masks_sum_to_identity(part, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    v = rng.normal(size=part.total)
    acc = np.zeros_like(v)
    for s in range(part.size):
        acc += mask(v, part, s)
    assert np.array_equal(acc, v)


def test_canonical_sizes_match_shapes():
    shapes = [(2, 3), (3,), (3, 2), (2,)]
    part = canonical_partition(shapes)
    assert part.group_sizes().tolist() == [6, 3, 6, 2]
    assert part.total == 17
