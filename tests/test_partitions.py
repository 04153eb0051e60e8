import pytest
from hypothesis import given, strategies as st

from sheet_atlas.partitions import (
    MultiplicityProfile,
    Partition,
    conjugate,
    is_valid_orbit_partition,
    partitions_of,
    profile,
)
from sheet_atlas.sheets import type_a, type_b, type_c, type_d

from oracles import conjugate_by_cells, partition_count, profile_by_conjugate_steps


def random_partitions():
    # parts bounded so n stays <= 40
    return st.lists(st.integers(min_value=1, max_value=10), min_size=0, max_size=4).map(Partition)


def test_constructor_sorts_and_rejects():
    assert Partition((1, 3, 2)).parts == (3, 2, 1)
    with pytest.raises(ValueError):
        Partition((2, 0))
    with pytest.raises(ValueError):
        Partition((-1,))


def test_conjugate_examples():
    assert conjugate(Partition((2, 1, 1))).parts == (3, 1)
    k = 7
    assert conjugate(Partition([1] * k)).parts == (k,)
    assert conjugate(Partition((k,))).parts == tuple([1] * k)


def test_conjugate_empty():
    assert conjugate(Partition(())).parts == ()


@given(random_partitions())
def test_conjugate_involution(m):
    assert conjugate(conjugate(m)) == m


@given(random_partitions())
def test_conjugate_preserves_n(m):
    assert conjugate(m).n == m.n


@given(random_partitions())
def test_conjugate_matches_cell_transpose(m):
    assert conjugate(m) == conjugate_by_cells(m)


def test_profile_examples():
    p = profile(Partition((2, 1, 1)))
    assert p.to_json() == {"1": 2, "2": 1}
    p = profile(Partition((2, 2)))
    assert p.to_json() == {"1": 0, "2": 2}
    k = 5
    p = profile(Partition((k,)))
    assert p.l(k) == 1 and all(p.l(i) == 0 for i in range(1, k))


@given(random_partitions())
def test_profile_weighted_sum_and_step_formula(m):
    p = profile(m)
    assert sum(i * li for i, li in p.items()) == m.n
    assert sum(li for _, li in p.items()) == m.num_parts
    assert dict(p.items()) == profile_by_conjugate_steps(m) or m.n == 0


def test_orbit_validity():
    assert is_valid_orbit_partition(type_c(3), Partition((2, 2, 1, 1)))
    assert is_valid_orbit_partition(type_b(3), Partition((3, 2, 2)))
    assert not is_valid_orbit_partition(type_c(3), Partition((3, 2, 1)))
    assert is_valid_orbit_partition(type_a(4), Partition((3, 1)))
    assert is_valid_orbit_partition(type_d(2), Partition((2, 2)))


def test_orbit_validity_size_mismatch_is_error():
    with pytest.raises(ValueError):
        is_valid_orbit_partition(type_c(2), Partition((3, 2, 1)))  # n=6 vs Sp4


def test_partitions_of_order_and_count():
    ps = list(partitions_of(5))
    assert ps[0].parts == (5,)
    assert ps[-1].parts == (1, 1, 1, 1, 1)
    assert len(ps) == 7
    assert ps == sorted(ps, key=lambda p: p.parts, reverse=True)
    for n in range(23):
        ps = list(partitions_of(n))
        assert len(ps) == partition_count(n)
        assert all(a.parts > b.parts for a, b in zip(ps, ps[1:]))  # strictly reverse-lexicographic
        for p in ps:
            assert p == Partition(p.parts) and p.n == n


def test_partitions_of_rejects_negative():
    with pytest.raises(ValueError):
        next(partitions_of(-1))


def test_conjugate_and_profile_on_every_small_partition():
    for n in range(15):
        for m in partitions_of(n):
            conj = conjugate(m)
            assert conj == conjugate_by_cells(m)
            assert conj == Partition(conj.parts)
            prof = profile(m)
            assert prof.s == m.largest
            assert dict(prof.items()) == profile_by_conjugate_steps(m)


def test_profile_json_roundtrip():
    p = profile(Partition((3, 3, 1)))
    assert MultiplicityProfile.from_json(p.to_json()) == p
