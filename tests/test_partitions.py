from math import factorial

import pytest
from hypothesis import given, strategies as st

from sheet_atlas.partitions import (
    Partition,
    conjugate,
    is_valid_orbit_partition,
    partitions_of,
    profile,
)
from sheet_atlas import partitions, sheets
from sheet_atlas.sheets import gl_sheet, type_a, type_b, type_c, type_d

from oracles import (
    conjugate_by_cells,
    gl_record_fields,
    orbit_partition_by_counting,
    partition_count,
    partitions_by_recursion,
    profile_by_conjugate_steps,
)


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
    assert sum(li for _, li in p.items()) == len(m)
    assert dict(p.items()) == profile_by_conjugate_steps(m) or m.n == 0


def test_orbit_validity():
    assert is_valid_orbit_partition(type_c(3), Partition((2, 2, 1, 1)))
    assert is_valid_orbit_partition(type_b(3), Partition((3, 2, 2)))
    assert not is_valid_orbit_partition(type_c(3), Partition((3, 2, 1)))
    assert is_valid_orbit_partition(type_a(4), Partition((3, 1)))
    assert is_valid_orbit_partition(type_d(2), Partition((2, 2)))


def test_orbit_parity_agrees_with_counting_oracle():
    """Every partition of n <= 12 against every B, C and D group on n
    letters (there is none on one letter): the form sign's parity rule agrees with the textbook count, on
    a Partition and on its bare parts, and each group both admits and
    refuses some partition from n = 3 on."""
    for n in range(2, 13):
        kinds = [type_b(n // 2)] if n % 2 else [type_c(n // 2), *([type_d(n // 2)] if n >= 4 else [])]
        for kind in kinds:
            answers = set()
            for parts in partitions_by_recursion(n):
                expected = orbit_partition_by_counting(kind.family, parts)
                assert is_valid_orbit_partition(kind, Partition(parts)) == expected, (kind, parts)
                assert is_valid_orbit_partition(kind, parts) == expected, (kind, parts)
                answers.add(expected)
            assert answers == ({True, False} if n >= 3 else {True}), kind


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
    """conjugate against the cell transpose; gl_sheet's d, |W_L| and orbit,
    which the walk along the partition's own parts gives, against the sum
    of squared parts, the product of l_i! over the steps l_i of the
    transpose and the conjugate; and the profile against those steps, for
    every partition with n <= 30."""
    for n in range(31):
        for m in partitions_of(n):
            conj = conjugate(m)
            assert conj == conjugate_by_cells(m), m
            assert conj == Partition(conj.parts)
            steps = profile_by_conjugate_steps(m)
            w = 1
            for li in steps.values():
                w *= factorial(li)
            if n:
                desc = gl_sheet(m)
                assert (desc.d, desc.w_l_order, desc.nilpotent_orbit) == (sum(p * p for p in m.parts), w, conj), m
            prof = profile(m)
            assert prof.s == m.largest
            assert dict(prof.items()) == steps


def test_walk_is_every_partition_in_reverse_lexicographic_order():
    for n in range(15):
        assert [m.parts for m in partitions_of(n)] == partitions_by_recursion(n), n


def test_walk_records_match_the_cell_oracle():
    """d, |W_L| and the conjugate of each partition the walk of the type A
    listing reaches, against the diagram's cells; each record's name against
    the parts written out; and the walk led down one partition's own parts,
    which conjugate and gl_sheet take, gives the same values."""
    for n in range(1, 15):
        for desc in sheets._gl_walk(n, sheets._SHEETS):
            m = desc.levi.blocks
            parts, d, w_l, conj = m.parts, desc.d, desc.w_l_order, list(desc.nilpotent_orbit.parts)
            fields = gl_record_fields(m)
            assert desc.name == "gl%d:m=" % n + ",".join(map(str, parts)), parts
            assert (d, w_l) == (fields["d"], fields["w_l_order"]), parts
            assert conj == list(conjugate_by_cells(m).parts) == list(fields["nilpotent_orbit"].parts), parts
            assert gl_sheet(m) == desc and list(conjugate(m).parts) == conj, parts


def test_walk_of_zero_and_negative_n():
    assert list(partitions_of(0)) == [Partition(())]
    assert conjugate(Partition(())) == Partition(())
    with pytest.raises(ValueError):
        next(partitions_of(-1))
