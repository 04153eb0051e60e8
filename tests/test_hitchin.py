import pytest

from sheet_atlas.hitchin import (
    component_count,
    dim_hitchin_base,
    dim_hitchin_base_sp4,
    dim_s_hitchin_base,
    dim_s_hitchin_base_gln,
    dim_s_hitchin_base_sp4_dix,
    h0_canonical_power,
    invariant_degrees,
    s_cameral_degree,
    slice_weights,
)
from sheet_atlas.partitions import Partition, partitions_of
from sheet_atlas.sheets import F4, gl_sheet, sheets_sp4, type_a, type_b, type_c, type_d

from oracles import hitchin_base_by_degrees


def test_h0_examples():
    assert h0_canonical_power(2, 1) == 2
    assert h0_canonical_power(2, 2) == 3
    assert h0_canonical_power(3, 4) == 14
    with pytest.raises(ValueError):
        h0_canonical_power(1, 1)
    with pytest.raises(ValueError):
        h0_canonical_power(2, 0)


def test_dim_s_hitchin_base_gln_examples():
    assert dim_s_hitchin_base_gln(Partition((2, 1, 1)), 2) == 7
    assert dim_s_hitchin_base_gln(Partition((2, 2)), 2) == 5
    for n in (2, 3, 5):
        for g in (2, 3):
            full = sum(h0_canonical_power(g, i) for i in range(1, n + 1))
            assert dim_s_hitchin_base_gln(Partition([1] * n), g) == full


def test_weight_formula_matches_double_sum():
    for n in range(1, 11):
        for m in partitions_of(n):
            desc = gl_sheet(m)
            for g in (2, 3, 4):
                assert dim_s_hitchin_base(desc, g) == dim_s_hitchin_base_gln(m, g)


def test_reduced_base_bounded_by_full_base():
    for n in range(1, 9):
        for m in partitions_of(n):
            for g in (2, 3):
                s_dim = dim_s_hitchin_base_gln(m, g)
                full = dim_hitchin_base(type_a(n), g)
                assert s_dim <= full
                assert (s_dim == full) == (m == Partition([1] * n))


def test_full_base_closed_form_matches_summed_degrees():
    makers = {"A": type_a, "B": type_b, "C": type_c, "D": type_d}
    groups = [(makers[f](r), f, r) for f in "ABCD" for r in range(2 if f == "D" else 1, 65)] + [(F4, "F4", 4)]
    for kind, family, r in groups:
        for g in range(2, 7):
            assert dim_hitchin_base(kind, g) == hitchin_base_by_degrees(family, r, g), (kind, g)
    for g in (1, 0, -2):
        with pytest.raises(ValueError):
            dim_hitchin_base(type_c(3), g)


def test_sp4_base_dims():
    for g in (2, 3, 4, 7):
        assert dim_hitchin_base_sp4(g) == 10 * (g - 1)
        assert dim_hitchin_base(type_c(2), g) == 10 * (g - 1)
        assert dim_s_hitchin_base_sp4_dix(g) == g


def test_component_count():
    assert component_count(1, 5) == 1
    assert component_count(2, 2) == 16
    assert component_count(2, 3) == 64
    with pytest.raises(ValueError):
        component_count(3, 2)
    for g in (2, 3, 4):
        assert component_count(2, g) == 2 ** (2 * g)


def test_s_cameral_degree():
    by_name = {d.name: d for d in sheets_sp4()}
    assert s_cameral_degree(by_name["sp4:SDix"]) == 2
    assert s_cameral_degree(gl_sheet(Partition((2, 1, 1)))) == 2
    import math

    for n in (2, 3, 4, 5):
        assert s_cameral_degree(gl_sheet(Partition([1] * n))) == math.factorial(n)
    with pytest.raises(ValueError):
        s_cameral_degree(by_name["sp4:Omin"])


def test_slice_weights():
    assert slice_weights(gl_sheet(Partition((2, 1, 1)))).weights == (1, 2, 1)
    by_name = {d.name: d for d in sheets_sp4()}
    assert slice_weights(by_name["sp4:SDix"]).weights == (1,)
    assert slice_weights(by_name["sp4:SDix'"]).weights == (2,)
    assert slice_weights(by_name["sp4:regular"]).weights == (2, 4)
    assert slice_weights(by_name["sp4:zero"]).weights == ()
    # the distinguished-component dimension via weights agrees with g
    for g in (2, 3, 4):
        assert dim_s_hitchin_base(by_name["sp4:SDix"], g) == dim_s_hitchin_base_sp4_dix(g)


def test_invariant_degrees():
    assert invariant_degrees(type_a(4)) == (1, 2, 3, 4)
    assert invariant_degrees(type_c(3)) == (2, 4, 6)
    from sheet_atlas.sheets import F4, type_b, type_d

    assert invariant_degrees(type_b(2)) == (2, 4)
    assert invariant_degrees(type_d(4)) == (2, 4, 6, 4)
    assert invariant_degrees(F4) == (2, 6, 8, 12)
