from fractions import Fraction

import pytest

from sheet_atlas.multiplicity import SlicePoint, inertia_order, orbit_method_multiplicity, polarisation_orbit_count
from sheet_atlas.partitions import Partition, partitions_of
from sheet_atlas.sheets import MaxLevi, gl_sheet, maximal_levi_sheet, sheets_sp4, type_c


def sdix():
    return [d for d in sheets_sp4() if d.name == "sp4:SDix"][0]


def test_inertia_orders():
    sheet = sdix()
    assert inertia_order(SlicePoint(sheet, 0)) == 2
    assert inertia_order(SlicePoint(sheet, 5)) == 1
    assert inertia_order(SlicePoint(sheet, Fraction(-7, 3))) == 1
    gl = gl_sheet(Partition((2, 1, 1)))
    assert inertia_order(SlicePoint(gl, (1, 2, 3))) == 1
    assert inertia_order(SlicePoint(gl, (0, 0, 0))) == 1


def test_slice_point_validation():
    with pytest.raises(ValueError):
        SlicePoint(sdix(), (1, 2))  # dim_z = 1
    gl = gl_sheet(Partition((2, 2)))
    with pytest.raises(ValueError):
        SlicePoint(gl, 1)  # dim_z = 2 needs a pair


def test_orbit_method_multiplicity_sp4():
    sheet = sdix()
    assert orbit_method_multiplicity(SlicePoint(sheet, 0)) == 1
    assert orbit_method_multiplicity(SlicePoint(sheet, 5)) == 2


def test_orbit_method_multiplicity_sp6_class_viii():
    sheet = maximal_levi_sheet(type_c(3), MaxLevi(1, 2))
    assert sheet.class_tag == "VIII" and sheet.katsylo_order == 2
    assert orbit_method_multiplicity(SlicePoint(sheet, 0)) == 1
    assert orbit_method_multiplicity(SlicePoint(sheet, Fraction(1, 2))) == 2


def test_gl_sheets_multiplicity_one():
    for n in range(1, 7):
        for m in partitions_of(n):
            sheet = gl_sheet(m)
            z = tuple(range(1, sheet.dim_z + 1))
            assert orbit_method_multiplicity(SlicePoint(sheet, z)) == 1
            assert orbit_method_multiplicity(SlicePoint(sheet, (0,) * sheet.dim_z)) == 1


def test_nilpotent_point_always_multiplicity_one():
    for d in sheets_sp4():
        point = SlicePoint(d, (0,) * d.dim_z)
        assert orbit_method_multiplicity(point) == 1


def test_multiplicity_divides_group_order():
    for r in range(1, 7):
        from sheet_atlas.sheets import valid_max_levi_labels

        for levi in valid_max_levi_labels(type_c(r)):
            sheet = maximal_levi_sheet(type_c(r), levi)
            for z in (0, 1, Fraction(3, 7)):
                mu = orbit_method_multiplicity(SlicePoint(sheet, z))
                assert 1 <= mu and sheet.katsylo_order % mu == 0
                if z != 0:
                    assert mu == sheet.katsylo_order


def test_polarisation_counts():
    assert polarisation_orbit_count(sdix()) == 2
    for n in range(1, 7):
        for m in partitions_of(n):
            assert polarisation_orbit_count(gl_sheet(m)) == 1
    sheet = maximal_levi_sheet(type_c(3), MaxLevi(1, 2))
    assert polarisation_orbit_count(sheet) == 2
    omin = [d for d in sheets_sp4() if d.name == "sp4:Omin"][0]
    with pytest.raises(ValueError):
        polarisation_orbit_count(omin)


def test_slice_point_keeps_each_coordinate_as_an_exact_fraction():
    """A Fraction coordinate is kept with its value and an int becomes a
    Fraction, alone or in a tuple or list; a float, a bool or any other
    type is refused, alone or among good coordinates."""
    sheet, gl = sdix(), gl_sheet(Partition((2, 1)))
    for v in (Fraction(7, 5), Fraction(-3), Fraction(0), 4, 0, -2):
        for z in (v, (v,), [v]):
            point = SlicePoint(sheet, z)
            assert point.z == (Fraction(v),) and type(point.z[0]) is Fraction, z
    point = SlicePoint(gl, [Fraction(1, 3), 2])
    assert point.z == (Fraction(1, 3), Fraction(2)) and all(type(v) is Fraction for v in point.z)
    for bad in (0.5, 1.0, True, False, "1", None):
        with pytest.raises(ValueError, match="slice point z must be"):
            SlicePoint(sheet, bad)
        with pytest.raises(ValueError, match="slice point z must be"):
            SlicePoint(gl, [Fraction(1), bad])
