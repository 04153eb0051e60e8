import json
from dataclasses import replace

import pytest

from sheet_atlas.partitions import Partition, conjugate, is_valid_orbit_partition
from sheet_atlas.sheets import (
    F4,
    GLLevi,
    MaxLevi,
    SheetDescriptor,
    all_max_levi_sheets,
    classify_max_levi,
    enumerate_sheets_gln,
    f4_b3_sheet,
    find_sheet,
    gl_sheet,
    maximal_levi_sheet,
    record_json,
    records_json,
    sheets_for,
    sheets_sp4,
    type_a,
    type_b,
    type_c,
    type_d,
    valid_max_levi_labels,
)


def test_gln_sheet_example_n4():
    descs = {d.levi.m.parts: d for d in enumerate_sheets_gln(4)}
    d = descs[(2, 1, 1)]
    assert d.nilpotent_orbit == Partition((3, 1))
    assert d.d == 6 and d.dim_z == 3 and d.w_l_order == 2 and d.katsylo_order == 1
    assert d.dim_sheet == 13
    d22 = descs[(2, 2)]
    assert d22.nilpotent_orbit == Partition((2, 2))
    assert d22.d == 8 and d22.dim_z == 2 and d22.w_l_order == 2
    assert d22.class_tag == "I"


def test_gln_regular_sheet_n2():
    d = gl_sheet(Partition((1, 1)))
    assert d.nilpotent_orbit == Partition((2,))
    assert d.d == 2 and d.w_l_order == 2 and d.dim_sheet == 4


def test_gln_enumeration_order_and_range():
    descs = enumerate_sheets_gln(5)
    labels = [d.levi.m.parts for d in descs]
    assert labels == sorted(labels, reverse=True)
    assert len(descs) == 7
    with pytest.raises(ValueError):
        enumerate_sheets_gln(0)
    with pytest.raises(ValueError):
        enumerate_sheets_gln(41)


def test_sheets_sp4_rows():
    rows = sheets_sp4()
    assert len(rows) == 5
    by_name = {d.name: d for d in rows}
    reg = by_name["sp4:regular"]
    assert (reg.d, reg.dim_z) == (2, 2)
    sdix = by_name["sp4:SDix"]
    assert (sdix.d, sdix.dim_z, sdix.katsylo_order, sdix.w_l_order) == (4, 1, 2, 2)
    assert sdix.nilpotent_orbit == Partition((2, 2))
    assert sdix.component_group_order == 2
    assert sdix.dim_sheet == 7
    sdix2 = by_name["sp4:SDix'"]
    assert (sdix2.d, sdix2.dim_z, sdix2.katsylo_order, sdix2.w_l_order) == (4, 1, 1, 2)
    omin = by_name["sp4:Omin"]
    assert (omin.d, omin.dim_z, omin.dixmier) == (6, 0, False)
    zero = by_name["sp4:zero"]
    assert (zero.d, zero.dim_z) == (10, 0)


def test_sdix_is_class_viii():
    sdix = [d for d in sheets_sp4() if d.name == "sp4:SDix"][0]
    cls = maximal_levi_sheet(type_c(2), MaxLevi(1, 1))
    assert sdix.class_tag == "VIII" == cls.class_tag
    assert (cls.nilpotent_orbit, cls.katsylo_order, cls.w_l_order) == (sdix.nilpotent_orbit, 2, 2)


def test_table2_examples():
    d = maximal_levi_sheet(type_b(2), MaxLevi(2, 1))
    assert (d.class_tag, d.nilpotent_orbit, d.katsylo_order, d.w_l_order) == ("III", Partition((3, 1, 1)), 2, 2)
    d = maximal_levi_sheet(type_c(3), MaxLevi(2, 1))
    assert (d.class_tag, d.nilpotent_orbit, d.katsylo_order, d.w_l_order) == ("VII", Partition((3, 3)), 1, 2)
    d = maximal_levi_sheet(type_d(3), MaxLevi(3, 0))
    assert (d.class_tag, d.nilpotent_orbit, d.katsylo_order, d.w_l_order) == ("VI", Partition((2, 2, 1, 1)), 1, 1)
    assert d.levi_conjugacy_caveat
    d = maximal_levi_sheet(type_a(4), GLLevi(Partition((2, 2))))
    assert (d.class_tag, d.nilpotent_orbit, d.katsylo_order, d.w_l_order) == ("I", Partition((2, 2)), 1, 2)


def test_invalid_labels_raise():
    with pytest.raises(ValueError):
        maximal_levi_sheet(type_d(3), MaxLevi(2, 2))  # residual 2 forbidden
    with pytest.raises(ValueError):
        maximal_levi_sheet(type_c(3), MaxLevi(1, 1))  # a + p != r
    with pytest.raises(ValueError):
        maximal_levi_sheet(type_a(4), GLLevi(Partition((2, 1, 1))))  # not maximal
    with pytest.raises(ValueError):
        classify_max_levi(type_b(2), MaxLevi(1, 2))  # even residual in type B


def test_table2_partitions_are_valid_orbits():
    for desc in all_max_levi_sheets(12):
        assert desc.nilpotent_orbit.n == desc.kind.matrix_size
        assert is_valid_orbit_partition(desc.kind, desc.nilpotent_orbit)
        assert desc.katsylo_order in (1, 2)
        assert desc.katsylo_order * desc.w_s_order == desc.w_l_order


def test_table2_hits_all_nine_classes():
    tags = {d.class_tag for d in all_max_levi_sheets(12)}
    assert tags == {"I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX"}


def test_f4_b3_record():
    d = f4_b3_sheet()
    assert d.katsylo_order == 1
    assert d.w_l_order == 2
    assert d.dim_z == 1 and d.d == 22
    assert d.dim_sheet == 31
    assert d.nilpotent_orbit == "A~2"


def test_sp4_so5_coincidence():
    """The rank-2 odd-orthogonal class III sheet and the rank-2 symplectic
    subregular sheet share residual data and orbit dimension."""
    so5 = maximal_levi_sheet(type_b(2), MaxLevi(2, 1))
    sp4 = [d for d in sheets_sp4() if d.name == "sp4:SDix"][0]
    assert (so5.katsylo_order, so5.w_l_order, so5.dim_z) == (sp4.katsylo_order, sp4.w_l_order, sp4.dim_z)
    assert so5.kind.dim - so5.d == sp4.kind.dim - sp4.d == 6


def test_type_c_gl_restriction_rule():
    """|F| = 1 for a symplectic maximal-Levi sheet exactly when its orbit is
    the conjugate of the eigenvalue-multiplicity partition of a generic
    semisimple element (i.e. the sheet is cut out of a gl sheet)."""
    for r in range(1, 7):
        for levi in valid_max_levi_labels(type_c(r)):
            desc = maximal_levi_sheet(type_c(r), levi)
            mults = [levi.a, levi.a] + ([2 * levi.residual] if levi.residual else [])
            from_gl = conjugate(Partition(mults)) == desc.nilpotent_orbit
            assert from_gl == (desc.katsylo_order == 1), desc.name


def test_descriptor_json_roundtrip():
    for desc in sheets_sp4() + [f4_b3_sheet(), gl_sheet(Partition((3, 2, 2)))]:
        assert SheetDescriptor.from_json(desc.to_json()) == desc


def test_find_sheet_routes():
    assert find_sheet(type_c(2), MaxLevi(1, 1)).name == "sp4:SDix"
    assert find_sheet(type_a(4), GLLevi(Partition((2, 1, 1)))).nilpotent_orbit == Partition((3, 1))
    assert find_sheet(F4, None).name == "f4:B3"
    assert find_sheet(type_c(3), MaxLevi(3, 0)).class_tag == "VII"


def test_type_tags():
    type1 = {"II", "III", "VI", "VIII"}
    for desc in all_max_levi_sheets(12):
        assert desc.type_tag == (1 if desc.class_tag in type1 else 2)
        assert (desc.w_s_order == 1) == (desc.type_tag == 1)


def _catalogue():
    """Every record the CLI serves and the fixtures hold: A1-30, every B/C/D
    label up to rank 8 (with the rank-2 symplectic table), F4 and table 2."""
    descs = [d for n in range(1, 31) for d in enumerate_sheets_gln(n)]
    for kind in [type_b(r) for r in range(1, 9)] + [type_c(r) for r in range(1, 9)] + [type_d(r) for r in range(2, 9)]:
        descs += [maximal_levi_sheet(kind, levi) for levi in valid_max_levi_labels(kind)]
        descs += sheets_for(kind)
    return descs + [f4_b3_sheet()] + all_max_levi_sheets(12)


def _dumps_at(obj, depth):
    """json.dumps(obj, indent=2) as written nested at ``depth``."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


def test_record_writer_matches_json_dumps():
    # and a record without a name, and one whose name needs escaping
    descs = _catalogue() + [replace(f4_b3_sheet(), name=None), replace(sheets_sp4()[1], name='sp4:"SDix"\\\u03bb\n')]
    seen = set()
    for desc in descs:
        obj = desc.to_json()
        for key, value in obj.items():
            seen.add((key, type(value).__name__))
        text = json.dumps(obj, indent=2)
        assert record_json(desc) == text, desc.name
        assert record_json(desc, 3) == text.replace("\n", "\n      "), desc.name
    # null, true, string tags, both orbit forms and every Levi form occur
    for key, kind in [
        ("name", "NoneType"), ("class_tag", "NoneType"), ("class_tag", "str"), ("type_tag", "NoneType"),
        ("type_tag", "int"), ("component_group_order", "NoneType"), ("levi_conjugacy_caveat", "bool"),
        ("nilpotent_orbit", "dict"), ("nilpotent_orbit", "list"), ("levi", "str"), ("levi", "dict"),
    ]:
        assert (key, kind) in seen, (key, kind)
    assert any(d.levi_conjugacy_caveat for d in descs)
    assert {str(d.levi) for d in descs} >= {"T", "G", "B3"}


def test_record_list_writer_matches_json_dumps():
    descs = sheets_sp4() + [f4_b3_sheet()] + enumerate_sheets_gln(6) + all_max_levi_sheets(8)
    for depth in range(4):
        for rows in ([], descs[:1], descs):
            pieces = list(records_json(rows, depth))
            assert len(pieces) == len(rows) + 1
            assert "".join(pieces) == _dumps_at([d.to_json() for d in rows], depth)
