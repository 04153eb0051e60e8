import json
import re
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest
from hypothesis import given, strategies as st

from sheet_atlas import cli, partitions, sheets
from sheet_atlas.partitions import Partition, conjugate, is_valid_orbit_partition
from sheet_atlas.sheets import (
    F4,
    GroupKind,
    LISTING_HEADER,
    Levi,
    MaxLevi,
    SheetDescriptor,
    all_max_levi_sheets,
    check_record,
    classify_max_levi,
    enumerate_sheets_gln,
    f4_b3_sheet,
    find_sheet,
    gl_sheet,
    json_text,
    listing_json,
    listing_rows,
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

from oracles import descriptor_from_json, descriptor_to_json, gl_record_fields, partition_count


def test_gln_sheet_example_n4():
    descs = {d.levi.blocks.parts: d for d in enumerate_sheets_gln(4)}
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
    labels = [d.levi.blocks.parts for d in descs]
    assert labels == sorted(labels, reverse=True)
    assert len(descs) == 7
    with pytest.raises(ValueError):
        enumerate_sheets_gln(0)
    with pytest.raises(ValueError):
        enumerate_sheets_gln(41)


def test_type_a_records_match_oracles():
    """Every field of every gl_n record with n <= 24, listed or built alone,
    against the record computed from the cells of the Levi diagram."""
    for n in range(1, 25):
        listing = enumerate_sheets_gln(n)
        assert len(listing) == partition_count(n)
        assert len({d.levi.blocks for d in listing}) == len(listing)
        for desc in listing:
            m = desc.levi.blocks
            expected = gl_record_fields(m)
            alone = gl_sheet(m)
            for d in (desc, alone):
                assert (d.kind, d.levi) == (type_a(n), Levi(m, 0))
                assert {name: getattr(d, name) for name in expected} == expected, m
            assert record_json(alone) == record_json(desc)


def test_streamed_type_a_listing_is_the_descriptor_listing():
    for n in range(1, 25):
        assert "".join(listing_json(type_a(n))) == "".join(records_json(enumerate_sheets_gln(n))), n


def test_streamed_type_a_listing_against_the_oracle():
    """Every record of the streamed listing for n <= 24, read back as JSON,
    against the record computed from the cells of its Levi diagram: p(n)
    records, one per partition of n, in the reverse-lexicographic order of
    the ZS1 walk."""
    for n in range(1, 25):
        records = json.loads("".join(listing_json(type_a(n))))
        assert len(records) == partition_count(n), n
        levis = [tuple(record["levi"]["gl"]) for record in records]
        # strictly decreasing, so p(n) distinct partitions of n: all of them
        assert all(a > b for a, b in zip(levis, levis[1:])), n
        for record, parts in zip(records, levis):
            m = Partition(parts)
            assert m.parts == parts and m.n == n
            expected = gl_record_fields(m)
            expected.update(kind="A(%d)" % n, levi={"gl": list(parts)}, w_s_order=expected["w_l_order"],
                            nilpotent_orbit=list(expected["nilpotent_orbit"].parts))
            assert record == expected, parts


# Each bad record: (kind, d, dim_z, |W_L|, katsylo order, dim_sheet, orbit),
# one value off a good record (gl4 with Levi (2,1,1); C(2) class VIII).
BAD_RECORDS = {
    "katsylo order does not divide |W_L|": (type_a(4), 6, 3, 2, 3, 13, (3, 1)),
    "dim_sheet is not dim G - d + dim_z": (type_a(4), 6, 3, 2, 1, 12, (3, 1)),
    "orbit of the wrong size": (type_a(4), 6, 3, 2, 1, 13, (3, 2)),
    "orbit of the wrong parity": (type_c(2), 4, 1, 2, 2, 7, (3, 1)),
    "orbit of the wrong size, B/C/D": (type_c(2), 4, 1, 2, 2, 7, (2, 2, 1)),
}


def test_check_record_accepts_the_good_records():
    check_record(type_a(4), 6, 3, 2, 1, 13, (3, 1))
    check_record(type_c(2), 4, 1, 2, 2, 7, (2, 2))
    check_record(F4, 22, 1, 2, 1, 31, "A~2")


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_check_record_refuses_each_bad_record(case):
    kind, d, dim_z, w_l, katsylo, dim_sheet, orbit = BAD_RECORDS[case]
    with pytest.raises(ValueError):
        check_record(kind, d, dim_z, w_l, katsylo, dim_sheet, orbit)
    # and through the descriptor, whose constructor calls it
    with pytest.raises(ValueError):
        SheetDescriptor(
            kind=kind,
            levi=Levi(Partition((2, 1, 1)), 0) if kind.family == "A" else MaxLevi(1, 1),
            dixmier=True,
            nilpotent_orbit=Partition(orbit),
            d=d,
            dim_z=dim_z,
            w_l_order=w_l,
            katsylo_order=katsylo,
            dim_sheet=dim_sheet,
        )


def test_the_streamed_listing_checks_every_record(monkeypatch):
    """A wrong d from the function that closes each record fails the record
    check, and the CLI exits 1 with an error before writing anything, in
    both forms of the listing and for one record.  The fault is in
    partitions._close, which the listing's loop calls on every node it
    closes and gl_sheet on the node of its one Levi partition."""
    good = partitions._close

    def wrong_d(node, n):
        text, d, w_l, conj = good(node, n)
        return text, d + 1, w_l, conj

    monkeypatch.setattr(partitions, "_close", wrong_d)
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    assert partitions.conjugate(Partition((5,))) == Partition((1,) * 5)  # the fault is in d alone
    with pytest.raises(ValueError, match="dim_sheet"):
        list(listing_json(type_a(5)))
    for argv in (["sheets", "--json"], ["sheets"], ["sheet-info", "--levi", "2,2,1"]):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([argv[0], "--kind", "A", "--rank", "5", *argv[1:]])
        assert code == 1 and err.getvalue().startswith("error:"), argv
        # the first record fails, before anything is written (the table
        # fails in its first walk, which only takes the column widths)
        assert out.getvalue() == "", argv


def test_one_type_a_record_at_the_rank_bound_is_small():
    """One type A record at rank 1000 is read off its Levi partition's own
    node: its lookup allocates under 1 MB at its peak, for a record of a few
    KB, where the text table a listing writes its numbers from would hold
    the n^2 + 1 = 10^6 + 1 strings 0..n^2."""
    find_sheet(type_a(4), Levi(Partition((2, 2)), 0))
    for parts in ((500, 500), (1,) * 1000):
        levi = Levi(Partition(parts), 0)
        tracemalloc.start()
        try:
            desc = find_sheet(type_a(1000), levi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = sum(p * p for p in parts)
        assert (desc.d, desc.dim_z, desc.dim_sheet) == (d, len(parts), 1000**2 - d + len(parts)), parts
        assert peak < 10**6, (parts, peak)


def test_gl_sheet_refuses_the_empty_partition():
    with pytest.raises(ValueError):
        gl_sheet(Partition(()))


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
    d = maximal_levi_sheet(type_a(4), Levi(Partition((2, 2)), 0))
    assert (d.class_tag, d.nilpotent_orbit, d.katsylo_order, d.w_l_order) == ("I", Partition((2, 2)), 1, 2)


def test_invalid_labels_raise():
    with pytest.raises(ValueError):
        maximal_levi_sheet(type_d(3), MaxLevi(2, 2))  # residual 2 forbidden
    with pytest.raises(ValueError):
        maximal_levi_sheet(type_c(3), MaxLevi(1, 1))  # a + p != r
    with pytest.raises(ValueError):
        maximal_levi_sheet(type_a(4), Levi(Partition((2, 1, 1)), 0))  # not maximal
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
            mults = [*levi.blocks.parts] * 2 + ([2 * levi.residual] if levi.residual else [])
            from_gl = conjugate(Partition(mults)) == desc.nilpotent_orbit
            assert from_gl == (desc.katsylo_order == 1), desc.name


def test_descriptor_json_roundtrip():
    for desc in sheets_sp4() + [f4_b3_sheet(), gl_sheet(Partition((3, 2, 2)))]:
        assert descriptor_from_json(desc.to_json()) == desc


def test_f4_has_rank_four_only():
    """F4 takes rank 4, or 0 for unset; any other rank is refused instead
    of being replaced by 4."""
    assert GroupKind("F4") == GroupKind("F4", 4) == GroupKind("F4", rank=0) == F4
    assert F4.rank == 4
    for rank in (7, -3, 1, 5):
        with pytest.raises(ValueError, match="F4 has rank 4, not %d$" % rank):
            GroupKind("F4", rank)


def test_find_sheet_routes():
    assert find_sheet(type_c(2), MaxLevi(1, 1)).name == "sp4:SDix"
    assert find_sheet(type_a(4), Levi(Partition((2, 1, 1)), 0)).nilpotent_orbit == Partition((3, 1))
    assert find_sheet(F4, None).name == "f4:B3"
    with pytest.raises(ValueError, match="takes no Levi label"):
        find_sheet(F4, MaxLevi(1, 2))
    assert find_sheet(type_c(3), MaxLevi(3, 0)).class_tag == "VII"
    # maximal and torus labels of C(2) resolve to their rows of the table;
    # the full-group label (two rows there) and a torus label elsewhere are
    # refused, and so is a label that does not fit
    for row in sheets_sp4():
        if row.levi.blocks:
            assert find_sheet(type_c(2), row.levi) == row
    for kind, levi in ((type_c(2), Levi(Partition(()), 2)), (type_c(3), Levi(Partition((1, 1, 1)), 0)),
                       (type_b(2), Levi(Partition((1, 1)), 1))):
        with pytest.raises(ValueError, match="only maximal Levi labels are classified"):
            find_sheet(kind, levi)
    with pytest.raises(ValueError, match="does not fit"):
        find_sheet(type_c(2), MaxLevi(1, 2))


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


def _renamed(desc, name):
    """desc built again through the constructor, under another name."""
    return SheetDescriptor(
        desc.kind, desc.levi, desc.dixmier, desc.nilpotent_orbit, desc.d, desc.dim_z, desc.w_l_order,
        desc.katsylo_order, desc.dim_sheet, desc.class_tag, desc.type_tag, desc.component_group_order,
        desc.levi_conjugacy_caveat, name,
    )


def _dumps_at(obj, depth):
    """json.dumps(obj, indent=2) as written nested at ``depth``."""
    return json.dumps(obj, indent=2).replace("\n", "\n" + "  " * depth)


def test_record_writer_matches_json_dumps():
    # and a record without a name, and one whose name needs escaping
    descs = _catalogue() + [_renamed(f4_b3_sheet(), None), _renamed(sheets_sp4()[1], 'sp4:"SDix"\\\u03bb\n')]
    seen = set()
    for desc in descs:
        obj = descriptor_to_json(desc)
        for key, value in obj.items():
            seen.add((key, type(value).__name__))
        text = json.dumps(obj, indent=2)
        assert record_json(desc) == text, desc.name
        assert record_json(desc, 3) == text.replace("\n", "\n      "), desc.name
        assert desc.to_json() == obj, desc.name
    # null, true, string tags, both orbit forms and every Levi form occur
    for key, kind in [
        ("name", "NoneType"), ("class_tag", "NoneType"), ("class_tag", "str"), ("type_tag", "NoneType"),
        ("type_tag", "int"), ("component_group_order", "NoneType"), ("levi_conjugacy_caveat", "bool"),
        ("nilpotent_orbit", "dict"), ("nilpotent_orbit", "list"), ("levi", "str"), ("levi", "dict"),
    ]:
        assert (key, kind) in seen, (key, kind)
    assert any(d.levi_conjugacy_caveat for d in descs)
    named = {levi for levi in (descriptor_to_json(d)["levi"] for d in descs) if isinstance(levi, str)}
    assert named == {"torus", "full", "B3"}


def test_record_list_writer_matches_json_dumps():
    descs = sheets_sp4() + [f4_b3_sheet()] + enumerate_sheets_gln(6) + all_max_levi_sheets(8)
    for depth in range(4):
        for rows in ([], descs[:1], descs):
            pieces = list(records_json(rows, depth))
            assert len(pieces) == len(rows) + 1
            assert "".join(pieces) == _dumps_at([descriptor_to_json(d) for d in rows], depth)


# text with every kind of character the string encoder escapes or keeps:
# quotes, backslashes, control characters, non-ASCII and astral characters
_JSON_CHARS = st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001d54a'),
    st.characters(max_codepoint=0x7F),
    st.characters(min_codepoint=0x80),
    st.characters(min_codepoint=0x10000),
)
_JSON_TEXT = st.text(_JSON_CHARS, max_size=8)
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), _JSON_TEXT, st.integers(-(2**64), 2**64), st.integers(-(2**200), 2**200),
)


def _json_values(depth: int):
    """JSON values nested at most ``depth`` deep, empty containers included."""
    if depth == 0:
        return _JSON_SCALARS
    children = _json_values(depth - 1)
    return st.one_of(
        _JSON_SCALARS,
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=4),
    )


@given(_json_values(4))
def test_json_text_is_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_refuses_what_it_does_not_write():
    """json.dumps would refuse the Fraction and bytes, and write the float
    and the int key; the writer refuses all of them, also when nested."""
    for value in (Fraction(1, 2), 0.5, b"x", {1: "x"}):
        for nested in (value, [value], {"a": (1, value)}):
            with pytest.raises(TypeError):
                json_text(nested)


def test_gln_enumeration_refusals_name_their_bound():
    """gl_0 is no group, a type A listing stops at rank 40, and every sheet
    record at rank 1000."""
    for n, message in ((0, "rank must be positive"), (41, "n out of supported range 1..40"),
                       (1001, "rank 1001 is beyond the supported maximum 1000")):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            enumerate_sheets_gln(n)


def test_gl_sheet_is_the_listed_record():
    """A record built alone is the record of the same Levi partition in the
    listing and in both forms of the CLI answer, row for row."""
    for n in range(1, 9):
        listing = enumerate_sheets_gln(n)
        rows = list(listing_rows(type_a(n))())
        assert rows[0] == LISTING_HEADER and len(rows) == len(listing) + 1
        for desc, row in zip(listing, rows[1:]):
            alone = gl_sheet(desc.levi.blocks)
            assert alone == desc and alone.name == "gl%d:m=%s" % (n, ",".join(map(str, desc.levi.blocks.parts)))
            assert list(listing_rows(type_a(n), desc.levi)()) == [LISTING_HEADER, row]
            assert "".join(listing_json(type_a(n), desc.levi)) == "".join(records_json([desc]))
