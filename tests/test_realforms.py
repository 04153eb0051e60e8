
import pytest

from sheet_atlas.partitions import Partition
from sheet_atlas.realforms import (
    SOStar,
    SU,
    abelianized_fiber_dim_is_positive,
    sheet_of_real_form,
    so_star_fixed_degree,
    su_sheet_partition,
    toledo_max,
)
from sheet_atlas.sheets import Levi, gl_sheet


def test_su_sheet_partitions():
    assert su_sheet_partition(3, 1) == Partition((2, 1, 1))
    assert su_sheet_partition(2, 2) == Partition((1, 1, 1, 1))
    assert su_sheet_partition(3, 2) == Partition((1, 1, 1, 1, 1))
    assert su_sheet_partition(5, 1) == Partition((4, 1, 1))


def test_su_reports():
    rep = sheet_of_real_form(SU(3, 1))
    assert isinstance(rep.levi_description, Levi)
    assert rep.levi_description.blocks == Partition((2, 1, 1))
    assert not rep.quasi_split
    assert "U(1,1)" in rep.abelianised_target

    rep = sheet_of_real_form(SU(2, 2))
    assert rep.quasi_split
    rep = sheet_of_real_form(SU(3, 2))
    assert rep.quasi_split
    assert rep.note is not None  # the boundary case caveat


def test_quasi_split_iff_all_ones():
    for p in range(1, 7):
        for q in range(1, p + 1):
            rep = sheet_of_real_form(SU(p, q))
            m = rep.levi_description.blocks
            assert rep.quasi_split == (m == Partition([1] * (p + q)))
            assert m.n == p + q
            assert len(m) == 2 * q + (1 if p > q else 0)


def test_su_sheet_descriptor():
    desc = gl_sheet(su_sheet_partition(4, 1))  # Levi partition (3, 1, 1), self-conjugate
    assert desc.levi.blocks == Partition((3, 1, 1))
    assert desc.nilpotent_orbit == Partition((3, 1, 1))
    assert desc.katsylo_order == 1
    desc = gl_sheet(su_sheet_partition(5, 1))  # Levi partition (4, 1, 1)
    assert desc.nilpotent_orbit == Partition((3, 1, 1, 1))
    assert desc.katsylo_order == 1


def test_toledo_max():
    assert toledo_max(2, 2) == 4
    assert toledo_max(3, 4) == 18


def test_su_report_with_genus():
    rep = sheet_of_real_form(SU(4, 2), genus=2)
    assert dict(rep.extra)["toledo_max"] == 4
    rep = sheet_of_real_form(SU(4, 2), genus=3)
    assert dict(rep.extra)["toledo_max"] == 8


def test_genus_below_two_is_rejected():
    # every label family, including one whose report has no genus-dependent
    # entry (SO*(8)) and a quasi-split one (SU(2,2))
    for label in (SOStar(5), SU(4, 2), SU(2, 2), SOStar(4)):
        for g in (1, 0, -3):
            with pytest.raises(ValueError, match="genus must be at least 2"):
                sheet_of_real_form(label, genus=g)
    assert dict(sheet_of_real_form(SOStar(5), genus=2).extra)["fixed_degree"] == 8
    assert "fixed_degree" not in dict(sheet_of_real_form(SOStar(5)).extra)


def test_so_star_odd():
    rep = sheet_of_real_form(SOStar(5), genus=2)  # SO*(10), m = 2
    assert rep.levi_description == "GL2^2 x Gm"
    assert not rep.quasi_split
    assert dict(rep.extra)["jh_rank"] == 1
    assert dict(rep.extra)["fixed_degree"] == 8
    assert "Pic" in rep.abelianised_target
    assert so_star_fixed_degree(2, 3) == 16
    # the invariants are (name, value) pairs in the order they are written
    assert rep.extra == (("jh_rank", 1), ("gl2_blocks", 2), ("fixed_degree", 8))
    assert list(rep.to_json()["extra"]) == ["jh_rank", "gl2_blocks", "fixed_degree"]
    assert hash(rep) == hash(sheet_of_real_form(SOStar(5), genus=2))


def test_so_star_even():
    rep = sheet_of_real_form(SOStar(4))
    assert not rep.quasi_split
    assert rep.levi_description is None
    assert rep.abelianised_target is None


def test_positive_dimensional_abelianised_fibres():
    assert abelianized_fiber_dim_is_positive(SU(4, 1))
    assert not abelianized_fiber_dim_is_positive(SU(3, 2))
    assert not abelianized_fiber_dim_is_positive(SU(2, 2))
    assert abelianized_fiber_dim_is_positive(SOStar(7))  # SO*(14)
    assert not abelianized_fiber_dim_is_positive(SOStar(4))


def test_label_validation():
    with pytest.raises(ValueError):
        SU(1, 2)
    with pytest.raises(ValueError):
        SOStar(2)


def test_report_json():
    rep = sheet_of_real_form(SOStar(5), genus=2)
    payload = rep.to_json()
    assert payload["label"] == "SO*(10)"
    assert payload["extra"]["fixed_degree"] == "8"
