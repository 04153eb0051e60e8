"""Every record class of the library is an immutable value: built from
positional or keyword arguments with their defaults, equal and hashed by
field value within its class only, printed as ``Name(field=value, ...)``,
closed to assignment and deletion, and checked on construction."""
import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import sheet_atlas
from sheet_atlas._record import OrderedRecord, Record
from sheet_atlas.hitchin import SliceWeights, component_count, dim_hitchin_base, h0_canonical_power
from sheet_atlas.liealg import ClassicalForm, LieAlgebraModel, _model, build_model, so_gram, sp_gram
from sheet_atlas.multiplicity import SlicePoint
from sheet_atlas.partitions import MultiplicityProfile, Partition
from sheet_atlas.realforms import SU, RealSheetReport, SOStar, sheet_of_real_form, so_star_fixed_degree, toledo_max
from sheet_atlas.sheets import (
    GroupKind,
    Levi,
    MaxLevi,
    SheetDescriptor,
    f4_b3_sheet,
    gl_sheet,
    sheets_sp4,
    find_sheet,
    type_a,
    type_b,
    type_c,
)
from sheet_atlas.spectral import GradedPolynomial, SheetBasePoint
from sheet_atlas.triples import JordanBasisPlan, Sl2Triple, build_bcd_triple

from oracles import dense_basis, group_values_by_family

SDIX_FIELDS = [
    ("kind", GroupKind("C", 2)), ("levi", MaxLevi(1, 1)), ("dixmier", True), ("nilpotent_orbit", Partition((2, 2))),
    ("d", 4), ("dim_z", 1), ("w_l_order", 2), ("katsylo_order", 2), ("dim_sheet", 7), ("class_tag", "VIII"),
    ("type_tag", 1), ("component_group_order", 2), ("levi_conjugacy_caveat", False), ("name", "sp4:SDix"),
]


def _cases():
    """(class, its fields in order as (name, value), a change of fields that
    gives an unequal record) for every record class."""
    model = build_model(type_b(1))
    trip = build_bcd_triple(type_c(3), MaxLevi(1, 2))
    trip_fields = [
        (name, getattr(trip, name))
        for name in ("e", "h", "f", "model", "flag_dims", "abelianization_value", "h_prime", "plan", "label")
    ]
    return [
        (Partition, [("parts", (2, 1))], {"parts": (3,)}),
        (MultiplicityProfile, [("counts", (1, 1))], {"counts": (2,)}),
        (GroupKind, [("family", "C"), ("rank", 2)], {"rank": 3}),
        (Levi, [("blocks", Partition((2, 1))), ("residual", 0)], {"residual": 1}),
        (SheetDescriptor, SDIX_FIELDS, {"name": "sp4:other"}),
        (ClassicalForm, [("kind", "symmetric"), ("gram", so_gram(3).gram)], {"kind": "antisymmetric", "gram": sp_gram(4).gram}),
        (LieAlgebraModel, [("kind", model.kind), ("form", model.form), ("terms", model.terms)], {"terms": model.terms[:1]}),
        (JordanBasisPlan, [("orbit", Partition((2, 2, 1, 1))), ("beta", (1, 0, 3, 2)), ("gl_block_size", 1), ("symmetric", False)], {"symmetric": True}),
        (Sl2Triple, trip_fields, {"label": "other"}),
        (SheetBasePoint, [("profile", MultiplicityProfile((1, 1))), ("factors", (GradedPolynomial([1]), GradedPolynomial([2])))],
         {"factors": (GradedPolynomial([1]), GradedPolynomial([3]))}),
        (SliceWeights, [("weights", (1, 2))], {"weights": (1,)}),
        (SlicePoint, [("sheet", gl_sheet(Partition((2, 1)))), ("z", (Fraction(1), Fraction(2, 3)))], {"z": (Fraction(1), Fraction(3))}),
        (SU, [("p", 2), ("q", 1)], {"q": 2}),
        (SOStar, [("n", 3)], {"n": 4}),
        (RealSheetReport, [("label", SOStar(3)), ("levi_description", "GL2^1 x Gm"), ("quasi_split", False),
                           ("abelianised_target", "Pic"), ("extra", (("jh_rank", Fraction(1)),)), ("note", "a note")], {"note": None}),
    ]


def _record_classes():
    for info in pkgutil.iter_modules(sheet_atlas.__path__):
        importlib.import_module("sheet_atlas." + info.name)
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return found - {OrderedRecord}


def test_every_record_class_is_covered():
    assert {cls for cls, _, _ in _cases()} == _record_classes()
    assert len(_cases()) == 15


def test_positional_and_keyword_construction_agree():
    for cls, fields, _ in _cases():
        values = [v for _, v in fields]
        by_position, by_keyword = cls(*values), cls(**dict(fields))
        assert by_position == by_keyword, cls
        for name, value in fields:
            assert getattr(by_position, name) == value == getattr(by_keyword, name), (cls, name)
    # the rank-2 symplectic table keeps the fields of its SDix row
    assert sheets_sp4()[1] == SheetDescriptor(**dict(SDIX_FIELDS))


def test_defaults():
    assert Partition().parts == ()
    assert GroupKind("F4").rank == 4
    bare = SheetDescriptor(*[v for _, v in SDIX_FIELDS[:9]])
    assert (bare.class_tag, bare.type_tag, bare.component_group_order, bare.levi_conjugacy_caveat, bare.name) == (None, None, None, False, None)
    trip = build_bcd_triple(type_c(3), MaxLevi(1, 2))
    bare = Sl2Triple(trip.e, trip.h, trip.f, trip.model, trip.flag_dims, trip.abelianization_value)
    assert (bare.h_prime, bare.plan, bare.label) == (None, None, "")
    # a report without extra has no pairs, and none can be added in place
    first = RealSheetReport(SU(2, 1), None, True, None)
    assert first.extra == () and first.note is None
    assert SlicePoint(gl_sheet(Partition((1,))), 5).z == (Fraction(5),)


def test_equality_and_hash_by_value():
    for cls, fields, change in _cases():
        record, again = cls(**dict(fields)), cls(**dict(fields))
        assert record == again and not record != again, cls
        assert hash(record) == hash(again), cls
        if change is not None:
            other = cls(**{**dict(fields), **change})
            assert record != other and not record == other, cls
    assert len({Partition((2, 1)), Partition([1, 2]), Partition((3,))}) == 2


def test_records_of_different_classes_differ():
    assert Partition((2, 1)) != (2, 1) and (2, 1) != Partition((2, 1))
    assert MultiplicityProfile((1, 2)) != SliceWeights((1, 2))
    assert SU(2, 1) != MaxLevi(2, 1)
    assert Levi(Partition((2, 1)), 0) != Partition((2, 1))
    assert Partition((1,)).__eq__(1) is NotImplemented


def test_records_refuse_assignment_and_deletion():
    for cls, fields, _ in _cases():
        record = cls(**dict(fields))
        for name in [n for n, _ in fields] + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert [getattr(record, n) for n, _ in fields] == [v for _, v in fields]


def test_repr_lists_the_fields():
    for cls, fields, _ in _cases():
        expected = "%s(%s)" % (cls.__name__, ", ".join("%s=%r" % field for field in fields))
        assert repr(cls(**dict(fields))) == expected
    assert repr(GroupKind("A", 3)) == "GroupKind(family='A', rank=3)"
    assert repr(MaxLevi(1, 2)) == "Levi(blocks=Partition(parts=(1,)), residual=2)"
    assert repr(SOStar(3)) == "SOStar(n=3)"
    assert repr(SliceWeights((1, 2))) == "SliceWeights(weights=(1, 2))"
    assert repr(JordanBasisPlan(Partition((2, 2)), (1, 0), 1, False)) == (
        "JordanBasisPlan(orbit=Partition(parts=(2, 2)), beta=(1, 0), gl_block_size=1, symmetric=False)"
    )
    assert repr(f4_b3_sheet()) == (
        "SheetDescriptor(kind=GroupKind(family='F4', rank=4), levi=Levi(blocks=Partition(parts=(1,)), residual=7), dixmier=True, nilpotent_orbit='A~2', "
        "d=22, dim_z=1, w_l_order=2, katsylo_order=1, dim_sheet=31, class_tag=None, type_tag=2, "
        "component_group_order=None, levi_conjugacy_caveat=False, name='f4:B3')"
    )
    assert repr(SlicePoint(gl_sheet(Partition((1,))), 5)).endswith(", z=(Fraction(5, 1),))")


def test_partition_sorts_by_its_parts():
    parts = [(2, 1), (3,), (1, 1, 1), (2, 2), (), (2, 1, 1)]
    assert [p.parts for p in sorted(map(Partition, parts))] == sorted(parts)
    a, b = Partition((2, 1)), Partition((3,))
    assert a < b and a <= b and b > a and b >= a and a <= Partition((1, 2)) and a >= Partition((1, 2))
    assert not (b < a or a > b or a >= b or b <= a)
    with pytest.raises(TypeError):
        a < (3,)
    with pytest.raises(TypeError):
        a <= SliceWeights((3,))
    # the other records do not order
    with pytest.raises(TypeError):
        Levi(Partition((1, 1)), 0) < Levi(Partition((2,)), 0)
    with pytest.raises(TypeError):
        GroupKind("A", 1) < GroupKind("A", 2)


def test_construction_checks_still_raise():
    trip = build_bcd_triple(type_c(3), MaxLevi(1, 2))
    wrong_dim = dict(SDIX_FIELDS, dim_sheet=8)
    sdix = SheetDescriptor(**dict(SDIX_FIELDS))
    cases = [
        (lambda: SheetDescriptor(**wrong_dim), "dim_sheet fails dim G - d"),
        (lambda: Sl2Triple(trip.e, trip.h, trip.f.scale(2), trip.model, trip.flag_dims, trip.abelianization_value), "failed check '\\[e,f\\] = h'"),
        (lambda: MaxLevi(0, 1), "parts must be positive"),
        (lambda: Levi(Partition((1,)), -1), "residual is at least 0, got -1"),
        (lambda: SU(1, 2), "need p >= q >= 1"),
        (lambda: SOStar(2), "need n >= 3"),
        (lambda: SliceWeights((0,)), "weights must be positive"),
        (lambda: GroupKind("E", 6), "unknown group family"),
        (lambda: GroupKind("D", 1), "type D needs rank >= 2"),
        (lambda: GroupKind("F4", 7), "F4 has rank 4, not 7"),
        (lambda: GroupKind("A", 2.5), "rank must be an int, got 2.5"),
        (lambda: GroupKind("C", 2.0), "rank must be an int, got 2.0"),
        (lambda: GroupKind("B", True), "rank must be an int, got True"),
        (lambda: Partition((2, 0)), "parts must be positive"),
        (lambda: Partition([2.5, 1.9]), "parts must be ints"),
        (lambda: Partition(["3", 1]), "parts must be ints"),
        (lambda: Partition([2, True]), "parts must be ints"),
        (lambda: Levi(Partition([1]), 1.5), "residual must be an int, got 1.5"),
        (lambda: JordanBasisPlan(Partition((2, 1)), (1, 0), 1, False), "not a size-preserving involution"),
        (lambda: ClassicalForm("hermitian", so_gram(3).gram), "form kind must be"),
        (lambda: ClassicalForm("antisymmetric", so_gram(3).gram), "does not have antisymmetric symmetry"),
        (lambda: SheetBasePoint(MultiplicityProfile((1, 1)), [GradedPolynomial([1])]), "expected 2 factors, got 1"),
        (lambda: SlicePoint(gl_sheet(Partition((2, 1))), (1,)), "slice point has length 1"),
        # labels, weights and genera are exactly ints: no float, not a bool
        (lambda: SOStar(3.0), "n must be an int, got 3.0"),
        (lambda: SU(2.5, 1), "p must be an int, got 2.5"),
        (lambda: SU(3, 1.0), "q must be an int, got 1.0"),
        (lambda: SU(True, True), "p must be an int, got True"),
        (lambda: SliceWeights((1.5,)), "a weight must be an int, got 1.5"),
        (lambda: sheet_of_real_form(SU(3, 1), 2.5), "genus must be an int, got 2.5"),
        (lambda: sheet_of_real_form(SOStar(5), True), "genus must be an int, got True"),
        (lambda: h0_canonical_power(2.5, 1), "genus must be an int, got 2.5"),
        (lambda: h0_canonical_power(2, 1.0), "j must be an int, got 1.0"),
        (lambda: dim_hitchin_base(type_a(2), 2.5), "genus must be an int, got 2.5"),
        (lambda: component_count(2, 2.5), "genus must be an int, got 2.5"),
        (lambda: component_count(2.0, 2), "katsylo_order must be an int, got 2.0"),
        (lambda: toledo_max(1, 2.5), "genus must be an int, got 2.5"),
        (lambda: toledo_max(1.0, 2), "q must be an int, got 1.0"),
        (lambda: so_star_fixed_degree(1, 2.5), "genus must be an int, got 2.5"),
        (lambda: so_star_fixed_degree(True, 2), "m must be an int, got True"),
        # a Levi's blocks are a Partition, so find_sheet refuses a bare tuple
        (lambda: Levi((2, 1), 0), "a Levi's blocks must be a Partition"),
        (lambda: find_sheet(type_a(3), Levi((2, 1), 0)), "a Levi's blocks must be a Partition"),
        # a slice point is exact: ints and Fractions, nothing parsed or rounded
        (lambda: SlicePoint(sdix, [0.5]), "slice point z must be"),
        (lambda: SlicePoint(sdix, ["1/3"]), "slice point z must be"),
        (lambda: SlicePoint(sdix, 0.5), "slice point z must be"),
        (lambda: SlicePoint(sdix, [True]), "slice point z must be"),
    ]
    for build, message in cases:
        with pytest.raises(ValueError, match=message):
            build()


def test_slice_weights_of_a_list_hash_as_their_tuple():
    weights = SliceWeights([1, 2])
    assert weights == SliceWeights((1, 2)) and hash(weights) == hash(SliceWeights((1, 2)))
    assert weights.weights == (1, 2)


def test_copies_are_built_through_the_constructor():
    for record in (f4_b3_sheet(), Partition((2, 1)), GroupKind("B", 3), SU(3, 1), Levi(Partition((1, 1)), 0), SliceWeights((1, 2))):
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.copy(record) == record and copy.deepcopy(record) == record


def test_group_kind_reads_its_values_off_its_label():
    """A group's matrix size, form sign and dim, read off its family and
    rank, against their closed forms in every family up to rank 12.  They
    are not fields: groups of equal family and rank are equal and hash
    alike, a pickle or a copy keeps them, and none can be assigned."""
    kinds = [GroupKind(family, rank) for family in "ABCD" for rank in range(2 if family == "D" else 1, 13)]
    for kind in kinds + [GroupKind("F4")]:
        expected = group_values_by_family(kind.family, kind.rank)
        assert (kind.matrix_size, kind.form_sign, kind.dim) == expected, kind
        again = GroupKind(kind.family, kind.rank)
        assert kind == again and hash(kind) == hash(again), kind
        for copied in (pickle.loads(pickle.dumps(kind)), copy.copy(kind), copy.deepcopy(kind)):
            assert copied == kind and (copied.matrix_size, copied.form_sign, copied.dim) == expected, kind
        for name in ("dim", "matrix_size", "form_sign"):
            with pytest.raises(AttributeError):
                setattr(kind, name, 0)
        assert (kind.matrix_size, kind.form_sign, kind.dim) == expected, kind
    assert GroupKind("F4", 0) == GroupKind("F4", 4) and hash(GroupKind("F4", 0)) == hash(GroupKind("F4", 4))
    assert GroupKind("B", 3) != GroupKind("D", 3) and GroupKind("C", 3) != GroupKind("C", 4)


def test_shared_model_holds_only_its_fields():
    model = build_model(type_b(2))
    fresh = _model.__wrapped__(type_b(2), None)  # built again outside the shared cache
    assert not hasattr(model, "__dict__") and model._fields == ("kind", "form", "terms")
    assert len(dense_basis(model)) == model.dimension
    assert model == fresh and hash(model) == hash(fresh)
    with pytest.raises(AttributeError):
        model.basis = ()
