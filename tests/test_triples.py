import re
from dataclasses import replace
from fractions import Fraction

import pytest

from sheet_atlas.liealg import RationalMatrix, _integer_form, bracket, centralizer_dim, char_poly, in_algebra
from sheet_atlas.partitions import Partition
from sheet_atlas.sheets import MaxLevi, max_levi_dim, maximal_levi_sheet, type_b, type_c, type_d, valid_max_levi_labels
from sheet_atlas.spectral import sp4_dix_image
from sheet_atlas.triples import (
    Sl2Triple,
    build_bcd_triple,
    build_gl_triple,
    formal_t,
    sp4_e,
    sp4_flip_action,
    sp4_flip_matrix,
    sp4_model,
    sp4_slice,
    sp4_triple,
)


def all_bcd_cases(max_n):
    for r in range(1, max_n // 2 + 1):
        if 2 * r + 1 <= max_n:
            for levi in valid_max_levi_labels(type_b(r)):
                yield type_b(r), levi
        if 2 * r <= max_n:
            for levi in valid_max_levi_labels(type_c(r)):
                yield type_c(r), levi
        if r >= 2 and 2 * r <= max_n:
            for levi in valid_max_levi_labels(type_d(r)):
                yield type_d(r), levi


def test_gl_triple_examples():
    t = build_gl_triple(2, 1)
    assert [t.h.rows[i][i] for i in range(3)] == [Fraction(1), Fraction(0), Fraction(-1)]
    assert t.abelianization_value == 3
    assert t.h_prime is not None

    t = build_gl_triple(1, 1)
    assert [t.h.rows[i][i] for i in range(2)] == [Fraction(1), Fraction(-1)]
    assert t.abelianization_value == 2
    assert t.h_prime is None

    t = build_gl_triple(2, 2)
    assert [t.h.rows[i][i] for i in range(4)] == [Fraction(1), Fraction(1), Fraction(-1), Fraction(-1)]
    assert t.abelianization_value == 8


def test_gl_triple_rejects_bad_order():
    with pytest.raises(ValueError):
        build_gl_triple(1, 2)


def test_gl_bracket_example():
    t = build_gl_triple(2, 1)
    assert bracket(t.h, t.e) == t.e.scale(2)


def test_gl_triples_sweep():
    for n in range(2, 9):
        for m1 in range(n - 1, 0, -1):
            m2 = n - m1
            if m1 < m2:
                continue
            trip = build_gl_triple(m1, m2)
            # construction re-checks the relations; here the centraliser route
            assert centralizer_dim(trip.e, trip.model) == m1 * m1 + m2 * m2
            if m1 > m2:
                assert bracket(trip.h_prime, trip.e).is_zero()


def test_bcd_examples():
    trip = build_bcd_triple(type_b(2), MaxLevi(2, 1))
    assert trip.plan.orbit == Partition((3, 1, 1))
    assert trip.abelianization_value == 2

    trip = build_bcd_triple(type_c(2), MaxLevi(1, 1))
    assert trip.plan.orbit == Partition((2, 2))
    assert trip.abelianization_value == 1
    assert trip.h_prime is not None  # class VIII is Type 1

    trip = build_bcd_triple(type_c(2), MaxLevi(2, 0))
    assert trip.plan.orbit == Partition((2, 2))
    assert trip.h_prime is None  # class VII is Type 2


def test_bcd_sweep_n12():
    from sheet_atlas.liealg import determinant

    for kind, levi in all_bcd_cases(12):
        trip = build_bcd_triple(kind, levi)
        # the constructor has already verified relations, membership, flag
        # conditions and the abelianisation value; check what it does not
        gram = trip.model.form.gram
        sign = 1 if kind.family in ("B", "D") else -1
        assert gram.transpose() == gram.scale(sign)
        assert determinant(gram) != 0
        assert centralizer_dim(trip.e, trip.model) == max_levi_dim(kind, levi)
        sheet = maximal_levi_sheet(kind, levi)
        assert (sheet.type_tag == 1) == (trip.h_prime is not None)
        assert trip.abelianization_value == sum(p - 1 for p in trip.plan.orbit.parts[: levi.a])


def test_bcd_beta_type1_pairing():
    trip = build_bcd_triple(type_c(3), MaxLevi(1, 2))  # class VIII
    a = trip.plan.gl_block_size
    assert trip.plan.beta[a - 1] == a  # the designated partner block


def test_bcd_rejects_wrong_kind():
    from sheet_atlas.sheets import type_a

    with pytest.raises(ValueError):
        build_bcd_triple(type_a(4), MaxLevi(2, 0))


def test_sp4_printed_triple():
    trip = sp4_triple()
    assert trip.abelianization_value == 1
    assert centralizer_dim(trip.e, trip.model) == 4  # dim of the subregular Levi


def test_sp4_slice_properties():
    t = formal_t()
    x = sp4_slice(t)
    assert in_algebra(x, sp4_model())
    assert char_poly(x) == sp4_dix_image(t)
    for tv in (1, 2, 3, Fraction(1, 2), -1):
        assert char_poly(sp4_slice(tv)) == sp4_dix_image(tv)
    assert sp4_slice(0) == sp4_e().scale(Fraction(1, 4))


def test_sp4_slice_as_printed_leaves_sheet():
    t = formal_t()
    x = sp4_slice(t, as_printed=True)
    assert in_algebra(x, sp4_model())  # still symplectic
    cp = char_poly(x)
    assert cp != sp4_dix_image(t)
    cp1 = char_poly(sp4_slice(1, as_printed=True))
    assert cp1.coefficient(2) == Fraction(-5, 8)
    assert cp1.coefficient(4) == Fraction(9, 256)  # nonzero constant term: not in the sheet


def test_sp4_flip_action():
    t = formal_t()
    assert sp4_flip_action(t) == sp4_slice(-t)
    assert sp4_flip_action(1) == sp4_slice(-1)
    assert sp4_flip_action(0) == sp4_slice(0)
    s = sp4_flip_matrix()
    gram = sp4_model().form.gram
    assert s.transpose() @ gram @ s == gram  # s is symplectic
    assert sp4_flip_action(t, as_printed=True) == sp4_slice(-t, as_printed=True)


def test_sp4_slice_stabiliser_degeneration():
    """The quadratic-in-λ^2 discriminant of the slice's characteristic
    polynomial vanishes exactly at the nilpotent point t = 0."""
    for tv in (1, 2, Fraction(-3, 2)):
        cp = char_poly(sp4_slice(tv))
        a = cp.coefficient(2)  # μ^2 + aμ with μ = λ^2
        assert a * a != 0
    cp0 = char_poly(sp4_slice(0))
    assert cp0.coefficient(2) == 0


def test_gl_n_bound():
    with pytest.raises(ValueError):
        build_gl_triple(15, 10)


def test_bcd_n_bound():
    with pytest.raises(ValueError):
        build_bcd_triple(type_c(9), MaxLevi(4, 5))


# --- faults the construction checks must catch -------------------------------------


def _failed_by_products(trip_fields):
    """Names of the failing checks, in the order of Sl2Triple.checks, each
    evaluated from its definition with matrix products."""
    e, h, f, model, flag_dims, hp = trip_fields

    def br(a, b):
        return a @ b - b @ a

    def member(x):
        if model.form is None:
            return True
        g = model.form.gram
        return (x.transpose() @ g + g @ x).is_zero()

    def group(i):
        return next(k for k, bound in enumerate(flag_dims) if i < bound)

    def cells(x):
        return [(r, c) for r in range(x.dim) for c in range(x.dim) if x.rows[r][c] != 0]

    def levi(x):
        return all(group(r) == group(c) for r, c in cells(x))

    out = [
        ("[h,e] = 2e", br(h, e) == e.scale(2)),
        ("[h,f] = -2f", br(h, f) == f.scale(-2)),
        ("[e,f] = h", br(e, f) == h),
        ("e in algebra", member(e)),
        ("h in algebra", member(h)),
        ("f in algebra", member(f)),
        ("e nilradical-valued", all(group(r) < group(c) for r, c in cells(e))),
        ("h Levi-valued", levi(h)),
    ]
    if hp is not None:
        out += [("h' centralises e", br(hp, e).is_zero()), ("h' in algebra", member(hp)), ("h' Levi-valued", levi(hp))]
    return [name for name, ok in out if not ok]


def _fields(trip, **changes):
    trip_fields = dict(e=trip.e, h=trip.h, f=trip.f, model=trip.model, flag_dims=trip.flag_dims, h_prime=trip.h_prime)
    trip_fields.update(changes)
    return tuple(trip_fields.values())


def _plus_unit(x, r, c):
    return x + RationalMatrix.unit(x.dim, r, c, Fraction(3, 7))


def test_triple_checks_catch_faults():
    for trip in (build_gl_triple(3, 2), build_bcd_triple(type_c(3), MaxLevi(1, 2))):
        assert not _failed_by_products(_fields(trip))
        n = trip.e.dim
        off_block = (0, n - 1)  # first and last flag blocks
        # gl_n holds every matrix, so the GL triple's e gets an entry on the
        # diagonal block instead, outside its nilradical
        e_fault = "e in algebra" if trip.model.form is not None else "e nilradical-valued"
        faults = [
            ({"f": trip.f.scale(2)}, "[e,f] = h"),
            ({"e": _plus_unit(trip.e, 0, 0)}, e_fault),
            ({"h": _plus_unit(trip.h, *off_block)}, "h Levi-valued"),
        ]
        for change, target in faults:
            failed = _failed_by_products(_fields(trip, **change))
            assert target in failed
            with pytest.raises(ValueError, match="failed check %s$" % re.escape(repr(failed[0]))):
                replace(trip, **change)


def test_triple_with_halved_e_and_doubled_f_constructs():
    for trip in (build_gl_triple(3, 2), build_bcd_triple(type_c(3), MaxLevi(1, 2)), build_bcd_triple(type_b(3), MaxLevi(2, 3))):
        e_half, f_double = trip.e.scale(Fraction(1, 2)), trip.f.scale(2)
        scaled = replace(trip, e=e_half, f=f_double)
        assert not _failed_by_products(_fields(scaled))
        assert all(ok for _, ok, _ in scaled.checks())
        assert _integer_form(e_half)[0] == 2
