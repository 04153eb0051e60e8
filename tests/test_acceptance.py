"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; each test also prints an ``ACCEPT`` line (visible with ``-s``).
All comparisons are exact equality; the only randomness is seeded.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

from sheet_atlas.cli import data_dir, render_table1, render_table2
from sheet_atlas.hitchin import component_count, dim_hitchin_base, dim_s_hitchin_base
from sheet_atlas.liealg import RationalMatrix, centralizer_dim, char_poly, in_algebra
from sheet_atlas.multiplicity import SlicePoint, orbit_method_multiplicity, polarisation_orbit_count
from sheet_atlas.partitions import Partition, is_valid_orbit_partition, partitions_of, profile
from sheet_atlas.realforms import SOStar, SU, sheet_of_real_form, toledo_max
from sheet_atlas.sheets import (
    MaxLevi,
    all_max_levi_sheets,
    enumerate_sheets_gln,
    max_levi_dim,
    maximal_levi_sheet,
    sheets_sp4,
    type_b,
    type_c,
    type_d,
    valid_max_levi_labels,
)
from sheet_atlas.spectral import (
    GradedPolynomial,
    SheetBasePoint,
    in_heart,
    min_poly,
    mu_s,
    sp4_dix_image,
    witness_noninjectivity,
)
from sheet_atlas.triples import (
    build_bcd_triple,
    build_gl_triple,
    formal_t,
    sp4_e,
    sp4_flip_action,
    sp4_model,
    sp4_slice,
)

from oracles import descriptor_from_json, dim_hitchin_base_sp4, dim_s_hitchin_base_gln, recover_tuple


def _accept(name: str):
    print("ACCEPT pass: %s" % name)


def _bcd_cases(max_n: int):
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


def test_table1_reproduction():
    """The five-row table is reproduced exactly, with the centraliser
    dimension column re-derived by the exact-kernel oracle on explicit
    representatives."""
    started = time.time()
    rows = sheets_sp4()
    fixture = json.loads((data_dir() / "table1.json").read_text())["rows"]
    assert len(rows) == len(fixture) == 5
    for desc, committed in zip(rows, fixture):
        assert desc.decomposition_data == committed["decomposition_data"]
        assert desc.nilpotent_orbit.to_json() == committed["nilpotent_orbit"]
        assert desc.d == committed["d"]
        assert desc.dim_z == committed["dim_z"]

    model = sp4_model()
    representatives = [
        RationalMatrix.diagonal([1, 2, -2, -1]),  # regular semisimple
        RationalMatrix.diagonal([1, 0, 0, -1]),   # the one-parameter family at t = 1
        RationalMatrix.diagonal([1, 1, -1, -1]),  # the equal-eigenvalue family
        RationalMatrix.unit(4, 0, 3),             # minimal nilpotent
        RationalMatrix.zero(4),
    ]
    for desc, x in zip(rows, representatives):
        assert in_algebra(x, model)
        assert centralizer_dim(x, model) == desc.d, desc.name
    assert time.time() - started < 1.0
    _accept("table 1 reproduction + centraliser oracle")


# Independent transcription of the nine-class summary table: orbit template,
# residual group order, relative Weyl group order, per class.
TABLE2 = {
    "I": (lambda m1, m2: [2] * m1, 1, 2),
    "II": (lambda m1, m2: [2] * m2 + [1] * (m1 - m2), 1, 1),
    "III": (lambda a, q: [3] * q + [2] * (a - q - 1) + [1, 1], 2, 2),
    "IV": (lambda a, q: [3] * q + [2] * (a - q), 1, 2),
    "V": (lambda a, q: [3] * a + [1] * (q - a), 1, 2),
    "VI": (lambda a, q: [2] * (a - 1) + [1, 1], 1, 1),
    "VII": (lambda a, q: [3] * q + [2] * (a - q), 1, 2),
    "VIII": (lambda a, q: [3] * (a - 1) + [2, 2] + [1] * (q - a - 1), 2, 2),
    "IX": (lambda a, q: [3] * a + [1] * (q - a), 1, 2),
}


def _expected_class(kind, levi) -> str:
    if kind.family == "A":
        return "I" if levi.m.parts[0] == levi.m.parts[1] else "II"
    a, res = levi.a, levi.residual
    if kind.family == "C":
        q = 2 * res
        if a >= q:
            return "VII"
        return "VIII" if a % 2 else "IX"
    q = res
    if q == 0:
        return "VI" if a % 2 else "IV"
    if a >= q:
        return "III" if (a - q) % 2 else "IV"
    return "V"


def test_table2_reproduction():
    """Every valid maximal-Levi label with n <= 12 lands in the right class
    with the right partition, residual order and Weyl order; all nine
    classes are hit; partitions pass the parity validator and sum to n."""
    started = time.time()
    hit = set()
    count = 0
    for desc in all_max_levi_sheets(12):
        kind, levi = desc.kind, desc.levi
        tag = _expected_class(kind, levi)
        hit.add(tag)
        count += 1
        template, f_order, w_l = TABLE2[tag]
        if kind.family == "A":
            expected = sorted(template(levi.m.parts[0], levi.m.parts[1]), reverse=True)
        elif kind.family == "C":
            expected = sorted(template(levi.a, 2 * levi.residual), reverse=True)
        else:
            expected = sorted(template(levi.a, levi.residual), reverse=True)
        assert desc.class_tag == tag, desc.name
        assert list(desc.nilpotent_orbit.parts) == expected, desc.name
        assert desc.katsylo_order == f_order, desc.name
        assert desc.w_l_order == w_l, desc.name
        assert desc.nilpotent_orbit.n == kind.matrix_size
        assert is_valid_orbit_partition(kind, desc.nilpotent_orbit)
    assert hit == set(TABLE2)
    assert count == 87
    assert time.time() - started < 1.0
    _accept("table 2 reproduction over all labels with n <= 12")


def _gl_cases(max_n: int):
    for n in range(2, max_n + 1):
        for m1 in range(n - 1, 0, -1):
            m2 = n - m1
            if m1 >= m2 >= 1:
                yield m1, m2


def test_sl2_suite():
    """Every GL triple with m1+m2 <= 8 and every B/C/D construction with
    n <= 12 satisfies the bracket relations, form membership, flag
    conditions, nonzero abelianisation value, and carries the extra
    commuting element exactly in the unramified-slice classes."""
    started = time.time()
    for m1, m2 in _gl_cases(8):
        trip = build_gl_triple(m1, m2)
        for name, ok, _ in trip.checks():
            assert ok, (trip.label, name)
        assert (trip.h_prime is not None) == (m1 > m2)
    for kind, levi in _bcd_cases(12):
        trip = build_bcd_triple(kind, levi)
        for name, ok, _ in trip.checks():
            assert ok, (trip.label, name)
        sheet = maximal_levi_sheet(kind, levi)
        assert (trip.h_prime is not None) == (sheet.type_tag == 1)
    assert time.time() - started < 5.0
    _accept("sl2 suite: relations, membership, flags, abelianisation")


def test_centralizer_consistency():
    """Oracle vs closed form: the kernel dimension at e equals dim L for
    every Dixmier construction from the sl2 suite."""
    for m1, m2 in _gl_cases(8):
        trip = build_gl_triple(m1, m2)
        assert centralizer_dim(trip.e, trip.model) == m1 * m1 + m2 * m2
    for kind, levi in _bcd_cases(12):
        trip = build_bcd_triple(kind, levi)
        assert centralizer_dim(trip.e, trip.model) == max_levi_dim(kind, levi)
    _accept("centraliser dimension: oracle agrees with dim L")


def test_sp4_slice():
    """The corrected slice is symplectic symbolically, has the sheet's
    characteristic polynomial symbolically and at five rational values,
    and is negated by the flip; the as-printed variant demonstrably leaves
    the sheet."""
    t = formal_t()
    x = sp4_slice(t)
    model = sp4_model()
    assert in_algebra(x, model)
    assert char_poly(x) == sp4_dix_image(t)
    for tv in (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-5, 3)):
        assert char_poly(sp4_slice(tv)) == sp4_dix_image(tv)
    assert sp4_slice(0) == sp4_e().scale(Fraction(1, 4))
    assert sp4_flip_action(t) == sp4_slice(-t)

    bad = char_poly(sp4_slice(Fraction(1), as_printed=True))
    assert in_algebra(sp4_slice(t, as_printed=True), model)
    assert bad.coefficient(4) == Fraction(9, 256)  # nonzero constant term
    assert bad != sp4_dix_image(Fraction(1))
    _accept("slice matrix: corrected entries verified, printed entries fail")


def test_dimension_calculus():
    """Base dimension 10(g-1) for the rank-2 symplectic group; weight and
    double-sum formulas agree on all partitions of n <= 10; component
    count 16 at genus 2 for residual order 2."""
    for g in (2, 3, 4):
        assert dim_hitchin_base(type_c(2), g) == dim_hitchin_base_sp4(g) == 10 * (g - 1)
    for n in range(1, 11):
        for m in partitions_of(n):
            from sheet_atlas.sheets import gl_sheet

            desc = gl_sheet(m)
            for g in (2, 3, 4):
                assert dim_s_hitchin_base(desc, g) == dim_s_hitchin_base_gln(m, g)
    assert component_count(2, 2) == 16
    _accept("dimension calculus: 10(g-1), weight formula, components")


def test_spectral_suite():
    """Degree identity on 200 random points per profile (n <= 10); exact
    divisibility of the composition by the minimal polynomial; the
    non-injectivity witness; heart injectivity on 200 coprime-squarefree
    pairs; tuple recovery inverting the composition on heart points."""
    started = time.time()
    rng = random.Random(20250809)
    for n in range(1, 11):
        for m in partitions_of(n):
            prof = profile(m)
            for _ in range(200):
                factors = [
                    GradedPolynomial([Fraction(rng.randint(-9, 9)) for _ in range(li)])
                    for _, li in prof.items()
                ]
                point = SheetBasePoint(prof, factors)
                image = mu_s(point)
                assert image.degree == n
                assert min_poly(point).divides(image)

    for a in (1, 2, 3):
        p1, p2 = witness_noninjectivity(Fraction(a))
        expected = GradedPolynomial.from_roots([a, a, -a, -a])
        assert mu_s(p1) == expected == mu_s(p2)
        assert p1 != p2

    pool = [Fraction(k) for k in range(-40, 41)]
    m = Partition((3, 2, 1, 1))
    prof = profile(m)

    def heart_point():
        roots = rng.sample(pool, sum(li for _, li in prof.items()))
        it = iter(roots)
        return SheetBasePoint(
            prof, [GradedPolynomial.from_roots([next(it) for _ in range(li)]) for _, li in prof.items()]
        )

    for _ in range(200):
        p1, p2 = heart_point(), heart_point()
        if p1 == p2:
            continue
        assert in_heart(p1) and in_heart(p2)
        assert mu_s(p1) != mu_s(p2)

    for n in range(2, 9):
        for m in partitions_of(n):
            prof = profile(m)
            roots = rng.sample(pool, sum(li for _, li in prof.items()))
            it = iter(roots)
            point = SheetBasePoint(
                prof, [GradedPolynomial.from_roots([next(it) for _ in range(li)]) for _, li in prof.items()]
            )
            assert recover_tuple(mu_s(point), prof) == point
    assert time.time() - started < 10.0
    _accept("spectral suite: degrees, divisibility, witness, heart, recovery")


def test_multiplicity():
    """Multiplicity 1 at the nilpotent point and |F| away from it on the
    order-2 sheets; identically 1 on type A; polarisation count = |F| on
    every Dixmier descriptor."""
    sdix = [d for d in sheets_sp4() if d.name == "sp4:SDix"][0]
    sp6_viii = maximal_levi_sheet(type_c(3), MaxLevi(1, 2))
    for sheet in (sdix, sp6_viii):
        assert sheet.katsylo_order == 2
        assert orbit_method_multiplicity(SlicePoint(sheet, 0)) == 1
        assert orbit_method_multiplicity(SlicePoint(sheet, Fraction(7, 2))) == 2
    for n in range(1, 8):
        for desc in enumerate_sheets_gln(n):
            z = tuple(range(1, desc.dim_z + 1))
            assert orbit_method_multiplicity(SlicePoint(desc, z)) == 1
    dixmier_pool = (
        [d for d in sheets_sp4() if d.dixmier]
        + all_max_levi_sheets(12)
        + enumerate_sheets_gln(5)
    )
    for desc in dixmier_pool:
        assert polarisation_orbit_count(desc) == desc.katsylo_order
    _accept("multiplicity: slice stabilisers and polarisation counts")


def test_real_forms():
    """SU(3,1) lands on (2,1,1) and is not quasi-split; SU(2,2) and
    SU(3,2) are quasi-split; the maximal characteristic number at q=2,
    g=2 is 4; the SO*(10) report carries the worked structure."""
    rep = sheet_of_real_form(SU(3, 1))
    assert rep.levi_description.m == Partition((2, 1, 1))
    assert not rep.quasi_split
    assert sheet_of_real_form(SU(2, 2)).quasi_split
    assert sheet_of_real_form(SU(3, 2)).quasi_split
    assert toledo_max(2, 2) == 4
    rep = sheet_of_real_form(SOStar(5), genus=2)
    assert rep.levi_description == "GL2^2 x Gm"
    assert rep.extra["jh_rank"] == 1
    assert rep.extra["fixed_degree"] == 8  # 4m(g-1) at m = 2, g = 2
    for g in (2, 3, 5):
        assert sheet_of_real_form(SOStar(5), genus=g).extra["fixed_degree"] == 8 * (g - 1)
    _accept("real forms: sheet partitions, quasi-split flags, invariants")


def test_cli_fixtures_and_roundtrip():
    """Regeneration is byte-identical to the committed fixtures, and every
    fixture row survives a parse/serialize round trip unchanged."""
    assert render_table1().encode() == (data_dir() / "table1.json").read_bytes()
    assert render_table2().encode() == (data_dir() / "table2.json").read_bytes()
    for name in ("table1.json", "table2.json"):
        payload = json.loads((data_dir() / name).read_text())
        for row in payload["rows"]:
            assert descriptor_from_json(row).to_json() == row
    completed = subprocess.run(
        [sys.executable, "-m", "sheet_atlas.cli", "fixtures"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0 and "up to date" in completed.stdout
    _accept("CLI: fixtures byte-identical, JSON round trip")
