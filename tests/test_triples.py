import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from sheet_atlas import triples
from sheet_atlas.liealg import RationalMatrix, bracket, build_model, centralizer_dim, char_poly, in_algebra, sp_gram
from sheet_atlas.partitions import Partition
from sheet_atlas.sheets import MaxLevi, maximal_levi_sheet, type_a, type_b, type_c, type_d, valid_max_levi_labels
from sheet_atlas.spectral import sp4_dix_image
from sheet_atlas.triples import (
    SP4_FLIP,
    Sl2Triple,
    build_bcd_triple,
    build_gl_triple,
    formal_t,
    sp4_e,
    sp4_flip_action,
    sp4_model,
    sp4_slice,
)
from sheet_atlas.triples import _block_diagonal, _strictly_block_upper

from oracles import bracket_by_products, flag_condition_by_scan, in_algebra_by_products, rank_by_rational_elimination, sp4_triple


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


def test_gl_h_is_its_stated_diagonal_and_equals_ef_minus_fe():
    """h is written as the diagonal (1^m2, 0^(m1-m2), (-1)^m2), so the
    relation [e, f] = h is a check that can fail; here against e f - f e."""
    for n in range(2, 17):
        for m2 in range(1, n // 2 + 1):
            m1 = n - m2
            trip = build_gl_triple(m1, m2)
            diag = [1] * m2 + [0] * (m1 - m2) + [-1] * m2
            assert [list(row) for row in trip.h.rows] == [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            assert trip.h == trip.e @ trip.f - trip.f @ trip.e, (m1, m2)


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
                assert not any(bracket(trip.h_prime, trip.e).nz)


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
        assert centralizer_dim(trip.e, trip.model) == kind.levi_dim(levi)
        sheet = maximal_levi_sheet(kind, levi)
        assert (sheet.type_tag == 1) == (trip.h_prime is not None)
        assert trip.abelianization_value == sum(p - 1 for p in trip.plan.orbit.parts[: levi.blocks.parts[0]])


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
    assert cp1.coeffs[1] == Fraction(-5, 8)
    assert cp1.coeffs[3] == Fraction(9, 256)  # nonzero constant term: not in the sheet


def _flip_matrix() -> RationalMatrix:
    """The flip s as the permutation matrix P of σ = SP4_FLIP, P e_j = e_σ(j)."""
    return RationalMatrix([[int(SP4_FLIP[j] == i) for j in range(4)] for i in range(4)])


def test_sp4_flip_action():
    t = formal_t()
    assert sp4_flip_action(t) == sp4_slice(-t)
    assert sp4_flip_action(1) == sp4_slice(-1)
    assert sp4_flip_action(0) == sp4_slice(0)
    s = _flip_matrix()
    gram = sp4_model().form.gram
    assert s.transpose() @ gram @ s == gram  # s is symplectic
    assert sp4_flip_action(t, as_printed=True) == sp4_slice(-t, as_printed=True)


def test_sp4_flip_is_the_permutation_sigma():
    """Relabelling x_t by σ = SP4_FLIP is conjugation by its permutation
    matrix s and gives x_{-t}; the identity and (2, 3, 0, 1) do not, so the
    flip check tells σ from other permutations."""
    assert SP4_FLIP == (1, 0, 3, 2)
    s = _flip_matrix()
    for tv in (formal_t(), Fraction(3, 2), -2):
        for as_printed in (False, True):
            x = sp4_slice(tv, as_printed=as_printed)
            assert x.permuted(SP4_FLIP) == s @ x @ s.transpose() == sp4_slice(-tv, as_printed=as_printed)
            assert x.permuted((0, 1, 2, 3)) != sp4_slice(-tv, as_printed=as_printed)
            assert x.permuted((2, 3, 0, 1)) != sp4_slice(-tv, as_printed=as_printed)


def test_sp4_model_is_built_once():
    """One model per process: the one build_model shares for sp_4 and its
    default form (whose basis-size check runs at its first build), which is
    the unit symplectic form."""
    assert sp4_model() is sp4_model() is build_model(type_c(2))
    assert sp4_model() == build_model(type_c(2), sp_gram(4))


def test_sp4_slice_stabiliser_degeneration():
    """The quadratic-in-λ^2 discriminant of the slice's characteristic
    polynomial vanishes exactly at the nilpotent point t = 0."""
    for tv in (1, 2, Fraction(-3, 2)):
        cp = char_poly(sp4_slice(tv))
        a = cp.coeffs[1]  # μ^2 + aμ with μ = λ^2
        assert a * a != 0
    cp0 = char_poly(sp4_slice(0))
    assert cp0.coeffs[1] == 0


def test_gl_n_bound():
    with pytest.raises(ValueError, match="matrix size 65 is beyond the supported maximum 64"):
        build_gl_triple(33, 32)


def test_bcd_n_bound():
    with pytest.raises(ValueError, match="matrix size 65 is beyond the supported maximum 64"):
        build_bcd_triple(type_b(32), MaxLevi(1, 63))
    with pytest.raises(ValueError, match="matrix size 66 is beyond"):
        build_bcd_triple(type_c(33), MaxLevi(1, 32))


# --- faults the construction checks must catch -------------------------------------


def _failed_by_products(trip_fields):
    """Names of the failing checks, in the order of Sl2Triple.checks, each
    evaluated from its definition with plain products of dense entries."""
    e, h, f, model, flag_dims, hp = trip_fields
    br = bracket_by_products

    def member(x):
        return in_algebra_by_products(x, model)

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
        out += [("h' centralises e", not any(br(hp, e).nz)), ("h' in algebra", member(hp)), ("h' Levi-valued", levi(hp))]
    return [name for name, ok in out if not ok]


def _fields(trip, **changes):
    trip_fields = dict(e=trip.e, h=trip.h, f=trip.f, model=trip.model, flag_dims=trip.flag_dims, h_prime=trip.h_prime)
    trip_fields.update(changes)
    return tuple(trip_fields.values())


def _rebuilt(trip, **changes):
    """trip built again through the constructor, with some fields changed."""
    trip_fields = dict(
        e=trip.e, h=trip.h, f=trip.f, model=trip.model, flag_dims=trip.flag_dims,
        abelianization_value=trip.abelianization_value, h_prime=trip.h_prime, plan=trip.plan, label=trip.label,
    )
    trip_fields.update(changes)
    return Sl2Triple(**trip_fields)


def _plus_unit(x, r, c):
    return x + RationalMatrix.unit(x.dim, r, c).scale(Fraction(3, 7))


def _workload_triples(max_n):
    """Every GL and B/C/D maximal-Levi triple with matrices of size <= max_n,
    and the rank-2 symplectic one."""
    for n in range(2, max_n + 1):
        for m2 in range(1, n // 2 + 1):
            yield build_gl_triple(n - m2, m2)
    for kind, levi in all_bcd_cases(max_n):
        yield build_bcd_triple(kind, levi)
    yield sp4_triple()


def _moved_into(x, block):
    """x with its first nonzero entry moved to the top left of block."""
    rows = [list(r) for r in x.rows]
    r0, c0 = next((r, c) for r, row in enumerate(rows) for c, v in enumerate(row) if v != 0)
    value, rows[r0][c0] = rows[r0][c0], Fraction(0)
    rows[block[0]][block[1]] = value
    return RationalMatrix(rows)


def test_flag_conditions_match_a_dense_scan():
    """The flag conditions on e, h and h' of every triple with n <= 8 agree
    with a dense scan, and fail once one nonzero entry is moved into any
    block the condition forbids."""
    upper = (_strictly_block_upper, lambda br, bc: br < bc)
    diagonal = (_block_diagonal, lambda br, bc: br == bc)
    checked = 0
    for trip in _workload_triples(8):
        dims = trip.flag_dims
        starts = (0,) + dims[:-1]
        for x, (check, allowed) in ((trip.e, upper), (trip.h, diagonal), (trip.h_prime, diagonal)):
            if x is None:
                continue
            assert check(x, dims) is flag_condition_by_scan(x.rows, dims, allowed) is True
            for br in range(len(dims)):
                for bc in range(len(dims)):
                    if allowed(br, bc):
                        continue
                    moved = _moved_into(x, (starts[br], starts[bc]))
                    assert check(moved, dims) is flag_condition_by_scan(moved.rows, dims, allowed) is False
                    checked += 1
    assert checked >= 300


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
                _rebuilt(trip, **change)


def test_triple_with_halved_e_and_doubled_f_constructs():
    for trip in (build_gl_triple(3, 2), build_bcd_triple(type_c(3), MaxLevi(1, 2)), build_bcd_triple(type_b(3), MaxLevi(2, 3))):
        e_half, f_double = trip.e.scale(Fraction(1, 2)), trip.f.scale(2)
        scaled = _rebuilt(trip, e=e_half, f=f_double)
        assert not _failed_by_products(_fields(scaled))
        assert all(ok for _, ok, _ in scaled.checks())
        assert e_half.den == 2


def _failed_by_checks(trip_fields):
    """Names of the failing checks of Sl2Triple.checks on the fields, with no
    construction (which would raise on the first failure)."""
    e, h, f, model, flag_dims, hp = trip_fields
    fields = SimpleNamespace(e=e, h=h, f=f, model=model, flag_dims=flag_dims, h_prime=hp, abelianization_value=1)
    return [name for name, ok, _ in Sl2Triple.checks(fields) if not ok]


def test_checks_agree_with_the_product_oracle_under_faults():
    """For every triple with n <= 8, each single fault fails exactly the
    checks that matrix products say it fails: 3/7 added at a corner, on the
    diagonal or on a nonzero entry of e, f, h or h' (which may leave every
    relation true: h' + (3/7) h' still centralises e); f doubled; and e
    halved with f doubled, which still passes."""
    faults_seen = 0
    for trip in _workload_triples(8):
        n = trip.e.dim
        changes = [{"f": trip.f.scale(2)}, {"e": trip.e.scale(Fraction(1, 2)), "f": trip.f.scale(2)}]
        for name in ("e", "f", "h", "h_prime"):
            x = getattr(trip, name)
            if x is None:
                continue
            first = next(((r, row[0][0]) for r, row in enumerate(x.nz) if row), (1, 0))
            for cell in {(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), first}:
                changes.append({name: _plus_unit(x, *cell)})
        for change in changes:
            fields = _fields(trip, **change)
            failed = _failed_by_products(fields)
            assert _failed_by_checks(fields) == failed, (trip.label, change)
            if not failed:
                _rebuilt(trip, **change)
                continue
            with pytest.raises(ValueError, match="failed check %s$" % re.escape(repr(failed[0]))):
                _rebuilt(trip, **change)
            faults_seen += 1
        assert not _failed_by_products(_fields(trip, **changes[1]))
    assert faults_seen >= 600


# --- shared models and plans ------------------------------------------------------


def _sheet_point_builds():
    """(build, diag) for every GL triple with n <= 14 and every B/C/D
    maximal-Levi triple with n <= 16: a builder of the triple and the
    diagonal of the unit direction of its Levi centre."""
    for n in range(2, 15):
        for m2 in range(1, n // 2 + 1):
            m1 = n - m2
            yield (lambda m1=m1, m2=m2: build_gl_triple(m1, m2)), [m2] * m1 + [-m1] * m2
    for kind, levi in all_bcd_cases(16):
        a, size = levi.blocks.parts[0], kind.matrix_size
        yield (lambda kind=kind, levi=levi: build_bcd_triple(kind, levi)), [1] * a + [0] * (size - 2 * a) + [-1] * a


def _dense_terms(terms, n):
    x = [[0] * n for _ in range(n)]
    for r, c, k in terms:
        x[r][c] += k
    return x


def _matmul(a, b):
    """a b of dense matrices by the plain triple loop, skipping zero factors."""
    out = [[0] * len(b[0]) for _ in a]
    for out_i, a_i in zip(out, a):
        for a_ik, b_k in zip(a_i, b):
            if a_ik:
                for j, v in enumerate(b_k):
                    if v:
                        out_i[j] += a_ik * v
    return out


def _linearised_condition(g):
    """The n^2 x n^2 matrix of x -> x^T G + G x on the entries x[p][q]
    (column p n + q), row i n + j for entry (i, j); the zero matrix in type A."""
    n = len(g)
    rows = [[0] * (n * n) for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            row = rows[i * n + j]
            for k in range(n):
                if g[k][j]:
                    row[k * n + i] += g[k][j]  # (x^T G)[i][j] holds x[k][i] G[k][j]
                if g[i][k]:
                    row[k * n + j] += g[i][k]  # (G x)[i][j] holds G[i][k] x[k][j]
    return rows


def _check_model_by_oracles(model):
    """Every basis element of the model solves x^T G + G x = 0 by dense
    Fraction products, the basis is independent, and its size is n^2 minus
    the rank of the linearised condition: so it is a basis of the algebra."""
    n = model.matrix_size
    g = [list(row) for row in model.form.gram.rows] if model.form else [[0] * n for _ in range(n)]
    dense = [_dense_terms(terms, n) for terms in model.terms]
    for x in dense:
        xt = [list(col) for col in zip(*x)]
        assert all(u + v == 0 for p, q in zip(_matmul(xt, g), _matmul(g, x)) for u, v in zip(p, q))
    assert rank_by_rational_elimination([sum(x, []) for x in dense]) == model.dimension
    assert model.dimension == n * n - rank_by_rational_elimination(_linearised_condition(g))


def test_shared_models_and_plans_give_the_answers_of_the_oracles():
    """On a warm cache every model that a sheet-points triple is checked in,
    gl_n with n <= 14 and each B/C/D Jordan-basis form with n <= 16, is a
    basis of its algebra by the oracles; and a triple built again equals
    the first build, with the same centraliser dimension and
    characteristic polynomial at one rational point z + e."""
    cases = list(_sheet_point_builds())
    firsts = [build() for build, _ in cases]
    models = {}
    z = Fraction(-355, 113)
    for (build, diag), first in zip(cases, firsts):
        again = build()
        assert again == first and again.model is first.model
        models[id(again.model)] = again.model
        x, y = (t.e + RationalMatrix.diagonal([z * v for v in diag]) for t in (first, again))
        assert centralizer_dim(x, first.model) == centralizer_dim(y, again.model)
        assert char_poly(x) == char_poly(y)
    models.update((id(m), m) for m in map(build_model, map(type_a, range(1, 15))))
    assert len(models) == 14 + 92  # gl_1 to gl_14, and one model per B/C/D form
    for model in models.values():
        _check_model_by_oracles(model)


def test_every_build_runs_the_checks_on_a_warm_cache(monkeypatch):
    """The models and plans are shared, the triples are not: once bracket_is
    reports [h,e] = 2e false, each later build of a triple whose model and
    plan are already cached still fails its check."""
    builds = [lambda: build_gl_triple(3, 2), lambda: build_bcd_triple(type_c(3), MaxLevi(1, 2)), lambda: build_bcd_triple(type_d(4), MaxLevi(2, 4))]
    for build in builds:
        build()
    relation = triples.bracket_is
    monkeypatch.setattr(triples, "bracket_is", lambda a, b, k, c: relation(a, b, k, c) and k != 2)
    for _ in range(3):
        for build in builds:
            with pytest.raises(ValueError, match=re.escape("failed check '[h,e] = 2e'")):
                build()
