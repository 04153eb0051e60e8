import random
from fractions import Fraction
from math import lcm

import pytest

from sheet_atlas.liealg import (
    ClassicalForm,
    RationalMatrix,
    bracket,
    build_model,
    centralizer_dim,
    char_poly,
    determinant,
    fraction_free_rank,
    in_algebra,
    so_gram,
    sp_gram,
)
from sheet_atlas.liealg import _form, _integer_form
from sheet_atlas.scalars import ZERO, ClearedGroups, RatPoly
from sheet_atlas.sheets import type_a, type_b, type_c, type_d, valid_max_levi_labels
from sheet_atlas.spectral import GradedPolynomial
from sheet_atlas.triples import build_bcd_triple, build_gl_triple, sp4_e, sp4_f, sp4_h, sp4_model, sp4_semisimple, sp4_slice

from oracles import charpoly_by_expansion, falling_factorial, rank_by_rational_elimination


def test_bracket_sp4_triple():
    e, h, f = sp4_e(), sp4_h(), sp4_f()
    assert bracket(e, f) == h
    assert bracket(h, e) == e.scale(2)
    assert bracket(h, f) == f.scale(-2)


def test_bracket_antisymmetry_and_mismatch():
    x = RationalMatrix([[1, 2], [3, 4]])
    assert bracket(x, x).is_zero()
    with pytest.raises(ValueError):
        bracket(x, RationalMatrix.identity(3))


def test_in_algebra_sp4():
    model = sp4_model()
    assert in_algebra(sp4_e(), model)
    assert not in_algebra(RationalMatrix.identity(4), model)
    t = RatPoly.variable()
    assert in_algebra(sp4_slice(t), model)  # symbolic in t


def test_centralizer_dims_table1():
    model = sp4_model()
    cases = [
        (RationalMatrix.diagonal([1, 2, -2, -1]), 2),
        (sp4_semisimple(1), 4),
        (RationalMatrix.diagonal([1, 1, -1, -1]), 4),
        (RationalMatrix.unit(4, 0, 3), 6),  # minimal nilpotent
        (RationalMatrix.zero(4), 10),
    ]
    for x, expected in cases:
        assert centralizer_dim(x, model) == expected


def test_centralizer_requires_membership():
    with pytest.raises(ValueError):
        centralizer_dim(RationalMatrix.identity(4), sp4_model())


def test_char_poly_examples():
    t = RatPoly.variable()
    x = RationalMatrix.diagonal([t, 0, 0, -t])
    assert char_poly(x) == GradedPolynomial([RatPoly([]), -(t * t), RatPoly([]), RatPoly([])])
    assert char_poly(RationalMatrix.zero(4)) == GradedPolynomial.monomial(4)
    assert char_poly(sp4_slice(t)) == GradedPolynomial([RatPoly([]), -(t * t), RatPoly([]), RatPoly([])])


def test_char_poly_against_cofactor_expansion():
    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        got = char_poly(RationalMatrix(rows)).dense()
        expected = charpoly_by_expansion(rows)
        expected = [Fraction(0)] * (n + 1 - len(expected)) + expected
        assert [Fraction(c) for c in got] == expected


def test_model_dimensions():
    assert build_model(type_a(3)).dimension == 9
    assert build_model(type_b(2), so_gram(5)).dimension == 10
    assert build_model(type_c(2), sp_gram(4)).dimension == 10
    assert build_model(type_c(3)).dimension == 21
    assert build_model(type_d(3)).dimension == 15
    assert build_model(type_d(4)).dimension == 28


def test_type_a_model_rejects_a_form():
    with pytest.raises(ValueError):
        build_model(type_a(3), so_gram(3))


def test_model_default_forms():
    model = build_model(type_b(3))
    assert model.form is not None and model.form.kind == "symmetric"
    model = build_model(type_c(2))
    assert model.form.kind == "antisymmetric"
    # every basis element satisfies the membership condition
    for b in model.basis:
        assert in_algebra(b, model)


def test_jacobi_identity_random_triples():
    rng = random.Random(11)
    for model in (build_model(type_c(2)), build_model(type_b(2)), build_model(type_d(3)), build_model(type_c(4))):
        basis = model.basis
        for _ in range(10):
            a, b, c = (basis[rng.randrange(len(basis))] for _ in range(3))
            total = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
            assert total.is_zero()


def _nilpotent_basis_elements(model):
    out = []
    for b in model.basis:
        power = b
        for _ in range(model.matrix_size):
            power = power @ b
        if power.is_zero():
            out.append(b)
    return out


def _exp_nilpotent(x):
    n = x.dim
    out = RationalMatrix.identity(n)
    term = RationalMatrix.identity(n)
    k = 1
    while True:
        term = (term @ x).scale(Fraction(1, k))
        if term.is_zero():
            return out
        out = out + term
        k += 1


def test_centralizer_dim_ad_invariance():
    rng = random.Random(23)
    model = build_model(type_c(2))
    gram = model.form.gram
    nil = _nilpotent_basis_elements(model)
    x = sp4_semisimple(1)
    base = centralizer_dim(x, model)
    for _ in range(20):
        g = RationalMatrix.identity(4)
        for _ in range(2):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            g = g @ _exp_nilpotent(nil[rng.randrange(len(nil))].scale(c))
        # g preserves the form, so conjugation stays inside the algebra
        assert g.transpose() @ gram @ g == gram
        ginv = _inverse_unipotent_product(g)
        conj = g @ x @ ginv
        assert in_algebra(conj, model)
        assert centralizer_dim(conj, model) == base


def _inverse_unipotent_product(g):
    # exact inverse: solve g * y = I by Gauss-Jordan on the augmented matrix
    n = g.dim
    aug = [[Fraction(g.rows[i][j]) for j in range(n)] + [Fraction(int(i == k)) for k in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return RationalMatrix([row[n:] for row in aug])


def test_fraction_free_rank_matches_rational_elimination():
    rng = random.Random(3)
    for _ in range(30):
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)] for _ in range(5)]
        assert fraction_free_rank(rows) == rank_by_rational_elimination(rows)
        ints = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)]
        assert fraction_free_rank(ints) == rank_by_rational_elimination([[Fraction(v) for v in r] for r in ints])


def test_classical_form_validation():
    with pytest.raises(ValueError):
        ClassicalForm("symmetric", RationalMatrix([[0, 1], [-1, 0]]))
    with pytest.raises(ValueError):
        ClassicalForm("antisymmetric", RationalMatrix([[0, 0], [0, 0]]))
    assert determinant(so_gram(4).gram) in (Fraction(1), Fraction(-1))


def test_determinant_against_cofactor_expansion():
    rng = random.Random(1303)
    values = set()
    for trial in range(60):
        n = rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 999)) for _ in range(n)] for _ in range(n)]
        if trial % 4 == 0 and n > 1:
            rows[-1] = list(rows[rng.randrange(n - 1)])
        expected = (-1) ** n * charpoly_by_expansion(rows)[-1]
        got = determinant(RationalMatrix(rows))
        assert got == expected
        values.add(got)
    assert 0 in values and len(values - {0, 1, -1}) > 40
    t = RatPoly.variable()
    assert determinant(RationalMatrix([[RatPoly.constant(2), 1], [0, Fraction(1, 3)]])) == Fraction(2, 3)
    with pytest.raises(ValueError):
        determinant(RationalMatrix([[t, 1], [0, 0]]))


def test_matrix_json_roundtrip():
    t = RatPoly.variable()
    x = sp4_slice(t)
    assert RationalMatrix.from_json(x.to_json()) == x
    y = RationalMatrix.diagonal([Fraction(1, 2), -2])
    assert RationalMatrix.from_json(y.to_json()) == y


# --- the integer kernel against the independent oracles -------------------------


def _oracle_centralizer_dim(x, model):
    """dim minus the rank of the dense bracket columns, by rational elimination."""
    columns = [bracket(x, b) for b in model.basis]
    n = x.dim
    rows = [[Fraction(col.rows[i][j]) for col in columns] for i in range(n) for j in range(n)]
    return model.dimension - rank_by_rational_elimination(rows)


def _check_against_oracles(x, model):
    assert centralizer_dim(x, model) == _oracle_centralizer_dim(x, model)
    if x.dim <= 6:
        expected = charpoly_by_expansion([[Fraction(v) for v in row] for row in x.rows])
        assert [Fraction(c) for c in char_poly(x).dense()] == expected


def _random_rational(rng):
    return Fraction(rng.randint(-999, 999), rng.randint(1, 999))


def _random_element(rng, model, terms):
    """A rational combination of `terms` basis elements.  Coefficients come
    either from a wide range with denominators up to 999, or from a small
    pool, so that eigenvalues coincide and centralisers grow."""
    pool = [Fraction(1, 3), Fraction(-1, 3), Fraction(5, 7)]
    x = RationalMatrix.zero(model.matrix_size)
    for b in rng.sample(model.basis, terms):
        c = _random_rational(rng) if rng.random() < 0.5 else rng.choice(pool)
        x = x + b.scale(c)
    return x


def _small_models():
    kinds = [type_a(n) for n in range(1, 9)]
    kinds += [type_b(r) for r in range(1, 4)]
    kinds += [type_c(r) for r in range(1, 5)]
    kinds += [type_d(r) for r in range(2, 5)]
    return [build_model(k) for k in kinds]


def test_integer_kernel_random_elements_against_oracles():
    rng = random.Random(17)
    for model in _small_models():
        n = model.matrix_size
        # dense elements only where the rational-elimination oracle stays quick
        sizes = [1, 2, 3, model.dimension] if n <= 5 else [1, 2, 3, 5]
        for terms in sizes:
            for _ in range(2):
                x = _random_element(rng, model, min(terms, model.dimension))
                assert in_algebra(x, model)
                _check_against_oracles(x, model)
        _check_against_oracles(RationalMatrix.zero(n), model)
        assert centralizer_dim(RationalMatrix.zero(n), model) == model.dimension
        if model.form is None:
            scalar = RationalMatrix.identity(n).scale(_random_rational(rng))
            _check_against_oracles(scalar, model)
            assert centralizer_dim(scalar, model) == model.dimension


def test_integer_kernel_triple_nilpotents_against_oracles():
    rng = random.Random(29)
    triples = [build_gl_triple(n - m2, m2) for n in range(2, 9) for m2 in range(1, n // 2 + 1)]
    for kind in [type_b(r) for r in (1, 2, 3)] + [type_c(r) for r in (1, 2, 3, 4)] + [type_d(r) for r in (2, 3, 4)]:
        triples += [build_bcd_triple(kind, levi) for levi in valid_max_levi_labels(kind)]
    assert len(triples) > 20
    for trip in triples:
        _check_against_oracles(trip.e, trip.model)
        # the triples' own Gram matrices carry signs, so their bases have
        # coefficient -1 terms
        _check_against_oracles(_random_element(rng, trip.model, 2), trip.model)


def test_generic_gram_model():
    gram = RationalMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 1]])
    model = build_model(type_b(1), ClassicalForm("symmetric", gram))
    assert model.dimension == 3
    sizes = sorted(sum(1 for row in b.rows for v in row if v) for b in model.basis)
    assert min(sizes) >= 3 and max(sizes) <= 4
    for b, terms in zip(model.basis, model.sparse_basis):
        assert in_algebra(b, model)
        # each sparse element is a nonzero integer multiple of its basis element
        (r0, c0, k0) = terms[0]
        ratio = Fraction(k0) / b.rows[r0][c0]
        scaled = b.scale(ratio)
        assert all(isinstance(k, int) for _, _, k in terms)
        assert {(r, c): Fraction(k) for r, c, k in terms} == {
            (r, c): v for r, row in enumerate(scaled.rows) for c, v in enumerate(row) if v
        }
        _check_against_oracles(b, model)
    rng = random.Random(41)
    for terms in (1, 2, 3, 3):
        _check_against_oracles(_random_element(rng, model, terms), model)
    assert centralizer_dim(RationalMatrix.zero(3), model) == 3


def test_constant_polynomial_entries_match_fractions():
    rng = random.Random(53)
    for model in (build_model(type_a(3)), build_model(type_c(2)), build_model(type_b(2))):
        for terms in (1, 3, model.dimension):
            x = _random_element(rng, model, terms)
            as_poly = RationalMatrix([[RatPoly.constant(v) for v in row] for row in x.rows])
            assert char_poly(as_poly) == char_poly(x)
            assert centralizer_dim(as_poly, model) == centralizer_dim(x, model)
    t = RatPoly.variable()
    with pytest.raises(ValueError):
        centralizer_dim(sp4_slice(t), sp4_model())
    with pytest.raises(ValueError):
        centralizer_dim(RationalMatrix.diagonal([t, 0, Fraction(1, 2)]), build_model(type_a(3)))


# --- the integer bracket, membership and Q[t] char poly against their definitions


def _bracket_by_products(a, b):
    return a @ b - b @ a


def _in_algebra_by_products(x, model):
    if model.form is None:
        return True
    gram = model.form.gram
    return (x.transpose() @ gram + gram @ x).is_zero()


def _generic_gram_model():
    return build_model(type_b(1), ClassicalForm("symmetric", RationalMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 1]])))


def _outside_element(rng, n):
    """A sparse matrix with denominators up to 999, usually outside so/sp."""
    x = RationalMatrix.zero(n)
    for _ in range(rng.randint(1, 3)):
        x = x + RationalMatrix.unit(n, rng.randrange(n), rng.randrange(n), _random_rational(rng))
    return x


def test_integer_bracket_and_membership_against_products():
    rng = random.Random(61)
    for model in _small_models() + [_generic_gram_model()]:
        n = model.matrix_size
        scalar = RationalMatrix.identity(n).scale(_random_rational(rng) or 1)  # never in so or sp
        elements = [RationalMatrix.zero(n), scalar, _outside_element(rng, n), _outside_element(rng, n)]
        for terms in (1, 2, 3, model.dimension):
            elements += [_random_element(rng, model, min(terms, model.dimension)) for _ in range(2)]
        elements.append(RationalMatrix([[RatPoly.constant(v) for v in row] for row in elements[-1].rows]))
        seen_outside = False
        for x in elements:
            member = in_algebra(x, model)
            assert member == _in_algebra_by_products(x, model)
            seen_outside |= not member
            y = elements[rng.randrange(len(elements))]
            got = bracket(x, y)
            assert got == _bracket_by_products(x, y)
            assert all(isinstance(v, Fraction) for row in got.rows for v in row)
        assert seen_outside == (model.form is not None)
    with pytest.raises(ValueError):
        in_algebra(RationalMatrix.zero(3), build_model(type_c(2)))
    with pytest.raises(ValueError):
        bracket(RationalMatrix.identity(2), RationalMatrix.zero(3))


def test_bracket_and_membership_over_qt_use_products():
    t = RatPoly.variable()
    model = sp4_model()
    x = sp4_slice(t)
    assert bracket(x, sp4_e()) == _bracket_by_products(x, sp4_e())
    assert bracket(sp4_h(), x) == _bracket_by_products(sp4_h(), x)
    assert in_algebra(x, model)
    assert not in_algebra(RationalMatrix.diagonal([t, t, 0, 0]), model)


def test_integer_form_is_computed_once_per_matrix(monkeypatch):
    rng = random.Random(67)
    model = build_model(type_c(3))
    x = _random_element(rng, model, 4)
    first = _integer_form(x)
    d, rows = first
    assert d == lcm(*(v.denominator for row in x.rows for v in row))
    assert [[(j, Fraction(v, d)) for j, v in row] for row in rows] == [
        [(j, v) for j, v in enumerate(row) if v] for row in x.rows
    ]
    centralizer_dim(x, model)
    char_poly(x)
    bracket(x, model.basis[0])
    assert in_algebra(x, model)
    assert _integer_form(x) is first

    # a matrix over Q[t] is cleared once too, and every later call, alone or
    # beside a rational matrix, reads the cached form
    t = RatPoly.variable()
    xt = sp4_slice(t)
    assert _integer_form(xt) is None
    qt_first = _form(xt)
    cleared, nz = qt_first
    assert nz == [[(j, v) for j, v in enumerate(row) if v] for row in xt.rows]
    for t0 in range(4):
        values = iter(cleared.at(t0)[0])
        assert [[(j, Fraction(next(values), cleared.dens[0])) for j, _ in row] for row in nz] == [
            [(j, v(t0) if isinstance(v, RatPoly) else v) for j, v in row] for row in nz
        ]
    clearings = []
    init = ClearedGroups.__init__

    def counted(self, groups):
        clearings.append([v for group in groups for v in group])
        init(self, groups)

    monkeypatch.setattr(ClearedGroups, "__init__", counted)
    e = sp4_e()
    assert char_poly(xt) == char_poly(sp4_slice(t))
    assert bracket(xt, e) == _bracket_by_products(xt, e)
    assert bracket(e, xt) == _bracket_by_products(e, xt)
    assert bracket(xt, xt).is_zero()
    assert in_algebra(xt, sp4_model())
    assert _integer_form(xt) is None
    assert _form(xt) is qt_first
    # the only matrices cleared again are the fresh sp4_slice(t) and, in the
    # mixed brackets, the integer rows of e
    assert sum(any(isinstance(v, RatPoly) for v in group) for group in clearings) == 1


def test_sums_and_differences_entrywise():
    """a + b and a - b against scalar arithmetic, entry by entry, on
    rational and Q[t] entries; where both entries are zero the result holds
    the shared ZERO."""
    rng = random.Random(73)

    def entry():
        r = rng.random()
        if r < 0.3:
            return Fraction(0)
        if r < 0.4:
            return RatPoly([])
        if r < 0.7:
            return _random_rational(rng)
        return RatPoly([_random_rational(rng) for _ in range(rng.randint(1, 4))])

    for trial in range(60):
        n = rng.randint(1, 8)
        a = RationalMatrix([[entry() for _ in range(n)] for _ in range(n)])
        b = RationalMatrix([[entry() for _ in range(n)] for _ in range(n)])
        total, difference = a + b, a - b
        for i in range(n):
            for j in range(n):
                u, v = a.entry(i, j), b.entry(i, j)
                assert total.entry(i, j) == u + v and difference.entry(i, j) == u - v
                if not u and not v:
                    assert total.entry(i, j) is ZERO and difference.entry(i, j) is ZERO


def test_char_poly_over_qt_against_cofactor_expansion():
    rng = random.Random(71)
    t = RatPoly.variable()

    def entry():
        r = rng.random()
        if r < 0.3:
            return Fraction(0)
        if r < 0.5:
            return _random_rational(rng)
        return RatPoly([_random_rational(rng) for _ in range(rng.randint(1, 4))])

    for trial in range(40):
        n = rng.randint(1, 6)
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        rows[rng.randrange(n)][rng.randrange(n)] = t * _random_rational(rng) + 1
        got = char_poly(RationalMatrix(rows))
        expected = charpoly_by_expansion(rows)
        expected = [Fraction(0)] * (n + 1 - len(expected)) + expected
        assert got.dense() == expected
        assert all(isinstance(c, RatPoly) and c.symbol == "t" for c in got.coeffs)
    s = RatPoly.variable("s")
    with pytest.raises(ValueError):
        char_poly(RationalMatrix([[t, 1], [0, s]]))


# --- Q[t] by specialisation: every degree bound at its edge ------------------------


def _companion(coeffs):
    """Companion matrix of λ^n + c_1 λ^(n-1) + ... + c_n (so its char poly)."""
    n = len(coeffs)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = Fraction(1)
    for i, c in enumerate(coeffs):
        rows[n - 1 - i][n - 1] = -Fraction(c)
    return rows


def _expanded(rows):
    n = len(rows)
    expected = charpoly_by_expansion(rows)
    return [Fraction(0)] * (n + 1 - len(expected)) + expected


def test_char_poly_specialisation_bound_is_met():
    # t^m times a companion matrix: a_k = t^(km) c_k, so a_n has t-degree
    # exactly n m, the bound
    t = RatPoly.variable()
    rng = random.Random(83)
    for n in range(1, 6):
        for m in (1, 2, 3):
            coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7)) for _ in range(n)]
            rows = [[(t**m) * v if v else v for v in row] for row in _companion(coeffs)]
            got = char_poly(RationalMatrix(rows))
            assert got.dense() == _expanded(rows)
            assert got.coefficient(n).degree() == n * m
            assert got == GradedPolynomial([c * t ** (k * m) for k, c in enumerate(coeffs, start=1)])
    # diag(r_1, ..., r_n) with r_k vanishing on consecutive blocks of m
    # integers: a_n = ±t(t-1)...(t-nm+1) is zero at every sample point but
    # the last
    for n in range(1, 5):
        for m in (1, 2):
            x = RationalMatrix.diagonal([falling_factorial(t, k * m, m) / (k + 2) for k in range(n)])
            got = char_poly(x)
            assert got.dense() == _expanded(x.rows)
            a_n = got.coefficient(n)
            assert a_n.degree() == n * m and all(a_n(i) == 0 for i in range(n * m)) and a_n(n * m) != 0
            for t0 in (Fraction(1, 3), Fraction(-7, 2)):
                at_t0 = RationalMatrix([[v(t0) if isinstance(v, RatPoly) else v for v in row] for row in x.rows])
                assert [c(t0) for c in got.coeffs] == _expanded(at_t0.rows)[1:]


def test_bracket_and_membership_specialisation_bounds_are_met():
    t = RatPoly.variable()
    model = sp4_model()
    for ma, mb in ((1, 1), (1, 3), (2, 2), (3, 1)):
        # [r_a E_01, r_b E_10] = r_a r_b (E_00 - E_11), of t-degree ma + mb
        # and zero at every sample point but the last
        ra, rb = falling_factorial(t, 0, ma) * Fraction(2, 3), falling_factorial(t, ma, mb) * Fraction(-5, 7)
        a = RationalMatrix.unit(3, 0, 1, ra) + RationalMatrix.unit(3, 2, 2, t**ma)
        b = RationalMatrix.unit(3, 1, 0, rb) + RationalMatrix.unit(3, 2, 1, Fraction(1, 9))
        got = bracket(a, b)
        assert got == _bracket_by_products(a, b)
        assert got.rows[0][0] == ra * rb and got.rows[0][0].degree() == ma + mb
        assert all(isinstance(v, RatPoly) for row in got.rows for v in row)
        # r_m times sp4 elements (members) and times the identity (defect
        # 2 r_m J, zero at every sample point but the last)
        r = falling_factorial(t, 0, ma) / 4
        for x in (sp4_e().scale(r) + sp4_h().scale(t**ma), RationalMatrix.identity(4).scale(r), sp4_slice(t).scale(r)):
            assert in_algebra(x, model) == _in_algebra_by_products(x, model)
        assert not in_algebra(RationalMatrix.identity(4).scale(r), model)
        assert in_algebra(sp4_slice(t).scale(r), model)
