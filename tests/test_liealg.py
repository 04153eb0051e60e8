import random
from fractions import Fraction

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
from sheet_atlas.scalars import RatPoly
from sheet_atlas.sheets import type_a, type_b, type_c, type_d, valid_max_levi_labels
from sheet_atlas.spectral import GradedPolynomial
from sheet_atlas.triples import build_bcd_triple, build_gl_triple, sp4_e, sp4_f, sp4_h, sp4_model, sp4_semisimple, sp4_slice

from oracles import charpoly_by_expansion, rank_by_rational_elimination


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
