import random
import tracemalloc
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from sheet_atlas.liealg import (
    ClassicalForm,
    RationalMatrix,
    bracket,
    bracket_is,
    build_model,
    centralizer_dim,
    char_poly,
    determinant,
    fraction_free_rank,
    in_algebra,
    so_gram,
    sp_gram,
)
from sheet_atlas.liealg import LieAlgebraModel, SparseRow, _integer_nullspace, _model
from sheet_atlas.scalars import ZERO, RatPoly
from sheet_atlas.sheets import GroupKind, MaxLevi, type_a, type_b, type_c, type_d, valid_max_levi_labels
from sheet_atlas.spectral import GradedPolynomial
from sheet_atlas.triples import build_bcd_triple, build_gl_triple, sp4_e, sp4_model, sp4_slice

from oracles import (
    bracket_by_products,
    charpoly_by_expansion,
    convolve_fractions,
    dense_basis,
    dense_product,
    expand_roots,
    falling_factorial,
    form_condition_rows,
    in_algebra_by_products,
    monomial_stabiliser_pairs,
    nullspace_by_full_back_substitution,
    rank_by_rational_elimination,
    sp4_f,
    sp4_h,
    sparse_rows,
    value_at,
)
from test_spectral import divide


def test_bracket_sp4_triple():
    e, h, f = sp4_e(), sp4_h(), sp4_f()
    assert bracket(e, f) == h
    assert bracket(h, e) == e.scale(2)
    assert bracket(h, f) == f.scale(-2)


def test_bracket_antisymmetry_and_mismatch():
    x = RationalMatrix([[1, 2], [3, 4]])
    assert not any(bracket(x, x).nz)
    with pytest.raises(ValueError):
        bracket(x, RationalMatrix.diagonal([1] * 3))


def test_in_algebra_sp4():
    model = sp4_model()
    assert in_algebra(sp4_e(), model)
    assert not in_algebra(RationalMatrix.diagonal([1] * 4), model)
    t = RatPoly.variable()
    assert in_algebra(sp4_slice(t), model)  # symbolic in t


def test_centralizer_dims_table1():
    model = sp4_model()
    cases = [
        (RationalMatrix.diagonal([1, 2, -2, -1]), 2),
        (RationalMatrix.diagonal([1, 0, 0, -1]), 4),  # diag(t, 0, 0, -t) at t = 1
        (RationalMatrix.diagonal([1, 1, -1, -1]), 4),
        (RationalMatrix.unit(4, 0, 3), 6),  # minimal nilpotent
        (RationalMatrix.diagonal([0] * 4), 10),
    ]
    for x, expected in cases:
        assert centralizer_dim(x, model) == expected


def test_centralizer_requires_membership():
    with pytest.raises(ValueError):
        centralizer_dim(RationalMatrix.diagonal([1] * 4), sp4_model())


def test_char_poly_examples():
    t = RatPoly.variable()
    x = RationalMatrix.diagonal([t, 0, 0, -t])
    assert char_poly(x) == GradedPolynomial([RatPoly([]), -(t * t), RatPoly([]), RatPoly([])])
    assert char_poly(RationalMatrix.diagonal([0] * 4)) == GradedPolynomial([0] * 4)
    assert char_poly(sp4_slice(t)) == GradedPolynomial([RatPoly([]), -(t * t), RatPoly([]), RatPoly([])])


def test_char_poly_against_cofactor_expansion():
    rng = random.Random(5)
    for n in (2, 3, 4, 5):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        got = char_poly(RationalMatrix(rows)).dense()
        expected = charpoly_by_expansion(rows)
        expected = [Fraction(0)] * (n + 1 - len(expected)) + expected
        assert [Fraction(c) for c in got] == expected


def _char_poly_and_determinant_match_expansion(x):
    """char_poly(x) against cofactor expansion, and over Q the determinant
    against (-1)^n times its constant term."""
    n = x.dim
    expected = charpoly_by_expansion([list(r) for r in x.rows])
    assert len(expected) == n + 1
    assert char_poly(x).dense() == expected
    if x.symbol is None:
        assert determinant(x) == (-1) ** n * expected[-1]


def _sparse_entry(rng, kind):
    if rng.random() < 0.55:
        return 0
    if kind == "int":
        return rng.randint(-9, 9)
    if kind == "rational" or rng.random() < 0.5:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return RatPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))])


def test_char_poly_kernel_edge_cases():
    """The trimmed trace recursion takes its first step without a product
    and its last as a trace alone; they meet at n = 2, and n = 1 takes
    neither.  Small sizes, empty and singleton rows, diagonal and triangular
    matrices up to n = 6, and seeded sparse integer, rational and Q[t] ones
    up to n = 7, against cofactor expansion."""
    t = RatPoly.variable()
    cases = [RationalMatrix([[a]]) for a in (0, 3, Fraction(-2, 5), t, t * t - 1)]
    cases += [RationalMatrix(rows) for rows in ([[1, 2], [3, 4]], [[0, 1], [0, 0]], [[Fraction(1, 2), 0], [t, -1]])]
    cases += [RationalMatrix([[2, 1, 0], [0, 0, 0], [5, Fraction(1, 3), -1]]), RationalMatrix([[0, 0, 0], [1, 2, 3], [t, 0, 1]])]
    for n in range(1, 7):
        shift = [[int(j == i + 1) for j in range(n)] for i in range(n)]
        perm = [[Fraction(i + 2, 3) if j == (i * 3 + 1) % n else 0 for j in range(n)] for i in range(n)]
        cases += [RationalMatrix(shift), RationalMatrix(perm), RationalMatrix.diagonal([Fraction(i - 2, i + 1) for i in range(n)])]
        upper = [[Fraction(i + j + 1, j + 2) if j >= i else 0 for j in range(n)] for i in range(n)]
        cases += [RationalMatrix(upper), RationalMatrix(upper).transpose()]
        empty_row = [[Fraction(i * n + j - 3, 2) if i != n // 2 else 0 for j in range(n)] for i in range(n)]
        cases.append(RationalMatrix(empty_row))
    rng = random.Random(4241)
    for n in range(1, 8):
        for kind in ("int", "rational", "qt"):
            drawn = 0
            while drawn < (3 if n < 7 else 1):
                x = RationalMatrix([[_sparse_entry(rng, kind) for _ in range(n)] for _ in range(n)])
                if (x.symbol is not None) == (kind == "qt"):
                    cases.append(x)
                    drawn += 1
    for x in cases:
        _char_poly_and_determinant_match_expansion(x)


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


def test_model_refuses_a_form_of_the_wrong_symmetry():
    """D keeps a symmetric form and C an antisymmetric one: the other kind
    is refused before anything is solved."""
    with pytest.raises(ValueError, match="must be symmetric, not antisymmetric"):
        build_model(type_d(2), sp_gram(4))
    with pytest.raises(ValueError, match="must be antisymmetric, not symmetric"):
        build_model(type_c(2), so_gram(4))


def test_model_refuses_a_group_without_a_matrix_size():
    """F4 has no matrix size, so no cells to hold terms: refused with or
    without terms, before any term is read."""
    for terms in ((), (((0, 0, 1),),)):
        with pytest.raises(ValueError, match="no matrix size"):
            LieAlgebraModel(GroupKind("F4"), None, terms)


def test_model_default_forms():
    model = build_model(type_b(3))
    assert model.form is not None and model.form.kind == "symmetric"
    model = build_model(type_c(2))
    assert model.form.kind == "antisymmetric"
    # every basis element satisfies the membership condition
    for b in dense_basis(model):
        assert in_algebra(b, model)


def test_jacobi_identity_random_triples():
    rng = random.Random(11)
    for model in (build_model(type_c(2)), build_model(type_b(2)), build_model(type_d(3)), build_model(type_c(4))):
        basis = dense_basis(model)
        for _ in range(10):
            a, b, c = (basis[rng.randrange(len(basis))] for _ in range(3))
            total = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
            assert not any(total.nz)


def _nilpotent_basis_elements(model):
    out = []
    for b in dense_basis(model):
        power = b
        for _ in range(model.matrix_size):
            power = power @ b
        if not any(power.nz):
            out.append(b)
    return out


def _exp_nilpotent(x):
    n = x.dim
    out = RationalMatrix.diagonal([1] * n)
    term = RationalMatrix.diagonal([1] * n)
    k = 1
    while True:
        term = (term @ x).scale(Fraction(1, k))
        if not any(term.nz):
            return out
        out = out + term
        k += 1


def test_centralizer_dim_ad_invariance():
    rng = random.Random(23)
    model = build_model(type_c(2))
    gram = model.form.gram
    nil = _nilpotent_basis_elements(model)
    x = RationalMatrix.diagonal([1, 0, 0, -1])
    base = centralizer_dim(x, model)
    for _ in range(20):
        g = RationalMatrix.diagonal([1] * 4)
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


def _cleared(rows):
    """Each row of Fractions times the lcm of its denominators, as the
    SparseRows of ints fraction_free_rank takes, spanning the same space row
    by row."""
    return sparse_rows([[int(v * lcm(*(u.denominator for u in row))) for v in row] for row in rows])


def test_fraction_free_rank_matches_rational_elimination():
    rng = random.Random(3)
    for _ in range(30):
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)] for _ in range(5)]
        assert fraction_free_rank(_cleared(rows)) == rank_by_rational_elimination(rows)
        ints = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)]
        assert fraction_free_rank(sparse_rows(ints)) == rank_by_rational_elimination([[Fraction(v) for v in r] for r in ints])


def _rank_oracle(rows):
    return rank_by_rational_elimination([[Fraction(v) for v in row] for row in rows])


def _ad_like_rows(rng, n):
    """n^2 rows in n^2 columns with O(n) small nonzeros each, as the rows of
    ad x are, and some rows planted as combinations of two others, so the
    rank is below n^2."""
    rows = []
    for _ in range(n * n):
        row = [0] * (n * n)
        for _ in range(rng.randint(0, 2 * n)):
            row[rng.randrange(n * n)] = rng.choice([-3, -2, -1, 1, 1, 2, 5])
        rows.append(row)
    half = n * n // 2
    for _ in range(rng.randint(1, n)):
        # sources in the first half, never overwritten, targets in the second
        i, j, k = rng.randrange(half), rng.randrange(half), rng.randrange(half, n * n)
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        rows[k] = [a * u + b * v for u, v in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


def test_fraction_free_rank_on_sparse_ad_like_rows():
    rng = random.Random(101)
    ranks = set()
    for trial in range(40):
        n = rng.randint(2, 6)
        rows = _ad_like_rows(rng, n)
        expected = _rank_oracle(rows)
        assert fraction_free_rank(sparse_rows(rows)) == expected
        ranks.add((n, expected))
        # the rank ignores the order of the rows and how they are scaled
        scaled = [[k * v for v in row] for k, row in zip(rng.choices([-6, -1, 2, 7], k=len(rows)), reversed(rows))]
        assert fraction_free_rank(sparse_rows(scaled)) == expected
    # the planted rows make every rank deficient, by varying amounts
    assert all(r < n * n for n, r in ranks) and len({n * n - r for n, r in ranks}) > 5


def test_fraction_free_rank_on_dense_rows_with_large_entries():
    rng = random.Random(103)
    for trial in range(30):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.randint(-10**6, 10**6) for _ in range(ncols)] for _ in range(nrows)]
        if trial % 3 == 0 and nrows > 2:
            # a planted dependency, and a row with a large common factor
            rows[-1] = [3 * u - 5 * v for u, v in zip(rows[0], rows[1])]
            rows[-2] = [999983 * v for v in rows[-2]]
        assert fraction_free_rank(sparse_rows(rows)) == _rank_oracle(rows)


def test_fraction_free_rank_edge_shapes():
    rng = random.Random(107)
    assert fraction_free_rank([]) == 0
    assert fraction_free_rank(sparse_rows([[0, 0, 0], [0, 0, 0]])) == 0
    assert fraction_free_rank(sparse_rows([[0], [0]])) == 0
    assert fraction_free_rank(sparse_rows([[5]])) == 1
    assert fraction_free_rank(sparse_rows([[0], [-7], [3]])) == 1
    assert fraction_free_rank(_cleared([[Fraction(0)] * 4, [Fraction(1, 3), 0, 0, Fraction(-2, 7)]])) == 1
    assert fraction_free_rank(_cleared([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)]])) == 1
    for _ in range(20):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.4 else Fraction(0) for _ in range(5)] for _ in range(rng.randint(1, 6))]
        rows.append([0] * 5)
        assert fraction_free_rank(_cleared(rows)) == rank_by_rational_elimination(rows)


def _workload_points():
    """(x = z + e, model, dim L) for the triples of the sheet-points cases
    with n <= 8, z on the Levi centre at a few scales (z = 0 gives e)."""
    cases = []
    for n in range(2, 9):
        for m1 in range((n + 1) // 2, n):
            m2 = n - m1
            cases.append((build_gl_triple(m1, m2), [m2] * m1 + [-m1] * m2, m1 * m1 + m2 * m2))
    for kind in [type_b(r) for r in (1, 2, 3)] + [type_c(r) for r in (1, 2, 3, 4)] + [type_d(r) for r in (2, 3, 4)]:
        for levi in valid_max_levi_labels(kind):
            trip = build_bcd_triple(kind, levi)
            a, size = levi.blocks.parts[0], trip.e.dim
            cases.append((trip, [1] * a + [0] * (size - 2 * a) + [-1] * a, kind.levi_dim(levi)))
    for trip, diag, dim_l in cases:
        for c in (Fraction(0), Fraction(1), Fraction(-355, 113)):
            yield trip.e + RationalMatrix.diagonal([c * v for v in diag]), trip.model, (dim_l if c else None)


def test_centralizer_dim_at_workload_points_against_oracle():
    seen = 0
    for x, model, dim_l in _workload_points():
        got = centralizer_dim(x, model)
        assert got == _oracle_centralizer_dim(x, model)
        if dim_l is not None:
            # a generic point z + e of a Dixmier sheet has centraliser dim L
            assert got == dim_l
        seen += 1
    assert seen > 100


def test_classical_form_validation():
    with pytest.raises(ValueError):
        ClassicalForm("symmetric", RationalMatrix([[0, 1], [-1, 0]]))
    with pytest.raises(ValueError):
        ClassicalForm("antisymmetric", RationalMatrix([[0, 0], [0, 0]]))
    # G^T = ±G read on the cleared entries: a nonzero facing a zero, or a
    # nonzero diagonal entry of an antisymmetric matrix, fails either way
    t = RatPoly.variable()
    for kind, rows in [("symmetric", [[0, 1], [0, 0]]), ("antisymmetric", [[0, 0], [1, 0]]), ("antisymmetric", [[1, 0], [0, -1]]),
                       ("symmetric", [[0, t], [t + 1, 0]]), ("antisymmetric", [[0, t], [t, 0]])]:
        with pytest.raises(ValueError, match="symmetry"):
            ClassicalForm(kind, RationalMatrix(rows))
    ClassicalForm("antisymmetric", RationalMatrix([[0, Fraction(2, 3)], [Fraction(-2, 3), 0]]))
    assert determinant(so_gram(4).gram) in (Fraction(1), Fraction(-1))


def test_classical_form_monomial_and_general_gram_matrices():
    t = RatPoly.variable()
    # non-monomial and non-degenerate: accepted through the determinant
    ClassicalForm("symmetric", RationalMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 1]]))
    ClassicalForm("antisymmetric", RationalMatrix([[0, 1, 2, 0], [-1, 0, 0, 3], [-2, 0, 0, 1], [0, -3, -1, 0]]))
    # monomial with any nonzero rational entries: accepted by its shape
    ClassicalForm("symmetric", RationalMatrix([[0, 0, Fraction(2, 3)], [0, -5, 0], [Fraction(2, 3), 0, 0]]))
    ClassicalForm("antisymmetric", RationalMatrix([[0, 7, 0, 0], [-7, 0, 0, 0], [0, 0, 0, Fraction(-1, 2)], [0, 0, Fraction(1, 2), 0]]))
    degenerate = [
        ("symmetric", [[1, 1], [1, 1]]),
        ("symmetric", [[1, 2, 3], [2, 4, 6], [3, 6, 9]]),
        ("symmetric", [[0, 1, 1], [1, 0, 0], [1, 0, 0]]),
        ("antisymmetric", [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]),
        ("symmetric", [[1, 0], [0, 0]]),
    ]
    for kind, rows in degenerate:
        assert determinant(RationalMatrix(rows)) == 0
        with pytest.raises(ValueError, match="degenerate"):
            ClassicalForm(kind, RationalMatrix(rows))
    # monomial but of the wrong symmetry
    for kind, rows in [
        ("antisymmetric", so_gram(4).gram.rows),
        ("symmetric", sp_gram(4).gram.rows),
        ("symmetric", [[0, 2], [3, 0]]),
        ("antisymmetric", [[0, 1], [1, 0]]),
    ]:
        with pytest.raises(ValueError, match="symmetry"):
            ClassicalForm(kind, RationalMatrix(rows))
    # a Gram matrix must be rational, monomial or not
    for rows in ([[0, t], [t, 0]], [[t, 1], [1, 1]]):
        with pytest.raises(ValueError):
            ClassicalForm("symmetric", RationalMatrix(rows))


def test_model_basis_matches_terms():
    for model in _small_models() + [_generic_gram_model(), _unit_free_monomial_model()]:
        basis = dense_basis(model)
        assert model.dimension == len(model.terms) == len(basis)
        for b, terms in zip(basis, model.terms):
            # terms[i] names distinct cells with coprime nonzero ints, and
            # the dense matrix they make lies in the algebra
            cells = {(r, c): k for r, c, k in terms}
            assert len(cells) == len(terms) and all(k for k in cells.values())
            assert all(type(k) is int for k in cells.values()) and gcd(*cells.values()) == 1
            assert in_algebra(b, model) and in_algebra_by_products(b, model)


def test_models_of_one_kind_compare_equal():
    for kind in (type_a(4), type_b(2), type_c(3), type_d(3)):
        # the shared model, and one built again outside the cache
        first, second = build_model(kind), _model.__wrapped__(kind, None)
        assert first is build_model(kind) and first is not second
        assert first == second and hash(first) == hash(second)
    assert build_model(type_c(2)) != build_model(type_c(2), ClassicalForm("antisymmetric", sp_gram(4).gram.scale(2)))
    assert _generic_gram_model() == _generic_gram_model()
    assert _generic_gram_model() != build_model(type_b(1))


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
    assert determinant(RationalMatrix([[RatPoly([2]), 1], [0, Fraction(1, 3)]])) == Fraction(2, 3)
    with pytest.raises(ValueError):
        determinant(RationalMatrix([[t, 1], [0, 0]]))


# --- the integer kernel against the independent oracles -------------------------


def _oracle_centralizer_dim(x, model):
    """dim minus the rank of the dense bracket columns, by rational elimination."""
    columns = [bracket(x, b) for b in dense_basis(model)]
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
    x = RationalMatrix.diagonal([0] * model.matrix_size)
    for b in rng.sample(dense_basis(model), terms):
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
        _check_against_oracles(RationalMatrix.diagonal([0] * n), model)
        assert centralizer_dim(RationalMatrix.diagonal([0] * n), model) == model.dimension
        if model.form is None:
            scalar = RationalMatrix.diagonal([1] * n).scale(_random_rational(rng))
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
    basis = dense_basis(model)
    sizes = sorted(sum(1 for row in b.rows for v in row if v) for b in basis)
    assert min(sizes) >= 3 and max(sizes) <= 4
    for b, terms in zip(basis, model.terms):
        assert in_algebra(b, model)
        assert all(type(k) is int for _, _, k in terms) and gcd(*(k for _, _, k in terms)) == 1
        _check_against_oracles(b, model)
    rng = random.Random(41)
    for terms in (1, 2, 3, 3):
        _check_against_oracles(_random_element(rng, model, terms), model)
    assert centralizer_dim(RationalMatrix.diagonal([0] * 3), model) == 3


def _random_gram(rng, kind: str, n: int, rational: bool) -> ClassicalForm:
    """A seeded non-degenerate Gram matrix with a row of two or more nonzero
    entries, so that its conditions do not split into pairs of cells."""
    sign = 1 if kind == "symmetric" else -1
    while True:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i if sign == 1 else i + 1, n):
                if rng.random() < 0.6:
                    v = Fraction(rng.randint(-5, 5), rng.randint(1, 9) if rational else 1)
                    rows[i][j], rows[j][i] = v, sign * v
        if all(sum(1 for v in row if v) < 2 for row in rows):
            continue
        try:
            return ClassicalForm(kind, RationalMatrix(rows))
        except ValueError:  # degenerate
            continue


def test_generic_gram_models_against_dense_products():
    rng = random.Random(71)
    cases = [("symmetric", kind) for kind in (type_b(1), type_d(2), type_b(2), type_d(3))]
    cases += [("antisymmetric", kind) for kind in (type_c(2), type_c(3))]
    for form_kind, kind in cases:
        n = kind.matrix_size
        expected = n * (n - 1) // 2 if form_kind == "symmetric" else n * (n + 1) // 2
        for rational in (False, True, True):
            form = _random_gram(rng, form_kind, n, rational)
            model = build_model(kind, form)
            assert model.dimension == len(model.terms) == expected
            vectors = []
            for terms, b in zip(model.terms, dense_basis(model)):
                ks = [k for _, _, k in terms]
                assert all(type(k) is int for k in ks) and gcd(*ks) == 1
                assert in_algebra_by_products(b, model)
                vec = [Fraction(0)] * (n * n)
                for r, c, k in terms:
                    vec[r * n + c] = Fraction(k)
                vectors.append(vec)
            assert rank_by_rational_elimination(vectors) == expected


def test_centralizer_dim_on_generic_gram_models_against_oracle():
    """A model takes its basis from _integer_nullspace, whose vectors lead
    with their free column: the cell centralizer_dim reads each element at.
    For a form that is not monomial the conditions do not split into pairs
    of cells.  At seeded elements of such models, integer and rational
    forms alike, the centraliser dimension is the oracle's; elements from
    the small pool have larger centralisers."""
    rng = random.Random(79)
    cases = [("symmetric", kind) for kind in (type_b(1), type_d(2), type_b(2), type_d(3))]
    cases += [("antisymmetric", kind) for kind in (type_c(2), type_c(3))]
    dims = set()
    for form_kind, kind in cases:
        for rational in (False, True):
            model = build_model(kind, _random_gram(rng, form_kind, kind.matrix_size, rational))
            for terms in (1, 2, 3, model.dimension):
                x = _random_element(rng, model, min(terms, model.dimension))
                got = centralizer_dim(x, model)
                assert got == _oracle_centralizer_dim(x, model), (kind, rational, terms)
                dims.add((model.dimension, got))
    # regular elements (d the rank) and larger centralisers both occur
    assert {(3, 1), (6, 2), (10, 2), (15, 3), (21, 3)} <= dims and len(dims) > 8


def test_constant_polynomial_entries_match_fractions():
    rng = random.Random(53)
    for model in (build_model(type_a(3)), build_model(type_c(2)), build_model(type_b(2))):
        for terms in (1, 3, model.dimension):
            x = _random_element(rng, model, terms)
            as_poly = RationalMatrix([[RatPoly([v]) for v in row] for row in x.rows])
            assert char_poly(as_poly) == char_poly(x)
            assert centralizer_dim(as_poly, model) == centralizer_dim(x, model)
    t = RatPoly.variable()
    with pytest.raises(ValueError):
        centralizer_dim(sp4_slice(t), sp4_model())
    with pytest.raises(ValueError):
        centralizer_dim(RationalMatrix.diagonal([t, 0, Fraction(1, 2)]), build_model(type_a(3)))


# --- the integer bracket, membership and Q[t] char poly against their definitions


def _generic_gram_model():
    return build_model(type_b(1), ClassicalForm("symmetric", RationalMatrix([[2, 1, 0], [1, 2, 0], [0, 0, 1]])))


def _unit_free_monomial_model():
    """sp_4 for a monomial Gram matrix whose entries differ in size."""
    rows = [[0, 3, 0, 0], [-3, 0, 0, 0], [0, 0, 0, Fraction(1, 2)], [0, 0, Fraction(-1, 2), 0]]
    return build_model(type_c(2), ClassicalForm("antisymmetric", RationalMatrix(rows)))


def _outside_element(rng, n):
    """A sparse matrix with denominators up to 999, usually outside so/sp."""
    x = RationalMatrix.diagonal([0] * n)
    for _ in range(rng.randint(1, 3)):
        x = x + RationalMatrix.unit(n, rng.randrange(n), rng.randrange(n)).scale(_random_rational(rng))
    return x


def test_integer_bracket_and_membership_against_products():
    rng = random.Random(61)
    for model in _small_models() + [_generic_gram_model()]:
        n = model.matrix_size
        scalar = RationalMatrix.diagonal([1] * n).scale(_random_rational(rng) or 1)  # never in so or sp
        elements = [RationalMatrix.diagonal([0] * n), scalar, _outside_element(rng, n), _outside_element(rng, n)]
        for terms in (1, 2, 3, model.dimension):
            elements += [_random_element(rng, model, min(terms, model.dimension)) for _ in range(2)]
        elements.append(RationalMatrix([[RatPoly([v]) for v in row] for row in elements[-1].rows]))
        seen_outside = False
        for x in elements:
            member = in_algebra(x, model)
            assert member == in_algebra_by_products(x, model)
            seen_outside |= not member
            y = elements[rng.randrange(len(elements))]
            got = bracket(x, y)
            assert got == bracket_by_products(x, y)
            assert all(isinstance(v, Fraction) for row in got.rows for v in row)
            # the relation test's accumulated AB - BA, against the products
            assert bracket_is(x, y, 1, got) and bracket_is(x, y, 2, got) == (not any(got.nz))
        assert seen_outside == (model.form is not None)
    with pytest.raises(ValueError):
        in_algebra(RationalMatrix.diagonal([0] * 3), build_model(type_c(2)))
    with pytest.raises(ValueError):
        bracket(RationalMatrix.diagonal([1] * 2), RationalMatrix.diagonal([0] * 3))


def test_bracket_and_membership_over_qt_use_products():
    t = RatPoly.variable()
    model = sp4_model()
    x = sp4_slice(t)
    assert bracket(x, sp4_e()) == bracket_by_products(x, sp4_e())
    assert bracket(sp4_h(), x) == bracket_by_products(sp4_h(), x)
    assert in_algebra(x, model)
    assert not in_algebra(RationalMatrix.diagonal([t, t, 0, 0]), model)


def test_membership_of_every_unit_matrix_and_basis_element():
    """in_algebra against the dense products on every E_ij and every basis
    element, over Q and scaled by t over Q[t], in every B/C/D model with
    matrix size <= 6 and in the generic and unit-free Gram models.  With
    an antidiagonal form, G E_ij has one nonzero cell: on the diagonal (the
    middle index of type B, or a member of sp) or alone on either side of
    it."""
    t = RatPoly.variable()
    kinds = [type_b(1), type_b(2), type_c(1), type_c(2), type_c(3), type_d(2), type_d(3)]
    for model in [build_model(kind) for kind in kinds] + [_generic_gram_model(), _unit_free_monomial_model()]:
        n = model.matrix_size
        units = [RationalMatrix.unit(n, i, j) for i in range(n) for j in range(n)]
        answers = set()
        for x in units + list(dense_basis(model)):
            for y in (x, x.scale(t)):
                member = in_algebra(y, model)
                assert member == in_algebra_by_products(y, model), (model.kind, y)
                answers.add(member)
        assert answers == {True, False}


def test_cleared_form_is_canonical():
    """However a matrix is built, it is stored as one cleared form, so equal
    matrices compare and hash equal: from Fractions, from constant
    polynomials, through the sparse builders, and as results of bracket,
    +, -, @ and scale.  den is least (the lcm of the entries' denominators,
    written out here), zero entries are absent, and a result over Q[t]
    whose t cancels equals its rational twin."""
    rng = random.Random(67)
    t = RatPoly.variable()
    for model in _small_models() + [_generic_gram_model()]:
        n = model.matrix_size
        x, y = _random_element(rng, model, min(3, model.dimension)), _outside_element(rng, n)
        rows = [list(r) for r in x.rows]
        d = lcm(*(v.denominator for r in rows for v in r))
        cleared = [[(j, int(v * d)) for j, v in enumerate(r) if v] for r in rows]
        c = _random_rational(rng) or Fraction(1)
        st = RationalMatrix.diagonal([RatPoly([k, *[0] * k, 1]) for k in range(n)])
        twins = [
            RationalMatrix(rows),
            RationalMatrix([[RatPoly([v]) for v in r] for r in rows]),
            RationalMatrix.from_cleared(n, d, cleared),
            RationalMatrix.from_cleared(n, 6 * d, [[(j, 6 * v) for j, v in r] for r in cleared]),
            sum((RationalMatrix.unit(n, i, j).scale(v) for i, r in enumerate(rows) for j, v in enumerate(r)), RationalMatrix.diagonal([0] * n)),
            (x + y) - y,
            x.scale(-1).scale(-1),
            x.scale(c).scale(1 / c),
            RationalMatrix.diagonal([1] * n) @ x,
            x @ RationalMatrix.diagonal([1] * n).scale(3) @ RationalMatrix.diagonal([1] * n).scale(Fraction(1, 3)),
            x.transpose().transpose(),
            bracket(x, y) + y @ x - x @ y + x,
            # over Q[t], with t cancelling
            (x + st) - st,
            (st @ x + x) - st @ x,
            x.scale(t + 1) - x.scale(t),
            bracket(st, st) + x,
        ]
        for z in twins:
            assert z == x and hash(z) == hash(x)
            assert (z.dim, z.den, z.nz, z.symbol) == (n, d, tuple(map(tuple, cleared)), None)
            assert all(type(v) is Fraction for r in z.rows for v in r)
        assert bracket(x, y) == x @ y - y @ x and hash(bracket(x, y)) == hash(x @ y - y @ x)
        # integer diagonals and units are written as their own cleared form
        ints = [rng.randint(-3, 3) for _ in range(n)]
        for z, dense in [(RationalMatrix.diagonal(ints), [[v if i == j else 0 for j in range(n)] for i, v in enumerate(ints)]),
                         (RationalMatrix.unit(n, n - 1, 0).scale(ints[0]), [[ints[0] if (i, j) == (n - 1, 0) else 0 for j in range(n)] for i in range(n)])]:
            assert (z.den, z.nz, z.symbol) == (RationalMatrix(dense).den, RationalMatrix(dense).nz, None) and z == RationalMatrix(dense)

        # a matrix over Q[t]: den is the lcm over every coefficient of every
        # entry, and the view shows every entry as a polynomial in t
        xt = (x + st).scale(Fraction(2, 3))
        entries = [v for r in xt.rows for v in r]
        dt = lcm(*(a.denominator for v in entries for a in v.coeffs))
        assert xt.symbol == "t" and xt.den == dt
        assert all(isinstance(v, RatPoly) and v.symbol == "t" for v in entries)
        assert xt.nz == tuple(tuple((j, tuple(int(a * dt) for a in v.coeffs)) for j, v in enumerate(r) if v) for r in xt.rows)
        assert RationalMatrix(xt.rows) == xt and hash(RationalMatrix(xt.rows)) == hash(xt)
        assert xt != x and not any((xt - xt).nz) and xt - xt == RationalMatrix.diagonal([0] * n)


def _random_entry(rng):
    """Zero (as a Fraction or a polynomial), a rational, or a polynomial in t."""
    r = rng.random()
    if r < 0.3:
        return Fraction(0)
    if r < 0.4:
        return RatPoly([])
    if r < 0.7:
        return _random_rational(rng)
    return RatPoly([_random_rational(rng) for _ in range(rng.randint(1, 4))])


def test_sums_and_differences_entrywise():
    """a + b and a - b against scalar arithmetic, entry by entry, on
    rational and Q[t] entries; where both entries are zero the result holds
    the zero of its view: the shared ZERO in a rational matrix, the zero
    polynomial in one over Q[t]."""
    rng = random.Random(73)
    for trial in range(60):
        n = rng.randint(1, 8)
        a = RationalMatrix([[_random_entry(rng) for _ in range(n)] for _ in range(n)])
        b = RationalMatrix([[_random_entry(rng) for _ in range(n)] for _ in range(n)])
        total, difference = a + b, a - b
        for i in range(n):
            for j in range(n):
                u, v = a.rows[i][j], b.rows[i][j]
                assert total.rows[i][j] == u + v and difference.rows[i][j] == u - v
                if not u and not v:
                    for out in (total, difference):
                        if out.symbol is None:
                            assert out.rows[i][j] is ZERO
                        else:
                            assert type(out.rows[i][j]) is RatPoly and not out.rows[i][j]


def test_products_scales_and_transposes_entrywise():
    """a @ b, [a, b], c a, a scaled by -1 and the transpose against scalar
    arithmetic on the dense views, on rational and Q[t] entries and
    scalars."""
    rng = random.Random(79)
    for trial in range(40):
        n = rng.randint(1, 6)
        a = RationalMatrix([[_random_entry(rng) for _ in range(n)] for _ in range(n)])
        b = RationalMatrix([[_random_entry(rng) for _ in range(n)] for _ in range(n)])
        c = _random_entry(rng)
        ra, rb = a.rows, b.rows
        ab, ba = dense_product(ra, rb), dense_product(rb, ra)
        assert [list(r) for r in (a @ b).rows] == ab
        assert [list(r) for r in bracket(a, b).rows] == [[u - v for u, v in zip(p, q)] for p, q in zip(ab, ba)]
        assert [list(r) for r in a.scale(c).rows] == [[c * v for v in r] for r in ra]
        assert [list(r) for r in a.scale(-1).rows] == [[-v for v in r] for r in ra]
        assert [list(r) for r in a.transpose().rows] == [list(col) for col in zip(*ra)]


def _random_matrices(rng, count, symbolic):
    """Random matrices with some zero entries, over Q[t] when symbolic (and
    then with at least one non-constant entry), else rational."""
    out = []
    while len(out) < count:
        n = rng.randint(1, 5)
        x = RationalMatrix([[_random_entry(rng) if symbolic else _random_rational(rng) * rng.randint(0, 1) for _ in range(n)] for _ in range(n)])
        if bool(x.symbol) == symbolic:
            out.append(x)
    return out


def _dense(x):
    return [list(r) for r in x.rows]


def test_scaling_by_zero_gives_the_cleared_zero_matrix():
    """A matrix over Q[t] (or Q) scaled by 0, Fraction(0) or the zero
    polynomial is the zero diagonal of size n: den 1, no symbol, no entries."""
    rng = random.Random(83)
    for x in _random_matrices(rng, 20, True) + _random_matrices(rng, 10, False):
        for zero in (0, Fraction(0), RatPoly([])):
            out = x.scale(zero)
            assert out == RationalMatrix.diagonal([0] * x.dim)
            assert (out.den, out.nz, out.symbol) == (1, ((),) * x.dim, None)
            assert _dense(out) == [[zero * v for v in r] for r in x.rows]


def test_scaling_by_a_rational_or_its_constant_polynomial_agrees():
    """c x and RatPoly([c]) x have the same cleared form, on rational and on
    Q[t] matrices, and both match the dense views."""
    rng = random.Random(89)
    for x in _random_matrices(rng, 20, True) + _random_matrices(rng, 20, False):
        c = _random_rational(rng) or Fraction(1, 3)
        a, b = x.scale(c), x.scale(RatPoly([c]))
        assert (a.den, a.nz, a.symbol) == (b.den, b.nz, b.symbol)
        assert _dense(a) == _dense(b) == [[c * v for v in r] for r in x.rows]


def test_a_rational_matrix_scaled_by_t_is_over_qt():
    t = RatPoly.variable()
    rng = random.Random(97)
    for x in _random_matrices(rng, 20, False):
        out = x.scale(t)
        assert out.symbol == ("t" if any(x.nz) else None)
        assert _dense(out) == [[t * v for v in r] for r in x.rows]
        assert out.scale(Fraction(1, 2)) == x.scale(t * Fraction(1, 2))


_FRAC = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
_ENTRIES = {False: _FRAC, True: st.one_of(_FRAC, st.lists(_FRAC, max_size=4).map(RatPoly))}


@st.composite
def _matrix_and_permutation(draw):
    """A rational or Q[t] matrix of size 1-6 and a permutation of its indices."""
    n = draw(st.integers(1, 6))
    entry = _ENTRIES[draw(st.booleans())]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return RationalMatrix(rows), draw(st.permutations(range(n)))


@given(_matrix_and_permutation())
def test_permuted_is_conjugation_by_the_permutation_matrix(case):
    """x.permuted(p) is P x P^T through two matrix products, for the P with
    P e_i = e_p[i]: the same cleared form and hash, and entry (p[i], p[j])
    is x[i][j]."""
    x, p = case
    n = x.dim
    pm = RationalMatrix([[int(p[j] == i) for j in range(n)] for i in range(n)])
    out, expected = x.permuted(p), pm @ x @ pm.transpose()
    assert out == expected and hash(out) == hash(expected)
    assert all(out.rows[p[i]][p[j]] == x.rows[i][j] for i in range(n) for j in range(n))


def test_from_cleared_over_one_keeps_entries_sharing_a_factor():
    x = RationalMatrix.from_cleared(3, 1, [[(0, 2), (2, -4)], [], [(1, 6), (2, 0)]])
    assert (x.den, x.nz, x.symbol) == (1, (((0, 2), (2, -4)), (), ((1, 6),)), None)
    assert _dense(x) == [[2, 0, -4], [0, 0, 0], [0, 6, 0]]
    y = RationalMatrix.from_cleared(2, 1, [[(0, [0, 2]), (1, [4])], [(1, [6, 2])]], "t")
    assert (y.den, y.nz, y.symbol) == (1, (((0, (0, 2)), (1, (4,))), ((1, (6, 2)),)), "t")


def test_from_cleared_over_d_divides_by_the_gcd():
    x = RationalMatrix.from_cleared(3, 6, [[(0, 2), (2, -4)], [], [(1, 6), (2, 0)]])
    assert (x.den, x.nz, x.symbol) == (3, (((0, 1), (2, -2)), (), ((1, 3),)), None)
    assert x == RationalMatrix([[Fraction(1, 3), 0, Fraction(-2, 3)], [0, 0, 0], [0, 1, 0]])
    y = RationalMatrix.from_cleared(2, 4, [[(0, [0, 2]), (1, [4])], [(1, [6, 2])]], "t")
    assert (y.den, y.nz, y.symbol) == (2, (((0, (0, 1)), (1, (2,))), ((1, (3, 1)),)), "t")
    assert _dense(y) == [[RatPoly([0, Fraction(1, 2)]), RatPoly([1])], [RatPoly([]), RatPoly([Fraction(3, 2), Fraction(1, 2)])]]


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


# --- Q[t] by Kronecker substitution: every height bound outgrown ------------------


def _plain_sum(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def test_matrix_height_bounds_are_outgrown():
    """Each matrix operation over Q[t] on inputs whose entries have 1-norm
    at most 4, with an answer whose t-coefficients are larger (6, 18, 9,
    27, ...): read at t = 2^S it needs the operation's own height bound.
    Against plain RatPoly arithmetic on the dense views.  The two zero
    tests have a nonzero defect, t^2 - 4t and t - 16, that vanishes at
    t = 2^S for the S = bitlen(h) + 1 of their largest input height h
    alone (1 and 4)."""
    t = RatPoly.variable()
    z = Fraction(0)
    a = RationalMatrix([[z, 3 * t, 3 * t], [z, z, z], [z, z, z]])
    b = RationalMatrix([[z, z, z], [Fraction(3), z, z], [Fraction(3), z, Fraction(-3, 2) * t]])
    assert (a + a).rows[0][1] == 6 * t
    assert _dense(a + b) == _plain_sum(a.rows, b.rows) and _dense(a - b.scale(-1)) == _plain_sum(a.rows, b.rows)
    assert _dense(a @ b) == dense_product(a.rows, b.rows) and (a @ b).rows[0][0] == 18 * t
    assert a.scale(3 * t) == RationalMatrix([[z, 9 * t * t, 9 * t * t], [z, z, z], [z, z, z]])
    assert _dense(bracket(a, b)) == _plain_sum(dense_product(a.rows, b.rows), dense_product(b.rows, a.rows), -1)
    x = RationalMatrix([[3 * t, 3 * t, z], [z, 3 * t, 3 * t], [3 * t, z, 3 * t]])
    assert char_poly(x).dense() == charpoly_by_expansion(x.rows)
    assert char_poly(RationalMatrix.diagonal([3 * t] * 3)).dense() == expand_roots([3 * t] * 3)
    # [t E_01, t E_10] = t^2 (E_00 - E_11), not 4 t (E_00 - E_11)
    e01, e10 = RationalMatrix.unit(2, 0, 1).scale(t), RationalMatrix.unit(2, 1, 0).scale(t)
    h = RationalMatrix.diagonal([t, -t])
    assert bracket_is(e01, e10, 1, h.scale(t)) and not bracket_is(e01, e10, 4, h)
    # X^T G + G X = (t - 16)(E_01 + E_10) for G = diag(1, 4, 1): X is not in so(G)
    model = build_model(type_b(1), ClassicalForm("symmetric", RationalMatrix.diagonal([1, 4, 1])))
    outside = RationalMatrix([[z, t, z], [Fraction(-4), z, z], [z, z, z]])
    defect = _plain_sum(dense_product(_transposed(outside.rows), model.form.gram.rows), dense_product(model.form.gram.rows, outside.rows))
    assert defect[0][1] == t - 16
    assert not in_algebra(outside, model)
    assert in_algebra(RationalMatrix([[z, 4 * t, z], [-t, z, z], [z, z, z]]), model)
    # the rank-2 symplectic slice at 3t: 4 x has the entries ±6t, 1 and 36t^2
    half, quarter = Fraction(3, 2) * t, Fraction(1, 4)
    assert sp4_slice(3 * t) == RationalMatrix(
        [[half, z, quarter, z], [z, -half, z, quarter], [9 * t * t, z, half, z], [z, 9 * t * t, z, -half]]
    )


def _transposed(rows):
    return [list(col) for col in zip(*rows)]


def test_char_poly_of_a_dense_twelve_by_twelve_matrix_linear_in_t():
    """A 12 x 12 matrix with entries linear in t: an upper triangular one,
    diagonal r_i + s_i t, conjugated by seeded elementary integer
    operations (row i += c row j, then column j -= c column i), so that its
    characteristic polynomial is prod (λ - r_i - s_i t), expanded by plain
    RatPoly arithmetic."""
    rng = random.Random(1212)
    n = 12
    diagonal = [RatPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)), rng.choice((-3, -2, -1, 1, 2, 3))]) for _ in range(n)]
    rows = [[diagonal[i] if i == j else RatPoly([rng.randint(-3, 3), rng.randint(-3, 3)]) if j > i else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(40):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        for row in rows:
            row[j] = row[j] - c * row[i]
    assert sum(1 for row in rows for v in row if isinstance(v, RatPoly) and len(v.coeffs) == 2) > n * n // 2
    cp = char_poly(RationalMatrix(rows))
    assert cp.dense() == expand_roots(diagonal)
    assert all(isinstance(c, RatPoly) and c.symbol == "t" for c in cp.coeffs)


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
    # exactly n m, the most the entries allow
    t = RatPoly.variable()
    rng = random.Random(83)
    for n in range(1, 6):
        for m in (1, 2, 3):
            coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7)) for _ in range(n)]
            rows = [[RatPoly([0] * m + [v]) if v else v for v in row] for row in _companion(coeffs)]
            got = char_poly(RationalMatrix(rows))
            assert got.dense() == _expanded(rows)
            assert len(got.coeffs[-1].coeffs) - 1 == n * m
            assert got == GradedPolynomial([RatPoly([0] * (k * m) + [c]) for k, c in enumerate(coeffs, start=1)])
    # diag(r_1, ..., r_n) with r_k vanishing on consecutive blocks of m
    # integers: a_n = ±t(t-1)...(t-nm+1) is zero at t = 0, ..., nm - 1
    for n in range(1, 5):
        for m in (1, 2):
            x = RationalMatrix.diagonal([falling_factorial(t, k * m, m) * Fraction(1, k + 2) for k in range(n)])
            got = char_poly(x)
            assert got.dense() == _expanded(x.rows)
            a_n = got.coeffs[-1]
            assert len(a_n.coeffs) - 1 == n * m and all(value_at(a_n, i) == 0 for i in range(n * m)) and value_at(a_n, n * m) != 0
            for t0 in (Fraction(1, 3), Fraction(-7, 2)):
                at_t0 = RationalMatrix([[value_at(v, t0) for v in row] for row in x.rows])
                assert [value_at(c, t0) for c in got.coeffs] == _expanded(at_t0.rows)[1:]


def test_bracket_and_membership_specialisation_bounds_are_met():
    t = RatPoly.variable()
    model = sp4_model()
    for ma, mb in ((1, 1), (1, 3), (2, 2), (3, 1)):
        # [r_a E_01, r_b E_10] = r_a r_b (E_00 - E_11), of t-degree ma + mb
        # and zero at t = 0, ..., ma + mb - 1
        ra, rb = falling_factorial(t, 0, ma) * Fraction(2, 3), falling_factorial(t, ma, mb) * Fraction(-5, 7)
        a = RationalMatrix.unit(3, 0, 1).scale(ra) + RationalMatrix.unit(3, 2, 2).scale(RatPoly([0] * ma + [1]))
        b = RationalMatrix.unit(3, 1, 0).scale(rb) + RationalMatrix.unit(3, 2, 1).scale(Fraction(1, 9))
        got = bracket(a, b)
        assert got == bracket_by_products(a, b) and bracket_is(a, b, 1, got) and not bracket_is(a, b, 2, got)
        assert got.rows[0][0] == ra * rb and len(got.rows[0][0].coeffs) - 1 == ma + mb
        assert all(isinstance(v, RatPoly) for row in got.rows for v in row)
        # r_m times sp4 elements (members) and times the identity (defect
        # 2 r_m J, zero at t = 0, ..., ma - 1)
        r = falling_factorial(t, 0, ma) * Fraction(1, 4)
        for x in (sp4_e().scale(r) + sp4_h().scale(RatPoly([0] * ma + [1])), RationalMatrix.diagonal([1] * 4).scale(r), sp4_slice(t).scale(r)):
            assert in_algebra(x, model) == in_algebra_by_products(x, model)
        assert not in_algebra(RationalMatrix.diagonal([1] * 4).scale(r), model)
        assert in_algebra(sp4_slice(t).scale(r), model)


def _char_poly_cases(rng):
    """(matrix, its eigenvalues or None): diagonal matrices with rational and
    Q[t] eigenvalues, repeated ones included, four matrices whose
    characteristic polynomial has integer coefficients, then seeded dense
    matrices."""
    half, t = Fraction(1, 2), RatPoly.variable()
    cases = [[half, -half], [half, half, Fraction(-1, 3)], [t * half, t * -half]]
    for _ in range(6):
        cases.append([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))])
        cases.append([RatPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-3, 3), rng.randint(1, 4))]) for _ in range(rng.randint(1, 3))])
    out = [(RationalMatrix.diagonal(roots), roots) for roots in cases]
    # three projections and a nilpotent with entries over 2, 4 and 5: their
    # characteristic polynomials, λ^2 - λ and λ^2, clear with D = 1
    for rows, roots in (([[half, half], [half, half]], [0, 1]), ([[half, Fraction(1, 4)], [1, half]], [0, 1]),
                        ([[Fraction(1, 5), Fraction(2, 5)], [Fraction(2, 5), Fraction(4, 5)]], [0, 1]),
                        ([[half, -half], [half, -half]], [0, 0])):
        out.append((RationalMatrix(rows), [Fraction(r) for r in roots]))
    for _ in range(8):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        out.append((RationalMatrix(rows), None))
        out.append((RationalMatrix([[v + t * Fraction(rng.randint(-2, 2), 3) if rng.randint(0, 2) == 0 else v for v in row] for row in rows]), None))
    return out


def test_char_poly_keeps_the_matrix_denominator_and_agrees_with_its_coefficients():
    """char_poly returns the scaled form (D, c_k = D^k a_k) with D the
    matrix's own denominator, which need not be the D that clearing its
    coefficients gives: 2, not 1, for [[1/2, 1/2], [1/2, 1/2]], whose
    characteristic polynomial is λ^2 - λ.  Every operation on
    it agrees with the same polynomial built from its coefficients and, for
    a diagonal matrix, from its eigenvalues."""
    rng = random.Random(4057)
    g1, g2 = GradedPolynomial([Fraction(-5, 4)]), GradedPolynomial([Fraction(-2, 9), Fraction(5, 4)])
    other_den = 0
    for x, roots in _char_poly_cases(rng):
        cp = char_poly(x)
        twins = [GradedPolynomial(cp.coeffs)] + ([GradedPolynomial.from_roots(roots)] if roots else [])
        other_den += cp._scaled[0] != twins[0]._scaled[0]
        assert cp.dense() == charpoly_by_expansion(x.rows)
        for tw in twins:
            assert cp == tw and tw == cp and hash(cp) == hash(tw)
            assert str(cp) == str(tw) and cp.to_json() == tw.to_json()
            assert cp * g2 == tw * g2 == g2 * cp and cp * tw == tw * tw
            assert cp.divides(tw) and tw.divides(cp) and cp.divides(tw * g2) and tw.divides(cp * g2)
            assert divide(cp * g2, tw) == divide(tw * g2, cp) == (g2, [])
            assert divide(cp, g1) == divide(tw, g1)
            assert cp.is_squarefree() == tw.is_squarefree()
            if roots:
                assert cp.is_squarefree() == (len(set(roots)) == len(roots))
    # the cases exercise a D other than the cleared one
    assert other_den >= 10


# ---------------------------------------------------------------------------
# Block triangular matrices, whose characteristic polynomial is the product
# over their diagonal blocks, relabelled by a permutation.


def _descending_product(a, b):
    """The product of two monic descending coefficient lists."""
    return convolve_fractions(a[::-1], b[::-1])[::-1]


def _block_triangular(rng, sizes, entry, above=0.5):
    """(P B P^-1, det(λ - B)) for B block upper triangular with diagonal
    blocks of the given sizes, P a seeded permutation: a 1 x 1 block is one
    entry -c_1 and a larger one the companion matrix of c_1, ..., c_k with
    c_k != 0, whose pattern is a cycle; either has characteristic
    polynomial λ^k + c_1 λ^(k-1) + ... + c_k.  Entries above
    the blocks are drawn with probability ``above``, and each block's first
    row has one into the next block.  det(λ - B) is the product over the
    blocks."""
    n = sum(sizes)
    rows = [[Fraction(0)] * n for _ in range(n)]
    expected, start = [Fraction(1)], 0
    for k in sizes:
        coeffs = [entry() for _ in range(k)]
        if k > 1 and not coeffs[-1]:
            coeffs[-1] = Fraction(1)  # the block's first row closes the cycle
        block = [[Fraction(0)] * k for _ in range(k)]
        for i in range(1, k):
            block[i][i - 1] = Fraction(1)
        for i, c in enumerate(coeffs):
            block[k - 1 - i][k - 1] = -c
        for i in range(k):
            rows[start + i][start : start + k] = block[i]
            for j in range(start + k, n):
                if rng.random() < above or (i == 0 and j == start + k):
                    rows[start + i][j] = entry() or Fraction(1)
        expected = _descending_product(expected, [1, *coeffs])
        start += k
    p = list(range(n))
    rng.shuffle(p)
    relabelled = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            relabelled[p[i]][p[j]] = rows[i][j]
    return relabelled, expected


def _block_sizes(rng):
    """Diagonal block sizes of at most 9 letters: 1 x 1 blocks around one or
    two cycles of size 2 or 3."""
    sizes = [rng.choice((2, 3)) for _ in range(rng.choice((1, 2)))]
    sizes += [1] * rng.randint(0, 9 - sum(sizes))
    rng.shuffle(sizes)
    return sizes


def test_char_poly_of_relabelled_block_triangular_matrices():
    """char_poly of P B P^-1 against the product over B's diagonal blocks,
    and for n <= 6 against cofactor expansion of the whole matrix, over Q
    and over Q[t].  The shapes include a companion matrix (no row or column
    free of off-diagonal entries), a triangular matrix (all of them, one at
    a time) and 1 x 1 blocks on both sides of a cycle, each tied to it."""
    rng = random.Random(4409)
    t = RatPoly.variable()
    rational = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    polynomial = lambda: RatPoly([rational(), rational(), Fraction(rng.randint(-2, 2), 3)])
    shapes = [[9], [1] * 9, [1, 1, 3, 1, 1], [1, 2, 1, 3, 1], [2, 1, 1, 1, 2]]
    shapes += [_block_sizes(rng) for _ in range(24)]
    for sizes in shapes:
        for entry in (rational, polynomial):
            rows, expected = _block_triangular(rng, sizes, entry, above=rng.choice((0.2, 0.6, 1.0)))
            got = char_poly(RationalMatrix(rows))
            assert got.dense() == expected, sizes
            if len(rows) <= 6:
                assert expected == charpoly_by_expansion(rows)
    # a single letter, a matrix of zeros and a 1 x 1 block under a cycle
    assert char_poly(RationalMatrix([[t]])).dense() == [1, -t]
    assert char_poly(RationalMatrix.diagonal([0] * 5)) == GradedPolynomial([0] * 5)
    rows = [[0, 1, 5], [2, 0, 7], [0, 0, Fraction(1, 3)]]
    assert char_poly(RationalMatrix(rows)).dense() == charpoly_by_expansion(rows) == [1, Fraction(-1, 3), -2, Fraction(2, 3)]


def test_char_poly_specialisation_bound_is_met_around_a_cycle():
    """1 x 1 blocks r_k vanishing on consecutive blocks of m integers on both
    sides of t^m times a companion block, tied to it from above and below
    and relabelled: a_n is ±(prod r_k) t^(3m) c_3, of t-degree 7m, zero at
    t = 0, ..., 4m - 1, and every coefficient read at a rational t0 is the
    cofactor expansion of the matrix read there."""
    rng = random.Random(4421)
    t = RatPoly.variable()
    for m in (1, 2, 3):
        coeffs = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7)) for _ in range(3)]
        cycle = [[RatPoly([0] * m + [v]) if v else v for v in row] for row in _companion(coeffs)]
        diagonal = [falling_factorial(t, k * m, m) * Fraction(k + 2, 3) for k in range(4)]
        n, order = 7, [0, 1, 5, 6]
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(3):
            rows[2 + i][2:5] = cycle[i]
        for k, i in enumerate(order):
            rows[i][i] = diagonal[k]
        for i in range(n):
            for j in range(i + 1, n):
                if not rows[i][j] and (rows[i][i] or j > 4):
                    rows[i][j] = RatPoly([rng.randint(-3, 3), rng.randint(1, 3)])
        p = list(range(n))
        rng.shuffle(p)
        x = RationalMatrix(rows).permuted(p)
        got = char_poly(x)
        expected = _descending_product(expand_roots(diagonal), charpoly_by_expansion(cycle))
        assert got.dense() == expected
        a_n = got.coeffs[-1]
        assert len(a_n.coeffs) - 1 == 7 * m and all(value_at(a_n, i) == 0 for i in range(4 * m)) and value_at(a_n, 4 * m) != 0
        for t0 in (Fraction(1, 3), Fraction(-7, 2)):
            at_t0 = [[value_at(v, t0) for v in row] for row in x.rows]
            assert [value_at(c, t0) for c in got.coeffs] == _expanded(at_t0)[1:]


def _sparse_forms(rng, rows, shuffled):
    """Each dense row as a SparseRow of its width: its nonzero entries and
    some zero entries, in ascending column order or shuffled."""
    out = []
    for row in rows:
        entries = [(j, v) for j, v in enumerate(row) if v or rng.random() < 0.2]
        if shuffled:
            rng.shuffle(entries)
        out.append(SparseRow(len(row), dict(entries)))
    return out


def _ad_like_and_dense_rows():
    """Seeded ad-like rows, dense rows with large entries and a planted
    dependency, and two edge cases, each as its dense rows."""
    cases = [_ad_like_rows(random.Random(101), n) for n in (2, 3, 4, 5)]
    big = random.Random(103)
    for _ in range(12):
        nrows, ncols = big.randint(1, 7), big.randint(1, 7)
        rows = [[big.randint(-10**6, 10**6) for _ in range(ncols)] for _ in range(nrows)]
        rows[-1] = [3 * u - 5 * v for u, v in zip(rows[0], rows[-1])]
        cases.append(rows)
    return cases + [[[0, 0, 0], [0, 0, 0]], [[0], [-7], [3]]]


def test_rank_and_nullspace_read_dense_and_sparse_rows_alike():
    """fraction_free_rank and _integer_nullspace give the same rank and the
    same basis on the dense rows of the tests above, written by sparse_rows,
    and on SparseRow forms that also hold some zero entries, in ascending
    column order.  In any other order the rank is the same and the basis
    spans the same nullspace: its vectors are killed by every row, and there
    are width - rank of them."""
    rng = random.Random(4431)
    for rows in _ad_like_and_dense_rows():
        rank, basis = _rank_oracle(rows), _integer_nullspace(sparse_rows(rows))
        assert fraction_free_rank(sparse_rows(rows)) == rank and len(basis) == len(rows[0]) - rank
        for shuffled in (False, True):
            sparse = _sparse_forms(rng, rows, shuffled)
            assert [len(row) for row in sparse] == [len(row) for row in rows]
            assert fraction_free_rank(sparse) == rank
            got = _integer_nullspace(sparse)
            assert got == basis or shuffled
            assert len(got) == len(basis) == _rank_oracle([[dict(vec).get(j, 0) for j in range(len(rows[0]))] for vec in got] or [[0]])
            for vec in got:
                assert all(sum(row[j] * v for j, v in vec) == 0 for row in rows)


def _small(rng):
    return rng.choice([-3, -2, -1, 1, 2, 5])


def _permuted(rng, rows):
    """rows with their order and their columns shuffled."""
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    rows = [[row[j] for j in cols] for row in rows]
    rng.shuffle(rows)
    return rows


def _triangular_rows(rng):
    """m rows in w >= m columns, triangular after a permutation: row i has
    its diagonal entry in column i (zero now and then) and others only in
    the columns after i, or only before it.  Upper rows peel by column
    singletons, lower rows by row singletons."""
    m = rng.randint(1, 9)
    w = m + rng.randint(0, 3)
    upper = rng.random() < 0.5
    rows = []
    for i in range(m):
        row = [0] * w
        row[i] = _small(rng) if rng.random() < 0.85 else 0
        for j in range(i + 1, w) if upper else range(i):
            if rng.random() < 0.5:
                row[j] = _small(rng)
        rows.append(row)
    return _permuted(rng, rows)


def _core_rows(rng):
    """Triangular rows around a dense core: in block form [[L, 0, 0],
    [Y, U, X], [Z, 0, C]], with L lower and U upper triangular and C dense,
    sometimes with a planted dependent row.  Row singletons peel L, which
    deletes Y and Z; column singletons then peel U; C is left."""
    a, b, k = rng.randint(0, 4), rng.randint(0, 4), rng.randint(2, 5)
    w = a + b + k
    rows = []
    for i in range(a):
        rows.append([_small(rng) if j < i and rng.random() < 0.5 else 0 for j in range(a)] + [0] * (b + k))
        rows[-1][i] = _small(rng)
    for i in range(b):
        row = [_small(rng) if rng.random() < 0.5 else 0 for _ in range(a)]
        row += [_small(rng) if j > i and rng.random() < 0.5 else 0 for j in range(b)]
        row += [_small(rng) if rng.random() < 0.7 else 0 for _ in range(k)]
        row[a + i] = _small(rng)
        rows.append(row)
    core = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
    if rng.random() < 0.5:
        core[-1] = [2 * u - 3 * v for u, v in zip(core[0], core[1])]
    for line in core:
        rows.append([_small(rng) if rng.random() < 0.5 else 0 for _ in range(a)] + [0] * b + line)
    return _permuted(rng, rows)


def _dense_rows(rng):
    """Rows with every entry drawn, some of them planted combinations."""
    m, w = rng.randint(1, 7), rng.randint(1, 7)
    rows = [[rng.randint(-99, 99) for _ in range(w)] for _ in range(m)]
    for i in range(2, m):
        if rng.random() < 0.3:
            rows[i] = [u - 4 * v for u, v in zip(rows[i - 1], rows[i - 2])]
    return rows


def test_rank_and_nullspace_on_triangular_cored_and_dense_rows():
    """fraction_free_rank and _integer_nullspace against the rational
    oracle, on rows the singleton peel takes whole, rows it peels down to
    a dense core, and dense rows it cannot peel.  The nullspace has
    width - rank independent vectors killed by every row, each leading
    with a positive entry in a column no other vector has."""
    rng = random.Random(4457)
    for make in (_triangular_rows, _core_rows, _dense_rows):
        deficits = set()
        for _ in range(60):
            rows = make(rng)
            width, rank = len(rows[0]), _rank_oracle(rows)
            assert fraction_free_rank(sparse_rows(rows)) == rank, (make.__name__, rows)
            basis = _integer_nullspace(sparse_rows(rows))
            assert len(basis) == width - rank, (make.__name__, rows)
            for vec in basis:
                assert all(sum(row[j] * v for j, v in vec) == 0 for row in rows)
                assert vec[0][1] > 0 and gcd(*(v for _, v in vec)) == 1
            leads = {vec[0][0] for vec in basis}
            assert len(leads) == len(basis) and not any(j in leads for vec in basis for j, _ in vec[1:])
            deficits.add(min(len(rows), width) - rank)
        # full-rank and deficient row sets both occur
        assert 0 in deficits and len(deficits) > 1, make.__name__


def test_model_refuses_first_terms_that_collide():
    """An element's first term must be a cell no other element touches:
    the same first cell twice, or one that another element's later term
    touches, is refused when the model is built.  Sorting the terms of a
    nullspace model's elements moves their first cells onto shared ones."""
    kind, form = type_b(1), so_gram(3)
    model = build_model(kind, form)
    with pytest.raises(ValueError, match="another element touches"):
        LieAlgebraModel(kind, form, model.terms[:1] * 2)
    first, second = model.terms[:2]
    with pytest.raises(ValueError, match="another element touches"):
        LieAlgebraModel(kind, form, (first, second + first[:1]))
    generic = _generic_gram_model()
    LieAlgebraModel(generic.kind, generic.form, generic.terms)
    with pytest.raises(ValueError, match="another element touches"):
        LieAlgebraModel(generic.kind, generic.form, tuple(tuple(sorted(terms)) for terms in generic.terms))


def test_model_refuses_terms_outside_its_cells():
    """Every term must lie in the n x n cells of the group's matrix size: a
    term at (0, 4) with n = 3 would otherwise read as cell (1, 1)."""
    kind = type_a(3)
    for cell in ((0, 4), (3, 0), (-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="outside the 3 x 3 cells"):
            LieAlgebraModel(kind, None, (((0, 0, 1),), ((*cell, 1),)))
        with pytest.raises(ValueError, match="outside the 3 x 3 cells"):
            LieAlgebraModel(kind, None, (((0, 0, 1), (*cell, 2)),))
    assert LieAlgebraModel(kind, None, (((0, 0, 1),), ((2, 2, 1),))).matrix_size == 3


def test_centralizer_dim_at_matrix_size_64_holds_little_memory():
    """At a generic point of gl:32,32 (n = 64) the rank rows hold only their
    nonzero entries: one centraliser dimension peaks at about 4 MB of traced
    allocations, where dense rows of n^2 ints took about 136 MB."""
    trip = build_gl_triple(32, 32)
    x = trip.e + RationalMatrix.diagonal([Fraction(-355, 113) * v for v in [32] * 32 + [-32] * 32])
    tracemalloc.start()
    try:
        d = centralizer_dim(x, trip.model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == 2 * 32 * 32
    assert peak < 8 * 2**20, peak


def test_bcd_centralizer_dim_at_matrix_size_64_holds_little_memory():
    """The same at a generic point of bcd:C,8,24 (Sp_64 with the Levi
    GL_8 x Sp_48): d is dim L, within the same traced-allocation gate."""
    kind, levi = type_c(32), MaxLevi(8, 24)
    trip = build_bcd_triple(kind, levi)
    x = trip.e + RationalMatrix.diagonal([Fraction(-355, 113) * v for v in [1] * 8 + [0] * 48 + [-1] * 8])
    tracemalloc.start()
    try:
        d = centralizer_dim(x, trip.model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d == kind.levi_dim(levi) == 8 * 8 + 48 * 49 // 2
    assert peak < 8 * 2**20, peak


def _check_on_monomial_pairs(model):
    """model has dim G elements, each on the cells of one pair (or one
    self-paired cell) of the pairing rule for its monomial form, with
    proportional coefficients, and each pair is used once."""
    pairs = {frozenset((r, c) for r, c, _ in pair): pair for pair in monomial_stabiliser_pairs(model.form.gram)}
    assert model.dimension == len(model.terms) == model.kind.dim == len(pairs)
    used = set()
    for terms in model.terms:
        cells = frozenset((r, c) for r, c, _ in terms)
        assert len(cells) == len(terms) and cells in pairs and cells not in used, terms
        used.add(cells)
        ref = {(r, c): k for r, c, k in pairs[cells]}
        r0, c0, k0 = terms[0]
        assert all(k * ref[(r0, c0)] == k0 * ref[(r, c)] for r, c, k in terms), terms


def test_bcd_models_lie_on_the_monomial_pairing_rule():
    """Every model comes from the integer nullspace of its form's
    conditions; for a monomial form it is the pairing rule's basis up to
    scaling: every default B/C/D model with matrix size <= 16, and the
    Jordan-basis model of every maximal-Levi triple with matrix size <= 12,
    whose forms carry signs."""
    kinds = [type_b(r) for r in range(1, 8)] + [type_c(r) for r in range(1, 9)] + [type_d(r) for r in range(2, 9)]
    for kind in kinds:
        _check_on_monomial_pairs(build_model(kind))
    triples = [build_bcd_triple(kind, levi) for kind in kinds if kind.matrix_size <= 12 for levi in valid_max_levi_labels(kind)]
    assert len(triples) > 40
    for trip in triples:
        _check_on_monomial_pairs(trip.model)


def test_integer_nullspace_matches_full_back_substitution():
    """The back-substitution visits only the pivot rows that hold a column
    already solved; walking every pivot row for every free column gives the
    same basis.  On the seeded row sets, in ascending and shuffled column
    order, and on the conditions of every default form with n <= 16 and of
    seeded non-monomial forms, all n^2 of them or those on and above the
    diagonal."""
    rng = random.Random(4463)
    cases, made = _ad_like_and_dense_rows(), random.Random(4457)
    for make in (_triangular_rows, _core_rows, _dense_rows):
        cases += [make(made) for _ in range(60)]
    sets = []
    for rows in cases:
        sets += [sparse_rows(rows), _sparse_forms(rng, rows, True)]
    forms = [(so_gram if sign == 1 else sp_gram)(n) for n in range(3, 17) for sign in (1, -1) if sign == 1 or n % 2 == 0]
    forms += [_random_gram(rng, kind, n, rational) for kind in ("symmetric", "antisymmetric") for n in (4, 6) for rational in (False, True)]
    for form in forms:
        sets += [form_condition_rows(form.gram), form_condition_rows(form.gram, upper=True)]
    assert len(sets) > 400
    solved = 0
    for rows in sets:
        basis = _integer_nullspace(rows)
        assert basis == nullspace_by_full_back_substitution(rows)
        solved += any(len(vec) > 2 for vec in basis)
    # some bases need more than one pivot row solved per vector
    assert solved > 50
