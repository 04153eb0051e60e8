import random
from fractions import Fraction
from math import gcd, lcm

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
from sheet_atlas.scalars import ZERO, RatPoly
from sheet_atlas.sheets import max_levi_dim, type_a, type_b, type_c, type_d, valid_max_levi_labels
from sheet_atlas.spectral import GradedPolynomial
from sheet_atlas.triples import build_bcd_triple, build_gl_triple, sp4_e, sp4_model, sp4_slice

from oracles import charpoly_by_expansion, falling_factorial, rank_by_rational_elimination, sp4_f, sp4_h, value_at


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
        (RationalMatrix.diagonal([1, 0, 0, -1]), 4),  # diag(t, 0, 0, -t) at t = 1
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
    x = RationalMatrix.diagonal([1, 0, 0, -1])
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
        assert fraction_free_rank(rows) == expected
        ranks.add((n, expected))
        # the rank ignores the order of the rows and how they are scaled
        scaled = [[k * v for v in row] for k, row in zip(rng.choices([-6, -1, 2, 7], k=len(rows)), reversed(rows))]
        assert fraction_free_rank(scaled) == expected
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
        assert fraction_free_rank(rows) == _rank_oracle(rows)


def test_fraction_free_rank_edge_shapes():
    rng = random.Random(107)
    assert fraction_free_rank([]) == 0
    assert fraction_free_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert fraction_free_rank([[0], [0]]) == 0
    assert fraction_free_rank([[5]]) == 1
    assert fraction_free_rank([[0], [-7], [3]]) == 1
    assert fraction_free_rank([[Fraction(0)] * 4, [Fraction(1, 3), 0, 0, Fraction(-2, 7)]]) == 1
    assert fraction_free_rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 4), Fraction(1, 2)]]) == 1
    for _ in range(20):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.4 else Fraction(0) for _ in range(5)] for _ in range(rng.randint(1, 6))]
        rows.append([0] * 5)
        assert fraction_free_rank(rows) == rank_by_rational_elimination(rows)


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
            a, size = levi.a, trip.e.dim
            cases.append((trip, [1] * a + [0] * (size - 2 * a) + [-1] * a, max_levi_dim(kind, levi)))
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
        n = model.matrix_size
        assert model.dimension == len(model.terms) == len(model.basis)
        for b, terms in zip(model.basis, model.terms):
            # basis[i] is the dense matrix of terms[i], which are coprime ints
            cells = {(r, c): k for r, c, k in terms}
            assert len(cells) == len(terms) and all(k for k in cells.values())
            assert all(type(k) is int for k in cells.values()) and gcd(*cells.values()) == 1
            assert b == RationalMatrix([[cells.get((i, j), 0) for j in range(n)] for i in range(n)])
            assert in_algebra(b, model) and _in_algebra_by_products(b, model)
        assert model.basis is model.basis


def test_models_of_one_kind_compare_equal():
    for kind in (type_a(4), type_b(2), type_c(3), type_d(3)):
        first, second = build_model(kind), build_model(kind)
        assert first == second and hash(first) == hash(second)
        second.basis  # building the dense basis does not change equality
        assert first == second
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
    for b, terms in zip(model.basis, model.terms):
        assert in_algebra(b, model)
        assert all(type(k) is int for _, _, k in terms) and gcd(*(k for _, _, k in terms)) == 1
        _check_against_oracles(b, model)
    rng = random.Random(41)
    for terms in (1, 2, 3, 3):
        _check_against_oracles(_random_element(rng, model, terms), model)
    assert centralizer_dim(RationalMatrix.zero(3), model) == 3


def _random_gram(rng, kind: str, n: int, rational: bool) -> ClassicalForm:
    """A seeded non-degenerate Gram matrix with a row of two or more nonzero
    entries, so that its model takes the nullspace route."""
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


def _form_defect_by_hand(terms, gram, n):
    """x^T G + G x for the element with the given terms, by dense Fraction
    products."""
    x = [[Fraction(0)] * n for _ in range(n)]
    for r, c, k in terms:
        x[r][c] += k
    g = gram.rows
    return [[sum(x[k][i] * g[k][j] + g[i][k] * x[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


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
            for terms in model.terms:
                ks = [k for _, _, k in terms]
                assert all(type(k) is int for k in ks) and gcd(*ks) == 1
                assert not any(any(row) for row in _form_defect_by_hand(terms, form.gram, n))
                vec = [Fraction(0)] * (n * n)
                for r, c, k in terms:
                    vec[r * n + c] = Fraction(k)
                vectors.append(vec)
            assert rank_by_rational_elimination(vectors) == expected


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


def _unit_free_monomial_model():
    """sp_4 for a monomial Gram matrix whose entries differ in size."""
    rows = [[0, 3, 0, 0], [-3, 0, 0, 0], [0, 0, 0, Fraction(1, 2)], [0, 0, Fraction(-1, 2), 0]]
    return build_model(type_c(2), ClassicalForm("antisymmetric", RationalMatrix(rows)))


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
            RationalMatrix([[RatPoly.constant(v) for v in r] for r in rows]),
            RationalMatrix.from_cleared(n, d, cleared),
            RationalMatrix.from_cleared(n, 6 * d, [[(j, 6 * v) for j, v in r] for r in cleared]),
            sum((RationalMatrix.unit(n, i, j, v) for i, r in enumerate(rows) for j, v in enumerate(r)), RationalMatrix.zero(n)),
            (x + y) - y,
            -(-x),
            x.scale(c).scale(1 / c),
            RationalMatrix.identity(n) @ x,
            x @ RationalMatrix.identity(n).scale(3) @ RationalMatrix.identity(n).scale(Fraction(1, 3)),
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
        assert RationalMatrix.from_json(x.to_json()) == x
        # integer diagonals and units are written as their own cleared form
        ints = [rng.randint(-3, 3) for _ in range(n)]
        for z, dense in [(RationalMatrix.diagonal(ints), [[v if i == j else 0 for j in range(n)] for i, v in enumerate(ints)]),
                         (RationalMatrix.unit(n, n - 1, 0, ints[0]), [[ints[0] if (i, j) == (n - 1, 0) else 0 for j in range(n)] for i in range(n)])]:
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
        assert RationalMatrix.from_json(xt.to_json()) == xt
        assert xt != x and (xt - xt).is_zero() and xt - xt == RationalMatrix.zero(n)


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
                u, v = a.entry(i, j), b.entry(i, j)
                assert total.entry(i, j) == u + v and difference.entry(i, j) == u - v
                if not u and not v:
                    for out in (total, difference):
                        if out.symbol is None:
                            assert out.entry(i, j) is ZERO
                        else:
                            assert type(out.entry(i, j)) is RatPoly and not out.entry(i, j)


def test_products_scales_and_transposes_entrywise():
    """a @ b, [a, b], c a, -a and the transpose against scalar arithmetic on
    the dense views, on rational and Q[t] entries and scalars."""
    rng = random.Random(79)
    for trial in range(40):
        n = rng.randint(1, 6)
        a = RationalMatrix([[_random_entry(rng) for _ in range(n)] for _ in range(n)])
        b = RationalMatrix([[_random_entry(rng) for _ in range(n)] for _ in range(n)])
        c = _random_entry(rng)
        ra, rb = a.rows, b.rows
        ab = [[sum((ra[i][k] * rb[k][j] for k in range(n)), start=Fraction(0)) for j in range(n)] for i in range(n)]
        ba = [[sum((rb[i][k] * ra[k][j] for k in range(n)), start=Fraction(0)) for j in range(n)] for i in range(n)]
        assert [list(r) for r in (a @ b).rows] == ab
        assert [list(r) for r in bracket(a, b).rows] == [[u - v for u, v in zip(p, q)] for p, q in zip(ab, ba)]
        assert [list(r) for r in a.scale(c).rows] == [[c * v for v in r] for r in ra]
        assert [list(r) for r in (-a).rows] == [[-v for v in r] for r in ra]
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
    polynomial is RationalMatrix.zero(n): den 1, no symbol, no entries."""
    rng = random.Random(83)
    for x in _random_matrices(rng, 20, True) + _random_matrices(rng, 10, False):
        for zero in (0, Fraction(0), RatPoly([])):
            out = x.scale(zero)
            assert out == RationalMatrix.zero(x.dim)
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
        assert out.symbol == ("t" if not x.is_zero() else None)
        assert _dense(out) == [[t * v for v in r] for r in x.rows]
        assert out.scale(Fraction(1, 2)) == x.scale(t * Fraction(1, 2))


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
            rows = [[RatPoly([0] * m + [v]) if v else v for v in row] for row in _companion(coeffs)]
            got = char_poly(RationalMatrix(rows))
            assert got.dense() == _expanded(rows)
            assert got.coefficient(n).degree() == n * m
            assert got == GradedPolynomial([RatPoly([0] * (k * m) + [c]) for k, c in enumerate(coeffs, start=1)])
    # diag(r_1, ..., r_n) with r_k vanishing on consecutive blocks of m
    # integers: a_n = ±t(t-1)...(t-nm+1) is zero at every sample point but
    # the last
    for n in range(1, 5):
        for m in (1, 2):
            x = RationalMatrix.diagonal([falling_factorial(t, k * m, m) * Fraction(1, k + 2) for k in range(n)])
            got = char_poly(x)
            assert got.dense() == _expanded(x.rows)
            a_n = got.coefficient(n)
            assert a_n.degree() == n * m and all(value_at(a_n, i) == 0 for i in range(n * m)) and value_at(a_n, n * m) != 0
            for t0 in (Fraction(1, 3), Fraction(-7, 2)):
                at_t0 = RationalMatrix([[value_at(v, t0) for v in row] for row in x.rows])
                assert [value_at(c, t0) for c in got.coeffs] == _expanded(at_t0.rows)[1:]


def test_bracket_and_membership_specialisation_bounds_are_met():
    t = RatPoly.variable()
    model = sp4_model()
    for ma, mb in ((1, 1), (1, 3), (2, 2), (3, 1)):
        # [r_a E_01, r_b E_10] = r_a r_b (E_00 - E_11), of t-degree ma + mb
        # and zero at every sample point but the last
        ra, rb = falling_factorial(t, 0, ma) * Fraction(2, 3), falling_factorial(t, ma, mb) * Fraction(-5, 7)
        a = RationalMatrix.unit(3, 0, 1, ra) + RationalMatrix.unit(3, 2, 2, RatPoly([0] * ma + [1]))
        b = RationalMatrix.unit(3, 1, 0, rb) + RationalMatrix.unit(3, 2, 1, Fraction(1, 9))
        got = bracket(a, b)
        assert got == _bracket_by_products(a, b)
        assert got.rows[0][0] == ra * rb and got.rows[0][0].degree() == ma + mb
        assert all(isinstance(v, RatPoly) for row in got.rows for v in row)
        # r_m times sp4 elements (members) and times the identity (defect
        # 2 r_m J, zero at every sample point but the last)
        r = falling_factorial(t, 0, ma) * Fraction(1, 4)
        for x in (sp4_e().scale(r) + sp4_h().scale(RatPoly([0] * ma + [1])), RationalMatrix.identity(4).scale(r), sp4_slice(t).scale(r)):
            assert in_algebra(x, model) == _in_algebra_by_products(x, model)
        assert not in_algebra(RationalMatrix.identity(4).scale(r), model)
        assert in_algebra(sp4_slice(t).scale(r), model)


def _char_poly_cases(rng):
    """(matrix, its eigenvalues or None): diagonal matrices with rational and
    Q[t] eigenvalues, repeated ones included, then seeded dense matrices."""
    half, t = Fraction(1, 2), RatPoly.variable()
    cases = [[half, -half], [half, half, Fraction(-1, 3)], [t * half, t * -half]]
    for _ in range(6):
        cases.append([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 4))])
        cases.append([RatPoly([Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-3, 3), rng.randint(1, 4))]) for _ in range(rng.randint(1, 3))])
    out = [(RationalMatrix.diagonal(roots), roots) for roots in cases]
    for _ in range(8):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)] for _ in range(n)]
        out.append((RationalMatrix(rows), None))
        out.append((RationalMatrix([[v + t * Fraction(rng.randint(-2, 2), 3) if rng.randint(0, 2) == 0 else v for v in row] for row in rows]), None))
    return out


def test_char_poly_keeps_the_matrix_denominator_and_agrees_with_its_coefficients():
    """char_poly returns the scaled form (D, c_k = D^k a_k) with D the
    matrix's own denominator, which need not be the D that clearing its
    coefficients gives: 2, not 4, for diag(1/2, -1/2).  Every operation on
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
            assert (cp * g2).divmod(tw) == (g2, []) and (tw * g2).divmod(cp) == (g2, [])
            assert cp.divmod(g1) == tw.divmod(g1)
            assert cp.is_squarefree() == tw.is_squarefree()
            if roots:
                assert cp.is_squarefree() == (len(set(roots)) == len(roots))
    # the cases exercise a D other than the cleared one
    assert other_den >= 10
