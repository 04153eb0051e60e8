"""Exact rational matrix algebra for classical Lie algebras.

Provides brackets, bilinear-form membership, characteristic polynomials,
determinants and centraliser dimensions (an exact rank).  All arithmetic
is exact: entries are rationals or univariate rational-coefficient
polynomials in one formal parameter.

Every one of these operations has one route, on integers, and every
matrix is cleared of denominators by
:class:`~sheet_atlas.scalars.ClearedGroups`.  A rational matrix is cleared
once: the lcm D of its denominators and the nonzero entries of the integer
matrix D x, row by row, are cached on the (immutable) matrix the first time
they are needed, and every routine reads that form, building a Fraction
only for each nonzero entry of a result.  With entries in Q[t] the same
integer routine runs at t = 0, 1, ..., N for an N that bounds the t-degree
of its result, and the integer values are interpolated back exactly; such
a matrix is also cleared once, and its cleared coefficients are cached the
same way.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple, Union

from .scalars import (
    ZERO,
    ClearedGroups,
    Scalar,
    as_fraction,
    as_scalar,
    format_scalar,
    fractions_over,
    parse_scalar,
    scalar_is_zero,
)
from .spectral import GradedPolynomial


_ONE = Fraction(1)

SparseRows = List[List[Tuple[int, int]]]


class RationalMatrix:
    """Immutable square matrix with exact scalar entries.

    The ``_cleared`` slot holds the cleared form read by :func:`_form`; it
    is filled on first use and lives as long as the matrix.
    """

    __slots__ = ("dim", "rows", "_cleared")

    def __init__(self, rows: Sequence[Sequence]):
        rows = tuple(tuple(v if isinstance(v, Fraction) else as_scalar(v) for v in r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def _trusted(cls, rows) -> "RationalMatrix":
        # internal: entries already exact scalars
        out = object.__new__(cls)
        object.__setattr__(out, "dim", len(rows))
        object.__setattr__(out, "rows", tuple(tuple(r) for r in rows))
        return out

    @classmethod
    def zero(cls, n: int) -> "RationalMatrix":
        return cls._trusted([(ZERO,) * n] * n)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.diagonal([_ONE] * n)

    @classmethod
    def diagonal(cls, entries: Sequence) -> "RationalMatrix":
        n = len(entries)
        rows = [[ZERO] * n for _ in range(n)]
        for i, v in enumerate(entries):
            rows[i][i] = as_scalar(v)
        return cls._trusted(rows)

    @classmethod
    def unit(cls, n: int, i: int, j: int, value=1) -> "RationalMatrix":
        rows = [[ZERO] * n for _ in range(n)]
        rows[i][j] = as_scalar(value)
        return cls._trusted(rows)

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_dim(other)
        return RationalMatrix._trusted([[a + b if a or b else ZERO for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_dim(other)
        return RationalMatrix._trusted([[a - b if a or b else ZERO for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "RationalMatrix":
        return RationalMatrix._trusted([[-v for v in r] for r in self.rows])

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        # sparse-aware: Lie algebra elements here are mostly zeros
        self._same_dim(other)
        n = self.dim
        out = [[ZERO] * n for _ in range(n)]
        for i, row in enumerate(self.rows):
            orow = out[i]
            for k, a in enumerate(row):
                if not a:
                    continue
                brow = other.rows[k]
                for j, b in enumerate(brow):
                    if b:
                        orow[j] = orow[j] + a * b
        return RationalMatrix._trusted(out)

    def scale(self, c) -> "RationalMatrix":
        c = as_scalar(c)
        return RationalMatrix._trusted([[c * v if v else ZERO for v in r] for r in self.rows])

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix._trusted(list(zip(*self.rows)))

    def trace(self) -> Scalar:
        return sum((self.rows[i][i] for i in range(self.dim)), start=ZERO)

    def is_zero(self) -> bool:
        return all(scalar_is_zero(v) for r in self.rows for v in r)

    def __eq__(self, other):
        return isinstance(other, RationalMatrix) and self.dim == other.dim and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def _same_dim(self, other: "RationalMatrix"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))

    def __repr__(self):
        return "RationalMatrix(%r)" % (self.rows,)

    def __str__(self):
        cells = [[str(v) for v in r] for r in self.rows]
        width = max((len(c) for r in cells for c in r), default=1)
        return "\n".join("[ " + "  ".join(c.rjust(width) for c in r) + " ]" for r in cells)

    def to_json(self):
        return [[format_scalar(v) for v in r] for r in self.rows]

    @classmethod
    def from_json(cls, obj) -> "RationalMatrix":
        return cls([[parse_scalar(v) for v in r] for r in obj])


def bracket(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Commutator ab - ba, exactly.

    The commutator of the integer forms A = Da a and B = Db b is taken on
    their nonzero entries, and [a, b] = (AB - BA) / (Da Db).  Entries in
    Q[t] take the same commutator at m_a + m_b + 1 values of t.
    """
    a._same_dim(b)
    # an entry of [a, b] sums products of an entry of a and one of b, so
    # its t-degree is at most m_a + m_b
    entries = _on_integers((a, b), lambda ma, mb: ma + mb, _commutator, lambda da, db: repeat(da * db))
    n = a.dim
    return RationalMatrix._trusted([entries[i * n : i * n + n] for i in range(n)])


def _commutator(ra: SparseRows, rb: SparseRows) -> List[int]:
    """AB - BA of sparse integer rows, as a flat row-major list."""
    out: List[int] = []
    for ra_i, rb_i in zip(ra, rb):
        oi = [0] * len(ra)
        for k, v in ra_i:
            for j, w in rb[k]:
                oi[j] += v * w
        for k, v in rb_i:
            for j, w in ra[k]:
                oi[j] -= v * w
        out += oi
    return out


@dataclass(frozen=True)
class ClassicalForm:
    """A non-degenerate symmetric or antisymmetric Gram matrix."""

    kind: str  # "symmetric" | "antisymmetric"
    gram: RationalMatrix

    def __post_init__(self):
        if self.kind not in ("symmetric", "antisymmetric"):
            raise ValueError("form kind must be symmetric or antisymmetric")
        sign = 1 if self.kind == "symmetric" else -1
        if self.gram.transpose() != self.gram.scale(sign):
            raise ValueError("gram matrix does not have %s symmetry" % self.kind)
        if determinant(self.gram) == 0:
            raise ValueError("gram matrix is degenerate")


def so_gram(n: int) -> ClassicalForm:
    """Antidiagonal symmetric unit form on n letters."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][n - 1 - i] = Fraction(1)
    return ClassicalForm("symmetric", RationalMatrix(rows))


def sp_gram(n: int) -> ClassicalForm:
    """Antidiagonal symplectic form, +1 in the top rows and -1 in the bottom.

    The n = 4 instance is the convention of the rank-2 worked example, so
    its matrices verify entry-for-entry against this model.
    """
    if n % 2:
        raise ValueError("symplectic form needs even size")
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][n - 1 - i] = Fraction(1) if i < n // 2 else Fraction(-1)
    return ClassicalForm("antisymmetric", RationalMatrix(rows))


@dataclass(frozen=True)
class LieAlgebraModel:
    """A matrix model: the form (absent in type A) plus a spanning basis.

    ``sparse_basis[i]`` lists basis element i as (row, col, k) terms with
    coprime integer k: a nonzero multiple of ``basis[i]``, which is all the
    integer centraliser kernel needs.
    """

    kind: object  # GroupKind; kept loose to avoid an import cycle
    form: Optional[ClassicalForm]
    basis: Tuple[RationalMatrix, ...]
    sparse_basis: Tuple[Tuple[Tuple[int, int, int], ...], ...] = field(compare=False, repr=False)

    @property
    def matrix_size(self) -> int:
        return self.basis[0].dim

    @property
    def dimension(self) -> int:
        return len(self.basis)


Term = Tuple[int, int, Fraction]


def build_model(kind, form: Optional[ClassicalForm] = None) -> LieAlgebraModel:
    """Matrix model of gl_n (type A) or of the stabiliser algebra of a form.

    For B/C/D the basis spans {x | x^T G + G x = 0}; the expected dimension
    (n(n-1)/2 orthogonal, m(2m+1) symplectic) is asserted.  Type A has no
    form, and passing one raises ValueError.
    """
    family = getattr(kind, "family", None)
    n = getattr(kind, "matrix_size", None)
    if family == "A":
        if form is not None:
            raise ValueError("type A is modelled by gl_n and takes no form")
        terms = [[(i, j, _ONE)] for i in range(n) for j in range(n)]
        return _model(kind, None, n, terms)
    if family not in ("B", "C", "D"):
        raise ValueError("no matrix model for group family %r" % (family,))
    if form is None:
        form = sp_gram(n) if family == "C" else so_gram(n)
    if form.gram.dim != n:
        raise ValueError("form size %d does not match group on %d letters" % (form.gram.dim, n))
    terms = form_stabiliser_basis(form.gram)
    expected = n * (n - 1) // 2 if family in ("B", "D") else (n // 2) * (n + 1)
    if len(terms) != expected:
        raise AssertionError("basis size %d, expected %d" % (len(terms), expected))
    return _model(kind, form, n, terms)


def _model(kind, form: Optional[ClassicalForm], n: int, terms: List[List[Term]]) -> LieAlgebraModel:
    basis = tuple(_from_terms(n, t) for t in terms)
    return LieAlgebraModel(kind, form, basis, tuple(_integer_terms(t) for t in terms))


def _from_terms(n: int, terms: List[Term]) -> RationalMatrix:
    rows = [[ZERO] * n for _ in range(n)]
    for r, c, k in terms:
        rows[r][c] = k
    return RationalMatrix._trusted(rows)


def _integer_terms(terms: List[Term]) -> Tuple[Tuple[int, int, int], ...]:
    """The terms scaled to coprime integers."""
    d = lcm(*(k.denominator for _, _, k in terms))
    ints = [k.numerator * (d // k.denominator) for _, _, k in terms]
    g = gcd(*ints)
    return tuple((r, c, v // g) for (r, c, _), v in zip(terms, ints))


def form_stabiliser_basis(gram: RationalMatrix) -> List[List[Term]]:
    """Basis of {x | x^T G + G x = 0} for a non-degenerate Gram matrix G,
    each element as its nonzero (row, col, coefficient) terms.

    When G has exactly one nonzero entry per row and column (all the Gram
    matrices this library constructs), the constraint pairs matrix entries
    one against one and the basis is written down directly; otherwise the
    kernel is computed by exact row reduction of the linearised condition.
    """
    n = gram.dim
    sigma = {}
    g = {}
    for j in range(n):
        nz = [i for i in range(n) if not scalar_is_zero(gram.rows[i][j])]
        if len(nz) != 1:
            return _form_stabiliser_basis_generic(gram)
        sigma[j] = nz[0]
        g[j] = as_fraction(gram.rows[nz[0]][j])
    if sorted(sigma.values()) != list(range(n)):
        return _form_stabiliser_basis_generic(gram)
    inv = {v: k for k, v in sigma.items()}
    # Constraint: x[r][c] = -(g[inv[c]] / g[inv[r]]) * x[inv[c]][inv[r]].
    basis: List[List[Term]] = []
    seen = set()
    for r in range(n):
        for c in range(n):
            if (r, c) in seen:
                continue
            r2, c2 = inv[c], inv[r]
            coef = -(g[inv[c]] / g[inv[r]])
            if (r2, c2) == (r, c):
                seen.add((r, c))
                if coef == 1:
                    basis.append([(r, c, _ONE)])
            else:
                seen.add((r, c))
                seen.add((r2, c2))
                basis.append([(r, c, _ONE), (r2, c2, coef)])
    return basis


def _form_stabiliser_basis_generic(gram: RationalMatrix) -> List[List[Term]]:
    n = gram.dim
    rows = []
    for i in range(n):
        for j in range(n):
            # (x^T G)[i][j] = sum_k x[k][i] G[k][j]; (G x)[i][j] = sum_k G[i][k] x[k][j]
            row = [ZERO] * (n * n)
            for k in range(n):
                row[k * n + i] += as_fraction(gram.rows[k][j])
                row[k * n + j] += as_fraction(gram.rows[i][k])
            rows.append(row)
    kernel = rational_nullspace(rows)
    return [[(p // n, p % n, v) for p, v in enumerate(vec) if v] for vec in kernel]


def in_algebra(x: RationalMatrix, model: LieAlgebraModel) -> bool:
    """Membership test: x^T G + G x = 0 (always true in type A).

    Exact, and valid for polynomial entries, so symbolic slice parameters
    can be checked without substitution.  The test is X^T G' + G' X = 0 on
    the integer forms of x and of the Gram matrix, a positive multiple of
    x^T G + G x.
    """
    if x.dim != model.matrix_size:
        raise ValueError("dimension mismatch: %d vs model on %d letters" % (x.dim, model.matrix_size))
    if model.form is None:
        return True
    # a ClassicalForm's Gram matrix is rational (its determinant is
    # checked), so each entry of the defect has t-degree at most m
    rg = _integer_form(model.form.gram)[1]
    return not any(_on_integers((x,), lambda m: m, lambda rx: _form_defect(rx, rg), lambda d: repeat(1)))


def _form_defect(rx: SparseRows, rg: SparseRows) -> List[int]:
    """X^T G + G X of sparse integer rows, as a flat row-major list."""
    out = [[0] * len(rx) for _ in rx]
    for rx_k, rg_k in zip(rx, rg):
        for i, v in rx_k:
            oi = out[i]
            for j, g in rg_k:
                oi[j] += v * g
    for oi, rg_i in zip(out, rg):
        for k, g in rg_i:
            for j, v in rx[k]:
                oi[j] += g * v
    return list(chain.from_iterable(out))


def _integer_form(x: RationalMatrix) -> Optional[Tuple[int, SparseRows]]:
    """(D, rows) with D the lcm of the entry denominators and rows[i] the
    nonzero entries (j, (D x)[i][j]) of row i, or None when some entry is a
    non-constant polynomial."""
    form = _form(x)
    return None if type(form[0]) is ClearedGroups else form


def _form(x: RationalMatrix):
    """The cleared form of x, computed once per matrix and cached on it: the
    integer form (D, rows) of :func:`_integer_form` when every entry is
    rational, otherwise (cleared, nz) with nz the nonzero entries (j, v) of
    each row and cleared a ClearedGroups with those entries, in order, as
    its one group."""
    try:
        return x._cleared
    except AttributeError:
        pass
    nz = [[(j, v) for j, v in enumerate(row) if v] for row in x.rows]
    cleared = ClearedGroups([[v for row in nz for _, v in row]])
    form = (cleared, nz) if cleared.degrees[0] else (cleared.dens[0], _rows(nz, cleared.at(0)[0]))
    object.__setattr__(x, "_cleared", form)
    return form


def _rows(nz: List[List[Tuple[int, Scalar]]], values: Sequence[int]) -> SparseRows:
    """The rows nz with their entries replaced, in order, by values."""
    it = iter(values)
    return [[(j, next(it)) for j, _ in row] for row in nz]


def _on_integers(mats: Sequence[RationalMatrix], degree_bound, kernel, dens) -> List[Scalar]:
    """Run an integer kernel on the cleared forms of matrices.

    The kernel gets the sparse integer rows of every matrix and returns a
    flat list of ints; output i is returned over the i-th entry of
    ``dens(*the matrices' denominators)``.  Rational matrices take one pass
    on their cached rows.  Otherwise the kernel runs at t = 0, ...,
    degree_bound(*their t-degrees), which must bound the t-degree of every
    output, and each output is interpolated to a polynomial in t.
    """
    forms = [_form(x) for x in mats]
    if all(type(d) is int for d, _ in forms):
        ds, rows = zip(*forms)
        return fractions_over(kernel(*rows), dens(*ds))
    # a rational matrix joins as its integer form D x, a group of degree 0
    # over 1, and keeps its own D below
    parts = [d if type(d) is ClearedGroups else ClearedGroups([[v for row in rows for _, v in row]]) for d, rows in forms]
    cleared = ClearedGroups.join(parts)
    ds = [d.dens[0] if type(d) is ClearedGroups else d for d, _ in forms]
    nz = [rows for _, rows in forms]
    return cleared.solve(degree_bound(*cleared.degrees) + 1, lambda *values: kernel(*map(_rows, nz, values)), dens(*ds))


def centralizer_dim(x: RationalMatrix, model: LieAlgebraModel) -> int:
    """Dimension of the kernel of y -> [x, y] on the model, by exact rank.

    This is the oracle for the centraliser-dimension invariant d of a sheet;
    group- and algebra-centraliser dimensions coincide here.  Every entry of
    x must be rational (a Fraction or a constant polynomial), otherwise
    ValueError.  The rank is taken on integers: with X = D x cleared of
    denominators, the row for a basis element sum k E_rc is its integer
    multiple [X, sum k E_rc] = sum k (X[:, r] e_c^T - e_r X[c, :]), filled
    from the model's sparse basis in O(n) per term, and the rows go to
    :func:`fraction_free_rank`.
    """
    if not in_algebra(x, model):
        raise ValueError("element is not in the modelled Lie algebra")
    cleared = _integer_form(x)
    if cleared is None:
        raise ValueError("centraliser dimension needs rational entries")
    row_nz = cleared[1]
    n = x.dim
    col_nz: SparseRows = [[] for _ in range(n)]
    for i, row in enumerate(row_nz):
        for j, v in row:
            col_nz[j].append((i, v))
    rows = []
    for terms in model.sparse_basis:
        out = [0] * (n * n)
        for r, c, k in terms:
            for i, v in col_nz[r]:
                out[i * n + c] += k * v
            base = r * n
            for j, v in row_nz[c]:
                out[base + j] -= k * v
        rows.append(out)
    return model.dimension - fraction_free_rank(rows)


def char_poly(x: RationalMatrix) -> GradedPolynomial:
    """Monic characteristic polynomial det(λ - x), exactly.

    Uses the trace recursion (Faddeev-LeVerrier) on the integer matrix
    X = D x (D the lcm of the denominators), where each division by k is
    exact, and the coefficients c_k of X give those of x as a_k = c_k / D^k.
    With entries in Q[t] of t-degree at most m, c_k is a sum of products of
    k entries of X and so has t-degree at most k m: the recursion runs at
    n m + 1 values of t, and every a_k is returned as a polynomial in t.
    """
    n = x.dim
    # the denominators of a_1, ..., a_n are D, D^2, ..., D^n
    coeffs = _on_integers((x,), lambda m: n * m, _char_poly_ints, lambda d: accumulate(repeat(d, n), mul))
    return GradedPolynomial._trusted(coeffs)


def _char_poly_ints(nz: SparseRows) -> List[int]:
    """Coefficients c_1, ..., c_n of det(λ - X) for sparse integer rows X."""
    n = len(nz)
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    coeffs: List[int] = []
    for k in range(1, n + 1):
        prod = []
        for row in nz:
            out = [0] * n
            for j, v in row:
                out = [o + v * w for o, w in zip(out, m[j])]
            prod.append(out)
        ck = -sum(prod[i][i] for i in range(n)) // k
        coeffs.append(ck)
        for i in range(n):
            prod[i][i] += ck
        m = prod
    return coeffs


# ---------------------------------------------------------------------------
# Exact row reduction.


def fraction_free_rank(rows: Sequence[Sequence[Union[int, Fraction]]]) -> int:
    """Rank by fraction-free (Bareiss) elimination on integers.

    The single elimination entry point for centraliser ranks.  Rows of ints
    are eliminated as given (after dividing out their content); rows with
    Fraction entries are first scaled to integers by the lcm of their
    denominators.  Every step is exact.
    """
    mat: List[List[int]] = []
    for row in rows:
        if not any(row):
            continue
        if set(map(type, row)) != {int}:
            row = ClearedGroups([row]).at(0)[0]
        g = gcd(*row)
        mat.append([v // g for v in row] if g > 1 else list(row))
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        pivot = prow[col]
        tail = prow[col:]
        for r in range(rank + 1, len(mat)):
            row = mat[r]
            entry = row[col]
            if entry:
                row[col:] = [(a * pivot - entry * b) // prev for a, b in zip(row[col:], tail)]
            elif pivot != prev:
                row[col:] = [a * pivot // prev for a in row[col:]]
        prev = pivot
        rank += 1
        if rank == len(mat):
            break
    return rank


def rational_nullspace(rows: List[List[Fraction]]) -> List[List[Fraction]]:
    """Basis of the nullspace of the row system, by exact Gauss-Jordan."""
    if not rows:
        return []
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    pivots = []
    row_idx = 0
    for col in range(ncols):
        piv = None
        for r in range(row_idx, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[row_idx], mat[piv] = mat[piv], mat[row_idx]
        inv = 1 / mat[row_idx][col]
        mat[row_idx] = [v * inv for v in mat[row_idx]]
        for r in range(len(mat)):
            if r != row_idx and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row_idx])]
        pivots.append(col)
        row_idx += 1
        if row_idx == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def determinant(x: RationalMatrix) -> Fraction:
    """Exact determinant (-1)^n a_n, read off the characteristic polynomial.

    Every entry must be rational (a Fraction or a constant polynomial),
    otherwise ValueError.
    """
    if _integer_form(x) is None:
        raise ValueError("determinant needs rational entries")
    return (-1) ** x.dim * char_poly(x).coefficient(x.dim)
