"""Exact rational matrix algebra for classical Lie algebras.

Provides brackets, bilinear-form membership, characteristic polynomials,
determinants and centraliser dimensions (an exact rank).  All arithmetic
is exact: entries are rationals or univariate rational-coefficient
polynomials in one formal parameter.

A matrix x is stored only as its cleared form: the least D >= 1 with D x
over Z (or over Z[t]), and the nonzero entries of D x row by row, ints or
ascending integer coefficient tuples in t.  Every operation runs on those
integers: with rational entries its integer routine reads the stored rows
once, and a scalar factor is cleared once by
:func:`~sheet_atlas.scalars.clear`.  Every matrix it makes goes through one
reduction to the cleared form (:meth:`RationalMatrix.from_cleared`), so
equal matrices have equal forms.  ``@``, a relation [a, b] = k c
(:func:`bracket_is`) and membership (:func:`in_algebra`, read off the
symmetry of G' X) multiply on one kernel (:func:`_product`), which adds
w A B for stored rows A and B to a dict of cells; the two tests make no
matrix and no gcd, and only ask whether every cell is 0.
Fractions are built only for the dense view and a determinant; a
characteristic polynomial is returned in its scaled form (D, c_k =
D^k a_k) and builds its coefficients on first read; it takes linear
factors off by Laplace expansion where the pattern of the stored rows
allows, multiplies them out with the root-expansion kernel that
:meth:`~sheet_atlas.spectral.GradedPolynomial.from_roots` runs, and runs
the trace recursion only on the rest, which is empty at x = z + e.  With
entries in Q[t] the same integer routine runs once at t = 2^S, for an S
above a proven bound on the height of its result
(:func:`~sheet_atlas.scalars.run`), and the integer values are read back
exactly as balanced base-2^S digits.  A conjugation by a permutation
(:meth:`RationalMatrix.permuted`) only relabels the stored rows.
There is one elimination on :class:`SparseRow` s, fraction-free: it
peels row and column singletons with no arithmetic, then takes
Markowitz-style pivots on what is left.  Its pivot rows give centraliser
ranks, on the ad x rows that a model fills from its basis as dicts at its
key cells, and read back in reverse order they give the integer nullspace
that is every B/C/D model, the stabiliser of its form.  A model keeps its
basis in one representation, sparse coprime integer terms in the n x n
cells of its group's matrix size; each element's first term is its key, a
nullspace vector's free column, a cell no other element touches, so in
those coordinates ad x at z + e peels almost whole.
"""
from __future__ import annotations

from bisect import insort
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Dict, List, Optional, Sequence, Tuple

from ._record import Record, _set
from .scalars import (
    ZERO,
    Cleared,
    RatPoly,
    Scalar,
    as_scalar,
    clear,
    format_scalar,
    height,
    run,
    scalars_over,
)
from .sheets import GroupKind
from .spectral import GradedPolynomial, _graded, _int_convolve, _int_from_roots


SparseRows = Sequence[Sequence[Tuple[int, int]]]


class RationalMatrix:
    """Immutable square matrix with exact scalar entries, stored as its
    cleared form.

    ``den`` is the least D >= 1 with D x over Z, or over Z[symbol];
    ``symbol`` is None unless some entry is a non-constant polynomial; and
    ``nz[i]`` holds the nonzero entries (j, v) of row i of D x in ascending
    j, each v an int, or with a symbol an ascending tuple of ints.  The
    form is canonical, so equality and hashing read only it.  The dense
    ``rows`` are a view built on first access: Fractions, or with a symbol
    polynomials in it.
    """

    __slots__ = ("dim", "den", "nz", "symbol", "_view")

    def __new__(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        return cls._of_scalars(n, [enumerate(r) for r in rows])

    @classmethod
    def _of_scalars(cls, n: int, rows) -> "RationalMatrix":
        """The matrix with the exact scalar entries rows[i] = (j, x), ...
        in ascending j, cleared by :func:`~sheet_atlas.scalars.clear`."""
        rows = [[(j, y) for j, x in row if (y := x if type(x) in _EXACT else as_scalar(x))] for row in rows]
        den, values, symbol = clear([x for row in rows for _, x in row])
        return cls.from_cleared(n, den, _rows(rows, values), symbol)

    @classmethod
    def from_cleared(cls, n: int, den: int, rows, symbol: Optional[str] = None) -> "RationalMatrix":
        """The n x n matrix x with D x = X, for D = den >= 1 and X given by
        its rows, rows[i] = (j, v), ... in ascending j, each v an int or,
        with a symbol, an ascending integer coefficient list in it.

        This is the one reduction to the cleared form: zero entries are
        dropped, D and every integer are divided by their gcd, and the
        symbol is dropped when no entry is a non-constant polynomial.
        """
        if symbol:
            # tuple(v) keeps a tuple v as it is; the one list of coefficients
            # serves both the all-constant test and the gcd
            rows = [tuple([(j, tuple(v)) for j, v in row if v]) for row in rows]
            coeffs = [c for row in rows for _, v in row for c in v]
            if len(coeffs) == sum(map(len, rows)):
                rows, symbol = [tuple([(j, v[0]) for j, v in row]) for row in rows], None
        else:
            rows = [tuple(filter(_value, row)) for row in rows]
        if symbol:
            g = gcd(den, *coeffs) if den > 1 else 1
            if g > 1:
                rows = [tuple([(j, tuple([c // g for c in v])) for j, v in row]) for row in rows]
        else:
            g = gcd(den, *map(_value, chain.from_iterable(rows))) if den > 1 else 1
            if g > 1:
                rows = [tuple((j, v // g) for j, v in row) for row in rows]
        out = object.__new__(cls)
        _set(out, "dim", n)
        _set(out, "den", den // g)
        _set(out, "nz", tuple(rows))
        _set(out, "symbol", symbol)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("RationalMatrix is immutable")

    @classmethod
    def diagonal(cls, entries: Sequence) -> "RationalMatrix":
        rows = [[(i, x)] for i, x in enumerate(entries)]
        # integer entries are their own cleared form over D = 1
        return cls.from_cleared(len(rows), 1, rows) if all(type(x) is int for x in entries) else cls._of_scalars(len(rows), rows)

    @classmethod
    def unit(cls, n: int, i: int, j: int) -> "RationalMatrix":
        return cls.from_cleared(n, 1, [[(j, 1)] if r == i else [] for r in range(n)])

    @property
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """The dense entries, built on first access and kept."""
        if not hasattr(self, "_view"):
            zero = ZERO if self.symbol is None else RatPoly([])
            dense = [[zero] * self.dim for _ in self.nz]
            values = scalars_over([v for row in self.nz for _, v in row], repeat(self.den), self.symbol)
            for out, row in zip(dense, _rows(self.nz, values)):
                for j, v in row:
                    out[j] = v
            object.__setattr__(self, "_view", tuple(map(tuple, dense)))
        return self._view

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self._combine(other, -1)

    def _combine(self, other: "RationalMatrix", sign: int) -> "RationalMatrix":
        """self + sign other, on integers over the lcm of the denominators."""
        self._same_dim(other)
        d = lcm(self.den, other.den)
        wa, wb = d // self.den, sign * (d // other.den)
        # an entry of wa A + wb B has 1-norm at most |wa| h_a + |wb| h_b
        bound = lambda ha, hb: abs(wa) * ha + abs(wb) * hb
        values, symbol = _on_integers((self, other), bound, lambda ra, rb: _linear(ra, rb, wa, wb))
        return _from_flat(self.dim, d, values, symbol)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_dim(other)
        # an entry of AB sums n products of an entry of A and one of B, and
        # the 1-norm is submultiplicative: at most n h_a h_b
        n = self.dim
        values, symbol = _on_integers((self, other), lambda ha, hb: n * ha * hb, lambda ra, rb: _dense(n, _product({}, 1, ra, rb)))
        return _from_flat(n, self.den * other.den, values, symbol)

    def scale(self, c) -> "RationalMatrix":
        c = clear([c if type(c) in _EXACT else as_scalar(c)])
        # the kernel scales the nonzero entries of X in order; an entry of c X
        # has 1-norm at most h ‖c‖₁
        values, symbol = _on_integers((self,), mul, lambda rx, cs: [v * cs[0] for row in rx for _, v in row], c)
        return RationalMatrix.from_cleared(self.dim, self.den * c[0], _rows(self.nz, values), symbol)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix.from_cleared(self.dim, self.den, _columns(self.nz), self.symbol)

    def permuted(self, p: Sequence[int]) -> "RationalMatrix":
        """P x P⁻¹ for the permutation matrix P with P e_i = e_p[i]: entry
        (p[i], p[j]) is x[i][j].  It relabels the cleared rows and does no
        arithmetic."""
        rows: List[list] = [[]] * self.dim
        for i, row in zip(p, self.nz):
            # the new columns of a row are distinct, so no value is compared
            rows[i] = sorted([(p[j], v) for j, v in row])
        return RationalMatrix.from_cleared(self.dim, self.den, rows, self.symbol)

    def __eq__(self, other):
        # the size is len(nz)
        return isinstance(other, RationalMatrix) and (self.den, self.nz, self.symbol) == (other.den, other.nz, other.symbol)

    def __hash__(self):
        return hash((self.den, self.nz, self.symbol))

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


_index, _value = itemgetter(0), itemgetter(1)
_EXACT = (int, Fraction, RatPoly)  # read by clear as they are; others go through as_scalar


def _rows(nz, values: Sequence) -> List[tuple]:
    """The rows nz with their entries replaced, in order, by values."""
    it = iter(values)
    # zip stops at the end of a row before it draws from it
    return [tuple(zip(map(_index, row), it)) for row in nz]


def _columns(nz) -> List[list]:
    """The sparse rows of the transpose of the sparse rows nz."""
    columns: List[list] = [[] for _ in nz]
    for i, row in enumerate(nz):
        for j, v in row:
            columns[j].append((i, v))
    return columns


def _from_flat(n: int, den: int, values: Sequence, symbol: Optional[str]) -> RationalMatrix:
    """The matrix whose cleared form X over den is the flat row-major list values."""
    return RationalMatrix.from_cleared(n, den, [enumerate(values[i * n : i * n + n]) for i in range(n)], symbol)


def _on_integers(mats: Sequence[RationalMatrix], bound, kernel, *scalars: Cleared) -> Tuple[list, Optional[str]]:
    """(output, symbol) of an integer kernel on the cleared forms of matrices
    and then of scalars.

    The kernel gets the sparse integer rows D x of every matrix and the
    integer list of every scalar form, and returns a flat list of ints.  On
    rational inputs it runs once, on the stored rows.  With entries in Q[t]
    it runs once at t = 2^S (:func:`~sheet_atlas.scalars.run`), where
    bound(*heights), given the largest 1-norm of an entry of each input,
    must bound every t-coefficient of every output; a rational input joins
    as it is, its entries of 1-norm their absolute value.
    """
    rational = [x.nz for x in mats if x.symbol is None] + [c for _, c, s in scalars if s is None]
    if len(rational) == len(mats) + len(scalars):
        return kernel(*rational), None
    flat = [[v for row in x.nz for _, v in row] for x in mats]
    forms = [(x.den, v if x.symbol else x.nz, x.symbol) for x, v in zip(mats, flat)] + list(scalars)
    heights = lambda: bound(*map(height, flat), *(height(c) for _, c, _ in scalars))
    return run(forms, heights, lambda *values: kernel(*[_rows(x.nz, v) if x.symbol else v for x, v in zip(mats, values)], *values[len(mats) :]))[:2]


def bracket(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Commutator ab - ba, exactly."""
    return a @ b - b @ a


def bracket_is(a: RationalMatrix, b: RationalMatrix, k: int, c: RationalMatrix) -> bool:
    """Whether [a, b] = k c, for an int k: the integer identity
    Dc (AB - BA) = k Da Db C on the cleared forms A = Da a, B = Db b and
    C = Dc c: Dc AB - Dc BA - k Da Db C, accumulated on one dict of cells by
    :func:`_product`, must be zero in every cell.  Entries in Q[t] take it
    at t = 2^S."""
    a._same_dim(b)
    a._same_dim(c)
    wc, w = c.den, k * a.den * b.den

    def defect(ra, rb, rc):
        out = _product(_product({}, wc, ra, rb), -wc, rb, ra)
        for i, row in enumerate(rc):
            for j, v in row:
                key = i, j
                out[key] = out.get(key, 0) - w * v
        return out.values()

    # an entry of Dc (AB - BA) - k Da Db C has 1-norm at most
    # Dc 2n h_a h_b + |k Da Db| h_c
    bound = lambda ha, hb, hc: wc * 2 * a.dim * ha * hb + abs(w) * hc
    return not any(_on_integers((a, b, c), bound, defect)[0])


def _product(out: Dict[Tuple[int, int], int], w: int, ra: SparseRows, rb: SparseRows) -> Dict[Tuple[int, int], int]:
    """out += w A B for sparse integer rows A and B, on the dict of cells
    {(i, j): value} out, which is returned: the one matrix product kernel."""
    get = out.get
    for i, row in enumerate(ra):
        for k, v in row:
            v *= w
            for j, u in rb[k]:
                key = i, j
                out[key] = get(key, 0) + v * u
    return out


def _dense(n: int, cells: Dict[Tuple[int, int], int]) -> List[int]:
    """The cells {(i, j): value} of an n x n matrix as a flat row-major list."""
    return [cells.get((i, j), 0) for i in range(n) for j in range(n)]


def _linear(ra: SparseRows, rb: SparseRows, wa: int, wb: int) -> List[int]:
    """wa A + wb B of sparse integer rows, as a flat row-major list."""
    n = len(ra)
    out = [0] * (n * n)
    for w, rows in ((wa, ra), (wb, rb)):
        for i, row in enumerate(rows):
            for j, v in row:
                out[i * n + j] += w * v
    return out


class ClassicalForm(Record):
    """A non-degenerate symmetric or antisymmetric Gram matrix."""

    __slots__ = ("kind", "gram")

    def __init__(self, kind: str, gram: RationalMatrix):
        if kind not in ("symmetric", "antisymmetric"):
            raise ValueError("form kind must be symmetric or antisymmetric")
        sign = 1 if kind == "symmetric" else -1
        cells = {(i, j): v for i, row in enumerate(gram.nz) for j, v in row}
        # G^T = ±G: each nonzero G[i][j] faces G[j][i] = ±G[i][j] (a zero facing it fails from its side)
        if any(cells.get((j, i)) != (sign * v if type(v) is int else tuple(sign * c for c in v)) for (i, j), v in cells.items()):
            raise ValueError("gram matrix does not have %s symmetry" % kind)
        # one nonzero per row (so per column: G^T = ±G) makes G monomial, hence non-degenerate
        if (gram.symbol or any(len(row) != 1 for row in gram.nz)) and determinant(gram) == 0:
            raise ValueError("gram matrix is degenerate")
        _set(self, "kind", kind)
        _set(self, "gram", gram)


def so_gram(n: int) -> ClassicalForm:
    """Antidiagonal symmetric unit form on n letters."""
    return ClassicalForm("symmetric", RationalMatrix.from_cleared(n, 1, [[(n - 1 - i, 1)] for i in range(n)]))


def sp_gram(n: int) -> ClassicalForm:
    """Antidiagonal symplectic form, +1 in the top rows and -1 in the bottom.

    The n = 4 instance is the convention of the rank-2 worked example, so
    its matrices verify entry-for-entry against this model.
    """
    if n % 2:
        raise ValueError("symplectic form needs even size")
    rows = [[(n - 1 - i, 1 if i < n // 2 else -1)] for i in range(n)]
    return ClassicalForm("antisymmetric", RationalMatrix.from_cleared(n, 1, rows))


class LieAlgebraModel(Record):
    """A matrix model: the form (absent in type A) plus a spanning basis.

    ``terms[i]`` lists basis element i as its nonzero (row, col, k) entries,
    coprime ints: the one representation of the basis, read by the integer
    centraliser kernel.  Every term lies in the n x n cells, n the group's
    matrix size, and each element's first term is its key, a cell no other
    element touches (else ValueError), so an element of the algebra is
    fixed by its entries at the keys.  Those three are the fields;
    ``matrix_size`` is read off ``kind`` and ``keys`` off the terms, here:
    n^2 bytes over the row-major cells, 1 at a key.
    """

    __slots__ = ("kind", "form", "terms", "matrix_size", "keys")
    _fields = ("kind", "form", "terms")

    def __init__(self, kind: GroupKind, form: Optional[ClassicalForm], terms: Tuple[Tuple[Term, ...], ...]):
        n = kind.matrix_size
        if n is None:
            raise ValueError("group %s has no matrix size to model" % kind.name)
        touched = Counter()
        for element in terms:
            for r, c, _ in element:
                if not (0 <= r < n and 0 <= c < n):
                    raise ValueError("basis element %r has a term outside the %d x %d cells" % (element, n, n))
                touched[r * n + c] += 1
        keys = bytearray(n * n)
        for element in terms:
            r, c, _ = element[0]
            if touched[r * n + c] != 1:
                raise ValueError("the first term of basis element %r is a cell another element touches" % (element,))
            keys[r * n + c] = 1
        _set(self, "kind", kind)
        _set(self, "form", form)
        _set(self, "terms", terms)
        _set(self, "matrix_size", n)
        _set(self, "keys", bytes(keys))

    @property
    def dimension(self) -> int:
        return len(self.terms)


Term = Tuple[int, int, int]


MODEL_CACHE_SIZE = 128
"""How many models :func:`build_model` keeps, the most recently used, one
per (group, form).  The sheet-points benchmark reaches 106: 13 gl_n, 92
Jordan-basis forms of B/C/D triples and sp_4.  At matrix size 64
(:data:`~sheet_atlas.triples.MAX_TRIPLE_SIZE`) one model and its form hold
0.43-0.51 MB (gl_64 0.49 MB, D(32) 0.51 MB, measured with tracemalloc), so
a full cache holds at most about 65 MB: a model holds only its fields and
its key mask, n^2 bytes, which adds at most 4 KB."""


def build_model(kind: GroupKind, form: Optional[ClassicalForm] = None) -> LieAlgebraModel:
    """Matrix model of gl_n (type A) or of the stabiliser algebra of a form.

    For B/C/D the basis spans {x | x^T G + G x = 0}, by default for the unit
    form of the group's form sign (a form of the other symmetry raises
    ValueError), and its size is asserted to be dim G.  Type A has no form,
    and passing one raises ValueError.

    The model is shared and immutable: it is built once per process per
    (group, form), and its checks run at that build.  The last
    :data:`MODEL_CACHE_SIZE` of them are kept.
    """
    return _model(kind, form)


@lru_cache(maxsize=MODEL_CACHE_SIZE)
def _model(kind: GroupKind, form: Optional[ClassicalForm]) -> LieAlgebraModel:
    n = kind.matrix_size
    if kind.family == "A":
        if form is not None:
            raise ValueError("type A is modelled by gl_n and takes no form")
        return LieAlgebraModel(kind, None, tuple(((i, j, 1),) for i in range(n) for j in range(n)))
    if kind.form_sign is None:
        raise ValueError("no matrix model for group family %r" % (kind.family,))
    if form is None:
        form = so_gram(n) if kind.form_sign == 1 else sp_gram(n)
    if form.gram.dim != n:
        raise ValueError("form size %d does not match group on %d letters" % (form.gram.dim, n))
    want = "symmetric" if kind.form_sign == 1 else "antisymmetric"
    if form.kind != want:
        raise ValueError("the form of %s must be %s, not %s" % (kind.name, want, form.kind))
    terms = form_stabiliser_basis(form.gram)
    if len(terms) != kind.dim:
        raise AssertionError("basis size %d, expected %d" % (len(terms), kind.dim))
    return LieAlgebraModel(kind, form, tuple(terms))


def form_stabiliser_basis(gram: RationalMatrix) -> List[Tuple[Term, ...]]:
    """Basis of {x | x^T G + G x = 0} for the Gram matrix G of a
    :class:`ClassicalForm`, each element as its nonzero (row, col, k) terms
    with coprime integers k: the integer nullspace (:func:`_integer_nullspace`)
    of X^T G' + G' X = 0 on the cleared form G' = D G.  That matrix is
    symmetric or antisymmetric, as G' is, so only the conditions on and
    above the diagonal are taken: cell X[a][b] enters (X^T G')[b][j] with
    G'[a][j] and (G' X)[i][b] with G'[i][a].  When G' is monomial each cell
    lies in one condition, and the singleton peel takes every pivot.
    """
    rg = gram.nz
    n = len(rg)
    conditions: Dict[int, Dict[int, int]] = {}
    for a, (row, col) in enumerate(zip(rg, _columns(rg))):
        base = a * n
        for j, g in row:
            for b in range(j + 1):
                cond = conditions.setdefault(b * n + j, {})
                cond[base + b] = cond.get(base + b, 0) + g
        for i, g in col:
            for b in range(i, n):
                cond = conditions.setdefault(i * n + b, {})
                cond[base + b] = cond.get(base + b, 0) + g
    rows = [SparseRow(n * n, cond) for cond in conditions.values()]
    return [tuple([(p // n, p % n, k) for p, k in vec]) for vec in _integer_nullspace(rows)]


def in_algebra(x: RationalMatrix, model: LieAlgebraModel) -> bool:
    """Membership test: x^T G + G x = 0 (always true in type A).

    Exact, and valid for polynomial entries, so symbolic slice parameters
    can be checked without substitution.  The test is X^T G' + G' X = 0 on
    the integer forms of x and of the Gram matrix, a positive multiple of
    x^T G + G x.  For σ the form sign, G'^T = σ G' gives X^T G' = σ M^T
    for the one product M = G' X (:func:`_product`), so the test is
    M[i][j] + σ M[j][i] = 0 at every cell (i, j) of M: below the diagonal
    too, as a cell there may face no cell above it.
    """
    if x.dim != model.matrix_size:
        raise ValueError("dimension mismatch: %d vs model on %d letters" % (x.dim, model.matrix_size))
    if model.form is None:
        return True
    sign, rg = model.kind.form_sign, model.form.gram.nz

    def defect(rx):
        m = _product({}, 1, rg, rx)
        return [v + sign * m.get((j, i), 0) for (i, j), v in m.items()]

    # an entry of M + σ M^T sums 2n products of an entry of X and one of G':
    # 1-norm at most 2n h h_G (G' is rational, read only with a symbol)
    bound = lambda h: 2 * x.dim * h * height(v for row in rg for _, v in row)
    return not any(_on_integers((x,), bound, defect)[0])


def centralizer_dim(x: RationalMatrix, model: LieAlgebraModel) -> int:
    """Dimension of the kernel of y -> [x, y] on the model, by exact rank.

    This is the oracle for the centraliser-dimension invariant d of a sheet;
    group- and algebra-centraliser dimensions coincide here.  Every entry of
    x must be rational (a Fraction or a constant polynomial), otherwise
    ValueError.  The rank is taken on integers: with X = D x cleared of
    denominators, the row for a basis element sum k E_rc is its integer
    multiple [X, sum k E_rc] = sum k (X[:, r] e_c^T - e_r X[c, :]), filled
    from the model's sparse basis in O(n) per term as a dict, at the model's
    key cells only.  That row lies in the algebra, since x does (checked
    first), and an element of the algebra is fixed by its entries at the
    keys, so the rank is the same.  In these coordinates the rank's
    singleton peel takes every pivot at the sheet-points' x = z + e.  The
    rows go to :func:`fraction_free_rank` as :class:`SparseRow` s of width
    n^2 (at n = 64, gl:32,32 at a generic z, about 0.005 s and a 3.4 MB
    traced peak).
    """
    if not in_algebra(x, model):
        raise ValueError("element is not in the modelled Lie algebra")
    if x.symbol:
        raise ValueError("centraliser dimension needs rational entries")
    n, keys = x.dim, model.keys
    row_nz, col_nz = x.nz, _columns(x.nz)
    rows = []
    for terms in model.terms:
        out: Dict[int, int] = {}
        for r, c, k in terms:
            for i, v in col_nz[r]:
                if keys[p := i * n + c]:
                    out[p] = out.get(p, 0) + k * v
            base = r * n
            for j, v in row_nz[c]:
                if keys[p := base + j]:
                    out[p] = out.get(p, 0) - k * v
        rows.append(SparseRow(n * n, out))
    return model.dimension - fraction_free_rank(rows)


def char_poly(x: RationalMatrix) -> GradedPolynomial:
    """Monic characteristic polynomial det(λ - x), exactly.

    It works on the integer matrix X = D x (D the lcm of the denominators),
    whose coefficients c_k are D^k a_k, so (D, c) is already the scaled form
    of the answer, which is returned as it is.  First the indices of
    :func:`_peel` are taken off: Laplace expansion along a row i with no
    nonzero off the diagonal gives det(λ - X) = (λ - X_ii) det(rest), and
    those p factors are multiplied out.  The m indices left go to the trace
    recursion (Faddeev-LeVerrier), where each division by k is exact: none
    at x = z + e, and all n, not relabelled, when nothing peels.  With
    entries in Q[t], for h the largest 1-norm of an entry, the peeled
    product's coefficients have 1-norms summing to at most (1 + h)^p, and a
    coefficient of the rest is ± the sum of the C(m, k) principal k x k
    minors, each a sum of k! products of k entries, so of 1-norm at most
    (m h)^k: the work runs once at t = 2^S for the bound
    (1 + h)^p max(1, m h)^m, and every c_k is returned as a polynomial in t.
    """
    peeled = _peel(x.nz)
    p, m = len(peeled), x.dim - len(peeled)
    kernel = (lambda nz: _peeled_char_poly_ints(nz, peeled)) if peeled else _char_poly_ints
    return _graded(x.den, *_on_integers((x,), lambda h: (1 + h) ** p * max(1, m * h) ** m, kernel))


def _peel(nz: SparseRows) -> List[int]:
    """The indices of sparse rows X in Kahn's order: each one's row, among
    the indices not yet taken, has no nonzero off the diagonal.  All of them
    when the off-diagonal pattern of X is acyclic, none when every row has
    two nonzeros or more."""
    if min(map(len, nz), default=0) > 1:
        return []
    left = [sum([j != i for j, _ in row]) for i, row in enumerate(nz)]
    order = [i for i, k in enumerate(left) if not k]
    columns = _columns(nz)
    for j in order:
        for i, _ in columns[j]:
            # i is not taken yet: a taken row has no entry in a column left
            if i != j:
                left[i] -= 1
                if not left[i]:
                    order.append(i)
    return order


def _peeled_char_poly_ints(nz: SparseRows, peeled: Sequence[int]) -> List[int]:
    """Coefficients c_1, ..., c_n of det(λ - X) for sparse integer rows X:
    prod (λ - X_ii) over the peeled indices (:func:`_int_from_roots`), times
    the trace recursion on the rows and columns left."""
    c = _int_from_roots([next((v for j, v in nz[i] if j == i), 0) for i in peeled])
    if len(peeled) == len(nz):
        return c[1:]
    taken = set(peeled)
    index = {i: k for k, i in enumerate(i for i in range(len(nz)) if i not in taken)}
    return _int_convolve(c, _char_poly_ints([[(index[j], v) for j, v in nz[i] if j in index] for i in index]))[1:]


def _char_poly_ints(nz: SparseRows) -> List[int]:
    """Coefficients c_1, ..., c_n of det(λ - X) for sparse integer rows X, by
    c_k = -tr(X M_{k-1}) / k, M_k = X M_{k-1} + c_k I from M_0 = I: M_1 =
    X + c_1 I needs no product and c_n only the trace of X M_{n-1}, so n - 2
    full products are taken, each row from its first two nonzeros at once."""
    n = len(nz)
    ck = -sum([v for i, row in enumerate(nz) for j, v in row if i == j])
    coeffs = [ck] if n else []
    m = [[0] * n for _ in nz]
    for i, (mi, row) in enumerate(zip(m, nz)):
        for j, v in row:
            mi[j] = v
        mi[i] += ck
    for k in range(2, n):
        prod = []
        for row in nz:
            if len(row) > 1:
                (j, v), (l, u) = row[:2]
                out = [v * a + u * b for a, b in zip(m[j], m[l])]
            else:
                out = [row[0][1] * w for w in m[row[0][0]]] if row else [0] * n
            for j, v in row[2:]:
                out = [o + v * w for o, w in zip(out, m[j])]
            prod.append(out)
        ck = -sum([p[i] for i, p in enumerate(prod)]) // k
        coeffs.append(ck)
        for i, p in enumerate(prod):
            p[i] += ck
        m = prod
    if n > 1:
        coeffs.append(-sum([v * m[j][i] for i, row in enumerate(nz) for j, v in row]) // n)
    return coeffs


# ---------------------------------------------------------------------------
# Exact row reduction.


class SparseRow:
    """A row of ints of length ``width``, given by ``entries``: {column:
    value} for every entry that may be nonzero, which the elimination reads
    in their order; a zero reads as no entry.  ``len()`` is the width, as a
    dense row's is."""

    __slots__ = ("width", "entries")

    def __init__(self, width: int, entries: Dict[int, int]):
        self.width, self.entries = width, entries

    def __len__(self) -> int:
        return self.width


def fraction_free_rank(rows: Sequence[SparseRow]) -> int:
    """Rank by fraction-free sparse elimination on integer
    :class:`SparseRow` s: the number of pivots of :func:`_pivot_rows`."""
    return len(_pivot_rows(rows))


def _pivot_rows(rows: Sequence[SparseRow]) -> List[Tuple[int, Dict[int, int]]]:
    """The (pivot column, pivot row) pairs of a sparse fraction-free
    elimination on integers, in the order the pivots were chosen.

    Each nonzero row is kept as its nonzero entries {col: value}, in the
    order it gives them.  First the singletons are peeled, with no
    arithmetic and one index of the rows holding each column: a row with
    one entry pivots there, and that column is deleted from every other
    row; a column with one entry pivots on its row, which leaves the rest as
    it is.  This repeats until neither applies.  The rows left, in their
    order, are divided by their content, and each further pivot is chosen
    Markowitz-style: the shortest row, then its entry p of least absolute
    value, in column c.  That row leaves the rest, and each row with an
    entry e in column c becomes (p/g) row - (e/g) pivot_row, g = gcd(p, e),
    divided by its content.  Every surviving row is a nonzero rational
    multiple of the Bareiss row for the same pivot sequence (both lie in the
    span of the row and the pivot rows and vanish on the pivot columns), so
    its entries stay within the Bareiss (Hadamard) bound.  A pivot row
    therefore vanishes on every earlier pivot column: a peeled row's column
    is gone from the rest, and a peeled column was only in its row.
    """
    pending = list(filter(None, [dict(filter(_value, row.entries.items())) for row in rows]))
    holders: Dict[int, List[int]] = {}
    for i, row in enumerate(pending):
        for j in row:
            holders.setdefault(j, []).append(i)
    held = {j: len(h) for j, h in holders.items()}
    live = [True] * len(pending)
    singles = [i for i, row in enumerate(pending) if len(row) == 1]
    lone = [j for j, k in held.items() if k == 1]
    pivots = []
    while singles or lone:
        if singles:
            i = singles.pop()
            if not live[i]:
                continue
            # a row that loses its last entry dies, so a live one here has one
            (col,) = prow = pending[i]
            live[i], held[col] = False, 0
            for k in holders[col]:
                if live[k]:
                    row = pending[k]
                    del row[col]
                    if len(row) == 1:
                        singles.append(k)
                    elif not row:
                        live[k] = False
        else:
            col = lone.pop()
            if held[col] != 1:
                continue
            i = next(filter(live.__getitem__, holders[col]))
            prow, live[i] = pending[i], False
            for j in prow:
                held[j] -= 1
                if held[j] == 1:
                    lone.append(j)
        pivots.append((col, prow))
    pending = [row if (g := gcd(*row.values())) == 1 else {j: v // g for j, v in row.items()} for row in compress(pending, live)]
    while pending:
        lengths = list(map(len, pending))
        prow = pending.pop(lengths.index(min(lengths)))
        col, p = min(prow.items(), key=lambda item: abs(item[1]))
        pivots.append((col, prow))
        for row in pending:
            e = row.get(col)
            if e is not None:
                g = gcd(p, e)
                a, b = p // g, e // g
                for j in row:
                    row[j] *= a
                for j, w in prow.items():
                    v = row.get(j, 0) - b * w
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                g = gcd(*row.values())
                if g > 1:
                    for j in row:
                        row[j] //= g
        pending = list(filter(None, pending))
    return pivots


def _integer_nullspace(rows: Sequence[SparseRow]) -> List[List[Tuple[int, int]]]:
    """A basis of the nullspace of integer :class:`SparseRow` s, one vector
    per column that is no pivot of :func:`_pivot_rows`, each as its nonzero
    (column, value) entries: coprime ints, that free column first with a
    positive value, then the others in ascending column.  No other vector
    has an entry in a vector's free column.

    The pivot rows are solved in reverse order.  A pivot row vanishes on
    every earlier pivot column, so its other entries lie in the free
    columns and in later pivot columns, which are solved already.  Only the
    rows that hold a column already solved are visited, latest first, from
    a sorted list of their pivot indices: any other row's sum is 0.  The
    vector is kept integral by scaling it by |p| / g before solving for the
    pivot entry p, g the gcd of p and the sum already known.
    """
    pivots = _pivot_rows(rows)
    # holders[j]: ascending, each pivot row with an entry off its pivot in column j
    holders: Dict[int, List[int]] = {}
    for t, (col, prow) in enumerate(pivots):
        for j in prow:
            if j != col:
                holders.setdefault(j, []).append(t)
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(len(rows[0]) if rows else 0):
        if free in pivot_cols:
            continue
        x = {free: 1}
        queue = holders.get(free, [])[:]
        while queue:
            t = queue.pop()
            while queue and queue[-1] == t:
                queue.pop()
            col, prow = pivots[t]
            s = sum(v * x[j] for j, v in prow.items() if j in x)
            if s:
                p = prow[col]
                g = gcd(s, p)
                if abs(p) != g:
                    for j in x:
                        x[j] *= abs(p) // g
                x[col] = -s // g if p > 0 else s // g
                # a row holding col is earlier than t, so it has not been popped
                for u in holders.get(col, ()):
                    insort(queue, u)
        g = gcd(*x.values())
        if g > 1:
            for j in x:
                x[j] //= g
        basis.append([(free, x.pop(free))] + sorted(x.items()))
    return basis


def determinant(x: RationalMatrix) -> Fraction:
    """Exact determinant (-1)^n a_n, read off the characteristic polynomial.

    Every entry must be rational (a Fraction or a constant polynomial),
    otherwise ValueError.
    """
    if x.symbol:
        raise ValueError("determinant needs rational entries")
    coeffs = char_poly(x).coeffs
    return (-1) ** x.dim * (coeffs[-1] if coeffs else Fraction(1))
