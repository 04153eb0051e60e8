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
equal matrices have equal forms.  A relation [a, b] = k c makes no
matrix (:func:`bracket_is`): the commutator kernel of :func:`bracket`
takes AB - BA on the stored rows, and Dc (AB - BA) = k Da Db C is compared
entry by entry, with no gcd.  Fractions are built only for the dense view
and a determinant; a characteristic polynomial is returned in its scaled
form (D, c_k = D^k a_k) and builds its coefficients on first read.  With
entries in Q[t] the same integer routine runs once at t = 2^S, for an S
above a proven bound on the height of its result
(:func:`~sheet_atlas.scalars.run`), and the integer values are read back
exactly as balanced base-2^S digits.
There is one elimination, sparse and fraction-free with Markowitz-style
pivots: its pivot rows give centraliser ranks, on the ad x rows that a
model fills from its basis, and read back in reverse order they give the
nullspace behind the model of a form that is not monomial.  A model keeps
its basis in one representation, sparse coprime integer terms, read from
the cleared form of its Gram matrix.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, repeat
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

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
    parse_scalar,
    run,
    scalars_over,
)
from .sheets import GroupKind
from .spectral import GradedPolynomial, _graded


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
        rows = [tuple(filter(_value, row)) for row in rows]
        if symbol and all(len(v) == 1 for row in rows for _, v in row):
            rows, symbol = [tuple((j, v[0]) for j, v in row) for row in rows], None
        if symbol:
            g = gcd(den, *(c for row in rows for _, v in row for c in v)) if den > 1 else 1
            rows = [tuple((j, tuple(c // g for c in v)) for j, v in row) for row in rows]
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
    def zero(cls, n: int) -> "RationalMatrix":
        return cls.from_cleared(n, 1, [()] * n)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_cleared(n, 1, [[(i, 1)] for i in range(n)])

    @classmethod
    def diagonal(cls, entries: Sequence) -> "RationalMatrix":
        rows = [[(i, x)] for i, x in enumerate(entries)]
        # integer entries are their own cleared form over D = 1
        return cls.from_cleared(len(rows), 1, rows) if all(type(x) is int for x in entries) else cls._of_scalars(len(rows), rows)

    @classmethod
    def unit(cls, n: int, i: int, j: int, value=1) -> "RationalMatrix":
        rows = [[(j, value)] if r == i else [] for r in range(n)]
        return cls.from_cleared(n, 1, rows) if type(value) is int else cls._of_scalars(n, rows)

    @property
    def rows(self) -> Tuple[Tuple[Scalar, ...], ...]:
        """The dense entries, built on first access and kept."""
        if not hasattr(self, "_view"):
            zero = ZERO if self.symbol is None else RatPoly([], self.symbol)
            dense = [[zero] * self.dim for _ in self.nz]
            values = scalars_over([v for row in self.nz for _, v in row], repeat(self.den), self.symbol)
            for out, row in zip(dense, _rows(self.nz, values)):
                for j, v in row:
                    out[j] = v
            object.__setattr__(self, "_view", tuple(map(tuple, dense)))
        return self._view

    def entry(self, i: int, j: int) -> Scalar:
        return self.rows[i][j]

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

    def __neg__(self) -> "RationalMatrix":
        return self.scale(-1)

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        self._same_dim(other)
        # an entry of AB sums n products of an entry of A and one of B, and
        # the 1-norm is submultiplicative: at most n h_a h_b
        n = self.dim
        values, symbol = _on_integers((self, other), lambda ha, hb: n * ha * hb, _product)
        return _from_flat(self.dim, self.den * other.den, values, symbol)

    def scale(self, c) -> "RationalMatrix":
        c = clear([c if type(c) in _EXACT else as_scalar(c)])
        # the kernel scales the nonzero entries of X in order; an entry of c X
        # has 1-norm at most h ‖c‖₁
        values, symbol = _on_integers((self,), mul, lambda rx, cs: [v * cs[0] for row in rx for _, v in row], c)
        return RationalMatrix.from_cleared(self.dim, self.den * c[0], _rows(self.nz, values), symbol)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix.from_cleared(self.dim, self.den, _columns(self.nz), self.symbol)

    def is_zero(self) -> bool:
        return not any(self.nz)

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

    @classmethod
    def from_json(cls, obj) -> "RationalMatrix":
        return cls([[parse_scalar(v) for v in r] for r in obj])


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
    return run(forms, heights, lambda *values: kernel(*[_rows(x.nz, v) if x.symbol else v for x, v in zip(mats, values)], *values[len(mats) :]))


def bracket(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """Commutator ab - ba, exactly.

    The commutator of the integer forms A = Da a and B = Db b is taken on
    their nonzero entries, and [a, b] = (AB - BA) / (Da Db).  Entries in
    Q[t] take the same commutator at t = 2^S.
    """
    a._same_dim(b)
    # an entry of AB - BA sums 2n products of an entry of A and one of B:
    # 1-norm at most 2n h_a h_b
    n = a.dim
    values, symbol = _on_integers((a, b), lambda ha, hb: 2 * n * ha * hb, lambda ra, rb: _product(ra, rb, commutator=True))
    return _from_flat(a.dim, a.den * b.den, values, symbol)


def bracket_is(a: RationalMatrix, b: RationalMatrix, k: int, c: RationalMatrix) -> bool:
    """Whether [a, b] = k c, for an int k: the integer identity
    Dc (AB - BA) = k Da Db C on the cleared forms, AB - BA as in
    :func:`bracket`.  It makes no matrix and no gcd.  Entries in Q[t] take
    it at t = 2^S."""
    a._same_dim(b)
    a._same_dim(c)
    wc, w = c.den, k * a.den * b.den

    def defect(ra, rb, rc):
        out = [wc * v for v in _product(ra, rb, commutator=True)]
        for i, row in enumerate(rc):
            for j, v in row:
                out[i * len(ra) + j] -= w * v
        return out

    # an entry of Dc (AB - BA) - k Da Db C has 1-norm at most
    # Dc 2n h_a h_b + |k Da Db| h_c
    bound = lambda ha, hb, hc: wc * 2 * a.dim * ha * hb + abs(w) * hc
    return not any(_on_integers((a, b, c), bound, defect)[0])


def _product(ra: SparseRows, rb: SparseRows, commutator: bool = False) -> List[int]:
    """AB, or with commutator AB - BA, of sparse integer rows, as a flat
    row-major list."""
    out: List[int] = []
    for ra_i, rb_i in zip(ra, rb):
        oi = [0] * len(ra)
        for k, v in ra_i:
            for j, w in rb[k]:
                oi[j] += v * w
        if commutator:
            for k, v in rb_i:
                for j, w in ra[k]:
                    oi[j] -= v * w
        out += oi
    return out


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
    centraliser kernel.  The dense matrices ``basis`` are built on first
    access.
    """

    __slots__ = ("kind", "form", "matrix_size", "terms", "__dict__")  # __dict__ holds basis once built

    def __init__(
        self,
        kind: GroupKind,
        form: Optional[ClassicalForm],
        matrix_size: int,
        terms: Tuple[Tuple[Term, ...], ...],
    ):
        _set(self, "kind", kind)
        _set(self, "form", form)
        _set(self, "matrix_size", matrix_size)
        _set(self, "terms", terms)

    @cached_property
    def basis(self) -> Tuple[RationalMatrix, ...]:
        n = self.matrix_size
        return tuple(RationalMatrix.from_cleared(n, 1, [[(c, k) for r, c, k in sorted(t) if r == i] for i in range(n)]) for t in self.terms)

    @property
    def dimension(self) -> int:
        return len(self.terms)


Term = Tuple[int, int, int]


def build_model(kind: GroupKind, form: Optional[ClassicalForm] = None) -> LieAlgebraModel:
    """Matrix model of gl_n (type A) or of the stabiliser algebra of a form.

    For B/C/D the basis spans {x | x^T G + G x = 0}, by default for the unit
    form of the group's form sign, and its size is asserted to be dim G.
    Type A has no form, and passing one raises ValueError.
    """
    n = kind.matrix_size
    if kind.family == "A":
        if form is not None:
            raise ValueError("type A is modelled by gl_n and takes no form")
        return LieAlgebraModel(kind, None, n, tuple(((i, j, 1),) for i in range(n) for j in range(n)))
    if kind.form_sign is None:
        raise ValueError("no matrix model for group family %r" % (kind.family,))
    if form is None:
        form = so_gram(n) if kind.form_sign == 1 else sp_gram(n)
    if form.gram.dim != n:
        raise ValueError("form size %d does not match group on %d letters" % (form.gram.dim, n))
    terms = form_stabiliser_basis(form.gram)
    if len(terms) != kind.dim:
        raise AssertionError("basis size %d, expected %d" % (len(terms), kind.dim))
    return LieAlgebraModel(kind, form, n, tuple(terms))


def form_stabiliser_basis(gram: RationalMatrix) -> List[Tuple[Term, ...]]:
    """Basis of {x | x^T G + G x = 0} for the Gram matrix G of a
    :class:`ClassicalForm`, each element as its nonzero (row, col, k) terms
    with coprime integers k.

    Both routes read the cleared form G' = D G.  When every row of G
    has one nonzero entry (all the Gram matrices this library constructs),
    G is monomial, the constraint pairs matrix entries one against one and
    the basis is written down directly; otherwise it is the integer
    nullspace of the linearised condition (:func:`_integer_nullspace`).
    """
    rg = gram.nz
    n = len(rg)
    if any(len(row) != 1 for row in rg):
        return _form_stabiliser_basis_generic(rg)
    # row i of G' is the single entry v[i] in column inv[i]; G'^T = ±G'
    # makes inv an involution
    inv, v = zip(*(row[0] for row in rg))
    basis: List[Tuple[Term, ...]] = []
    seen = set()
    for r in range(n):
        for c in range(n):
            if (r, c) in seen:
                continue
            # entry (inv r, c) of x^T G' + G' x: a x[r][c] + b x[r2][c2] = 0
            r2, c2, a, b = inv[c], inv[r], v[inv[r]], v[inv[c]]
            seen.add((r, c))
            if (r2, c2) == (r, c):
                if a + b == 0:
                    basis.append(((r, c, 1),))
            else:
                seen.add((r2, c2))
                g = gcd(a, b) if b > 0 else -gcd(a, b)
                basis.append(((r, c, b // g), (r2, c2, -a // g)))
    return basis


def _form_stabiliser_basis_generic(rg: SparseRows) -> List[Tuple[Term, ...]]:
    n = len(rg)
    rows = [[0] * (n * n) for _ in range(n * n)]
    for k, row in enumerate(rg):
        for j, g in row:
            for i in range(n):
                # G'[k][j] = g enters (x^T G')[i][j] with x[k][i] and (G' x)[k][i] with x[j][i]
                rows[i * n + j][k * n + i] += g
                rows[k * n + i][j * n + i] += g
    return [tuple((p // n, p % n, k) for p, k in vec) for vec in _integer_nullspace(rows)]


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
    # an entry of X^T G' + G' X sums 2n products of an entry of X and one
    # of G': 1-norm at most 2n h h_G (G' is rational, read only with a symbol)
    rg = model.form.gram.nz
    bound = lambda h: 2 * x.dim * h * height(v for row in rg for _, v in row)
    return not any(_on_integers((x,), bound, lambda rx: _form_defect(rx, rg))[0])


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
    if x.symbol:
        raise ValueError("centraliser dimension needs rational entries")
    n = x.dim
    row_nz, col_nz = x.nz, _columns(x.nz)
    rows = []
    for terms in model.terms:
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
    exact.  The coefficients c_k of X are D^k a_k, so (D, c) is already the
    scaled form of the answer, which is returned as it is.  With entries in
    Q[t], c_k is ± the sum of the C(n, k) principal k x k minors of X, each
    a sum of k! products of k entries, so ‖c_k‖₁ <= C(n, k) k! h^k <= (n h)^k
    for h the largest 1-norm of an entry: the recursion runs once at
    t = 2^S for the bound max(1, n h)^n, and every c_k is returned as a
    polynomial in t.
    """
    n = x.dim
    return _graded(x.den, *_on_integers((x,), lambda h: max(1, n * h) ** n, _char_poly_ints))


def _char_poly_ints(nz: SparseRows) -> List[int]:
    """Coefficients c_1, ..., c_n of det(λ - X) for sparse integer rows X, by
    c_k = -tr(X M_{k-1}) / k, M_k = X M_{k-1} + c_k I from M_0 = I: M_1 =
    X + c_1 I needs no product and c_n only the trace of X M_{n-1}, so n - 2
    full products are taken, each row from its first nonzero."""
    n = len(nz)
    ck = -sum(v for i, row in enumerate(nz) for j, v in row if i == j)
    coeffs = [ck] if n else []
    m = [[0] * n for _ in nz]
    for i, (mi, row) in enumerate(zip(m, nz)):
        for j, v in row:
            mi[j] = v
        mi[i] += ck
    for k in range(2, n):
        prod = []
        for row in nz:
            out = [row[0][1] * w for w in m[row[0][0]]] if row else [0] * n
            for j, v in row[1:]:
                out = [o + v * w for o, w in zip(out, m[j])]
            prod.append(out)
        ck = -sum(prod[i][i] for i in range(n)) // k
        coeffs.append(ck)
        for i in range(n):
            prod[i][i] += ck
        m = prod
    if n > 1:
        coeffs.append(-sum(v * m[j][i] for i, row in enumerate(nz) for j, v in row) // n)
    return coeffs


# ---------------------------------------------------------------------------
# Exact row reduction.


def fraction_free_rank(rows: Sequence[Sequence[Union[int, Fraction]]]) -> int:
    """Rank by fraction-free sparse elimination on integers: the number of
    pivot rows of :func:`_pivot_rows`."""
    return len(_pivot_rows(rows))


def _pivot_rows(rows: Sequence[Sequence[Union[int, Fraction]]]) -> List[Tuple[int, Dict[int, int]]]:
    """The (pivot column, pivot row) pairs of a sparse fraction-free
    elimination on integers, in the order the pivots were chosen.

    Each nonzero row, cleared of denominators if it holds Fractions, is kept
    as its nonzero entries {col: value} divided by their content.  The pivot
    is chosen Markowitz-style: the shortest remaining row, then its entry p
    of least absolute value, in column c.  That row leaves the rest, and each
    row with an entry e in column c becomes (p/g) row - (e/g) pivot_row,
    g = gcd(p, e), divided by its content.  Every surviving row is a nonzero
    rational multiple of the Bareiss row for the same pivot sequence (both
    lie in the span of the row and the pivot rows and vanish on the pivot
    columns), so its entries stay within the Bareiss (Hadamard) bound.  A
    pivot row therefore vanishes on every earlier pivot column.
    """
    pending: List[Dict[int, int]] = []
    for row in rows:
        values = list(filter(None, row))
        if not values:
            continue
        if set(map(type, values)) != {int}:
            values = clear(values)[1]
        g = gcd(*values)
        pending.append(dict(zip(compress(count(), row), values if g == 1 else [v // g for v in values])))
    pivots = []
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


def _integer_nullspace(rows: Sequence[Sequence[int]]) -> List[List[Tuple[int, int]]]:
    """A basis of the nullspace of integer rows, one vector per column that
    is no pivot of :func:`_pivot_rows`, each as its nonzero (column, value)
    entries: coprime ints, positive in that column.

    The pivot rows are solved in reverse order.  A pivot row vanishes on
    every earlier pivot column, so its other entries lie in the free
    columns and in later pivot columns, which are solved already.  The
    vector is kept integral by scaling it by |p| / g before solving for the
    pivot entry p, g the gcd of p and the sum already known.
    """
    pivots = _pivot_rows(rows)
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(len(rows[0]) if rows else 0):
        if free in pivot_cols:
            continue
        x = {free: 1}
        for col, prow in reversed(pivots):
            s = sum(v * x[j] for j, v in prow.items() if j in x)
            if s:
                p = prow[col]
                g = gcd(s, p)
                if abs(p) != g:
                    for j in x:
                        x[j] *= abs(p) // g
                x[col] = -s // g if p > 0 else s // g
        g = gcd(*x.values())
        basis.append(sorted((j, v // g) for j, v in x.items()))
    return basis


def determinant(x: RationalMatrix) -> Fraction:
    """Exact determinant (-1)^n a_n, read off the characteristic polynomial.

    Every entry must be rational (a Fraction or a constant polynomial),
    otherwise ValueError.
    """
    if x.symbol:
        raise ValueError("determinant needs rational entries")
    return (-1) ** x.dim * char_poly(x).coefficient(x.dim)
