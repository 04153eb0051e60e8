"""Independent oracles used by the tests.

These deliberately take different computational routes from the library:
a group label's matrix size, form sign and dimension by one closed form
per family, partition counts by Euler's pentagonal recurrence, the partitions themselves
by recursion on the largest part and a sort, the nilpotent-orbit parity
rule by counting multiplicities per family, diagram transposition by
cells, type A sheet records from those cells, Hitchin base dimensions by
summing over listed invariant degrees, the paper's worked-example closed
forms for the rank-2 symplectic and type A bases (the library has only the
general routes), flag conditions by a dense scan,
polynomial products by the plain double loop over Fractions,
determinant by cofactor expansion over dense polynomial entries, rank by
plain rational elimination, polynomial gcd by leading-coefficient Euclid
over plain rational long division, polynomials from their roots by
multiplying in one linear factor at a time, a graded polynomial's value
and a RatPoly's value by Horner's rule over their coefficients (the
library's RatPoly is a value type with no evaluation), and tuple recovery by
squarefree (Yun) decomposition on the same long division.  It also
holds :func:`falling_factorial`, a test input shared by the modules that
check answers over Q[t] of full t-degree that vanish at many integers, and
:func:`descriptor_from_json`, which reads a record back from its dict form
for the round-trip tests (the library only writes records),
:func:`descriptor_to_json`, the record as a dict built field by field from
the descriptor, against which the library's text writer is checked,
:func:`sheets_table`, the ``sheets`` table formatted from those dicts, and
three test inputs: :func:`graded_from_dense`, a graded polynomial from its
dense coefficients, :func:`witness_noninjectivity`, two points off the
heart with one composition image, and :func:`sp4_triple`, the printed
rank-2 symplectic subregular triple.  :func:`dense_basis` writes a model's
basis out as dense Fraction matrices, read off its sparse terms (the
library keeps only the terms).  :func:`dense_product` multiplies dense
entries by the plain triple loop, and from it :func:`bracket_by_products`
and :func:`in_algebra_by_products` take a bracket and the test
x^T G + G x = 0 (the library multiplies its sparse integer rows on one
kernel for ``@``, brackets and membership alike).
:func:`weighted_dens_by_trial_division` finds the least common
denominator of weighted coefficients from prime
exponents, of which the library's weighted denominator (one gcd per
weight, not always the least) must be a multiple, and
:func:`seed_3301_inputs` draws the weighted denominators it is checked
on.  :func:`sparse_rows` writes dense integer rows as the
:class:`~sheet_atlas.liealg.SparseRow` s that the library's elimination
takes, and :func:`form_condition_rows` writes the conditions x^T G + G x
= 0 as such rows from a form's dense entries.
:func:`monomial_stabiliser_pairs` writes the stabiliser of a monomial form
down by pairing cells, and :func:`nullspace_by_full_back_substitution`
solves every pivot row of the library's elimination for every free column:
the references for the library's one stabiliser route and its indexed
back-substitution.  :func:`reference_parser` is the CLI's argparse parser
written out by hand, against which the CLI's own parsing is checked.
"""
from __future__ import annotations

import argparse
import random
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Callable, List, Optional, Sequence, Tuple

from sheet_atlas import cli
from sheet_atlas.liealg import RationalMatrix, SparseRow, _pivot_rows
from sheet_atlas.partitions import MultiplicityProfile, Partition
from sheet_atlas.scalars import RatPoly, as_scalar, poly_trim
from sheet_atlas.sheets import GroupKind, Levi, SheetDescriptor
from sheet_atlas.spectral import GradedPolynomial, SheetBasePoint
from sheet_atlas.triples import Sl2Triple, sp4_e, sp4_model


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence:
    p(n) = sum_{k >= 1} (-1)^(k+1) [p(n - k(3k-1)/2) + p(n - k(3k+1)/2)]."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p[m] = total
    return p[n]


def group_values_by_family(family: str, rank: int) -> Tuple[Optional[int], Optional[int], int]:
    """(matrix size, sign of the kept form, dim G) of a group label, one
    closed form per family: GL_n is n x n, keeps no form and has n^2
    entries; SO_{2r+1} keeps a symmetric form, dim r(2r + 1); Sp_{2r} an
    alternating one, dim r(2r + 1); SO_{2r} a symmetric one, dim r(2r - 1);
    F4 has no matrix size and no form, and dim 52."""
    r = rank
    return {
        "A": (r, None, r * r),
        "B": (2 * r + 1, 1, r * (2 * r + 1)),
        "C": (2 * r, -1, r * (2 * r + 1)),
        "D": (2 * r, 1, r * (2 * r - 1)),
        "F4": (None, None, 52),
    }[family]


def partitions_by_recursion(n: int) -> List[tuple]:
    """Every partition of n as a tuple of parts, largest first, by recursion
    on the largest part, then sorted into reverse-lexicographic order."""
    def parts_up_to(total: int, largest: int) -> List[tuple]:
        if total == 0:
            return [()]
        return [(p, *rest) for p in range(1, min(total, largest) + 1) for rest in parts_up_to(total - p, p)]

    return sorted(parts_up_to(n, n), reverse=True)


def orbit_partition_by_counting(family: str, parts: Sequence[int]) -> bool:
    """The textbook parity rule for the nilpotent orbits of a classical group
    (Collingwood-McGovern, Theorems 5.1.2 and 5.1.3), from a count of each
    part's multiplicity: in the orthogonal types B and D every even part
    occurs an even number of times, in the symplectic type C every odd part."""
    counts: dict[int, int] = {}
    for part in parts:
        counts[part] = counts.get(part, 0) + 1
    if family in ("B", "D"):
        return all(count % 2 == 0 for part, count in counts.items() if part % 2 == 0)
    if family == "C":
        return all(count % 2 == 0 for part, count in counts.items() if part % 2 == 1)
    raise ValueError("no parity rule for type %s" % family)


def conjugate_by_cells(m: Partition) -> Partition:
    """Transpose the Young diagram as a set of cells."""
    cells = {(r, c) for r, p in enumerate(m.parts) for c in range(p)}
    cols: dict[int, int] = {}
    for r, c in cells:
        cols[c] = cols.get(c, 0) + 1
    return Partition(cols.values())


def profile_by_conjugate_steps(m: Partition) -> dict:
    """l_i as the step sizes n_i - n_{i+1} of the conjugate partition."""
    conj = conjugate_by_cells(m).parts
    s = m.parts[0] if m.parts else 0
    steps = {}
    for i in range(1, s + 1):
        ni = conj[i - 1] if i - 1 < len(conj) else 0
        ni1 = conj[i] if i < len(conj) else 0
        steps[i] = ni - ni1
    return steps


def gl_record_fields(m: Partition) -> dict:
    """The fields of the gl_n sheet record of the Levi partition m, from the
    cells of its diagram: the orbit is the transposed diagram, |W_L| the
    product of l_i! over the steps of the transpose, d = sum m_i^2."""
    parts = m.parts
    n = sum(parts)
    d = sum(p * p for p in parts)
    w_l = 1
    for li in profile_by_conjugate_steps(m).values():
        w_l *= factorial(li)
    two = len(parts) == 2
    return {
        "nilpotent_orbit": conjugate_by_cells(m),
        "dixmier": True,
        "d": d,
        "dim_z": len(parts),
        "w_l_order": w_l,
        "katsylo_order": 1,
        "dim_sheet": n * n - d + len(parts),
        "class_tag": ("I" if parts[0] == parts[1] else "II") if two else None,
        "type_tag": (2 if parts[0] == parts[1] else 1) if two else None,
        "component_group_order": 1,
        "levi_conjugacy_caveat": False,
        "name": "gl%d:m=%s" % (n, ",".join(str(p) for p in parts)),
        "decomposition_data": "(%s,0)" % "x".join("GL%d" % p for p in parts),
    }


def _h0(g: int, d: int) -> int:
    """h0(K^d) on a genus-g curve: g sections for d = 1, (2d - 1)(g - 1)
    otherwise."""
    return g if d == 1 else (2 * d - 1) * (g - 1)


def hitchin_base_by_degrees(family: str, r: int, g: int) -> int:
    """Sum of h0(K^d) over the listed invariant degrees d of the group."""
    degrees = {
        "A": list(range(1, r + 1)),
        "B": [2 * i for i in range(1, r + 1)],
        "C": [2 * i for i in range(1, r + 1)],
        "D": [2 * i for i in range(1, r)] + [r],
        "F4": [2, 6, 8, 12],
    }[family]
    return sum(_h0(g, d) for d in degrees)


def dim_hitchin_base_sp4(g: int) -> int:
    """The paper's rank-2 symplectic full base: h0(K^2) + h0(K^4), which is
    10(g - 1)."""
    return _h0(g, 2) + _h0(g, 4)


def dim_s_hitchin_base_gln(m: Partition, g: int) -> int:
    """The paper's double sum for the reduced base of the gl sheet of m:
    for each part size i with l_i parts (the conjugate's steps), one
    section space of each weight 1, ..., l_i."""
    return sum(_h0(g, j) for li in profile_by_conjugate_steps(m).values() for j in range(1, li + 1))


def dim_s_hitchin_base_sp4_dix(g: int) -> int:
    """The paper's distinguished component for the rank-2 symplectic sheet
    with residual group of order 2: one weight-1 line, h0(K) = g."""
    return _h0(g, 1)


def flag_condition_by_scan(rows, flag_dims: Sequence[int], allowed: Callable[[int, int], bool]) -> bool:
    """Whether allowed(block of r, block of c) holds at every nonzero entry
    rows[r][c], scanning every entry; block k holds the indices below
    flag_dims[k] and not below an earlier bound."""

    def block(i: int) -> int:
        return next(k for k, bound in enumerate(flag_dims) if i < bound)

    return all(allowed(block(r), block(c)) for r, row in enumerate(rows) for c, v in enumerate(row) if v != 0)


def convolve_fractions(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    """The product of two ascending coefficient lists by the plain double
    loop over Fractions, trailing zeros trimmed."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and not out[-1]:
        out.pop()
    return out


def charpoly_by_expansion(rows: Sequence[Sequence[Fraction]]) -> List[Fraction]:
    """det(lambda*I - X) by cofactor expansion over dense lambda-polynomials.

    Returns descending coefficients, leading 1.
    """
    n = len(rows)

    def padd(a, b):
        la, lb = len(a), len(b)
        size = max(la, lb)
        a = [Fraction(0)] * (size - la) + list(a)
        b = [Fraction(0)] * (size - lb) + list(b)
        return [x + y for x, y in zip(a, b)]

    def pmul(a, b):
        if not a or not b:
            return []
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    entries = [
        [padd([Fraction(1), Fraction(0)] if i == j else [], [-rows[i][j]]) for j in range(n)]
        for i in range(n)
    ]

    def det(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        out = []
        for j in range(k):
            minor = [[mat[r][c] for c in range(k) if c != j] for r in range(1, k)]
            term = pmul(mat[0][j], det(minor))
            if j % 2:
                term = [-v for v in term]
            out = padd(out, term)
        return out

    result = det(entries)
    while result and result[0] == 0:
        result.pop(0)
    return result


def rank_by_rational_elimination(rows: List[List[Fraction]]) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    col = 0
    ncols = len(mat[0]) if mat else 0
    while mat and col < ncols:
        piv = None
        for i, r in enumerate(mat):
            if r[col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        mat[0], mat[piv] = mat[piv], mat[0]
        head = mat[0]
        rest = []
        for r in mat[1:]:
            if r[col] != 0:
                factor = r[col] / head[col]
                r = [a - factor * b if b else a for a, b in zip(r, head)]
            if any(r):
                rest.append(r)
        mat = rest
        rank += 1
        col += 1
    return rank


def sparse_rows(rows: Sequence[Sequence[int]]) -> List[SparseRow]:
    """Dense rows of ints as SparseRows of their width, each by its nonzero
    entries in ascending column."""
    return [SparseRow(len(row), {j: v for j, v in enumerate(row) if v}) for row in rows]


def nullspace_by_full_back_substitution(rows: Sequence[SparseRow]) -> List[List[Tuple[int, int]]]:
    """The nullspace basis of :func:`~sheet_atlas.liealg._integer_nullspace`
    on the same pivot rows (:func:`~sheet_atlas.liealg._pivot_rows`), by a
    back-substitution that walks every pivot row, in reverse order, for
    every free column.  Only the choice of the rows visited differs from the
    library's, so the two bases are equal."""
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
        basis.append([(free, x.pop(free) // g)] + sorted((j, v // g) for j, v in x.items()))
    return basis


def form_condition_rows(gram: RationalMatrix, upper: bool = False) -> List[SparseRow]:
    """The n^2 conditions (X^T G + G X)[i][j] = 0 on the n^2 cells of X, for
    the Gram matrix G scaled to integers by the lcm of its denominators,
    read off its dense entries; with upper, only those with i <= j."""
    d = lcm(*(v.denominator for row in gram.rows for v in row))
    g = [[int(v * d) for v in row] for row in gram.rows]
    n = len(g)
    out = []
    for i in range(n):
        for j in range(i if upper else 0, n):
            row = [0] * (n * n)
            for k in range(n):
                # X[k][i] G[k][j] from X^T G, and G[i][k] X[k][j] from G X
                row[k * n + i] += g[k][j]
                row[k * n + j] += g[i][k]
            out.append(SparseRow(n * n, {p: v for p, v in enumerate(row) if v}))
    return out


def monomial_stabiliser_pairs(gram: RationalMatrix) -> List[Tuple[Tuple[int, int, Fraction], ...]]:
    """The stabiliser {x | x^T G + G x = 0} of a monomial Gram matrix G (one
    nonzero entry per row), by pairing cells: with G[i][inv i] = v_i, entry
    (inv r, c) of x^T G + G x is v_{inv r} x[r][c] + v_{inv c} x[inv c][inv r].
    So a cell (r, c) is tied to the one cell (inv c, inv r), and the pair
    spans the line of (v_{inv c}, -v_{inv r}); a self-paired cell is free
    when its two terms cancel, and zero otherwise.  Each element is given
    as its (row, col, coefficient) terms, Fractions in no normal form."""
    rows = gram.rows
    inv, v = [], []
    for row in rows:
        (j, x), = [(j, x) for j, x in enumerate(row) if x]
        inv.append(j)
        v.append(x)
    n = len(rows)
    out, seen = [], set()
    for r in range(n):
        for c in range(n):
            if (r, c) in seen:
                continue
            r2, c2, a, b = inv[c], inv[r], v[inv[r]], v[inv[c]]
            seen |= {(r, c), (r2, c2)}
            if (r2, c2) != (r, c):
                out.append(((r, c, b), (r2, c2, -a)))
            elif a + b == 0:
                out.append(((r, c, Fraction(1)),))
    return out


def gcd_by_euclid(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    """Monic gcd of dense rational polynomials; each remainder step divides
    by the divisor's leading coefficient instead of normalising it."""
    a, b = poly_trim(list(p)), poly_trim(list(q))
    while b:
        a, b = b, long_division(a, b)[1]
    return [c / a[0] for c in a] if a else []


def long_division(p: Sequence[Fraction], q: Sequence[Fraction]):
    """Quotient and trimmed remainder of dense rational p by q (leading
    entry nonzero), one leading term of p at a time in Fractions.  A monic
    q (leading entry 1) needs no division, so p and q may then also have
    coefficients in Q[t]."""
    quo, rem = [], list(p)
    while len(rem) >= len(q):
        c = rem[0] if q[0] == 1 else rem[0] / q[0]
        quo.append(c)
        rem = [x - c * y for x, y in zip(rem[1:], q[1:])] + rem[len(q) :]
    return quo, poly_trim(rem)


def expand_roots(roots: Sequence) -> List:
    """Dense coefficients [1, a_1, ..., a_d] of prod (λ - r), one linear
    factor at a time with plain scalar (Fraction or RatPoly) arithmetic."""
    dense = [Fraction(1)]
    for r in roots:
        dense = [a - r * b for a, b in zip(dense + [Fraction(0)], [Fraction(0)] + dense)]
    return dense


def horner(coeffs: Sequence, value):
    """The polynomial with descending coefficients ``coeffs`` at ``value``,
    by Horner's rule in plain scalar (Fraction or RatPoly) arithmetic."""
    out = Fraction(0)
    for c in coeffs:
        out = out * value + c
    return out


def evaluate(poly: GradedPolynomial, value):
    """poly(value) by Horner's rule over [1, a_1, ..., a_d]."""
    return horner(poly.dense(), value)


def power(x, k: int):
    """x^k for k >= 1 by k - 1 plain scalar multiplications."""
    out = x
    for _ in range(k - 1):
        out = out * x
    return out


def value_at(x, t0):
    """A scalar at t = t0: a RatPoly by Horner's rule over its coefficients,
    any other scalar being constant."""
    return horner(x.coeffs[::-1], t0) if isinstance(x, RatPoly) else x


def graded_from_dense(dense: Sequence) -> GradedPolynomial:
    """From descending-power coefficients; leading coefficient must be 1."""
    dense = [as_scalar(c) for c in dense]
    if not dense or dense[0] != 1:
        raise ValueError("graded polynomials are monic")
    return GradedPolynomial(tuple(dense[1:]))


def witness_noninjectivity(a) -> Tuple[SheetBasePoint, SheetBasePoint]:
    """The classical witness that the composition map is not injective off
    the heart: for the profile of (2,1,1), the points ((λ-a)^2, λ+a) and
    ((λ+a)^2, λ-a), written from their dense coefficients.  Both compose to
    (λ-a)^2 (λ+a)^2; for a != 0 they differ and neither lies in the heart,
    and for a = 0 they are one point."""
    a = Fraction(a)
    prof = MultiplicityProfile((2, 1))  # l_1 = 2 parts 1 and l_2 = 1 part 2: the profile of (2,1,1)
    square = lambda c: graded_from_dense([1, -2 * c, c * c])  # (λ - c)^2
    return (SheetBasePoint(prof, (square(a), graded_from_dense([1, a]))),
            SheetBasePoint(prof, (square(-a), graded_from_dense([1, -a]))))


def weighted_dens_by_trial_division(dens: Sequence[int]) -> int:
    """The least D with dens[k-1] | D^k for every k,
    prod_p p^(max_k ceil(v_p(dens_k)/k)), each prime exponent v_p(dens_k)
    found by trial division."""
    vectors = {}
    for k, q in enumerate(dens):
        p = 2
        while q > 1:
            if p * p > q:
                p = q
            while q % p == 0:
                q //= p
                vectors.setdefault(p, [0] * len(dens))[k] += 1
            p += 1
    least = 1
    for p, v in vectors.items():
        least *= p ** max(-(-e // k) for k, e in enumerate(v, start=1))
    return least


def seed_3301_inputs() -> Tuple[List[List[int]], List[Fraction]]:
    """Test inputs of weighted denominators, drawn by random.Random(3301):
    200 lists of up to 8 denominators from a set with shared and repeated
    primes, then the coefficients after the leading 1 of the product of 40
    factors λ - a/b with |a| <= 60 and b <= 9, whose denominators have an
    lcm beyond 2^40."""
    rng = random.Random(3301)
    lists = []
    for _ in range(200):
        lists.append([rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 25, 49, 2**20, 3**7 * 5]) for _ in range(rng.randint(0, 8))])
    roots = [Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(40)]
    return lists, expand_roots(roots)[1:]


def sp4_h() -> RationalMatrix:
    return RationalMatrix.diagonal([1, 1, -1, -1])


def sp4_f() -> RationalMatrix:
    return RationalMatrix([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])


def dense_basis(model) -> Tuple[RationalMatrix, ...]:
    """The basis of a Lie algebra model as dense matrices: element i has the
    Fraction entry k at (r, c) for each term (r, c, k) of model.terms[i]."""
    n = model.matrix_size
    out = []
    for terms in model.terms:
        rows = [[Fraction(0)] * n for _ in range(n)]
        for r, c, k in terms:
            rows[r][c] += Fraction(k)
        out.append(RationalMatrix(rows))
    return tuple(out)


def dense_product(a: Sequence[Sequence], b: Sequence[Sequence]) -> List[list]:
    """The product of dense square matrices by the plain triple loop over
    their Fraction or RatPoly entries."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]


def bracket_by_products(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    """ab - ba, from two plain products of the dense entries."""
    ab, ba = dense_product(a.rows, b.rows), dense_product(b.rows, a.rows)
    return RationalMatrix([[u - v for u, v in zip(p, q)] for p, q in zip(ab, ba)])


def in_algebra_by_products(x: RationalMatrix, model) -> bool:
    """Whether x^T G + G x = 0 for the model's Gram matrix G (always in
    type A), from two plain products of the dense entries."""
    if model.form is None:
        return True
    g, xt = model.form.gram.rows, [list(col) for col in zip(*x.rows)]
    return all(u + v == 0 for p, q in zip(dense_product(xt, g), dense_product(g, x.rows)) for u, v in zip(p, q))


def sp4_triple() -> Sl2Triple:
    """The standard subregular triple, adapted to the flag (1, 3, 4)."""
    return Sl2Triple(
        e=sp4_e(),
        h=sp4_h(),
        f=sp4_f(),
        model=sp4_model(),
        flag_dims=(1, 3, 4),
        abelianization_value=Fraction(1),
        label="sp4:subregular-triple",
    )


def falling_factorial(t, start: int, count: int):
    """(t - start)(t - start - 1)...(t - start - count + 1): zero at `count`
    consecutive integers, nonzero at the next one."""
    out = RatPoly([1])
    for i in range(start, start + count):
        out = out * (t - i)
    return out


def recover_tuple(image: GradedPolynomial, prof: MultiplicityProfile) -> SheetBasePoint:
    """Invert the composition map on a heart point with coprime factors.

    Squarefree decomposition: image = prod a_i^i with the a_i squarefree and
    pairwise coprime, recovered by iterated gcds with derivatives.
    """
    f = image.dense()
    fp = _derivative(f)
    u = gcd_by_euclid(f, fp)
    if not u:
        raise ValueError("zero polynomial")
    v, rem = long_division(f, u)
    assert not rem
    w, rem = long_division(fp, u)
    assert not rem
    factors: List[GradedPolynomial] = []
    guard = 0
    while len(v) > 1:
        guard += 1
        if guard > image.degree + 1:
            raise AssertionError("squarefree decomposition did not terminate")
        diff = _sub(w, _derivative(v))
        a = gcd_by_euclid(v, diff) or [Fraction(1)]
        factors.append(graded_from_dense(a))
        v, rem = long_division(v, a)
        assert not rem
        w, rem = long_division(diff, a)
        assert not rem
    while len(factors) < prof.s:
        factors.append(GradedPolynomial(()))
    return SheetBasePoint(prof, factors[: prof.s])


def _derivative(p):
    d = len(p) - 1
    return poly_trim([c * (d - i) for i, c in enumerate(p[:-1])])


def _sub(a, b):
    size = max(len(a), len(b))
    a = [Fraction(0)] * (size - len(a)) + list(a)
    b = [Fraction(0)] * (size - len(b)) + list(b)
    return poly_trim([x - y for x, y in zip(a, b)])


def _named_levis(kind: GroupKind) -> dict:
    """The Levis a record of a B, C, D or F4 group names by a string: the
    whole group (G' = G: residual r in type C, the matrix size in B and D),
    the torus (r blocks GL_1, and SO_1 in type B), and F4's B3 Levi
    (GL_1 x Spin_7)."""
    if kind.family == "F4":
        return {"B3": Levi(Partition((1,)), 7)}
    r = kind.rank
    return {"full": Levi(Partition(()), r if kind.family == "C" else kind.matrix_size),
            "torus": Levi(Partition([1] * r), 1 if kind.family == "B" else 0)}


def descriptor_from_json(obj: dict) -> SheetDescriptor:
    """The descriptor whose ``to_json()`` is ``obj``; building it runs the
    descriptor's checks."""
    # the kind is written "F4", or FAMILY(RANK) as in "C(2)"
    kind = GroupKind("F4") if obj["kind"] == "F4" else GroupKind(obj["kind"][0], int(obj["kind"][2:-1]))
    levi = obj["levi"]
    if isinstance(levi, dict):
        levi = Levi(Partition(levi["gl"]), 0) if "gl" in levi else Levi(Partition([levi["a"]]), levi["residual"])
    else:
        levi = _named_levis(kind)[levi]
    orbit = obj["nilpotent_orbit"]
    fields = {key: obj[key] for key in ("dixmier", "d", "dim_z", "w_l_order", "katsylo_order", "dim_sheet", "class_tag",
                                        "type_tag", "component_group_order", "levi_conjugacy_caveat", "name")}
    return SheetDescriptor(
        kind=kind,
        levi=levi,
        nilpotent_orbit=orbit["bala_carter"] if isinstance(orbit, dict) else Partition(orbit),
        **fields,
    )


def descriptor_to_json(desc: SheetDescriptor) -> dict:
    """The record of ``desc`` as a dict, built field by field."""
    orbit = desc.nilpotent_orbit
    kind, levi = desc.kind, desc.levi
    if kind.family == "A":
        levi = {"gl": list(levi.blocks.parts)}
    elif kind.family != "F4" and len(levi.blocks.parts) == 1:  # a torus of rank 1 too
        levi = {"a": levi.blocks.parts[0], "residual": levi.residual}
    else:
        levi = {label: name for name, label in _named_levis(kind).items()}[levi]
    return {
        "kind": str(desc.kind),
        "name": desc.name,
        "levi": levi,
        "decomposition_data": desc.decomposition_data,
        "dixmier": desc.dixmier,
        "nilpotent_orbit": {"bala_carter": orbit} if isinstance(orbit, str) else list(orbit.parts),
        "d": desc.d,
        "dim_z": desc.dim_z,
        "w_l_order": desc.w_l_order,
        "katsylo_order": desc.katsylo_order,
        "w_s_order": desc.w_s_order,
        "dim_sheet": desc.dim_sheet,
        "class_tag": desc.class_tag,
        "type_tag": desc.type_tag,
        "component_group_order": desc.component_group_order,
        "levi_conjugacy_caveat": desc.levi_conjugacy_caveat,
    }


TABLE_HEADER = ("sheet", "decomposition", "orbit", "d", "dim_z", "|W_L|", "|F|", "dim", "class")


def sheets_table(records: Sequence[dict]) -> str:
    """The table that ``sheets`` writes without --json, for records in the
    dict form of :func:`descriptor_to_json`: one row per record, each cell
    padded to the longest cell of its column, two spaces between columns,
    and a dashed rule as wide as the header line under it."""
    def orbit(value):
        return value["bala_carter"] if isinstance(value, dict) else "(" + ",".join(map(str, value)) + ")"

    rows = [TABLE_HEADER] + [
        (r["name"] or "", r["decomposition_data"], orbit(r["nilpotent_orbit"]), str(r["d"]), str(r["dim_z"]),
         str(r["w_l_order"]), str(r["katsylo_order"]), str(r["dim_sheet"]), r["class_tag"] or "-")
        for r in records
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(TABLE_HEADER))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows]
    lines.insert(1, "-" * (sum(widths) + 2 * (len(widths) - 1)))
    return "".join(line + "\n" for line in lines)


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser written out by hand, one add_argument call
    per option, as it was before the CLI read its options from one table.
    The handlers are the CLI's own: only the parsing is the oracle."""
    parser = argparse.ArgumentParser(prog="sheet-atlas", description="Sheets, slices and spectral data, exactly.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output (also SHEET_ATLAS_JSON=1)")
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--kind", required=True, choices=["A", "B", "C", "D", "F4"])
    group.add_argument("--rank", type=int)
    group.add_argument("--levi", help="partition for A (e.g. 2,1,1) or a,residual for B/C/D")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, *parents, **kwargs):
        return sub.add_parser(name, parents=[common, *parents], **kwargs)

    p = add_parser("sheets", group, help="list classified sheets of one group")
    p.set_defaults(func=cli.cmd_sheets)

    p = add_parser("sheet-info", group, help="full JSON record of one sheet")
    p.set_defaults(func=cli.cmd_sheet_info)

    p = add_parser("triple-verify", help="verify an sl2-triple or slice construction")
    p.add_argument("--case", required=True, help="gl:m1,m2 | bcd:kind,a,res | sp4-slice")
    p.add_argument("--as-printed", action="store_true", dest="as_printed", help="use the as-printed slice entry t^2")
    p.add_argument("--matrices", action="store_true", help="include matrices in JSON output")
    p.set_defaults(func=cli.cmd_triple_verify)

    p = add_parser("hitchin-dim", group, help="base dimensions, components, weights")
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(func=cli.cmd_hitchin_dim)

    p = add_parser("mu-s", help="compose factor polynomials into the full base")
    p.add_argument("--profile", required=True, help="the Levi partition, e.g. 2,1,1")
    p.add_argument("--factors", required=True, help="semicolon-separated coefficient lists (a_1..a_l per factor)")
    p.set_defaults(func=cli.cmd_mu_s)

    p = add_parser("multiplicity", help="orbit-method multiplicity at a slice point")
    p.add_argument("--sheet", required=True, help="sheet spec KIND:RANK:LEVI, e.g. C:2:1,1")
    p.add_argument("--z", help="slice coordinate(s), e.g. 5 or 0,1")
    p.set_defaults(func=cli.cmd_multiplicity)

    p = add_parser("realform", help="sheet and abelianisation report for a real form")
    p.add_argument("--label", required=True, help="SU:p,q or SOSTAR:n (for SO*(2n))")
    p.add_argument("--genus", type=int)
    p.set_defaults(func=cli.cmd_realform)

    p = add_parser("fixtures", help="regenerate or check the golden tables")
    p.add_argument("--regen", action="store_true")
    p.add_argument("--out-dir")
    p.set_defaults(func=cli.cmd_fixtures)

    return parser
