"""Independent oracles used by the tests.

These deliberately take different computational routes from the library:
partition counts by Euler's pentagonal recurrence, diagram transposition by
cells, determinant by cofactor expansion over dense polynomial entries,
rank by plain rational elimination, polynomial gcd by leading-coefficient
Euclid, and tuple recovery by squarefree (Yun) decomposition.  It also
holds :func:`falling_factorial`, a test input shared by the modules that
check the degree bounds of the specialisation layer.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from sheet_atlas.partitions import MultiplicityProfile, Partition
from sheet_atlas.scalars import poly_divmod_monic, poly_trim
from sheet_atlas.spectral import GradedPolynomial, SheetBasePoint, _poly_derivative


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
                r = [a - factor * b for a, b in zip(r, head)]
            if any(v != 0 for v in r):
                rest.append(r)
        mat = rest
        rank += 1
        col += 1
    return rank


def gcd_by_euclid(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    """Monic gcd of dense rational polynomials; each remainder step divides
    by the divisor's leading coefficient instead of normalising it."""
    a, b = poly_trim(list(p)), poly_trim(list(q))
    while b:
        rem = a
        while len(rem) >= len(b):
            c = rem[0] / b[0]
            rem = poly_trim([x - c * y for x, y in zip(rem, b)] + rem[len(b) :])
        a, b = b, rem
    return [c / a[0] for c in a] if a else []


def falling_factorial(t, start: int, count: int):
    """(t - start)(t - start - 1)...(t - start - count + 1): zero at `count`
    consecutive integers, nonzero at the next one."""
    out = t**0
    for i in range(start, start + count):
        out = out * (t - i)
    return out


def recover_tuple(image: GradedPolynomial, prof: MultiplicityProfile) -> SheetBasePoint:
    """Invert the composition map on a heart point with coprime factors.

    Squarefree decomposition: image = prod a_i^i with the a_i squarefree and
    pairwise coprime, recovered by iterated gcds with derivatives.
    """
    f = image.dense()
    fp = _poly_derivative(f)
    u = gcd_by_euclid(f, fp)
    if not u:
        raise ValueError("zero polynomial")
    v, rem = poly_divmod_monic(f, u)
    assert not rem
    w, rem = poly_divmod_monic(fp, u)
    assert not rem
    factors: List[GradedPolynomial] = []
    guard = 0
    while len(v) > 1:
        guard += 1
        if guard > image.degree + 1:
            raise AssertionError("squarefree decomposition did not terminate")
        diff = _sub(w, _poly_derivative(v))
        a = gcd_by_euclid(v, diff) or [Fraction(1)]
        factors.append(GradedPolynomial.from_dense(a))
        v, rem = poly_divmod_monic(v, a)
        assert not rem
        w, rem = poly_divmod_monic(diff, a)
        assert not rem
    while len(factors) < prof.s:
        factors.append(GradedPolynomial.one())
    return SheetBasePoint(prof, factors[: prof.s])


def _sub(a, b):
    size = max(len(a), len(b))
    a = [Fraction(0)] * (size - len(a)) + list(a)
    b = [Fraction(0)] * (size - len(b)) + list(b)
    return poly_trim([x - y for x, y in zip(a, b)])
