import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from sheet_atlas.liealg import RationalMatrix, char_poly
from sheet_atlas.partitions import Partition, partitions_of, profile
from sheet_atlas.scalars import ZERO, RatPoly
from sheet_atlas.spectral import (
    GradedPolynomial,
    SheetBasePoint,
    in_heart,
    min_poly,
    mu_s,
    poly_gcd,
    product_with_multiplicities,
    sp4_dix_image,
    witness_noninjectivity,
)

from oracles import evaluate, expand_roots, falling_factorial, gcd_by_euclid, graded_from_dense, power, recover_tuple, value_at


def poly_from_roots(roots):
    return GradedPolynomial.from_roots([Fraction(r) for r in roots])


def random_point(rng, m: Partition) -> SheetBasePoint:
    prof = profile(m)
    factors = []
    for i, li in prof.items():
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(li)]
        factors.append(GradedPolynomial(coeffs))
    return SheetBasePoint(prof, factors)


def test_mu_s_examples():
    prof = profile(Partition((2, 2)))
    xi2 = GradedPolynomial([Fraction(3), Fraction(-1)])  # λ^2 + 3λ - 1
    point = SheetBasePoint(prof, (GradedPolynomial.one(), xi2))
    assert mu_s(point) == xi2 * xi2

    # regular-sheet nilpotent point: single degree-n factor λ^n
    n = 5
    prof = profile(Partition([1] * n))
    point = SheetBasePoint(prof, (GradedPolynomial.monomial(n),))
    assert mu_s(point) == GradedPolynomial.monomial(n)


def test_mu_s_witness_pair():
    prof = profile(Partition((2, 1, 1)))
    a = Fraction(1)
    p1 = SheetBasePoint(prof, (poly_from_roots([a, a]), poly_from_roots([-a])))
    p2 = SheetBasePoint(prof, (poly_from_roots([-a, -a]), poly_from_roots([a])))
    expected = poly_from_roots([a, a, -a, -a])
    assert mu_s(p1) == expected
    assert mu_s(p2) == expected


def test_min_poly_examples():
    prof = profile(Partition((2, 1, 1)))
    a = Fraction(2)
    point = SheetBasePoint(prof, (poly_from_roots([a, a]), poly_from_roots([-a])))
    assert min_poly(point) == poly_from_roots([a, a]) * poly_from_roots([-a])
    assert min_poly(point).divides(mu_s(point))

    prof = profile(Partition((2, 2)))
    xi2 = GradedPolynomial([Fraction(1), Fraction(1)])
    point = SheetBasePoint(prof, (GradedPolynomial.one(), xi2))
    assert min_poly(point) == xi2


def test_in_heart():
    prof = profile(Partition((2, 1, 1)))
    a = Fraction(3)
    bad = SheetBasePoint(prof, (poly_from_roots([a, a]), poly_from_roots([-a])))
    good = SheetBasePoint(prof, (poly_from_roots([1, -1]), poly_from_roots([0])))
    assert not in_heart(bad)
    assert in_heart(good)


def test_in_heart_symbolic_coefficients():
    t = RatPoly.variable()
    prof = profile(Partition((2, 2)))
    sq = GradedPolynomial([-2 * t, t * t])  # (λ - t)^2, not squarefree
    assert not in_heart(SheetBasePoint(prof, (GradedPolynomial.one(), sq)))
    free = GradedPolynomial([RatPoly([]), -(t * t)])  # (λ - t)(λ + t)
    assert in_heart(SheetBasePoint(prof, (GradedPolynomial.one(), free)))


def test_is_squarefree_over_qt_seeded():
    # roots r + s*t + u*t^2 in Q[t]; squarefree exactly when pairwise distinct
    rng = random.Random(6021)
    seen = set()
    for trial in range(24):
        d = rng.randint(6, 8)
        roots = [RatPoly([rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-1, 1)]) for _ in range(d)]
        if trial % 3 == 0:
            roots[-1] = roots[rng.randrange(d - 1)]
        f = GradedPolynomial.from_roots(roots)
        distinct = len(set(roots)) == d
        seen.add(distinct)
        assert f.is_squarefree() == distinct, [str(r) for r in roots]
    assert seen == {True, False}


def test_is_squarefree_skips_vanishing_specialisations():
    # λ^2 - t(t-1)(t-2) λ has discriminant (t(t-1)(t-2))^2, zero at t = 0, 1, 2
    t = RatPoly.variable()
    f = GradedPolynomial.from_roots([0, t * (t - 1) * (t - 2)])
    assert f == GradedPolynomial([-(t * (t - 1) * (t - 2)), 0])
    for t0 in (0, 1, 2):
        assert not GradedPolynomial.from_roots([0, t0 * (t0 - 1) * (t0 - 2)]).is_squarefree()
    assert f.is_squarefree()
    assert not (f * f).is_squarefree()


def test_is_squarefree_rejects_two_symbols():
    t, s = RatPoly.variable("t"), RatPoly.variable("s")
    f = GradedPolynomial([t, s])
    with pytest.raises(ValueError):
        f.is_squarefree()
    with pytest.raises(ValueError):
        in_heart(SheetBasePoint(profile(Partition((1, 1))), (f,)))


ELL = 2**61 - 1  # the prime of the squarefreeness certificate


def _squarefree_by_oracle(dense):
    """Squarefreeness of a rational dense polynomial by leading-coefficient
    Euclid with its derivative."""
    d = len(dense) - 1
    return len(gcd_by_euclid(dense, [c * (d - i) for i, c in enumerate(dense[:-1])])) == 1


def _at(f: GradedPolynomial, t0):
    return [value_at(c, t0) for c in f.dense()]


def test_is_squarefree_agrees_with_euclid_seeded():
    """Rational polynomials with and without repeated roots, and random
    coefficients, against the oracle gcd; polynomials over Q[t] built from
    roots, against their construction and against the oracle at a rational
    t that no specialisation of the route uses."""
    rng = random.Random(8081)
    answers = set()
    for trial in range(300):
        d = rng.randint(0, 10)
        if trial % 3:
            roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(d)]
            if d >= 2 and trial % 3 == 2:
                roots[-1] = roots[0]
            f = GradedPolynomial.from_roots(roots)
        else:
            f = GradedPolynomial([Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d)])
        expected = _squarefree_by_oracle(f.dense())
        answers.add(expected)
        assert f.is_squarefree() == expected, str(f)
    assert answers == {True, False}
    generic = Fraction(1, 7919)
    for trial in range(40):
        d = rng.randint(1, 7)
        roots = [RatPoly([rng.randint(-4, 4), rng.randint(-3, 3)]) for _ in range(d)]
        if d >= 2 and trial % 2:
            roots[rng.randrange(1, d)] = roots[0]
        distinct = len(set(roots)) == d
        f = GradedPolynomial.from_roots(roots)
        assert f.is_squarefree() == distinct, [str(r) for r in roots]
        # squarefree at one t proves it over Q(t); a repeated root repeats at every t
        assert _squarefree_by_oracle(_at(f, generic)) == distinct


@pytest.mark.parametrize(
    "roots, squarefree",
    [
        # roots r and r + ℓ: squarefree, but they agree modulo ℓ
        ([3, 3 + ELL], True),
        ([Fraction(1, 2), Fraction(1, 2) + ELL, -7, 0], True),
        ([3, 3 + ELL, 3 + ELL], False),
        # a root 1/ℓ: a denominator divisible by ℓ
        ([Fraction(1, ELL), 2], True),
        ([Fraction(1, ELL), Fraction(5, ELL), Fraction(-1, 3)], True),
        ([Fraction(1, ELL), 2, Fraction(1, ELL)], False),
        # both
        ([Fraction(1, ELL), Fraction(1, ELL) + ELL], True),
    ],
)
def test_is_squarefree_where_the_certificate_fails(roots, squarefree):
    f = GradedPolynomial.from_roots([Fraction(r) for r in roots])
    assert _squarefree_by_oracle(f.dense()) == squarefree
    assert f.is_squarefree() == squarefree
    prof = profile(Partition([1] * len(roots)))
    assert in_heart(SheetBasePoint(prof, (f,))) == squarefree


def test_is_squarefree_over_qt_where_the_certificate_fails_at_zero():
    t = RatPoly.variable()
    # at t = 0 the roots are 0 and ℓ: squarefree over Q, not modulo ℓ
    f = GradedPolynomial.from_roots([t, t + ELL, -t + 1])
    assert f.is_squarefree()
    assert not GradedPolynomial.from_roots([t, t + ELL, t]).is_squarefree()
    # denominators ℓ rule the certificate out at every t, and at t = 0 the
    # roots ℓ t and 0 coincide
    g = GradedPolynomial.from_roots([ELL * t, Fraction(1, ELL) * t + Fraction(1, ELL), 0])
    assert not _squarefree_by_oracle(_at(g, 0))
    assert g.is_squarefree()
    assert not (g * GradedPolynomial.from_roots([ELL * t])).is_squarefree()


def test_poly_gcd_is_rational_only():
    t = RatPoly.variable()
    with pytest.raises(ValueError):
        poly_gcd([Fraction(1), t], [Fraction(1), Fraction(0)])
    one, minus_one = RatPoly.constant(1), RatPoly.constant(-1)
    # (λ - 1)(λ + 1) and 2(λ - 1) with constant-polynomial coefficients
    assert poly_gcd([one, RatPoly([]), minus_one], [RatPoly.constant(2), RatPoly.constant(-2)]) == [1, -1]
    assert poly_gcd([], []) == []
    assert poly_gcd([Fraction(3)], []) == [1]


def test_poly_gcd_against_euclid_up_to_degree_40():
    rng = random.Random(113)
    pool = sorted({Fraction(a, b) for a in range(-9, 10) for b in range(1, 10)})
    scales = [Fraction(3, 7), Fraction(-2, 5), Fraction(9, 4)]

    def dense(roots):
        scale = rng.choice(scales)
        return [scale * c for c in expand_roots(roots)]

    for repeated in (False, True):
        # A B and A C at degree 4, then 20 to 40, with B and C of degree k
        for degree in (4, 20, 30, 40):
            k = min(degree // 2, 10)
            roots = rng.sample(pool, degree + k)
            common = roots[: degree - k]
            if repeated:
                common[-1] = common[0]
            p, q = dense(common + roots[degree - k : degree]), dense(common + roots[degree:])
            expected = gcd_by_euclid(p, q)
            assert poly_gcd(p, q) == expected == expand_roots(common)
            assert poly_gcd(q, p[:-1]) == gcd_by_euclid(q, p[:-1])
        # p and p' at degree 20: every Euclid step, with a repeated root or none
        roots = rng.sample(pool, 20)
        if repeated:
            roots[-1] = roots[0]
        p = dense(roots)
        derivative = [c * (20 - k) for k, c in enumerate(p[:-1])]
        expected = gcd_by_euclid(p, derivative)
        assert poly_gcd(p, derivative) == expected and len(expected) == 1 + repeated


def test_witness_noninjectivity():
    for a in (1, 2, 3, Fraction(1, 2)):
        p1, p2 = witness_noninjectivity(a)
        assert p1 != p2
        assert mu_s(p1) == mu_s(p2)
    with pytest.raises(ValueError):
        witness_noninjectivity(0)


def test_sp4_dix_image():
    assert sp4_dix_image(1) == GradedPolynomial([0, Fraction(-1), 0, 0])
    assert sp4_dix_image(0) == GradedPolynomial.monomial(4)
    t = RatPoly.variable()
    img = sp4_dix_image(t)
    assert img.coefficient(2) == -(t * t)


def test_degree_identity_random_sweep():
    rng = random.Random(20240817)
    for n in range(1, 11):
        for m in partitions_of(n):
            for _ in range(10):
                point = random_point(rng, m)
                assert mu_s(point).degree == n


def test_multiplicativity_in_each_factor():
    rng = random.Random(7)
    m = Partition((3, 2, 2, 1))
    prof = profile(m)
    point = random_point(rng, m)
    eta = GradedPolynomial([Fraction(5)])
    for slot in range(1, prof.s + 1):
        factors = list(point.factors)
        factors[slot - 1] = factors[slot - 1] * eta
        lhs = product_with_multiplicities(factors)
        assert lhs == mu_s(point) * eta**slot



# (λ - 1/3)(λ + 5/7)(λ - 11/13): a monic divisor with large coprime denominators
COPRIME_DIVISOR = GradedPolynomial.from_roots([Fraction(1, 3), Fraction(-5, 7), Fraction(11, 13)])
# the same with 12/13, never a root of the test points (their roots lie in Z/12)
NON_DIVISOR = GradedPolynomial.from_roots([Fraction(1, 3), Fraction(-5, 7), Fraction(12, 13)])


def test_products_and_division_by_evaluation():
    """Products and monic division checked by Horner evaluation
    (``oracles.evaluate``) at rational points, rational factors with
    denominators and factors with a coefficient in t; divisors with and
    without a remainder; gcds against leading-coefficient Euclid."""
    rng = random.Random(2024)
    t = RatPoly.variable("t")
    xs = [Fraction(k, 3) for k in range(-4, 5)]
    for trial in range(40):
        point = random_point(rng, Partition((3, 2, 2, 1, 1)))
        factors = list(point.factors)
        if trial % 4 == 3:
            factors[0] = GradedPolynomial([factors[0].coeffs[0] + t, *factors[0].coeffs[1:]])
        image = product_with_multiplicities(factors)
        minimal = min_poly(SheetBasePoint(point.profile, factors))
        for x in xs:
            expected, once = Fraction(1), Fraction(1)
            for i, xi in enumerate(factors, start=1):
                expected = expected * power(evaluate(xi, x), i)
                once = once * evaluate(xi, x)
            assert evaluate(image, x) == expected
            assert evaluate(minimal, x) == once
        assert minimal.divides(image)
        # (divisor, whether it divides): large coprime denominators included
        image = image * COPRIME_DIVISOR
        divisors = [
            (GradedPolynomial([Fraction(rng.randint(-5, 5)) for _ in range(3)]), None),
            (factors[1], True),
            (COPRIME_DIVISOR, True),
            (factors[0] * COPRIME_DIVISOR, True),
            (NON_DIVISOR, False),
        ]
        for divisor, divides in divisors:
            quo, rem = image.divmod(divisor)
            assert len(rem) < divisor.degree + 1 and (not rem or rem[0] != 0)
            for x in xs:
                rem_at_x = Fraction(0)
                for c in rem:
                    rem_at_x = rem_at_x * x + c
                assert evaluate(quo, x) * evaluate(divisor, x) + rem_at_x == evaluate(image, x)
            if divides is not None:
                assert (not rem) == divides == divisor.divides(image)
            if trial % 4 != 3:
                assert poly_gcd(image.dense(), divisor.dense()) == gcd_by_euclid(image.dense(), divisor.dense())


def _value(dense, lam, t0):
    """Horner in t at t0, then in λ at lam, of a dense coefficient list."""
    out = Fraction(0)
    for c in dense:
        out = out * lam + value_at(c, t0)
    return out


SAMPLES = [(lam, t0) for lam in (Fraction(2), Fraction(-3, 5)) for t0 in (Fraction(1, 3), Fraction(-7, 2))]


def _staircase(s, width):
    """The profile with s factors, each of degree `width`."""
    return profile(Partition([k for k in range(s, 0, -1) for _ in range(width)]))


def test_products_and_division_specialisation_bounds_are_met():
    t = RatPoly.variable()
    for degrees in ((1,), (2, 1), (1, 2, 1), (3, 1, 2)):
        s = len(degrees)
        # ξ_i = λ^2 + t^(m_i) λ + (i/7) t^(m_i): the constant term of mu_s
        # has t-degree sum i m_i, the bound
        factors = [GradedPolynomial([RatPoly([0] * m + [1]), RatPoly([0] * m + [Fraction(i, 7)])]) for i, m in enumerate(degrees, start=1)]
        image = mu_s(SheetBasePoint(_staircase(s, 2), factors))
        assert image.coefficient(image.degree).degree() == sum(i * m for i, m in enumerate(degrees, start=1))
        # ξ_i = λ - r_i, the r_i zero on consecutive blocks of m_i integers:
        # the constant term of min_poly is zero at every sample point but the
        # last
        roots = [falling_factorial(t, sum(degrees[:i]), m) * Fraction(3, 5) for i, m in enumerate(degrees)]
        minimal = min_poly(SheetBasePoint(_staircase(s, 1), [GradedPolynomial.from_roots([r]) for r in roots]))
        assert minimal.coefficient(s).degree() == sum(degrees)
        for lam, t0 in SAMPLES:
            expected = Fraction(1)
            for i, xi in enumerate(factors, start=1):
                expected *= _value(xi.dense(), lam, t0) ** i
            assert _value(image.dense(), lam, t0) == expected
            expected = Fraction(1)
            for r in roots:
                expected *= lam - value_at(r, t0)
            assert _value(minimal.dense(), lam, t0) == expected
    for k, dq in ((1, 1), (2, 2), (3, 1), (1, 2)):
        # λ^k mod (λ - t^dq) is t^(k dq), the bound; λ mod (λ - r), with r
        # zero at t = 0, ..., dq - 1, is r, zero at every sample point but
        # the last
        for p, q in ((GradedPolynomial.monomial(k), GradedPolynomial([RatPoly([0] * dq + [-1])])), (GradedPolynomial.monomial(1), GradedPolynomial([-falling_factorial(t, 0, dq)]))):
            quo, rem = _check_division(p, q)
            assert rem == [power(-q.coeffs[0], p.degree)] and rem[0].degree() == p.degree * dq
    # monic divisions of graded polynomials over Q[t], exact and not
    f = GradedPolynomial([t, Fraction(1, 3) * t * t, falling_factorial(t, 0, 3), Fraction(-2)])
    for g in (GradedPolynomial([falling_factorial(t, 0, 2)]), GradedPolynomial([t, Fraction(5, 7)]), COPRIME_DIVISOR):
        assert (f * g).divmod(g) == (f, [])
        quo, rem = f.divmod(g)
        assert rem
        for lam, t0 in SAMPLES:
            assert _value(quo.dense(), lam, t0) * _value(g.dense(), lam, t0) + _value(rem, lam, t0) == _value(
                f.dense(), lam, t0
            )


def _check_division(p, q):
    """p.divmod(q) against p = quo q + rem by Horner at the sample points,
    with deg rem < deg q."""
    quo, rem = p.divmod(q)
    assert quo.degree == p.degree - q.degree and len(rem) <= q.degree
    for lam, t0 in SAMPLES + [(Fraction(5, 4), Fraction(11)), (Fraction(-1), Fraction(-2, 9))]:
        assert _value(quo.dense(), lam, t0) * _value(q.dense(), lam, t0) + _value(rem, lam, t0) == _value(p.dense(), lam, t0)
    return quo, rem


def test_division_over_qt_up_to_degree_ten():
    """mu_s by min_poly over Q[t] on seeded profiles of n <= 10, factors of
    any degree, roots of t-degree up to 2; then dividends whose t-degree
    exceeds the weight of the divisor, and divisors for which the bound
    dp + (nquo + 1) dq is the smaller one."""
    rng = random.Random(5150)
    t = RatPoly.variable()
    profiles = [m for n in range(2, 11) for m in partitions_of(n)]
    for trial in range(60):
        m = profiles[-1 - trial % 12] if trial % 3 == 0 else rng.choice(profiles)
        prof = profile(m)
        factors = []
        for _, li in prof.items():
            roots = [RatPoly([rng.randint(-5, 5), rng.choice((-2, -1, 1, 3)), rng.randint(-1, 1)]) for _ in range(li)]
            factors.append(GradedPolynomial.from_roots(roots))
        point = SheetBasePoint(prof, factors)
        image, minimal = mu_s(point), min_poly(point)
        quo, rem = _check_division(image, minimal)
        assert rem == [] and minimal.divides(image)
        assert quo.dense() == product_with_multiplicities(factors[1:]).dense()
        # not weight-bounded: a_1 of t-degree 3, other coefficients raised
        p = GradedPolynomial([RatPoly([-2, 0, 0, 1]), *(c * (t * t + 1) if k % 2 else c for k, c in enumerate(image.coeffs))])
        _check_division(p, minimal)
    for n in range(4, 11):
        # λ^n + λ/2 by λ^3 + t: the weight bound is n, dp + (n - 2) dq is n - 2
        p = [Fraction(0)] * (n - 2) + [Fraction(1, 2), Fraction(0)]
        quo, rem = _check_division(GradedPolynomial(p), GradedPolynomial([Fraction(0), Fraction(0), t]))
        assert rem and max([0, *(c.degree() for c in quo.coeffs)]) == (n - 3) // 3
        _check_division(GradedPolynomial([t, *p]), GradedPolynomial([Fraction(-1, 3), Fraction(0), t * t - t]))
    for k in range(1, 6):
        # λ^k mod (λ^k + r λ^(k-1)), r zero at t = 0, 1: the remainder -r
        # λ^(k-1) meets dp + (nquo + 1) dq = 2, below the weight bound 2k
        r = falling_factorial(t, 0, 2)
        quo, rem = _check_division(GradedPolynomial.monomial(k), GradedPolynomial([r, *[Fraction(0)] * (k - 1)]))
        assert rem[0] == -r


def coprime_heart_point(rng, m: Partition, pool):
    prof = profile(m)
    roots = rng.sample(pool, sum(li for _, li in prof.items()))
    it = iter(roots)
    factors = []
    for i, li in prof.items():
        factors.append(poly_from_roots([next(it) for _ in range(li)]))
    return SheetBasePoint(prof, factors)


def test_heart_injectivity_random_pairs():
    rng = random.Random(99)
    pool = [Fraction(k) for k in range(-30, 31)]
    m = Partition((3, 2, 1, 1))
    for _ in range(200):
        p1 = coprime_heart_point(rng, m, pool)
        p2 = coprime_heart_point(rng, m, pool)
        if p1 == p2:
            continue
        assert in_heart(p1) and in_heart(p2)
        assert mu_s(p1) != mu_s(p2)


def test_recover_tuple_inverts_mu_s():
    rng = random.Random(41)
    pool = [Fraction(k) for k in range(-20, 21)]
    for n in range(2, 9):
        for m in partitions_of(n):
            point = coprime_heart_point(rng, m, pool)
            recovered = recover_tuple(mu_s(point), point.profile)
            assert recovered == point


def test_monic_division_rejects_nonmonic():
    with pytest.raises(ValueError):
        graded_from_dense([2, 1])


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=4))
def test_divmod_reconstructs(coeffs):
    f = GradedPolynomial([Fraction(c) for c in coeffs])
    g = GradedPolynomial([Fraction(1), Fraction(-2)])
    quo, rem = f.divmod(g)
    rebuilt = quo * g
    dense = rebuilt.dense()
    dense = [Fraction(c) for c in dense]
    rem_padded = [Fraction(0)] * (len(dense) - len(rem)) + list(rem)
    total = [a + b for a, b in zip(dense, rem_padded)]
    assert total == f.dense()


# Root pools for the scaled route: denominators sharing factors, pairwise
# coprime denominators, denominators divisible by ℓ = 2^61 - 1, and
# denominators whose lcm exceeds 2^128.
ROOT_POOLS = {
    "shared": [Fraction(a, b) for a in range(-9, 10) for b in (2, 4, 6, 12)],
    "coprime": [Fraction(a, b) for a in range(-9, 10) for b in (3, 5, 7, 11)],
    "ell": [Fraction(a, b) for a in range(-4, 5) for b in (ELL, 2 * ELL, 3)],
    "big": [Fraction(a, b) for a in range(-4, 5) for b in (2**129 + 1, 2**127 - 1, 10)],
}


def _check_point_against_oracles(prof, roots):
    """from_roots, mu_s, min_poly, divides and in_heart on the point whose
    i-th factor has the given roots, against Fraction (or RatPoly)
    expansion of its roots, leading-coefficient Euclid and multiset
    inclusion of the roots."""
    factors = [GradedPolynomial.from_roots(rs) for rs in roots]
    for f, rs in zip(factors, roots):
        assert f.dense() == expand_roots(rs)
    point = SheetBasePoint(prof, factors)
    every = [r for i, rs in enumerate(roots, start=1) for r in rs for _ in range(i)]
    once = [r for rs in roots for r in rs]
    image, minimal = mu_s(point), min_poly(point)
    assert image.dense() == expand_roots(every)
    assert minimal.dense() == expand_roots(once)
    assert minimal.divides(image)
    repeated = [len(set(rs)) < len(rs) for rs in roots]
    assert in_heart(point) == (not any(repeated))
    return factors, image, every


def _divides_by_roots(divisor_roots, roots) -> bool:
    rest = list(roots)
    for r in divisor_roots:
        if r not in rest:
            return False
        rest.remove(r)
    return True


@pytest.mark.parametrize("pool", sorted(ROOT_POOLS))
def test_scaled_route_against_oracles_rational(pool):
    rng = random.Random("scaled/" + pool)
    roots_pool = ROOT_POOLS[pool]
    profiles = [m for n in range(1, 8) for m in partitions_of(n)]
    divides_seen, dens_seen = set(), set()
    for trial, m in enumerate(profiles * 2):
        prof = profile(m)
        roots = [rng.sample(roots_pool, li) for _, li in prof.items()]
        if trial % 3 == 0:
            # a repeated root in the first factor of degree >= 2
            for rs in roots:
                if len(rs) >= 2:
                    rs[-1] = rs[0]
                    break
        factors, image, every = _check_point_against_oracles(prof, roots)
        for f in factors:
            dense = f.dense()
            assert f.is_squarefree() == _squarefree_by_oracle(dense)
        # a divisor from some roots of the image, and one with a root the
        # image lacks or has too few times
        k = rng.randint(1, len(every))
        divisor_roots = rng.sample(every, k)
        if trial % 2:
            divisor_roots[-1] = rng.choice(roots_pool)
        divisor = GradedPolynomial.from_roots(divisor_roots)
        expected = _divides_by_roots(divisor_roots, every)
        assert divisor.divides(image) == expected
        assert (gcd_by_euclid(image.dense(), divisor.dense()) == divisor.dense()) == expected
        quo, rem = image.divmod(divisor)
        assert (not rem) == expected
        if expected:
            rest = list(every)
            for r in divisor_roots:
                rest.remove(r)
            assert quo.dense() == expand_roots(rest)
        divides_seen.add(expected)
        d = lcm(*(r.denominator for r in every))
        dens_seen.add("ell" if d % ELL == 0 else "big" if d > 2**128 else "small")
    assert divides_seen == {True, False}
    if pool in ("ell", "big"):
        assert pool in dens_seen


def test_scaled_route_against_oracles_over_qt():
    """Roots r + s t with r and s non-integer rationals."""
    rng = random.Random(1618)
    pool = [RatPoly([Fraction(a, b), Fraction(c, e)]) for a, b, c, e in ((1, 2, 1, 3), (-2, 3, 3, 4), (5, 6, -1, 2), (-1, 4, 2, 5), (7, 10, -3, 7), (3, 5, 5, 6), (-5, 7, 1, 9))]
    profiles = [m for n in range(1, 6) for m in partitions_of(n) if max(li for _, li in profile(m).items()) <= 3]
    divides_seen, hearts = set(), set()
    for trial, m in enumerate(profiles):
        prof = profile(m)
        roots = [rng.sample(pool, li) for _, li in prof.items()]
        if trial % 2:
            for rs in roots:
                if len(rs) >= 2:
                    rs[-1] = rs[0]
                    break
        factors, image, every = _check_point_against_oracles(prof, roots)
        hearts.add(in_heart(SheetBasePoint(prof, factors)))
        divisor_roots = rng.sample(every, rng.randint(1, min(3, len(every))))
        if trial % 3 == 1:
            divisor_roots[-1] = rng.choice(pool)
        expected = _divides_by_roots(divisor_roots, every)
        assert GradedPolynomial.from_roots(divisor_roots).divides(image) == expected
        divides_seen.add(expected)
    assert divides_seen == {True, False} and hearts == {True, False}


# Root lists for the construction routes: shared and coprime denominators, a
# zero coefficient ((λ - 1/2)(λ + 1/2) = λ^2 - 1/4), roots r + s t over Q[t]
# and a zero coefficient over Q[t] ((λ - t)(λ + t) = λ^2 - t^2).
ROUTE_ROOTS = {
    "shared": [Fraction(1, 6), Fraction(-5, 6), Fraction(7, 12)],
    "coprime": [Fraction(1, 3), Fraction(-5, 7), Fraction(11, 13)],
    "zero": [Fraction(1, 2), Fraction(-1, 2)],
    "qt": [RatPoly([Fraction(1, 2), 1]), RatPoly([-3, Fraction(2, 3)])],
    "qt-zero": [RatPoly([0, 1]), RatPoly([0, -1])],
}


def _routes(roots):
    """(polynomial, its roots) from every construction route."""
    first, rest = GradedPolynomial.from_roots(roots[:1]), GradedPolynomial.from_roots(roots[1:])
    whole = GradedPolynomial.from_roots(roots)
    b = roots[0] + 1
    # factors of degrees len(roots) and 1: mu_s is whole * (λ - b)^2
    point = SheetBasePoint(profile(Partition((2, *[1] * len(roots)))), (whole, GradedPolynomial.from_roots([b])))
    yield whole, roots
    yield first * rest, roots
    yield whole**2, roots * 2
    yield mu_s(point), [*roots, b, b]
    yield min_poly(point), [*roots, b]
    quo, rem = (whole * GradedPolynomial.from_roots([b, b])).divmod(GradedPolynomial.from_roots([b]))
    assert rem == []
    yield quo, [*roots, b]


@pytest.mark.parametrize("case", sorted(ROUTE_ROOTS))
def test_every_construction_route_gives_the_coefficient_built_polynomial(case):
    """Each route's polynomial equals, hashes and prints like the one built
    from its coefficients, and its coefficients are those of the expanded
    roots with the library's types: the shared ZERO for a rational zero,
    Fractions otherwise, RatPolys over Q[t]."""
    symbolic, zeros = case.startswith("qt"), 0
    for p, roots in _routes(ROUTE_ROOTS[case]):
        degree, text, payload = p.degree, str(p), p.to_json()
        twin = GradedPolynomial(p.coeffs)
        assert degree == twin.degree == len(roots)
        assert p == twin and twin == p and hash(p) == hash(twin)
        assert text == str(twin) and payload == twin.to_json()
        assert list(p.coeffs) == expand_roots(roots)[1:]
        for c in p.coeffs:
            if symbolic:
                assert type(c) is RatPoly and c.symbol == "t"
            else:
                assert type(c) is Fraction and (c is ZERO or c != 0)
                zeros += c is ZERO
    assert (zeros > 0) == (case == "zero")


@pytest.mark.parametrize("case", sorted(ROUTE_ROOTS))
def test_char_poly_of_a_diagonal_matrix_is_from_roots(case):
    """char_poly (built from coefficients) equals from_roots (built from its
    scaled form) on the diagonal matrix of the roots."""
    roots = ROUTE_ROOTS[case]
    cp, p = char_poly(RationalMatrix.diagonal(roots)), GradedPolynomial.from_roots(roots)
    assert cp == p and p == cp and hash(cp) == hash(p)
    assert str(cp) == str(p) and cp.to_json() == p.to_json()
