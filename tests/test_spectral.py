import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sheet_atlas.partitions import Partition, partitions_of, profile
from sheet_atlas.scalars import RatPoly, poly_divmod_monic
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

from oracles import falling_factorial, gcd_by_euclid, recover_tuple


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


def test_poly_gcd_is_rational_only():
    t = RatPoly.variable()
    with pytest.raises(ValueError):
        poly_gcd([Fraction(1), t], [Fraction(1), Fraction(0)])
    one, minus_one = RatPoly.constant(1), RatPoly.constant(-1)
    # (λ - 1)(λ + 1) and 2(λ - 1) with constant-polynomial coefficients
    assert poly_gcd([one, RatPoly([]), minus_one], [RatPoly.constant(2), RatPoly.constant(-2)]) == [1, -1]
    assert poly_gcd([], []) == []
    assert poly_gcd([Fraction(3)], []) == [1]


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
    """Products and monic division checked by Horner evaluation at rational
    points, rational factors with denominators and factors with a
    coefficient in t; divisors with and without a remainder; gcds against
    leading-coefficient Euclid."""
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
                expected = expected * xi.evaluate(x) ** i
                once = once * xi.evaluate(x)
            assert image.evaluate(x) == expected
            assert minimal.evaluate(x) == once
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
                assert quo.evaluate(x) * divisor.evaluate(x) + rem_at_x == image.evaluate(x)
            if divides is not None:
                assert (not rem) == divides == divisor.divides(image)
            if trial % 4 != 3:
                assert poly_gcd(image.dense(), divisor.dense()) == gcd_by_euclid(image.dense(), divisor.dense())


def _value(dense, lam, t0):
    """Horner in t at t0, then in λ at lam, of a dense coefficient list."""
    out = Fraction(0)
    for c in dense:
        out = out * lam + (c(t0) if isinstance(c, RatPoly) else c)
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
        factors = [GradedPolynomial([t**m, Fraction(i, 7) * t**m]) for i, m in enumerate(degrees, start=1)]
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
                expected *= lam - r(t0)
            assert _value(minimal.dense(), lam, t0) == expected
    for k, dp, dq in ((1, 0, 1), (2, 1, 2), (3, 2, 1), (1, 3, 2)):
        r = falling_factorial(t, dp, dq)
        # t^dp λ^k mod (λ - t^dq) is t^(dp + k dq), the bound; p λ mod
        # (λ - r), with p and r zero on consecutive blocks, is p r, zero at
        # every sample point but the last
        for p, q in (([t**dp] + [Fraction(0)] * k, [Fraction(1), -(t**dq)]), ([falling_factorial(t, 0, dp), 0], [1, -r])):
            quo, rem = poly_divmod_monic(p, q)
            assert rem == [p[0] * (-q[1]) ** (len(p) - 1)] and rem[0].degree() == dp + (len(p) - 1) * dq
            for lam, t0 in SAMPLES:
                assert _value(quo, lam, t0) * _value(q, lam, t0) + _value(rem, lam, t0) == _value(p, lam, t0)
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
        GradedPolynomial.from_dense([2, 1])


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
