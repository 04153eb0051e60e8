import random
from fractions import Fraction

import pytest

from sheet_atlas.scalars import RatPoly, as_scalar, format_scalar, interpolate, parse_scalar

from oracles import convolve_fractions, long_division


def test_arithmetic_and_mixing():
    t = RatPoly.variable()
    p = t * t - 3 * t + Fraction(1, 2)
    assert p.coeffs == (Fraction(1, 2), Fraction(-3), Fraction(1))
    assert (p - p).is_zero()
    assert (Fraction(2) + t).coeffs == (Fraction(2), Fraction(1))
    assert (1 - t).coeffs == (Fraction(1), Fraction(-1))
    assert (t**3).coeffs == (0, 0, 0, 1)


def test_mul_against_fraction_convolution():
    """Products of polynomials of degree up to 6 with denominators up to 999,
    zero and constants included, against the Fraction double loop."""
    rng = random.Random(89)

    def coeffs():
        return [Fraction(rng.randint(-999, 999), rng.randint(1, 999)) for _ in range(rng.randint(0, 7))]

    for _ in range(300):
        a, b = coeffs(), coeffs()
        got = RatPoly(a) * RatPoly(b)
        assert got.coeffs == tuple(convolve_fractions(a, b)) and got.symbol == "t"
        assert all(type(c) is Fraction for c in got.coeffs)
        c = a[0] if a else Fraction(0)
        assert (RatPoly(b) * c).coeffs == (c * RatPoly(b)).coeffs == tuple(convolve_fractions([c], b))
        assert (RatPoly(b) * 3).coeffs == tuple(convolve_fractions([Fraction(3)], b))
    assert (RatPoly([], "s") * RatPoly([1, 2])).symbol == "t"
    with pytest.raises(ValueError):
        RatPoly([0, 1], "t") * RatPoly([0, 1], "s")


def test_divmod_and_gcd():
    t = RatPoly.variable()
    a = (t - 1) * (t - 2) * (t + 3)
    b = (t - 2) * (t + 3)
    q, r = a.divmod(b)
    assert r.is_zero() and q == t - 1
    g = a.gcd((t - 2) * (t - 5))
    assert g == t - 2
    assert a.gcd(RatPoly.constant(7)).is_constant()


def test_divmod_against_long_division():
    """Quotient and remainder of seeded polynomials of degree up to 7, with
    non-monic divisors, constant divisors and divisors of higher degree,
    against one-term-at-a-time long division over Fractions."""
    rng = random.Random(4021)

    def coeffs(size):
        out = [Fraction(rng.randint(-99, 99), rng.randint(1, 60)) for _ in range(size)]
        if out and not out[-1]:
            out[-1] = Fraction(rng.choice((-7, 3)), rng.randint(1, 9))
        return out

    sizes = [(rng.randint(0, 8), rng.randint(1, 8)) for _ in range(300)] + [(k, 1) for k in range(9)] + [(2, 5), (0, 3)]
    for np, nq in sizes:
        p, q = coeffs(np), coeffs(nq)
        quo, rem = RatPoly(p).divmod(RatPoly(q))
        want_quo, want_rem = long_division(p[::-1], q[::-1])
        assert (list(quo.coeffs), list(rem.coeffs)) == (want_quo[::-1], want_rem[::-1]), (p, q)
        assert quo.symbol == rem.symbol == "t"
    for p in ([], [Fraction(1, 2)], [Fraction(3), Fraction(0), Fraction(-1, 7)]):
        with pytest.raises(ZeroDivisionError):
            RatPoly(p).divmod(RatPoly([]))


def test_eval_and_derivative():
    t = RatPoly.variable()
    p = 4 * t * t + t
    assert p(Fraction(1, 2)) == Fraction(3, 2)
    assert p.derivative() == 8 * t + 1


def test_division_exactness_enforced():
    t = RatPoly.variable()
    with pytest.raises(ValueError):
        (t * t + 1) / t


def test_constant_comparisons():
    assert RatPoly.constant(3) == 3
    assert RatPoly([0, 1]) != 0
    assert RatPoly([]) == 0


def test_scalar_format_roundtrip():
    vals = [Fraction(3, 4), Fraction(-2), RatPoly([Fraction(0), Fraction(1, 3)])]
    for v in vals:
        assert parse_scalar(format_scalar(v)) == as_scalar(v)


def test_mixed_symbols_rejected():
    with pytest.raises(ValueError):
        RatPoly.variable("t") + RatPoly.variable("u")


def test_equality_reads_the_symbol_of_non_constants():
    t, s = RatPoly([0, 1], "t"), RatPoly([0, 1], "s")
    assert t != s and hash(t) != hash(s)
    assert t == RatPoly([0, 1], "t") and hash(t) == hash(RatPoly([0, 1], "t"))
    # constants stay equal across symbols and to their value, so equality
    # stays transitive: 2 in t == 2 == 2 in s
    for c in (0, 2, Fraction(-1, 3)):
        ct, cs = RatPoly.constant(c, "t"), RatPoly.constant(c, "s")
        assert ct == c == cs and ct == cs
        assert hash(ct) == hash(c) == hash(cs)


from hypothesis import given, strategies as st

frac = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))
poly = st.lists(frac, min_size=0, max_size=5).map(RatPoly)


@given(poly, poly)
def test_divmod_reconstruction_fuzz(p, q):
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            p.divmod(q)
        return
    quo, rem = p.divmod(q)
    assert quo * q + rem == p
    assert rem.is_zero() or rem.degree() < q.degree()


@given(poly, poly, poly)
def test_gcd_divides_both_fuzz(g, a, b):
    if g.is_zero():
        return
    f1, f2 = g * a, g * b
    d = f1.gcd(f2)
    if d.is_zero():
        return
    assert f1.divmod(d)[1].is_zero()
    assert f2.divmod(d)[1].is_zero()
    # g divides the gcd
    assert d.divmod(g / g.leading())[1].is_zero() or d.degree() >= g.degree()


def test_interpolate_recovers_integer_polynomials():
    rng = random.Random(97)
    for points in range(1, 12):
        polys = []
        for _ in range(6):
            p = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, points))]
            while p and not p[-1]:
                p.pop()
            polys.append(p)
        # t(t-1)...(t-points+2): zero at every point but the last
        falling = [1]
        for i in range(points - 1):
            falling = [a - i * b for a, b in zip([0, *falling], [*falling, 0])]
        polys.append(falling)
        values = [[sum(c * t0**k for k, c in enumerate(p)) for p in polys] for t0 in range(points)]
        assert interpolate(values) == polys
