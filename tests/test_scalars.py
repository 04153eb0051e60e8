import random
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm, prod

import pytest

from sheet_atlas.scalars import T, RatPoly, _is_prime, at, clear, digits, format_scalar, primes, weighted_den
from sheet_atlas.triples import formal_t

from oracles import convolve_fractions, long_division, seed_3301_inputs, weighted_dens_by_trial_division


def test_arithmetic_and_mixing():
    t = RatPoly.variable()
    p = t * t - 3 * t + Fraction(1, 2)
    assert p.coeffs == (Fraction(1, 2), Fraction(-3), Fraction(1))
    assert (p - p).is_zero()
    assert (Fraction(2) + t).coeffs == (Fraction(2), Fraction(1))
    assert (1 - t).coeffs == (Fraction(1), Fraction(-1))
    assert (t * t * t).coeffs == (0, 0, 0, 1)


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


def test_divmod_and_gcd():
    t = RatPoly.variable()
    a = (t - 1) * (t - 2) * (t + 3)
    b = (t - 2) * (t + 3)
    q, r = a.divmod(b)
    assert r.is_zero() and q == t - 1
    g = a.gcd((t - 2) * (t - 5))
    assert g == t - 2
    assert a.gcd(RatPoly([7])).is_constant()


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


def test_constant_comparisons():
    assert RatPoly([3]) == 3
    assert RatPoly([0, 1]) != 0
    assert RatPoly([]) == 0


def test_format_scalar():
    # rationals as "p/q" text, constants of Q[t] among them; others as their
    # ascending coefficient texts
    for v, text in ((Fraction(3, 4), "3/4"), (Fraction(-2), "-2"), (RatPoly([Fraction(-5, 6)]), "-5/6")):
        assert format_scalar(v) == text
    assert format_scalar(RatPoly([Fraction(0), Fraction(1, 3)])) == ["0", "1/3"]


def test_equality_and_hash_read_the_coefficients():
    # a constant equals, and hashes like, its int or Fraction value
    for c in (0, 2, Fraction(-1, 3)):
        ct = RatPoly([c])
        assert ct == c and hash(ct) == hash(c)
    # the repr rebuilds the polynomial: zero, constant and non-constant
    for p in (RatPoly([]), RatPoly([Fraction(-1, 3)]), RatPoly([Fraction(1, 2), 0, -3])):
        assert eval(repr(p)) == p and hash(eval(repr(p))) == hash(p)
    # the one formal parameter t, however it is made
    t = RatPoly.variable()
    assert t == formal_t() == RatPoly([Fraction(0), Fraction(1)]) and str(t) == RatPoly.symbol == T
    assert hash(t) == hash(formal_t()) == hash(RatPoly([Fraction(0), Fraction(1)]))


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
    assert rem.is_zero() or len(rem.coeffs) < len(q.coeffs)


@given(poly, st.one_of(st.integers(-10**6, 10**6), st.builds(Fraction, st.integers(-999, 999), st.integers(1, 999))))
def test_mul_by_a_rational_scales_each_coefficient(p, c):
    """RatPoly × int, RatPoly × Fraction and int/Fraction × RatPoly against
    the coefficient-wise product, trailing zeros trimmed (a zero c gives the
    zero polynomial); every coefficient stays a Fraction."""
    want = [a * c for a in p.coeffs]
    while want and not want[-1]:
        want.pop()
    for got in (p * c, c * p):
        assert type(got) is RatPoly and got.coeffs == tuple(want)
        assert all(type(a) is Fraction for a in got.coeffs)


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
    assert d.divmod(g * (1 / g.coeffs[-1]))[1].is_zero() or len(d.coeffs) >= len(g.coeffs)


def test_kronecker_digits_round_trip():
    """An integer polynomial whose coefficients lie strictly inside the
    balanced range (-2^(s-1), 2^(s-1)) is read back from its value at 2^s
    as its digits, trailing zeros dropped: negative digits, digits at
    ±(2^(s-1) - 1), zero and lists ending in zeros included.  The value is
    checked by the plain sum of c_i 2^(s i)."""
    rng = random.Random(97)
    cases = [(s, []) for s in (2, 5)] + [(3, [0, 0, 0]), (4, [5, 0, 0]), (2, [0, 0])]
    for s in range(2, 70):
        edge = 2 ** (s - 1) - 1
        cases.append((s, [edge, -edge, 0, -edge, edge]))
        cases.append((s, [-edge] * 4 + [0, 0]))
        for _ in range(6):
            cases.append((s, [rng.randint(-edge, edge) for _ in range(rng.randint(0, 9))]))
    for s, poly in cases:
        value = sum(c * 2 ** (s * i) for i, c in enumerate(poly))
        assert at([poly], 2**s) == [value]
        trimmed = list(poly)
        while trimmed and not trimmed[-1]:
            trimmed.pop()
        assert digits(value, s) == trimmed, (s, poly)
    # every integer has one expansion in digits of [-2^(s-1), 2^(s-1))
    for s in (2, 3, 8, 31, 64):
        for _ in range(200):
            x = rng.randint(-(2 ** (s * 7)), 2 ** (s * 7))
            d = digits(x, s)
            assert sum(c * 2 ** (s * i) for i, c in enumerate(d)) == x
            assert all(-(2 ** (s - 1)) <= c < 2 ** (s - 1) for c in d) and (not d or d[-1])


def test_primes_descend_from_the_certificate_prime_and_are_proven():
    """The primality test agrees with trial division below 20000 and
    rejects strong pseudoprimes whose factors are known: one to the bases
    2, 3, 5 and 7, and one to every prime base up to 23.  The gcd's primes
    are 2^61 - 1 and then primes below it, each once."""
    small = [n for n in range(2, 20000) if all(n % q for q in range(2, isqrt(n) + 1))]
    assert [n for n in range(20000) if _is_prime(n)] == small
    for n, factors in ((3215031751, (151, 751, 28351)), (3825123056546413051, (149491, 747451, 34233211))):
        assert prod(factors) == n and not _is_prime(n)
    first = list(islice(primes(), 6))
    assert first[0] == 2**61 - 1 and first == sorted(set(first), reverse=True)
    assert all(map(_is_prime, first)) and first == list(islice(primes(), 6))


def test_weighted_den_clears_each_weight_and_divides_the_lcm():
    """dens[k-1] divides D^k for every k, and D divides the lcm of the
    dens; for the coefficients of a product of 40 factors λ - a/b with
    b <= 9, whose denominators have an lcm beyond 2^40, it stays small.
    Each weight counts: [1, 12] needs D^2 divisible by 12, and one gcd per
    weight takes 12 (and 4 for [1, 4]) where 6 (and 2) would suffice."""
    lists, coeffs = seed_3301_inputs()
    for dens in lists:
        d = weighted_den(dens)
        assert all(d**k % q == 0 for k, q in enumerate(dens, start=1)) and lcm(*dens) % d == 0
    dens = [c.denominator for c in coeffs]
    assert weighted_den(dens) < 2**20 and lcm(*dens) > 2**40
    assert weighted_den(dens) == 35280 and weighted_dens_by_trial_division(dens) == 2520
    assert weighted_den([1, 12]) == 12 and weighted_den([1, 4]) == 4


# denominators made of few small primes, so that they share factors often
_SMOOTH = st.builds(lambda es: prod(p**e for p, e in zip((2, 3, 5, 7, 11), es)), st.lists(st.integers(0, 7), min_size=5, max_size=5))


@given(st.lists(st.one_of(_SMOOTH, st.integers(1, 10**4)), max_size=8))
def test_weighted_den_against_trial_division(dens):
    """weighted_den against the least D of all, found from prime exponents
    by trial division: D is a multiple of it, divides the lcm of the dens
    and clears each weight."""
    d = weighted_den(dens)
    assert d % weighted_dens_by_trial_division(dens) == 0 and lcm(*dens) % d == 0
    assert all(d**k % q == 0 for k, q in enumerate(dens, start=1))


@given(st.lists(poly, max_size=6))
def test_weighted_clear_over_qt_clears_each_weight(xs):
    """A weighted clear of scalars x_k in Q[t] takes D by weighted_den on
    each x_k's coefficient denominators, as a rational clear does: every
    denominator of weight k divides D^k, D divides the lcm of them all, and
    c_k = D^k x_k.  t/2 and t^2/4 give D = 2 where their lcm is 4."""
    t = RatPoly.variable()
    assert clear([t * Fraction(1, 2), t * t * Fraction(1, 4)], weighted=True) == (2, [[0, 1], [0, 0, 1]], T)
    xs = [t, *xs]  # a non-constant scalar makes the clear one over Q[t]
    d, c, symbol = clear(xs, weighted=True)
    assert symbol == T and lcm(*[a.denominator for x in xs for a in x.coeffs]) % d == 0
    for k, (x, ck) in enumerate(zip(xs, c), start=1):
        assert all(d**k % a.denominator == 0 for a in x.coeffs)
        assert RatPoly([Fraction(v, d**k) for v in ck]) == x
