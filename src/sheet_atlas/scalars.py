"""Exact scalar arithmetic for the whole library.

Every coefficient in sheet-atlas is either a ``fractions.Fraction`` or a
``RatPoly``, a univariate polynomial over the rationals in the library's one
formal parameter :data:`T` (``t``, the coordinate of a one-dimensional
slice).  No floating point appears anywhere.

The library computes on cleared-denominator integers.  Every input is
cleared of denominators once by :func:`clear`; :func:`run` runs an integer
routine on cleared inputs, for inputs in Q[t] once at t = 2^S (Kronecker
substitution), S taken from a proven bound on the height of its result,
and reads each integer value back to Z[t] exactly as its balanced
base-2^S digits; a Z[t] result may keep its values at 2^S and that bound
(:data:`Held`) for later runs.  A monic division, whose result has no
usable a priori bound, guesses S and proves its digits by an exact
identity (:func:`scaled_divmod`), first at the height at which its
dividend carries its values, when it carries them.  A gcd over Q is Brown's modular gcd
(:func:`poly_gcd`): residues modulo primes certify a gcd of 1, and any
other gcd is returned only once it divides both inputs exactly.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate, count, repeat
from math import gcd, isqrt, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

# One shared zero: every zero Fraction that scalars_over builds, and every zero
# entry of a rational matrix's dense view, is this object.
ZERO = Fraction(0)

# The one formal parameter of every polynomial scalar.
T = "t"


class RatPoly:
    """Univariate polynomial in :data:`T` with Fraction coefficients.

    Coefficients are stored in ascending degree with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple.  A value type for
    matrix entries and graded coefficients: ring operations, comparison,
    hashing and printing.  Division and gcds of polynomials in λ run on the
    integer kernel (:func:`scaled_divmod`, :func:`poly_gcd`).
    """

    __slots__ = ("coeffs",)
    symbol = T

    def __init__(self, coeffs: Iterable[Union[int, Fraction]]):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @classmethod
    def variable(cls) -> "RatPoly":
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __add__(self, other):
        other = _to_ratpoly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _to_ratpoly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        if not isinstance(other, RatPoly):
            return NotImplemented
        # the convolution of the cleared coefficients, over Da Db
        (da, a, _), (db, b, _) = clear(self.coeffs), clear(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return RatPoly([Fraction(c, da * db) for c in out])

    __rmul__ = __mul__

    def divmod(self, other: "RatPoly"):
        """Exact Euclidean division in Q[t]: p / lead(p) by q / lead(q) by
        :func:`scaled_divmod`, the quotient scaled back by lead(p) / lead(q)
        and the remainder by lead(p).  Unused in the library: kept only for
        the benchmark tracer, which wraps it by name."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        nquo = len(self.coeffs) - len(other.coeffs)
        if nquo < 0:
            return RatPoly([]), self
        # the scaled forms of the monic p / lead(p) and q / lead(q)
        forms = [clear([c / x.coeffs[-1] for c in x.coeffs[-2::-1]], weighted=True) for x in (self, other)]
        den, values, _ = scaled_divmod(*forms)
        # lead(p) times the descending quotient, then remainder, of the two
        lead = self.coeffs[-1]
        out = [lead, *(lead * v for v in scalars_over(values, map(den.__pow__, count(1)), None))]
        return RatPoly([c / other.coeffs[-1] for c in out[nquo::-1]]), RatPoly(out[:nquo:-1])

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic gcd over Q[t], by :func:`poly_gcd`.  Unused in the library:
        kept only for the benchmark tracer, which wraps it by name."""
        other = _to_ratpoly(other)
        return RatPoly(poly_gcd(self.coeffs[::-1], other.coeffs[::-1])[::-1])

    def __eq__(self, other):
        # a constant equals its int or Fraction value, and hashes like it
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.constant_value()) if self.is_constant() else hash(self.coeffs)

    def __repr__(self):
        return "RatPoly(%r)" % (list(self.coeffs),)

    def __str__(self):
        return format_terms([(str(c), i) for i, c in reversed(list(enumerate(self.coeffs))) if c], self.symbol) if self.coeffs else "0"


def format_terms(terms: Sequence, var: str) -> str:
    """The sum of the terms c var^k for (text of c, k) pairs, highest k
    first: var^0, 1* and -1* are left out and signs are folded."""
    out = []
    for cs, k in terms:
        v = var if k == 1 else "%s^%d" % (var, k)
        out.append(cs if k == 0 else v if cs == "1" else "-" + v if cs == "-1" else "%s*%s" % (cs, v))
    text = out[0]
    for term in out[1:]:
        text += " - " + term[1:] if term.startswith("-") else " + " + term
    return text


Scalar = Union[Fraction, RatPoly]


def _to_ratpoly(x):
    if isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RatPoly([Fraction(x)])
    return NotImplemented


def as_scalar(x) -> Scalar:
    """Coerce an int/Fraction/RatPoly into the library's scalar type."""
    if type(x) is Fraction or isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError("not an exact scalar: %r" % (x,))


def scalar_is_zero(x: Scalar) -> bool:
    return x.is_zero() if isinstance(x, RatPoly) else x == 0


def as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, RatPoly) and x.is_constant():
        return x.constant_value()
    raise ValueError("scalar %s is not rational" % (x,))


def format_scalar(x: Scalar):
    """JSON form: "p/q" for rationals, ascending coefficient array otherwise."""
    if isinstance(x, Fraction) or x.is_constant():
        return str(as_fraction(x))
    return [str(c) for c in x.coeffs]


# ---------------------------------------------------------------------------
# Q[t] over the integer kernel: Kronecker substitution t = 2^S.


Cleared = Tuple[int, list, Optional[str]]


def clear(scalars: Sequence[Scalar], weighted: bool = False) -> Cleared:
    """(D, c, symbol) for scalars x_k in Q[t] (ints and Fractions being
    constants): c_k = D x_k, or D^k x_k when ``weighted``, as ints when
    ``symbol`` is None, else (:data:`T`) as ascending integer coefficient
    lists in it.  D is the lcm of the denominators of every t-coefficient;
    when ``weighted``, :func:`weighted_den` on each x_k's lcm gives a D that
    divides it, chosen with one gcd per weight, and is often far smaller."""
    if RatPoly in map(type, scalars):
        if any([len(x.coeffs) > 1 for x in scalars if type(x) is RatPoly]):
            cs = [x.coeffs if type(x) is RatPoly else (x,) for x in scalars]
            d = weighted_den([lcm(*[x.denominator for x in c]) for c in cs]) if weighted else lcm(*[x.denominator for c in cs for x in c])
            if d == 1:
                return d, [[x.numerator for x in c] for c in cs], T
            weights = accumulate(repeat(d), mul) if weighted else repeat(d)
            return d, [[x.numerator * (w // x.denominator) for x in c] for c, w in zip(cs, weights)], T
        scalars = [x.constant_value() if type(x) is RatPoly else x for x in scalars]
    dens = [x.denominator for x in scalars]
    d = weighted_den(dens) if weighted else lcm(*dens)
    out, w = [], 1
    for x in scalars:
        w = w * d if weighted else d
        out.append(x.numerator * (w // x.denominator))
    return d, out, None


def weighted_den(dens: Sequence[int]) -> int:
    """A D with dens[k-1] | D^k for k = 1, 2, ..., by one gcd per weight:
    step k multiplies D by the part of dens[k-1] that D^k lacks.  D only
    grows, so every earlier weight stays cleared, and each prime's exponent
    in D stays at most its largest in the dens, so D divides their lcm.  It
    is often far smaller: the coefficients a_k of prod (λ - a_i/b_i) have
    denominators that grow with the degree, yet each divides lcm(b_i)^k.
    It need not be the least such D: [1, 4] gives 4 where 2 suffices."""
    d = 1
    for k, q in enumerate(dens, start=1):
        # gcd(q, D^k), with D^k taken modulo q
        d *= q // gcd(q, pow(d, k, q))
    return d


def at(c: list, t0: int) -> List[int]:
    """The values at t = t0 of ascending integer coefficient lists."""
    out = []
    for v in c:
        x = 0
        for a in reversed(v):
            x = x * t0 + a
        out.append(x)
    return out


def digits(x: int, s: int) -> List[int]:
    """The integer polynomial f with f(2^s) = x whose coefficients, the
    balanced base-2^s digits of x, lie in [-2^(s-1), 2^(s-1)), as an
    ascending coefficient list (empty for zero).  For s >= 2 every integer
    has exactly one such expansion, so f is the polynomial g with
    g(2^s) = x whenever every coefficient of g is less than 2^(s-1) in
    absolute value."""
    out = []
    mask, half, base = (1 << s) - 1, 1 << (s - 1), 1 << s
    while x:
        d = x & mask
        if d >= half:
            d -= base
        out.append(d)
        x = (x - d) >> s
    return out


def norm(v) -> int:
    """The 1-norm (sum of absolute values) of an int, or of the t-coefficients
    of an ascending integer coefficient list."""
    return abs(v) if type(v) is int else sum(map(abs, v))


def height(c: Iterable) -> int:
    """The largest 1-norm of an entry of c, 0 when c is empty: a bound on
    every t-coefficient of every entry."""
    return max(map(norm, c), default=0)


def scaled_norm(c: Sequence, r: int = 1) -> int:
    """The 1-norm, over every μ- and t-coefficient, of the monic
    μ^n + c_1 r μ^(n-1) + ... + c_n r^n: 1 + sum r^k ‖c_k‖₁."""
    return 1 + sum(r**k * norm(v) for k, v in enumerate(c, start=1))


# What a Z[t] result of run carries beside its digits: the bound that chose
# its S, and (S, its integer values at t = 2^S) or None.
Held = Tuple[int, Optional[Tuple[int, List[int]]]]


def run(
    forms: Sequence[Cleared],
    bound: Callable[[], int],
    kernel: Callable[..., list],
    spare: int = 0,
    images: Optional[Sequence[Optional[Tuple[int, List[int]]]]] = None,
) -> Tuple[list, Optional[str], Optional[Held]]:
    """(output, symbol, carried) of ``kernel`` on the integer lists c of the
    forms: one pass for rational forms, else one pass at t = 2^S by
    Kronecker substitution (von zur Gathen and Gerhard, Modern Computer
    Algebra, §8.4).  The kernel may use only ring operations and exact
    divisions, so that it commutes with t = 2^S; bound() must bound every
    t-coefficient of every output as an integer polynomial in t, and S =
    bitlen(bound()) + 1 (at least 2), plus ``spare`` bits, puts each
    coefficient strictly inside the balanced digit range, so that each
    output is read back exactly as its digits (:func:`digits`).

    ``images`` gives per form (S', its values at 2^S') or None: a Z[t] form
    is evaluated (:func:`at`) unless S' = S.  ``carried`` is None for
    rational forms, else (bound(), (S, the output's values)) (:data:`Held`)."""
    if not any([s for _, _, s in forms]):
        return kernel(*[c for _, c, _ in forms]), None, None
    b = bound()
    s = max(b, 1).bit_length() + 1 + spare
    values = kernel(*[x[1] if x and x[0] == s else at(c, 1 << s) if sym else c for (_, c, sym), x in zip(forms, images or repeat(None))])
    return [digits(v, s) for v in values], T, (b, (s, values))


def scalars_over(values: Iterable, dens: Iterable[int], symbol: Optional[str]) -> List[Scalar]:
    """values[i] / dens[i]: Fractions (the shared ZERO for each zero), or
    with ``symbol`` polynomials from ascending integer coefficient lists."""
    if symbol is None:
        return [ZERO if not v else Fraction(v) if d == 1 else Fraction(v, d) for v, d in zip(values, dens)]
    return [RatPoly([Fraction(c, d) for c in p]) for p, d in zip(values, dens)]


# ---------------------------------------------------------------------------
# Dense polynomials in a main variable (λ), over the exact scalars: lists of
# descending-power coefficients with a nonzero leading entry (the zero
# polynomial is the empty list); a monic one is also read as its scaled form
# (D, c, symbol) from clear(..., weighted=True).


def poly_trim(p: List[Scalar]) -> List[Scalar]:
    k = 0
    while k < len(p) and scalar_is_zero(p[k]):
        k += 1
    return p[k:]


def rescaled(c: List[int], r: int) -> List[int]:
    """c_k r^k: the c of a scaled form over D rescaled to D r."""
    return c if r == 1 else [v * r**k for k, v in enumerate(c, start=1)]


def scaled_divmod(p: Cleared, q: Cleared, held: Sequence[Optional[Held]] = (None, None)) -> Cleared:
    """(D, values, symbol): monic p of degree n divided by monic q of degree
    m <= n, read as scaled forms (D_p, c, symbol), P(μ) = D_p^n p(μ/D_p) in
    Z[μ] (the substitution λ = μ/D of von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 10).  P and Q, rescaled to D = lcm(D_p, D_q), are
    divided synthetically: the values are the quotient's c_1, ..., c_{n-m},
    then the remainder, the value of weight j standing for value / D^j.

    Over Z[t] the quotient and remainder have no usable a priori height
    bound, so the division runs at t = 2^S for a guessed S and its digits
    are proven by the identity P = Q quo + rem: the division at 2^S makes
    it hold there, and every t-coefficient of P - Q quo - rem is at most
    ‖P‖₁ + ‖Q‖₁ ‖quo‖₁ + ‖rem‖₁, so below 2^(S-1) it holds in Z[t][μ],
    where monic division is unique.  Otherwise the division runs again at
    the larger of that bound and the square of the guess.

    ``held`` gives what p and q carry (:data:`Held`, as from :func:`run`)
    or None.  A carried bound on the 1-norm of a form of degree n, times r^n
    for a form rescaled by r, stands for ‖P‖₁ or ‖Q‖₁; without one the norm
    is computed.  The first S is the one at which p carries its values,
    read there instead of evaluated, when 2^(S-1) is above both norms, and
    otherwise bitlen(‖P‖₁ ‖Q‖₁) + 1.  Every other operand, and p at any
    other S, is evaluated."""
    nquo = len(p[1]) - len(q[1])
    if nquo < 0:
        raise ValueError("divisor degree exceeds dividend degree")
    den = lcm(p[0], q[0])
    rp, rq = den // p[0], den // q[0]

    def divide(cp, cq):
        return monic_division([1, *rescaled(cp, rp)], rescaled(cq, rq), nquo)[1:]

    if not (p[2] or q[2]):
        return den, divide(p[1], q[1]), None
    held_p, held_q = held
    norm_p = held_p[0] * rp ** len(p[1]) if held_p else scaled_norm(p[1], rp)
    norm_q = held_q[0] * rq ** len(q[1]) if held_q else scaled_norm(q[1], rq)
    image = held_p and held_p[1]
    top = 1 << image[0] - 1 if image else 0
    guess = top - 1 if top > max(norm_p, norm_q) else norm_p * norm_q
    while True:
        values, symbol, _ = run([p, q], lambda: guess, divide, 0, (image, None))
        identity = norm_p + norm_q * scaled_norm(values[:nquo]) + sum(map(norm, values[nquo:]))
        if identity.bit_length() <= guess.bit_length():
            return den, values, symbol
        guess = max(guess * guess, identity)


def monic_division(r: List[int], tail: Sequence[int], nquo: int) -> List[int]:
    """Synthetic division, in place, of the integer polynomial r (descending
    coefficients, any leading entry) by the monic one with coefficients
    1, *tail: afterwards r[: nquo + 1] is the quotient and r[nquo + 1 :]
    the remainder."""
    m = len(tail)
    for k in range(nquo + 1):
        c = r[k]
        if c:
            r[k + 1 : k + 1 + m] = [x - c * y for x, y in zip(r[k + 1 : k + 1 + m], tail)]
    return r


def t_weight(form: Cleared) -> int:
    """The least w >= 0 with deg_t c_k <= w k for k = 1, 2, ... in the
    scaled form of a monic polynomial: its t-degree per unit of weight."""
    return max([0, *(-(-(len(x) - 1) // k) for k, x in enumerate(form[1], start=1))]) if form[2] else 0


# ---------------------------------------------------------------------------
# Gcds over Q by images modulo primes (W. S. Brown, "On Euclid's algorithm
# and the computation of polynomial greatest common divisors", JACM 18
# (1971); von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6).
# Residues only ever certify gcd 1; a larger gcd is accepted only once it
# divides both inputs exactly.

# The Mersenne prime 2^61 - 1: the first modulus of every gcd, and of the
# squarefreeness certificate.
CERTIFICATE_PRIME = 2**61 - 1
# Miller-Rabin with the first twelve primes as bases is correct for every
# n < 3.18 * 10^23 (Sorenson and Webster, Math. Comp. 86 (2017)), so for
# every 64-bit n.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Primality of n < 2^64, by deterministic Miller-Rabin."""
    if n < 3 or n % 2 == 0:
        return n == 2
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _WITNESSES:
        if a % n == 0:
            return True
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _prime(k: int) -> int:
    """The k-th prime below CERTIFICATE_PRIME, counting it as the 0th."""
    if k == 0:
        return CERTIFICATE_PRIME
    n = _prime(k - 1) - 2
    while not _is_prime(n):
        n -= 2
    return n


def primes() -> Iterator[int]:
    """CERTIFICATE_PRIME, then every prime below it in descending order,
    each found once per process."""
    return map(_prime, count())


def _residues(r: Sequence[int], p: int) -> List[int]:
    """r modulo p, leading zeros dropped."""
    r = [v % p for v in r]
    k = 0
    while k < len(r) and not r[k]:
        k += 1
    return r[k:]


def euclid_mod(a: Sequence[int], b: Sequence[int], p: int) -> List[int]:
    """The monic gcd of integer polynomials a and b (descending
    coefficients) over the field of p elements, p prime, as residues in
    [0, p); empty when both vanish modulo p.  Euclid on pseudo-remainders:
    each step subtracts c x^k b from lead(b) r, r the rest of a and c its
    leading entry, and only the remainder is reduced; the gcd is made
    monic once at the end."""
    a, b = _residues(a, p), _residues(b, p)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        lead = b[0]
        for k in range(len(a) - len(b), -1, -1):
            c = a[0]
            a = [lead * x - c * y for x, y in zip(a[1:], b[1:] + [0] * k)] if c else a[1:]
        a, b = b, _residues(a, p)
    # a nonzero constant b is a gcd
    if b or len(a) == 1:
        return [1]
    inv = pow(a[0], -1, p) if a else 1
    return [v * inv % p for v in a]


def balanced(image: List[int], modulus: int) -> List[int]:
    """The integers in (-modulus/2, modulus/2] congruent to the residues of
    image: a candidate read from an image modulo ``modulus``."""
    return [v - modulus if 2 * v > modulus else v for v in image]


def monic_divides(g: List[int], r: Sequence[int]) -> bool:
    """Whether the monic integer polynomial g divides r exactly in Z[x]
    (descending coefficients, by :func:`monic_division`)."""
    nquo = len(r) - len(g)
    return nquo >= 0 and not any(monic_division(list(r), g[1:], nquo)[nquo + 1 :])


def monic_gcd(a: List[int], b: List[int]) -> List[int]:
    """The monic gcd over Q of a monic a and a nonzero b in Z[x]
    (descending coefficients); by Gauss's lemma it lies in Z[x].

    Brown's modular gcd with early termination.  Modulo each prime of
    :func:`primes` a keeps its degree, so the image gcd has at least the
    degree of the true gcd G and equals G modulo p when the degrees agree.
    An image of degree 0 therefore proves G = 1: the certificate.  Images
    of the least degree seen are combined by the Chinese remainder theorem
    and read in balanced residues.  The candidate is tested once a further
    prime leaves it unchanged, and returned only when it divides a and b
    exactly.  Every coefficient of a monic factor of degree k of a or of b
    is at most 2^k times its 2-norm (Mignotte; von zur Gathen and Gerhard,
    §6.6), so once the modulus exceeds twice that bound the candidate is
    tested, and if it fails, every prime of its degree was unlucky (such
    primes divide a resultant, so there are finitely many): images of that
    degree or more are dropped."""
    bound = min(isqrt(sum(v * v for v in a)), isqrt(sum(v * v for v in b))) + 1
    top, image, modulus, previous = len(a), [], 1, []
    for p in primes():
        g = euclid_mod(a, b, p)
        if len(g) == 1:
            return [1]
        if len(g) > top or image and len(g) > len(image):
            continue
        if len(g) < len(image) or not image:
            image, modulus = g, p
        else:
            step = pow(modulus, -1, p)
            image = [u + modulus * ((v - u) * step % p) for u, v in zip(image, g)]
            modulus *= p
        candidate = balanced(image, modulus)
        complete = modulus > bound << len(image)
        if (complete or candidate == previous) and monic_divides(candidate, a) and monic_divides(candidate, b):
            return candidate
        if complete:
            top, image = len(image) - 1, []
        previous = candidate


def poly_gcd(p: Sequence[Scalar], q: Sequence[Scalar]) -> List[Fraction]:
    """Monic gcd of dense polynomials with rational coefficients.

    Coefficients are ints, Fractions or constant polynomials; a non-constant
    coefficient raises ValueError.  The monic p / lead(p) is read as its
    scaled form over D, P(μ) = D^n p(μ/D) monic in Z[μ], and q, cleared of
    denominators, in the same μ = Dλ; :func:`monic_gcd` finds their gcd
    G(μ) in Z[μ], and Fractions are built only for the answer D^-k G(Dλ).
    So gcd 1 rests on an image of degree 0 modulo a prime, and any other
    answer on an exact division of both inputs.  The primes are 2^61 - 1
    and those below it (:func:`primes`).
    """
    (_, a, pt), (_, b, qt) = clear(poly_trim(list(p))), clear(poly_trim(list(q)))
    if pt or qt:
        raise ValueError("poly_gcd needs rational coefficients, not polynomials in %s" % (pt or qt))
    if not (a and b):
        return [Fraction(v, (a or b)[0]) for v in a or b]
    den, c, _ = clear([Fraction(v, a[0]) for v in a[1:]], weighted=True)
    g = monic_gcd([1, *c], [b[0], *rescaled(b[1:], den)])
    return [Fraction(1), *scalars_over(g[1:], map(den.__pow__, count(1)), None)]
