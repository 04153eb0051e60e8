"""Exact scalar arithmetic for the whole library.

Every coefficient in sheet-atlas is either a ``fractions.Fraction`` or a
``RatPoly`` (a univariate polynomial over the rationals in one formal
parameter, by convention ``t``).  No floating point appears anywhere.

The library computes on cleared-denominator integers.  Every input is
cleared of denominators once by :func:`clear`; :func:`run` runs an integer
routine on cleared inputs, for inputs in Q[t] at t = 0, 1, ..., N, and
:func:`interpolate` brings its integer values back to Z[t] exactly.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count, repeat
from math import factorial, gcd, lcm
from operator import mul
from typing import Callable, Iterable, List, Optional, Sequence, Set, Tuple, Union

# One shared zero: every zero Fraction that scalars_over builds, and every zero
# entry of a rational matrix's dense view, is this object.
ZERO = Fraction(0)


class RatPoly:
    """Univariate polynomial with Fraction coefficients in one formal symbol.

    Coefficients are stored in ascending degree with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple.  A value type for
    matrix entries and graded coefficients: ring operations, comparison,
    hashing and printing.  Division and gcds of polynomials in λ run on the
    integer kernel (:func:`scaled_divmod`, :func:`poly_gcd`).
    """

    __slots__ = ("coeffs", "symbol")

    def __init__(self, coeffs: Iterable[Union[int, Fraction]], symbol: str = "t"):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "symbol", symbol)

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @classmethod
    def constant(cls, c, symbol: str = "t") -> "RatPoly":
        return cls([Fraction(c)], symbol)

    @classmethod
    def variable(cls, symbol: str = "t") -> "RatPoly":
        return cls([0, 1], symbol)

    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

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

    def _sym(self, other: "RatPoly") -> str:
        if self.coeffs and other.coeffs and self.symbol != other.symbol:
            raise ValueError("mixed polynomial symbols %r and %r" % (self.symbol, other.symbol))
        return self.symbol if self.coeffs else other.symbol

    def __add__(self, other):
        other = _to_ratpoly(other, self.symbol)
        if other is NotImplemented:
            return NotImplemented
        sym = self._sym(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out, sym)

    __radd__ = __add__

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs], self.symbol)

    def __sub__(self, other):
        other = _to_ratpoly(other, self.symbol)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = _to_ratpoly(other, self.symbol)
        if other is NotImplemented:
            return NotImplemented
        sym = self._sym(other)
        # the convolution of the cleared coefficients, over Da Db
        (da, a, _), (db, b, _) = clear(self.coeffs), clear(other.coeffs)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return RatPoly([Fraction(c, da * db) for c in out], sym)

    __rmul__ = __mul__

    def divmod(self, other: "RatPoly"):
        """Exact Euclidean division in Q[t]: p / lead(p) by q / lead(q) by
        :func:`scaled_divmod`, the quotient scaled back by lead(p) / lead(q)
        and the remainder by lead(p).  Unused in the library: kept only for
        the benchmark tracer, which wraps it by name."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        sym = self._sym(other)
        nquo = len(self.coeffs) - len(other.coeffs)
        if nquo < 0:
            return RatPoly([], sym), RatPoly(self.coeffs, sym)
        # the scaled forms of the monic p / lead(p) and q / lead(q)
        forms = [clear([c / x.coeffs[-1] for c in x.coeffs[-2::-1]], weighted=True) for x in (self, other)]
        den, values, _ = scaled_divmod(*forms)
        # lead(p) times the descending quotient, then remainder, of the two
        lead = self.coeffs[-1]
        out = [lead, *(lead * v for v in scalars_over(values, map(den.__pow__, count(1)), None))]
        return RatPoly([c / other.coeffs[-1] for c in out[nquo::-1]], sym), RatPoly(out[:nquo:-1], sym)

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic gcd over Q[t], by :func:`poly_gcd`.  Unused in the library:
        kept only for the benchmark tracer, which wraps it by name."""
        other = _to_ratpoly(other, self.symbol)
        return RatPoly(poly_gcd(self.coeffs[::-1], other.coeffs[::-1])[::-1], self._sym(other))

    def __eq__(self, other):
        # constants equal each other and their int or Fraction value in any
        # symbol; a non-constant polynomial equals one only in its own symbol
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs and (self.is_constant() or self.symbol == other.symbol)
        return NotImplemented

    def __hash__(self):
        return hash(self.constant_value()) if self.is_constant() else hash((self.symbol, self.coeffs))

    def __repr__(self):
        return "RatPoly(%r, %r)" % (list(self.coeffs), self.symbol)

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


def _to_ratpoly(x, symbol: str):
    if isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RatPoly([Fraction(x)], symbol)
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


def parse_scalar(obj, symbol: str = "t") -> Scalar:
    """Inverse of :func:`format_scalar`."""
    if isinstance(obj, (str, int)):
        return Fraction(obj)
    if isinstance(obj, list):
        return RatPoly([Fraction(c) for c in obj], symbol)
    raise ValueError("cannot parse scalar from %r" % (obj,))


# ---------------------------------------------------------------------------
# Q[t] over the integer kernel: specialisation and exact interpolation.


def poly_symbol(scalars: Iterable[Scalar]) -> Optional[str]:
    """The symbol of the non-constant polynomials among ``scalars``, or None
    when there are none.  Two different symbols raise ValueError."""
    return _one_symbol({x.symbol for x in scalars if isinstance(x, RatPoly) and len(x.coeffs) > 1})


def _one_symbol(symbols: Set[str]) -> Optional[str]:
    if len(symbols) > 1:
        raise ValueError("scalars in more than one polynomial symbol: %s" % ", ".join(sorted(symbols)))
    return next(iter(symbols), None)


Cleared = Tuple[int, list, Optional[str]]


def clear(scalars: Sequence[Scalar], weighted: bool = False) -> Cleared:
    """(D, c, symbol) for scalars x_k in Q[t] (ints and Fractions being
    constants): D is the lcm of the denominators of every t-coefficient and
    c_k = D x_k, or D^k x_k when ``weighted``, as ints when ``symbol`` is
    None, else as ascending integer coefficient lists in it."""
    if RatPoly in map(type, scalars):
        symbol = poly_symbol(scalars)  # ValueError for two
        if symbol:
            cs = [x.coeffs if type(x) is RatPoly else (x,) for x in scalars]
            d = lcm(*[x.denominator for c in cs for x in c])
            weights = accumulate(repeat(d), mul) if weighted else repeat(d)
            return d, [[x.numerator * (w // x.denominator) for x in c] for c, w in zip(cs, weights)], symbol
        scalars = [x.constant_value() if type(x) is RatPoly else x for x in scalars]
    d = lcm(*[x.denominator for x in scalars])
    out, w = [], 1
    for x in scalars:
        w = w * d if weighted else d
        out.append(x.numerator * (w // x.denominator))
    return d, out, None


def cleared_degree(form: Cleared) -> int:
    """The largest t-degree in a cleared form."""
    return max([1, *map(len, form[1])]) - 1 if form[2] else 0


def at(c: list, t0: int) -> List[int]:
    """The values at t = t0 of ascending integer coefficient lists."""
    out = []
    for v in c:
        x = 0
        for a in reversed(v):
            x = x * t0 + a
        out.append(x)
    return out


def run(forms: Sequence[Cleared], points: Callable[[], int], kernel: Callable[..., list]) -> Tuple[list, Optional[str]]:
    """(output, symbol) of ``kernel`` on the integer lists c of the forms:
    one pass for rational forms, else at t = 0, ..., points() - 1, which
    must exceed the t-degree of every output as a polynomial in the cleared
    values, interpolated to ascending integer coefficient lists."""
    if not any([s for _, _, s in forms]):
        return kernel(*[c for _, c, _ in forms]), None
    symbol = _one_symbol({s for _, _, s in forms} - {None})
    values = [kernel(*[at(c, t0) if s else c for _, c, s in forms]) for t0 in range(points())]
    return interpolate(values), symbol


def scalars_over(values: Iterable, dens: Iterable[int], symbol: Optional[str]) -> List[Scalar]:
    """values[i] / dens[i]: Fractions (the shared ZERO for each zero), or
    with ``symbol`` polynomials from ascending integer coefficient lists."""
    if symbol is None:
        return [ZERO if not v else Fraction(v) if d == 1 else Fraction(v, d) for v, d in zip(values, dens)]
    return [RatPoly([Fraction(c, d) for c in p], symbol) for p, d in zip(values, dens)]


def interpolate(values: Sequence[Sequence[int]]) -> List[List[int]]:
    """The integer polynomials f_i with f_i(t0) = values[t0][i] for t0 = 0,
    ..., N, as ascending coefficient lists (empty for zero).

    Each f_i must lie in Z[t] with degree at most N.  The forward difference
    Δ^k f(0) is k! times the coefficient of f on the falling factorial
    t(t-1)...(t-k+1), an integer, so dividing it by k! is exact; the
    falling-factorial (Newton) form is then expanded on integers.
    """
    out = []
    for column in zip(*values):
        if not any(column):
            out.append([])
            continue
        diff = list(column)
        for k in range(1, len(diff)):
            diff[k:] = [b - a for a, b in zip(diff[k - 1 :], diff[k:])]
        poly: List[int] = []
        for k in range(len(diff) - 1, -1, -1):
            # poly * (t - k) + Δ^k f(0) / k!
            poly = [a - k * b for a, b in zip([0, *poly], [*poly, 0])]
            c, r = divmod(diff[k], factorial(k))
            if r:
                raise AssertionError("values are not those of an integer polynomial of degree < %d" % len(diff))
            poly[0] += c
        while poly and not poly[-1]:
            poly.pop()
        out.append(poly)
    return out


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


def scaled_divmod(p: Cleared, q: Cleared) -> Cleared:
    """(D, values, symbol): monic p of degree n divided by monic q of degree
    m <= n, read as scaled forms (D_p, c, symbol), P(μ) = D_p^n p(μ/D_p) in
    Z[μ] (the substitution λ = μ/D of von zur Gathen and Gerhard, Modern
    Computer Algebra, ch. 10).  P and Q, rescaled to D = lcm(D_p, D_q), are
    divided synthetically: the values are the quotient's c_1, ..., c_{n-m},
    then the remainder, the value of weight j standing for value / D^j."""
    nquo = len(p[1]) - len(q[1])
    if nquo < 0:
        raise ValueError("divisor degree exceeds dividend degree")
    den = lcm(p[0], q[0])

    def divide(cp, cq):
        return monic_division([1, *rescaled(cp, den // p[0])], rescaled(cq, den // q[0]), nquo)[1:]

    return den, *run([p, q], lambda: division_bound(p, q) + 1, divide)


def monic_division(r: List[int], tail: Sequence[int], nquo: int, lead: int = 1) -> List[int]:
    """Synthetic division, in place, of the integer polynomial r (descending
    coefficients) by the one with coefficients lead, *tail.  With lead 1
    (a monic divisor) r[: nquo + 1] is afterwards the quotient and
    r[nquo + 1 :] the remainder.  Otherwise each step multiplies what is
    left of r by lead before it subtracts, so r[nquo + 1 :] is the remainder
    of lead^e r, e the number of nonzero steps: a pseudo-remainder."""
    m = len(tail)
    for k in range(nquo + 1):
        c = r[k]
        if c:
            if lead != 1:
                r[k + 1 :] = [lead * x for x in r[k + 1 :]]
            r[k + 1 : k + 1 + m] = [x - c * y for x, y in zip(r[k + 1 : k + 1 + m], tail)]
    return r


def division_bound(p: Cleared, q: Cleared) -> int:
    """The smaller of two bounds on the t-degree of every value of
    scaled_divmod(p, q), each proven by induction on the division steps
    (value j is c_j of P minus quotient values j - k times c_k of Q):
    dp + (n - m + 1) dq, with dp and dq the largest t-degrees in P and Q;
    and c + w n, with w = t_weight(q) and c = max_j (deg_t c_j - w j) over
    j = 0, ..., n (c_0 = 1).  Rescaling by an integer keeps both."""
    dp, dq = cleared_degree(p), cleared_degree(q)
    bound = dp + (len(p[1]) - len(q[1]) + 1) * dq
    if dq:
        w = t_weight(q)
        c = max([0, *(len(x) - 1 - w * j for j, x in enumerate(p[1], start=1))]) if p[2] else 0
        bound = min(bound, c + w * len(p[1]))
    return bound


def t_degree(x: Scalar) -> int:
    """The t-degree of a scalar, 0 for a constant (and for zero)."""
    return max(len(x.coeffs) - 1, 0) if type(x) is RatPoly else 0


def t_weight(form: Cleared) -> int:
    """The least w >= 0 with deg_t c_k <= w k for k = 1, 2, ... in the
    scaled form of a monic polynomial: its t-degree per unit of weight."""
    return max([0, *(-(-(len(x) - 1) // k) for k, x in enumerate(form[1], start=1))]) if form[2] else 0


def poly_gcd(p: Sequence[Scalar], q: Sequence[Scalar]) -> List[Fraction]:
    """Monic gcd of dense polynomials with rational coefficients.

    Coefficients are ints, Fractions or constant polynomials; a non-constant
    coefficient raises ValueError.  Each argument is cleared of denominators
    once by :func:`clear`, Euclid runs on integers (:func:`integer_euclid`
    with primitive parts), and Fractions are built only for the monic answer.
    """
    (_, a, pt), (_, b, qt) = clear(p), clear(q)
    if pt or qt:
        raise ValueError("poly_gcd needs rational coefficients, not polynomials in %s" % (pt or qt))
    g = integer_euclid(_primitive(a), _primitive(b), _primitive)
    return [Fraction(v, g[0]) for v in g]


def integer_euclid(a: List[int], b: List[int], reduce: Callable[[List[int]], List[int]]) -> List[int]:
    """The last nonzero remainder of Euclid on integer polynomials a and b
    (descending coefficients, leading entry nonzero; both are consumed).
    Each remainder is a pseudo-remainder of :func:`monic_division`, a
    nonzero multiple of the true one, passed through ``reduce``: the
    primitive part gives a gcd over Q (W. S. Brown, JACM 1971), residues
    modulo a prime a gcd over that field."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        top = len(a) - len(b) + 1
        a, b = b, reduce(monic_division(a, b[1:], top - 1, b[0])[top:])
    # a nonzero constant b is a gcd
    return b or a


def _primitive(c: List[int]) -> List[int]:
    """c without leading zeros, divided by the gcd of its entries."""
    c = poly_trim(c)
    g = gcd(*c)
    return c if g <= 1 else [v // g for v in c]
