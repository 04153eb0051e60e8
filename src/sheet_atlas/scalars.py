"""Exact scalar arithmetic for the whole library.

Every coefficient in sheet-atlas is either a ``fractions.Fraction`` or a
``RatPoly`` (a univariate polynomial over the rationals in one formal
parameter, by convention ``t``).  No floating point appears anywhere.

The library computes on cleared-denominator integers.  Every input is
cleared of denominators once by :class:`ClearedGroups`; for inputs in Q[t]
the integer routine runs at t = 0, 1, ..., N, and :func:`interpolate`
brings its integer values back to Z[t] exactly.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial, lcm
from typing import Callable, Iterable, List, Optional, Sequence, Set, Union

# One shared zero: matrices whose zeros are all this object compare by identity.
ZERO = Fraction(0)


class RatPoly:
    """Univariate polynomial with Fraction coefficients in one formal symbol.

    Coefficients are stored in ascending degree with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs", "symbol")

    def __init__(self, coeffs: Iterable[Union[int, Fraction]], symbol: str = "t"):
        cs = [Fraction(c) for c in coeffs]
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

    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

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
        if self.is_zero() or other.is_zero():
            return RatPoly([], sym)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out, sym)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatPoly([c / other for c in self.coeffs], self.symbol)
        quo, rem = self.divmod(_to_ratpoly(other, self.symbol))
        if not rem.is_zero():
            raise ValueError("inexact polynomial division")
        return quo

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative exponent")
        out = RatPoly.constant(1, self.symbol)
        for _ in range(k):
            out = out * self
        return out

    def divmod(self, other: "RatPoly"):
        """Exact Euclidean division over Q[t], by the monic division of
        :func:`poly_divmod_monic` with other / (its leading coefficient)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        sym = self._sym(other)
        lead = other.coeffs[-1]
        quo, rem = poly_divmod_monic(self.coeffs[::-1], [c / lead for c in reversed(other.coeffs)])
        return RatPoly([c / lead for c in reversed(quo)], sym), RatPoly(rem[::-1], sym)

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic gcd over Q[t], by :func:`poly_gcd`."""
        other = _to_ratpoly(other, self.symbol)
        return RatPoly(poly_gcd(self.coeffs[::-1], other.coeffs[::-1])[::-1], self._sym(other))

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:], self.symbol)

    def __call__(self, value):
        out = Fraction(0) if isinstance(value, (int, Fraction)) else RatPoly([], self.symbol)
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())
        return hash(self.coeffs)

    def __repr__(self):
        return "RatPoly(%r, %r)" % (list(self.coeffs), self.symbol)

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                base = str(c)
            else:
                var = self.symbol if i == 1 else "%s^%d" % (self.symbol, i)
                if c == 1:
                    base = var
                elif c == -1:
                    base = "-" + var
                else:
                    base = "%s*%s" % (c, var)
            terms.append(base)
        out = terms[0]
        for term in terms[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out


Scalar = Union[Fraction, RatPoly]


def _to_ratpoly(x, symbol: str):
    if isinstance(x, RatPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return RatPoly([Fraction(x)], symbol)
    return NotImplemented


def as_scalar(x) -> Scalar:
    """Coerce an int/Fraction/RatPoly into the library's scalar type."""
    if isinstance(x, RatPoly):
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
    if isinstance(x, Fraction):
        return str(x)
    if x.is_constant():
        return str(x.constant_value())
    return [str(c) for c in x.coeffs]


def parse_scalar(obj, symbol: str = "t") -> Scalar:
    """Inverse of :func:`format_scalar`."""
    if isinstance(obj, str):
        return Fraction(obj)
    if isinstance(obj, int):
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


class ClearedGroups:
    """Groups of scalars in Q[t] (ints and Fractions being constants), each
    cleared of denominators once.

    Group g times the lcm ``dens[g]`` of the denominators of all its
    t-coefficients is a list of integer polynomials of t-degree at most
    ``degrees[g]``; ``symbol`` is the one symbol in use, or None.
    """

    __slots__ = ("symbol", "dens", "degrees", "_columns")

    def __init__(self, groups: Sequence[Sequence[Scalar]]):
        self.dens: List[int] = []
        self.degrees: List[int] = []
        # per group, the integer vectors of its t^0, t^1, ... coefficients
        self._columns: List[List[List[int]]] = []
        for group in groups:
            coeffs = [x.coeffs if type(x) is RatPoly else (x,) for x in group]
            d = lcm(*[c.denominator for cs in coeffs for c in cs])
            columns = [[c.numerator * (d // c.denominator) for c in col] for col in zip_longest(*coeffs, fillvalue=ZERO)]
            self.dens.append(d)
            self.degrees.append(max(len(columns) - 1, 0))
            self._columns.append(columns or [[0] * len(group)])
        # with every degree 0 there is no symbol, and no two of them
        self.symbol = poly_symbol(x for group in groups for x in group) if any(self.degrees) else None

    @classmethod
    def join(cls, parts: Sequence["ClearedGroups"]) -> "ClearedGroups":
        """The groups of every part, in order, as one ClearedGroups, without
        clearing them again.  Parts in two different symbols raise
        ValueError."""
        out = object.__new__(cls)
        out.dens = [d for part in parts for d in part.dens]
        out.degrees = [k for part in parts for k in part.degrees]
        out._columns = [columns for part in parts for columns in part._columns]
        out.symbol = _one_symbol({part.symbol for part in parts} - {None})
        return out

    def at(self, t0: int) -> List[List[int]]:
        """The integer values of every group at t = t0 (a group of degree 0
        gives its shared column, not to be mutated)."""
        out = []
        for columns in self._columns:
            group = columns[-1]
            for column in columns[-2::-1]:
                group = [v * t0 + c for v, c in zip(group, column)]
            out.append(group)
        return out

    def solve(self, points: int, kernel: Callable[..., Sequence[int]], dens: Iterable[int]) -> List[Scalar]:
        """Run ``kernel`` on the groups' values at t = 0, ..., points - 1 and
        return output i, interpolated exactly, over dens[i].

        ``points`` must exceed the t-degree of every output as an integer
        polynomial in the cleared scalars.  One point gives Fractions, more
        give polynomials in ``symbol``.
        """
        values = [kernel(*self.at(t0)) for t0 in range(points)]
        if points == 1:
            return fractions_over(values[0], dens)
        return [RatPoly([Fraction(c, d) for c in p], self.symbol) for p, d in zip(interpolate(values), dens)]


def fractions_over(values: Iterable[int], dens: Iterable[int]) -> List[Fraction]:
    """values[i] / dens[i], with the shared ZERO for each zero."""
    return [ZERO if not v else Fraction(v) if d == 1 else Fraction(v, d) for v, d in zip(values, dens)]


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
# polynomial is the empty list).


def poly_trim(p: List[Scalar]) -> List[Scalar]:
    k = 0
    while k < len(p) and scalar_is_zero(p[k]):
        k += 1
    return p[k:]


def poly_divmod_monic(p: List[Scalar], q: List[Scalar]):
    """Quotient and trimmed remainder of dense p by a monic q, by synthetic
    division on integers.

    With e the lcm of q's denominators, λ = μ/e makes q monic with integer
    weight-k coefficients e^k q_k.  The dividend, substituted alike and
    cleared by the lcm D of its denominators, is divided on integers, and
    the weight-j coefficient of the result (counted from p's leading term)
    is the integer one over D e^j.
    """
    if not q or q[0] != 1:
        raise ValueError("divisor must be monic")
    nquo = len(p) - len(q)
    if nquo < 0:
        return [], list(p)
    cleared = ClearedGroups((p, q))
    d, e = cleared.dens
    powers = [e**j for j in range(len(p))]

    def divide(ip, iq):
        # ip[j] * e^j is the substituted dividend; iq[k] * e^(k-1) the
        # divisor's weight-k coefficient (iq[0] = e is the cleared leading 1)
        ip = [v * w for v, w in zip(ip, powers)]
        iq = [v * w for v, w in zip(iq[1:], powers)]
        for k in range(nquo + 1):
            c = ip[k]
            if c:
                for i, v in enumerate(iq, start=k + 1):
                    ip[i] -= c * v
        return ip

    # with dp and dq the largest t-degrees in p and q, quotient coefficient
    # k has t-degree at most dp + k dq (each step subtracts a previous one
    # times a coefficient of q), and the remainder at most dp + (nquo + 1) dq
    dp, dq = cleared.degrees
    out = cleared.solve(dp + (nquo + 1) * dq + 1, divide, [d * w for w in powers])
    return out[: nquo + 1], poly_trim(out[nquo + 1 :])


def poly_gcd(p: Sequence[Scalar], q: Sequence[Scalar]) -> List[Fraction]:
    """Monic gcd of dense polynomials with rational coefficients, by Euclid.

    Coefficients are Fractions or constant polynomials; a non-constant
    coefficient raises ValueError.  Each divisor is made monic so the
    remainder comes from :func:`poly_divmod_monic`.
    """
    a = poly_trim([as_fraction(c) for c in p])
    b = poly_trim([as_fraction(c) for c in q])
    while b:
        b = [c / b[0] for c in b]
        a, b = b, poly_divmod_monic(a, b)[1]
    return [c / a[0] for c in a] if a else []
