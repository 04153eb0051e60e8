"""Exact scalar arithmetic for the whole library.

Every coefficient in sheet-atlas is either a ``fractions.Fraction`` or a
``RatPoly`` (a univariate polynomial over the rationals in one formal
parameter, by convention ``t``).  No floating point appears anywhere.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union


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
        """Exact Euclidean division over Q[t]."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        sym = self._sym(other)
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return RatPoly([], sym), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            if len(rem) < len(other.coeffs) + k:
                continue
            c = rem[len(other.coeffs) + k - 1] / lead
            quo[k] = c
            if c:
                for i, b in enumerate(other.coeffs):
                    rem[i + k] -= c * b
        while rem and rem[-1] == 0:
            rem.pop()
        return RatPoly(quo, sym), RatPoly(rem, sym)

    def gcd(self, other: "RatPoly") -> "RatPoly":
        """Monic gcd over Q[t]."""
        a, b = self, _to_ratpoly(other, self.symbol)
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a / a.leading()

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
