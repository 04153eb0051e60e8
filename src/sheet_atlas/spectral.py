"""Exact polynomial algebra for spectral data.

Monic graded polynomials in the spectral variable model characteristic
polynomials of twisted Higgs fields; tuples of them, shaped by a sheet's
multiplicity profile, are the points of the reduced base.  The composition
map multiplies the i-th factor in with multiplicity i.

Coefficients are rationals or polynomials in one parameter t.  Products
and monic division have one route each, on cleared-denominator integers;
coefficients in Q[t] take it at enough integer values of t to interpolate
the answer exactly (:class:`~sheet_atlas.scalars.ClearedGroups`).  Gcds are
taken over Q only: squarefreeness over Q(t), the heart test, is decided by
specialising t at enough integers that the discriminant cannot vanish at
all of them (see :meth:`GradedPolynomial.is_squarefree`).  At each
specialisation a gcd modulo the prime 2^61 - 1 may certify squarefreeness
first; it never answers "not squarefree", which only the exact rational gcd
does.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import prod
from typing import List, Sequence, Tuple

from .partitions import MultiplicityProfile, Partition, profile
from .scalars import (
    ClearedGroups,
    RatPoly,
    Scalar,
    as_scalar,
    format_scalar,
    parse_scalar,
    poly_divmod_monic,
    poly_gcd,
    poly_trim,
    scalar_is_zero,
    t_weight,
)

LAMBDA = "λ"
# The Mersenne prime 2^61 - 1, modulus of the squarefreeness certificate.
CERTIFICATE_PRIME = 2**61 - 1


@dataclass(frozen=True)
class GradedPolynomial:
    """Monic polynomial a(λ) = λ^d + a_1 λ^{d-1} + ... + a_d.

    The coefficient of λ^{d-k} carries weight k.  The constant polynomial 1
    (d = 0) is permitted as the empty-cover placeholder.  Coefficients are
    exact scalars (rationals or chart-variable polynomials).
    """

    coeffs: Tuple[Scalar, ...]

    def __init__(self, coeffs: Sequence = ()):
        object.__setattr__(self, "coeffs", tuple(as_scalar(c) for c in coeffs))

    @classmethod
    def _trusted(cls, coeffs) -> "GradedPolynomial":
        # internal: coefficients already exact scalars
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", tuple(coeffs))
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def coefficient(self, k: int) -> Scalar:
        """Weight-k coefficient a_k (k = 0 gives the leading 1)."""
        if k == 0:
            return Fraction(1)
        if not 1 <= k <= self.degree:
            raise ValueError("no coefficient of weight %d in degree %d" % (k, self.degree))
        return self.coeffs[k - 1]

    @classmethod
    def one(cls) -> "GradedPolynomial":
        return cls(())

    @classmethod
    def monomial(cls, d: int) -> "GradedPolynomial":
        return cls((Fraction(0),) * d)

    @classmethod
    def from_roots(cls, roots: Sequence) -> "GradedPolynomial":
        return _product([(cls._trusted((-as_scalar(r),)), 1) for r in roots])

    @classmethod
    def from_dense(cls, dense: Sequence) -> "GradedPolynomial":
        """From descending-power coefficients; leading coefficient must be 1."""
        dense = [as_scalar(c) for c in dense]
        if not dense or dense[0] != 1:
            raise ValueError("graded polynomials are monic")
        return cls(tuple(dense[1:]))

    def dense(self) -> List[Scalar]:
        """Descending-power coefficient list [1, a_1, ..., a_d]."""
        return [Fraction(1), *self.coeffs]

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return _product([(self, 1), (other, 1)])

    def __pow__(self, k: int) -> "GradedPolynomial":
        if k < 0:
            raise ValueError("negative power")
        return _product([(self, k)])

    def divmod(self, other: "GradedPolynomial"):
        """Division by another monic polynomial; exact in the coefficient ring.

        Both operands are monic, so the quotient is monic; a divisor of
        larger degree is an error rather than a zero quotient.
        """
        if other.degree > self.degree:
            raise ValueError("divisor degree exceeds dividend degree")
        quo, rem = poly_divmod_monic(self.dense(), other.dense())
        return GradedPolynomial._trusted(quo[1:]), rem

    def divides(self, other: "GradedPolynomial") -> bool:
        return self.degree <= other.degree and not other.divmod(self)[1]

    def is_squarefree(self) -> bool:
        """True iff the polynomial has no repeated root over Q(t).

        Decided by specialisation.  The polynomial is monic, so its
        discriminant commutes with t = t0; being isobaric of weight d(d-1),
        it has t-degree at most d(d-1)·w with w = max_k ceil(deg_t a_k / k).
        It is therefore nonzero iff it is nonzero at one of the integers
        0, ..., d(d-1)·w, where the rational gcd with the derivative decides.
        Rational coefficients give w = 0 and a single step.  Coefficients
        in two different symbols raise ValueError.

        Before each rational gcd, a certificate modulo the prime
        ℓ = 2^61 - 1 is tried.  With D the lcm of the denominators, P =
        D·p(t0) has integer coefficients and leading coefficient D.  If D is
        prime to ℓ and P is coprime to P' modulo ℓ, then P is squarefree
        over Q: a repeated factor g^2 of P over Q can be taken in Z[λ]
        (Gauss's lemma), its leading coefficient divides D, so g keeps its
        degree modulo ℓ and divides both P and P' there.  The certificate
        can only answer True; when it fails (D divisible by ℓ, or a common
        factor modulo ℓ, which may come from ℓ dividing the discriminant)
        the exact rational gcd decides, so every False is exact.
        """
        d = self.degree
        cleared = ClearedGroups([self.dense()])  # ValueError for two symbols
        for t0 in range(d * (d - 1) * t_weight(self.coeffs) + 1):
            values = cleared.at(t0)[0]
            if _certified_squarefree(values):
                return True
            p = [Fraction(v) for v in values]
            if len(poly_gcd(p, _poly_derivative(p))) == 1:
                return True
        return False

    def evaluate(self, value) -> Scalar:
        out = as_scalar(0)
        for c in self.dense():
            out = out * value + c
        return out

    def __str__(self):
        terms = []
        for k, c in enumerate(self.dense()):
            d = self.degree - k
            if scalar_is_zero(c) and self.degree > 0:
                continue
            cs = str(c)
            if isinstance(c, RatPoly) and not c.is_constant():
                cs = "(%s)" % cs
            if d == 0:
                terms.append(cs)
            else:
                var = LAMBDA if d == 1 else "%s^%d" % (LAMBDA, d)
                terms.append(var if cs == "1" else ("-%s" % var if cs == "-1" else "%s*%s" % (cs, var)))
        if not terms:
            return "1"
        out = terms[0]
        for term in terms[1:]:
            out += " - " + term[1:] if term.startswith("-") else " + " + term
        return out

    def to_json(self):
        return {"degree": self.degree, "coeffs": [format_scalar(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj) -> "GradedPolynomial":
        coeffs = [parse_scalar(c) for c in obj["coeffs"]]
        if len(coeffs) != obj["degree"]:
            raise ValueError("degree/coefficient mismatch in %r" % (obj,))
        return cls(coeffs)


@dataclass(frozen=True)
class SheetBasePoint:
    """A tuple (ξ_1, ..., ξ_s) of monic factors with deg ξ_i = l_i."""

    profile: MultiplicityProfile
    factors: Tuple[GradedPolynomial, ...]

    def __init__(self, profile: MultiplicityProfile, factors: Sequence[GradedPolynomial]):
        factors = tuple(factors)
        if len(factors) != profile.s:
            raise ValueError("expected %d factors, got %d" % (profile.s, len(factors)))
        for i, xi in enumerate(factors, start=1):
            if xi.degree != profile.l(i):
                raise ValueError("factor %d has degree %d, profile wants %d" % (i, xi.degree, profile.l(i)))
        object.__setattr__(self, "profile", profile)
        object.__setattr__(self, "factors", factors)

    @property
    def total_degree(self) -> int:
        return sum(i * xi.degree for i, xi in enumerate(self.factors, start=1))


def mu_s(point: SheetBasePoint) -> GradedPolynomial:
    """Composition into the full base: the product of ξ_i^i."""
    return product_with_multiplicities(point.factors)


def product_with_multiplicities(factors: Sequence[GradedPolynomial]) -> GradedPolynomial:
    return _product([(xi, i) for i, xi in enumerate(factors, start=1)])


def min_poly(point: SheetBasePoint) -> GradedPolynomial:
    """Each factor taken once; divides mu_s(point)."""
    return _product([(xi, 1) for xi in point.factors])


def _product(powers: Sequence[Tuple[GradedPolynomial, int]]) -> GradedPolynomial:
    """Product of xi**e over (xi, e) pairs, on integers.

    Each factor is cleared of denominators once (D_i) and the integer
    factors are convolved; the result is over prod D_i^e.  A coefficient of
    xi^e sums products of e coefficients of xi, so with m_i the largest
    t-degree in xi the product's coefficients have t-degree at most
    sum e m_i, and that many values of t plus one determine them (one for
    rational factors).
    """
    exponents = [e for _, e in powers]
    cleared = ClearedGroups([xi.dense() for xi, _ in powers])

    def convolve(*factors):
        acc = [1]
        for ip, e in zip(factors, exponents):
            for _ in range(e):
                acc = _int_convolve(acc, ip)
        return acc[1:]

    points = sum(e * m for e, m in zip(exponents, cleared.degrees)) + 1
    den = prod(d**e for d, e in zip(cleared.dens, exponents))
    return GradedPolynomial._trusted(cleared.solve(points, convolve, repeat(den)))


def in_heart(point: SheetBasePoint) -> bool:
    """True iff every factor is squarefree (each spectral factor reduced)."""
    return all(xi.is_squarefree() for xi in point.factors)


def witness_noninjectivity(a) -> Tuple[SheetBasePoint, SheetBasePoint]:
    """Two distinct non-heart points with the same composition image.

    For the profile of (2,1,1) and a != 0, the points ((λ-a)^2, (λ+a)) and
    ((λ+a)^2, (λ-a)) both compose to (λ-a)^2 (λ+a)^2.
    """
    a = as_scalar(a)
    if scalar_is_zero(a):
        raise ValueError("witness needs a nonzero coefficient")
    prof = profile(Partition((2, 1, 1)))
    minus = GradedPolynomial((-a,))
    plus = GradedPolynomial((a,))
    p1 = SheetBasePoint(prof, (minus * minus, plus))
    p2 = SheetBasePoint(prof, (plus * plus, minus))
    image1, image2 = mu_s(p1), mu_s(p2)
    if image1 != image2:
        raise AssertionError("witness images differ")
    if in_heart(p1) or in_heart(p2):
        raise AssertionError("witness point lies in the heart")
    return p1, p2


def sp4_dix_image(b) -> GradedPolynomial:
    """The spectral image λ^4 - b^2 λ^2 of the rank-2 symplectic slice point b."""
    b = as_scalar(b)
    return GradedPolynomial((Fraction(0), -b * b, Fraction(0), Fraction(0)))


# ---------------------------------------------------------------------------
# Dense polynomial helpers (descending coefficient lists, as in scalars).


def _int_convolve(ip: List[int], iq: List[int]) -> List[int]:
    out = [0] * (len(ip) + len(iq) - 1)
    for i, a in enumerate(ip):
        if a:
            for j, b in enumerate(iq):
                out[i + j] += a * b
    return out


def _poly_derivative(p: List[Scalar]) -> List[Scalar]:
    d = len(p) - 1
    return poly_trim([c * (d - i) for i, c in enumerate(p[:-1])])


def _certified_squarefree(values: Sequence[int]) -> bool:
    """True if the integer polynomial P (descending coefficients) is proven
    squarefree over Q: its leading coefficient is prime to CERTIFICATE_PRIME
    and Euclid in that field finds gcd(P, P') = 1.  False proves nothing."""
    m = CERTIFICATE_PRIME
    n = len(values) - 1
    a = [v % m for v in values]
    if not a[0]:
        return False
    b = poly_trim([(n - i) * v % m for i, v in enumerate(a[:-1])])
    while len(b) > 1:
        # a mod b, reducing modulo m only where a value is read
        inv, nb, top = pow(b[0], -1, m), len(b), len(a) - len(b) + 1
        r, tail = list(a), b[1:]
        for k in range(top):
            c = r[k] * inv % m
            if c:
                r[k + 1 : k + nb] = [x - c * y for x, y in zip(r[k + 1 : k + nb], tail)]
        a, b = b, poly_trim([v % m for v in r[top:]])
    # a nonzero constant remainder, or a constant P
    return len(b) == 1 or len(a) == 1
