"""Exact polynomial algebra for spectral data.

Monic graded polynomials in the spectral variable model characteristic
polynomials of twisted Higgs fields; tuples of them, shaped by a sheet's
multiplicity profile, are the points of the reduced base.  The composition
map multiplies the i-th factor in with multiplicity i.

Coefficients are rationals or polynomials in one parameter t.  Every
operation reads a monic p = λ^d + a_1 λ^{d-1} + ... + a_d as the pair (D, P),
P(μ) = D^d p(μ/D), monic with integer coefficients c_k = D^k a_k; a result
stores only (D, P) and builds its coefficients on first read, and so does a
characteristic polynomial (:func:`~sheet_atlas.liealg.char_poly`), whose
trace recursion on D x yields c_k directly.  Only polynomials built from
coefficients (``GradedPolynomial(coeffs)``) store them.  Roots A/D
give P = prod (μ - A) in one pass; products rescale each P_i to D = lcm(D_i)
(c_k -> c_k (D/D_i)^k) and convolve; monic division is synthetic division in
Z[μ] after the same rescaling.  Over Q[t] the same routine runs on P(t0) at
enough integers t0 to interpolate the answer exactly.  Gcds are taken over Q
only: squarefreeness over Q(t), the heart test, is decided by specialising
t (see :meth:`GradedPolynomial.is_squarefree`), where a gcd of P and P'
modulo the prime 2^61 - 1 may certify squarefreeness first; it never
answers "not squarefree", which only the exact integer Euclid does.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .partitions import MultiplicityProfile, Partition, profile
from .scalars import (
    Cleared,
    RatPoly,
    Scalar,
    as_scalar,
    at,
    clear,
    cleared_degree,
    format_scalar,
    format_terms,
    integer_euclid,
    poly_gcd,
    poly_trim,
    rescaled,
    run,
    scalar_is_zero,
    scalars_over,
    scaled_divmod,
    t_degree,
    t_weight,
)

LAMBDA = "λ"
# The Mersenne prime 2^61 - 1, modulus of the squarefreeness certificate.
CERTIFICATE_PRIME = 2**61 - 1


class GradedPolynomial:
    """Monic polynomial a(λ) = λ^d + a_1 λ^{d-1} + ... + a_d.

    The coefficient of λ^{d-k} carries weight k.  The constant polynomial 1
    (d = 0) is permitted as the empty-cover placeholder.  Coefficients are
    exact scalars (rationals or chart-variable polynomials), by whose values
    polynomials compare and hash.

    Every operation reads the scaled form ``_scaled`` = (D, c, symbol):
    P(μ) = D^d a(μ/D) = μ^d + c_1 μ^{d-1} + ... + c_d, c_k = D^k a_k in Z or
    Z[symbol], for any D that makes them so.  A polynomial made by an
    operation (``char_poly`` included) stores only that form and builds
    ``coeffs`` on first read; one made from coefficients stores them and
    clears them on first use.  ``degree`` is set from either.
    """

    def __init__(self, coeffs: Sequence = ()):
        coeffs = tuple(as_scalar(c) for c in coeffs)
        self.__dict__.update(coeffs=coeffs, degree=len(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("GradedPolynomial is immutable")

    @cached_property
    def coeffs(self) -> Tuple[Scalar, ...]:
        den, values, symbol = self._scaled
        return tuple(scalars_over(values, map(den.__pow__, count(1)), symbol))

    @cached_property
    def _scaled(self) -> Cleared:
        return clear(self.coeffs, weighted=True)  # ValueError for two symbols

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, GradedPolynomial) else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "GradedPolynomial(coeffs=%r)" % (self.coeffs,)

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
        """prod (λ - r): P = prod (μ - A) over the roots A/D, whose c_k
        have t-degree at most the sum of those of the roots."""
        roots = [as_scalar(r) for r in roots]
        form = clear(roots)

        def expand(a):  # times μ - A for each root A, in place from the top down
            c = [1] + [0] * len(a)
            for d, v in enumerate(a, 1):
                if v:
                    for k in range(d, 0, -1):
                        c[k] -= v * c[k - 1]
            return c[1:]

        return _graded(form[0], *run([form], lambda: sum(map(t_degree, roots)) + 1, expand))

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
        den, values, symbol = scaled_divmod(self._scaled, other._scaled)
        nquo = self.degree - other.degree
        rem = scalars_over(values[nquo:], map(den.__pow__, count(nquo + 1)), symbol)
        return _graded(den, values[:nquo], symbol), poly_trim(rem)

    def divides(self, other: "GradedPolynomial") -> bool:
        return self.degree <= other.degree and not any(scaled_divmod(other._scaled, self._scaled)[1][other.degree - self.degree :])

    def is_squarefree(self) -> bool:
        """True iff the polynomial has no repeated root over Q(t).

        Decided by specialisation.  The polynomial is monic, so its
        discriminant commutes with t = t0; being isobaric of weight d(d-1),
        it has t-degree at most d(d-1)·w with w = max_k ceil(deg_t a_k / k).
        It is therefore nonzero iff it is nonzero at one of the integers
        0, ..., d(d-1)·w.  At each t0 the test runs on P(t0), monic in Z[μ]
        and squarefree exactly when p(t0) is, and its derivative P'(t0):
        :func:`~sheet_atlas.scalars.poly_gcd` of the two, an integer Euclid,
        decides.  Rational coefficients give w = 0 and a single step.
        Coefficients in two different symbols raise ValueError.

        Before each gcd a certificate modulo the prime ℓ = 2^61 - 1 is
        tried.  If P is coprime to P' modulo ℓ, P is squarefree over Q: a
        repeated factor g^2 of P can be taken monic in Z[μ] (Gauss's lemma),
        so g keeps its degree modulo ℓ and divides P and P' there.  Nothing
        is asked of D.  The certificate only answers True; when it fails (ℓ
        may divide the discriminant) the exact gcd decides, so every False
        is exact.  Degree 0 and 1 need neither.
        """
        d = self.degree
        if d < 2:
            return True
        _, c, symbol = self._scaled
        for t0 in range(d * (d - 1) * t_weight(self._scaled) + 1 if symbol else 1):
            values = [1, *(at(c, t0) if symbol else c)]
            derivative = [v * (d - k) for k, v in enumerate(values[:-1])]
            # the certificate: gcd(P, P') = 1 over the field of CERTIFICATE_PRIME elements
            if len(integer_euclid(_residues(values), _residues(derivative), _residues)) == 1:
                return True
            if len(poly_gcd(values, derivative)) == 1:
                return True
        return False

    def __str__(self):
        terms = [(c, self.degree - k) for k, c in enumerate(self.dense()) if not scalar_is_zero(c)]
        return format_terms([("(%s)" % c if type(c) is RatPoly and not c.is_constant() else str(c), k) for c, k in terms], LAMBDA)

    def to_json(self):
        return {"degree": self.degree, "coeffs": [format_scalar(c) for c in self.coeffs]}


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


def mu_s(point: SheetBasePoint) -> GradedPolynomial:
    """Composition into the full base: the product of ξ_i^i."""
    return product_with_multiplicities(point.factors)


def product_with_multiplicities(factors: Sequence[GradedPolynomial]) -> GradedPolynomial:
    return _product([(xi, i) for i, xi in enumerate(factors, start=1)])


def min_poly(point: SheetBasePoint) -> GradedPolynomial:
    """Each factor taken once; divides mu_s(point)."""
    return _product([(xi, 1) for xi in point.factors])


def _product(powers: Sequence[Tuple[GradedPolynomial, int]]) -> GradedPolynomial:
    """Product of xi**e over (xi, e) pairs: each P_i rescaled to D =
    lcm(D_i), convolved.  With m_i the largest t-degree in xi, the product's
    coefficients (sums of products of e coefficients of each xi) have
    t-degree at most sum e m_i, so that many values of t plus one suffice.
    """
    forms = [xi._scaled for xi, _ in powers]
    den = lcm(*[d for d, _, _ in forms])

    def convolve(*cs):
        acc = [1]
        for c, (d, _, _), (_, e) in zip(cs, forms, powers):
            tail = rescaled(c, den // d)
            for _ in range(e if c else 0):
                acc = _int_convolve(acc, tail)
        return acc[1:]

    return _graded(den, *run(forms, lambda: sum(e * cleared_degree(f) for f, (_, e) in zip(forms, powers)) + 1, convolve))


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
# Scaled forms (D, c, symbol), as from :func:`~sheet_atlas.scalars.clear`.


def _graded(den: int, values: list, symbol: Optional[str]) -> GradedPolynomial:
    """The monic polynomial with scaled form (den, values, symbol) alone."""
    out = object.__new__(GradedPolynomial)
    out.__dict__.update(_scaled=(den, values, symbol), degree=len(values))
    return out


def _int_convolve(ip: List[int], tail: List[int]) -> List[int]:
    """ip times the monic polynomial with coefficients 1, *tail."""
    out = [*ip, *[0] * len(tail)]
    for i, a in enumerate(ip):
        if a:
            for j, b in enumerate(tail, start=i + 1):
                out[j] += a * b
    return out


def _residues(r: List[int]) -> List[int]:
    """r modulo CERTIFICATE_PRIME, leading zeros dropped."""
    return poly_trim([v % CERTIFICATE_PRIME for v in r])
