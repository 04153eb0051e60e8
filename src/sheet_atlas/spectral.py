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
give P = prod (μ - A) in one pass of :func:`_int_from_roots`, the kernel
that ``char_poly`` runs on the diagonal entries it peels; products rescale
each P_i to D = lcm(D_i) (c_k -> c_k (D/D_i)^k), raise each to its power
by repeated squaring and convolve; monic division is synthetic division
in Z[μ] after the same rescaling.  Over Q[t] the same routine runs once on
P(2^S), S taken from a proven height bound (a guessed one for division,
proven by an exact identity afterwards), and the answer's coefficients are
read back as balanced base-2^S digits.  A Z[t] result of ``from_roots`` or of a product
also keeps the bound that chose S, which bounds its 1-norm, so that a later
product or division takes its bound from it instead of summing its digits;
a product's result also keeps its values at 2^S, and a division into it
runs first at that S, reading them and evaluating only the divisor.
Gcds are taken over Q only, by Brown's modular gcd (:func:`~sheet_atlas.scalars.poly_gcd`).  The heart test,
squarefreeness over Q(t) (:meth:`GradedPolynomial.is_squarefree`), answers
"squarefree" only on a certificate, P coprime to P' modulo a prime at some
t = t0, and "not squarefree" only once a monic G of degree >= 1 divides P
and P' exactly; over Q(t), G is lifted from t = 2^S.  Residues never decide
alone.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import count
from math import lcm, prod
from typing import Iterator, List, Optional, Sequence, Tuple

from ._record import Record, _set
from .partitions import MultiplicityProfile
from .scalars import (
    CERTIFICATE_PRIME,
    Cleared,
    Held,
    RatPoly,
    Scalar,
    as_scalar,
    at,
    balanced,
    clear,
    digits,
    euclid_mod,
    format_scalar,
    format_terms,
    monic_divides,
    monic_division,
    norm,
    poly_gcd,
    rescaled,
    run,
    scalar_is_zero,
    scalars_over,
    scaled_divmod,
    scaled_norm,
    t_weight,
)

LAMBDA = "λ"


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
    clears them on first use.  ``degree`` is set from either.  Over Z[t] a
    result of ``from_roots`` or of a product also carries ``_held``
    (:data:`~sheet_atlas.scalars.Held`): a bound on its 1-norm and, for a
    product, its values at the 2^S it was computed at; every other
    polynomial has ``_held`` None.
    """

    _held: Optional[Held] = None

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
        return clear(self.coeffs, weighted=True)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, GradedPolynomial) else NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "GradedPolynomial(coeffs=%r)" % (self.coeffs,)

    @classmethod
    def from_roots(cls, roots: Sequence) -> "GradedPolynomial":
        """prod (λ - r): P = prod (μ - A) over the roots A/D.  Over Z[t]
        c_k = ±e_k(A), whose 1-norm is at most the sum over k-subsets of
        prod ‖A_i‖₁, so every t-coefficient of every c_k is at most
        prod (1 + ‖A_i‖₁)."""
        form = clear([as_scalar(r) for r in roots])
        values, symbol, held = run([form], lambda: prod([1 + norm(v) for v in form[1]]), lambda a: _int_from_roots(a)[1:])
        return _graded(form[0], values, symbol, held and (held[0], None))

    def dense(self) -> List[Scalar]:
        """Descending-power coefficient list [1, a_1, ..., a_d]."""
        return [Fraction(1), *self.coeffs]

    def __mul__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return _product([(self, 1), (other, 1)])

    def divides(self, other: "GradedPolynomial") -> bool:
        """Whether self divides other: :func:`~sheet_atlas.scalars.scaled_divmod`
        on their scaled forms and what they carry (``_held``), the answer
        proven by its identity.  Over Z[t], when other is a product's
        result, the first division is at the S of other's values, read
        there, with self evaluated at that S; otherwise both are evaluated.
        For min_poly(point) and mu_s(point) that S is mu_s's, and the
        identity ‖other‖₁ + ‖self‖₁ ‖quo‖₁ < 2^(S-1) holds there: the
        quotient prod xi_i^(i-1) has ‖min_poly‖₁ ‖quo‖₁ <= prod ‖P_i‖₁^i
        too, and mu_s's S has a bit to spare."""
        nquo = other.degree - self.degree
        return nquo >= 0 and not any(scaled_divmod(other._scaled, self._scaled, (other._held, self._held))[1][nquo:])

    def is_squarefree(self) -> bool:
        """True iff the polynomial has no repeated root over Q(t).

        Every answer is proven, on the scaled form P (monic in Z[μ], or in
        Z[t][μ] over Q(t), and squarefree exactly when the polynomial is)
        and its derivative P'.  Degree 0 and 1 are squarefree.

        *True* rests on a certificate: P(t0) coprime to P'(t0) modulo a
        prime, for some integer t0.  P(t0) is monic, so a repeated factor
        g^2 of it, taken monic in Z[μ] (Gauss's lemma), would keep its
        degree modulo the prime and divide P(t0) and P'(t0) there.  So
        P(t0) is squarefree, the discriminant of P, which commutes with
        t = t0, is not zero, and P is squarefree over Q(t).

        *False* rests on an exact division: a monic G of degree >= 1 that
        divides P and P' in Z[μ], or in Z[t][μ].

        The candidates for G come from :func:`_candidates`: the gcd modulo
        ℓ = 2^61 - 1 read in balanced residues, then :func:`poly_gcd`, whose
        further primes are those below ℓ
        (:func:`~sheet_atlas.scalars.primes`).  Over Q that decides.  Over
        Q(t) only the certificate modulo ℓ is tried at t0 = 0 and 1; when
        both fail, the candidates are taken at t = 2^S, S above the bound
        of :func:`_lift_bound`, and each is tested in Z[t][μ] by
        :func:`_divides_at`, which reads it back as base-2^S digits.  Should
        2^S be a root of the discriminant, no candidate passes, and the
        specialisations decide: the discriminant is isobaric of weight
        d(d-1), so it has t-degree at most d(d-1)·w with w = max_k
        ceil(deg_t a_k / k), and it vanishes iff it vanishes at each of the
        integers 0, ..., d(d-1)·w.
        """
        d = self.degree
        if d < 2:
            return True
        _, c, symbol = self._scaled
        if not symbol:
            return _squarefree_at([1, *c])
        for t0 in (0, 1):
            values = [1, *at(c, t0)]
            if len(euclid_mod(values, _derivative(values), CERTIFICATE_PRIME)) == 1:
                return True
        # one lifted candidate: a gcd at t = 2^S, proven a divisor of P and P'
        norm1 = scaled_norm(c)
        s = _lift_bound(c, norm1).bit_length() + 1
        values = [1, *at(c, 1 << s)]
        derivative = _derivative(values)
        for g in _candidates(values, derivative):
            if len(g) == 1:
                return True
            if _divides_at(g, values, s, d * norm1) and _divides_at(g, derivative, s, d * norm1):
                return False
        return any(_squarefree_at([1, *at(c, t0)]) for t0 in range(d * (d - 1) * t_weight(self._scaled) + 1))

    def __str__(self):
        terms = [(c, self.degree - k) for k, c in enumerate(self.dense()) if not scalar_is_zero(c)]
        return format_terms([("(%s)" % c if type(c) is RatPoly and not c.is_constant() else str(c), k) for c, k in terms], LAMBDA)

    def to_json(self):
        return {"degree": self.degree, "coeffs": [format_scalar(c) for c in self.coeffs]}


class SheetBasePoint(Record):
    """A tuple (ξ_1, ..., ξ_s) of monic factors with deg ξ_i = l_i."""

    __slots__ = ("profile", "factors")

    def __init__(self, profile: MultiplicityProfile, factors: Sequence[GradedPolynomial]):
        factors = tuple(factors)
        if len(factors) != profile.s:
            raise ValueError("expected %d factors, got %d" % (profile.s, len(factors)))
        for i, xi in enumerate(factors, start=1):
            if xi.degree != profile.l(i):
                raise ValueError("factor %d has degree %d, profile wants %d" % (i, xi.degree, profile.l(i)))
        _set(self, "profile", profile)
        _set(self, "factors", factors)


def mu_s(point: SheetBasePoint) -> GradedPolynomial:
    """Composition into the full base: the product of ξ_i^i.  Over Q[t] it
    runs one bit above the least S, at 2^(S-1) > 2 prod ‖P_i‖₁^i, so that
    min_poly(point).divides(mu_s(point)) is proven at this S on its first
    division (:meth:`GradedPolynomial.divides`)."""
    return _product([(xi, i) for i, xi in enumerate(point.factors, start=1)], 1)


def min_poly(point: SheetBasePoint) -> GradedPolynomial:
    """Each factor taken once; divides mu_s(point)."""
    return _product([(xi, 1) for xi in point.factors])


def _product(powers: Sequence[Tuple[GradedPolynomial, int]], spare: int = 0) -> GradedPolynomial:
    """Product of xi**e over (xi, e) pairs: each P_i rescaled to D =
    lcm(D_i), raised to its power e_i by repeated squaring and convolved.
    The 1-norm over every μ- and t-coefficient is submultiplicative, so
    over Z[t] the product's 1-norm, and so every t-coefficient, is at most
    prod ‖P_i‖₁^(e_i), on the rescaled P_i: from the bound a P_i carries,
    times r_i^(deg P_i) for a P_i rescaled by r_i, else from its digits.
    ``spare`` bits are added to run's S (:func:`~sheet_atlas.scalars.run`).
    """
    forms = [xi._scaled for xi, _ in powers]
    den = lcm(*[d for d, _, _ in forms])

    def convolve(*cs):
        acc = [1]
        for c, (d, _, _), (_, e) in zip(cs, forms, powers):
            if c and e:
                acc = _int_convolve(acc, _int_power(rescaled(c, den // d), e))
        return acc[1:]

    def bound():
        return prod([(xi._held[0] * (den // d) ** len(c) if xi._held else scaled_norm(c, den // d)) ** e for (d, c, _), (xi, e) in zip(forms, powers)])

    return _graded(den, *run(forms, bound, convolve, spare))


def in_heart(point: SheetBasePoint) -> bool:
    """True iff every factor is squarefree (each spectral factor reduced)."""
    return all(xi.is_squarefree() for xi in point.factors)


def sp4_dix_image(b) -> GradedPolynomial:
    """The spectral image λ^4 - b^2 λ^2 of the rank-2 symplectic slice point b."""
    b = as_scalar(b)
    return GradedPolynomial((Fraction(0), -b * b, Fraction(0), Fraction(0)))


# ---------------------------------------------------------------------------
# Scaled forms (D, c, symbol), as from :func:`~sheet_atlas.scalars.clear`.


def _graded(den: int, values: list, symbol: Optional[str], held: Optional[Held] = None) -> GradedPolynomial:
    """The monic polynomial with scaled form (den, values, symbol) and, over
    Z[t], what it carries (``_held``) from :func:`~sheet_atlas.scalars.run`,
    whose bound must bound its 1-norm."""
    out = object.__new__(GradedPolynomial)
    out.__dict__.update(_scaled=(den, values, symbol), degree=len(values))
    if held:
        out.__dict__["_held"] = held
    return out


def _int_from_roots(roots: Sequence[int]) -> List[int]:
    """The coefficients 1, c_1, ..., c_d of prod (μ - A) over the integers
    A: μ - A multiplied in, in place, from the top coefficient down."""
    c = [1] + [0] * len(roots)
    for d, v in enumerate(roots, 1):
        if v:
            for k in range(d, 0, -1):
                c[k] -= v * c[k - 1]
    return c


def _int_convolve(ip: List[int], tail: List[int]) -> List[int]:
    """ip times the monic polynomial with coefficients 1, *tail."""
    out = [*ip, *[0] * len(tail)]
    for i, a in enumerate(ip):
        if a:
            for j, b in enumerate(tail, start=i + 1):
                out[j] += a * b
    return out


def _int_power(tail: List[int], e: int) -> List[int]:
    """The tail of the monic polynomial (1, *tail)^e, e >= 1, by repeated
    squaring."""
    if e == 1:
        return tail
    half = _int_power(tail, e // 2)
    square = _int_convolve([1, *half], half)[1:]
    return _int_convolve([1, *square], tail)[1:] if e % 2 else square


def _derivative(values: List[int]) -> List[int]:
    """The derivative of the integer polynomial with descending coefficients values."""
    d = len(values) - 1
    return [v * (d - k) for k, v in enumerate(values[:-1])]


def _candidates(values: List[int], derivative: List[int]) -> Iterator[List[int]]:
    """Monic candidates in Z[μ] for the gcd of the monic integer polynomial
    ``values`` and its derivative, [1] for a certificate of gcd 1: first
    the image modulo CERTIFICATE_PRIME in balanced residues, then the
    exact gcd of :func:`poly_gcd`, which adds primes."""
    image = euclid_mod(values, derivative, CERTIFICATE_PRIME)
    yield balanced(image, CERTIFICATE_PRIME)
    if len(image) > 1:
        yield [v.numerator for v in poly_gcd(values, derivative)]


def _squarefree_at(values: List[int]) -> bool:
    """Whether the monic integer polynomial ``values`` is squarefree over Q:
    True on a certificate, False once a candidate of :func:`_candidates`
    divides it and its derivative exactly."""
    derivative = _derivative(values)
    for g in _candidates(values, derivative):
        if len(g) == 1:
            return True
        if monic_divides(g, values) and monic_divides(g, derivative):
            return False


def _lift_bound(c: list, norm1: int) -> int:
    """The height that the lift of :meth:`GradedPolynomial.is_squarefree`
    needs, for the monic P = μ^d + c_1 μ^(d-1) + ... + c_d (ascending lists
    in t, of t-degree at most e) with ‖P‖₁ = ``norm1``, which bounds its
    2-norm and d ‖P‖₁ every t-coefficient of P and P'.

    The Mahler measure M is multiplicative, at least 1 on nonzero integer
    polynomials and at most the 2-norm, and each coefficient of t^i μ^j in
    F is at most binom(deg_μ F, j) binom(deg_t F, i) M(F).  t-degrees add
    in products, so every coefficient of a factor of P in Z[t][μ] is at
    most B = 2^(d+e) ‖P‖₁, and of a factor of P' at most d B, as
    M(P') <= ‖P'‖₂ <= d ‖P‖₁; a factor has at most n = (d+1)(e+1) terms.
    So G = gcd(P, P') lies within B, and G Q = P and G R = P' have
    ‖G‖₁ max(‖Q‖₁, ‖R‖₁) <= n^2 d B^2.  Returned: that plus d ‖P‖₁."""
    d, e = len(c), max(map(len, c)) - 1
    return d * norm1 + ((d + 1) * (e + 1) * (norm1 << (d + e))) ** 2 * d


def _divides_at(g: List[int], r: List[int], s: int, bound: int) -> bool:
    """Whether G divides R in Z[t][μ], from their values g and r at t = 2^s
    (descending in μ, G monic) and a bound on the t-coefficients of R.  The
    division g quo + rem = r runs in Z[μ].  A remainder other than 0 is the
    value of R mod G, so G does not divide.  Otherwise G and Q, read as the
    base-2^s digits of g and quo, make R - G Q vanish at 2^s with every
    t-coefficient at most bound + ‖G‖₁ ‖Q‖₁: below 2^(s-1) it vanishes in
    Z[t][μ] (as in :func:`~sheet_atlas.scalars.scaled_divmod`)."""
    nquo = len(r) - len(g)
    r = monic_division(list(r), g[1:], nquo)
    if any(r[nquo + 1 :]):
        return False
    identity = sum(norm(digits(v, s)) for v in g) * sum(norm(digits(v, s)) for v in r[: nquo + 1])
    return bound + identity < 1 << (s - 1)
