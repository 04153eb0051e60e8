"""Orbit-method multiplicities from slice stabilisers.

For an orbit through a slice point x, the multiplicity of the attached
primitive ideal is |F| / |Stab_F(x)|, where F is the sheet's residual
finite group.  Shipped scope: type A sheets (trivial F), any sheet with
trivial F, and one-dimensional slices where the order-2 group acts by sign.

The same quantity is the large-n limit of the ratio M(O; n) / M(O_nil; n)
of graded multiplicity functions of the orbit against the nilpotent orbit
of its sheet.  That asymptotic identity is documented here for context
only: the multiplicity function M itself (a sum of weight multiplicities
over dominant weights of bounded height) is out of scope, so the limit is
not computed or verified numerically.
"""
from __future__ import annotations

from fractions import Fraction

from ._record import Record, _set
from .sheets import SheetDescriptor


class SlicePoint(Record):
    """A point of the slice quotient: a rational tuple of length dim_z,
    given as an int or Fraction or as a tuple or list of them."""

    __slots__ = ("sheet", "z")

    def __init__(self, sheet: SheetDescriptor, z):
        zs = tuple(z) if isinstance(z, (tuple, list)) else (z,)
        if any(type(v) not in (int, Fraction) for v in zs):
            raise ValueError("slice point z must be an int, a Fraction or a sequence of them, got %r" % (z,))
        z = tuple([v if type(v) is Fraction else Fraction(v) for v in zs])
        if len(z) != sheet.dim_z:
            raise ValueError("slice point has length %d, sheet centre has dimension %d" % (len(z), sheet.dim_z))
        _set(self, "sheet", sheet)
        _set(self, "z", z)

    @property
    def is_nilpotent_point(self) -> bool:
        return all(v == 0 for v in self.z)


def inertia_order(p: SlicePoint) -> int:
    """|Stab_F(z)| at the slice point.

    Trivial residual groups stabilise with order 1 everywhere.  In the
    order-2 scope the group acts by -1 on a one-dimensional slice, fixing
    exactly the nilpotent point.
    """
    f = p.sheet.katsylo_order
    if f == 1:
        return 1
    if f == 2 and p.sheet.dim_z == 1:
        return 2 if p.is_nilpotent_point else 1
    raise ValueError("inertia outside shipped scope: |F| = %d, dim_z = %d" % (f, p.sheet.dim_z))


def orbit_method_multiplicity(p: SlicePoint) -> int:
    """|F| / |Stab_F(z)|: 1 at the nilpotent point, |F| at a free point."""
    f = p.sheet.katsylo_order
    stab = inertia_order(p)
    if f % stab:
        raise AssertionError("stabiliser order does not divide the group order")
    return f // stab


def polarisation_orbit_count(sheet: SheetDescriptor) -> int:
    """Size of the centraliser orbit of polarisations of a Dixmier sheet.

    The orbit is a torsor under the residual finite group, so the count
    equals |F|.
    """
    if not sheet.dixmier:
        raise ValueError("polarisation counting applies to Dixmier sheets")
    return sheet.katsylo_order
