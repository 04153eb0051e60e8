"""Genus-parameterised dimension calculus for spectral-data bases.

Everything here is exact integer arithmetic driven by the dimension of
spaces of sections of powers of the canonical bundle on a curve of genus
g >= 2: g sections for the first power, (2j-1)(g-1) for the j-th.  A base
dimension has one route, from the group or from a sheet's slice weights.
"""
from __future__ import annotations

from typing import Tuple

from ._record import Record, _set, check_int
from .partitions import profile
from .sheets import GroupKind, SheetDescriptor, levi_shape


class SliceWeights(Record):
    """Scaling weights of the contracted slice coordinates."""

    __slots__ = ("weights",)

    def __init__(self, weights: Tuple[int, ...]):
        weights = tuple(weights)
        for w in weights:
            check_int("a weight", w)
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        _set(self, "weights", weights)


def h0_canonical_power(g: int, j: int) -> int:
    """dim H^0 of the j-th power of the canonical bundle on a genus-g curve."""
    check_int("genus", g)
    check_int("j", j)
    if g < 2 or j < 1:
        raise ValueError("need g >= 2 and j >= 1")
    return g if j == 1 else (2 * j - 1) * (g - 1)


def invariant_degrees(kind: GroupKind) -> Tuple[int, ...]:
    """Degrees of the basic adjoint invariants, per classical family."""
    r = kind.rank
    if kind.family == "A":
        return tuple(range(1, r + 1))
    if kind.family in ("B", "C"):
        return tuple(2 * i for i in range(1, r + 1))
    if kind.family == "D":
        return tuple(2 * i for i in range(1, r)) + (r,)
    if kind.family == "F4":
        return (2, 6, 8, 12)
    raise ValueError("unknown family %r" % (kind.family,))


def dim_hitchin_base(kind: GroupKind, g: int) -> int:
    """Dimension of the full base, the sum of h0(K^d) over the invariant
    degrees d, in closed form: the (2d - 1) summed over the degrees make
    dim G, and the degree-1 invariant of GL_n has g sections instead of
    g - 1, so the base has dimension (g - 1) dim G + [family A]."""
    check_int("genus", g)
    if g < 2:
        raise ValueError("genus must be at least 2")
    return (g - 1) * kind.dim + (1 if kind.family == "A" else 0)


def component_count(katsylo_order: int, g: int) -> int:
    """Number of connected components of the reduced base.

    Components are counted by torsors for the residual finite group on the
    curve: one for the trivial group, 2^(2g) for the order-2 group.
    """
    check_int("katsylo_order", katsylo_order)
    check_int("genus", g)
    if g < 2:
        raise ValueError("genus must be at least 2")
    if katsylo_order == 1:
        return 1
    if katsylo_order == 2:
        return 4**g
    raise ValueError("component counting shipped only for residual order 1 or 2")


def s_cameral_degree(descriptor: SheetDescriptor) -> int:
    """Degree of the covering curve attached to a Dixmier sheet: |W_L|."""
    if not descriptor.dixmier:
        raise ValueError("covering degree is defined for Dixmier sheets")
    return descriptor.w_s_order * descriptor.katsylo_order


def slice_weights(descriptor: SheetDescriptor) -> SliceWeights:
    """Slice weights of a sheet.

    Type A sheets: weights 1..l_i for each part size i of the Levi
    partition.  One-dimensional centres: a single weight, 1 when the slice
    is a genuine section (trivial reflection part) and 2 when the centre is
    folded by the sign action.  Regular sheets: the invariant degrees.
    Zero-dimensional centres have no weights.
    """
    shape = levi_shape(descriptor.kind, descriptor.levi)
    if shape == "gl":
        prof = profile(descriptor.levi.blocks)
        return SliceWeights(tuple(j for _, li in prof.items() for j in range(1, li + 1)))
    if shape == "torus":
        return SliceWeights(invariant_degrees(descriptor.kind))
    if descriptor.dim_z == 0:
        return SliceWeights(())
    if descriptor.dim_z == 1:
        return SliceWeights((1,) if descriptor.w_s_order == 1 else (2,))
    raise ValueError("no weight rule for %s" % (descriptor,))


def dim_s_hitchin_base(descriptor: SheetDescriptor, g: int) -> int:
    """Coarse dimension of the distinguished component, via slice weights."""
    return sum(h0_canonical_power(g, e) for e in slice_weights(descriptor).weights)
