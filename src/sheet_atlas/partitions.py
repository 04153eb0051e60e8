"""Partition arithmetic: conjugation, multiplicity profiles, orbit validity.

Partitions label Levi classes and nilpotent orbits throughout the library.
Parts are stored largest-first; the empty partition is allowed and is its
own conjugate.
"""
from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from ._record import OrderedRecord, Record, _set

class Partition(OrderedRecord):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(parts)
        if any(type(p) is not int for p in ps):
            raise ValueError("partition parts must be ints: %r" % (ps,))
        ps = sorted(ps, reverse=True)
        if any(p <= 0 for p in ps):
            raise ValueError("partition parts must be positive: %r" % (ps,))
        _set(self, "parts", tuple(ps))

    @classmethod
    def _trusted(cls, parts) -> "Partition":
        # internal: parts already positive ints, largest first
        out = object.__new__(cls)
        _set(out, "parts", tuple(parts))
        return out

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def largest(self) -> int:
        return self.parts[0] if self.parts else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def to_json(self) -> list:
        return list(self.parts)


class MultiplicityProfile(Record):
    """Part-multiplicity counts l_1..l_s of a partition, s = largest part.

    l_i is the number of parts equal to i; indices run 1..s even when some
    l_i = 0 so that downstream tuple shapes are total.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Tuple[int, ...]):
        _set(self, "counts", counts)

    @property
    def s(self) -> int:
        return len(self.counts)

    def l(self, i: int) -> int:
        if not 1 <= i <= self.s:
            raise ValueError("profile index %d out of range 1..%d" % (i, self.s))
        return self.counts[i - 1]

    def items(self) -> Iterator[Tuple[int, int]]:
        return ((i + 1, c) for i, c in enumerate(self.counts))

    def to_json(self) -> Dict[str, int]:
        return {str(i): c for i, c in self.items()}


def conjugate(m: Partition) -> Partition:
    """Conjugate (transposed Young diagram) partition: m^i = #{m_j >= i},
    the orbit of m's gl_n record, read off the walk of the type A listing
    led down m's own parts (``sheets.gl_sheet``)."""
    if not m.parts:
        return m
    from .sheets import gl_sheet  # sheets imports this module
    return gl_sheet(m).nilpotent_orbit


def profile(m: Partition) -> MultiplicityProfile:
    """Multiplicity profile of m; satisfies l_i = n_i - n_{i+1} for n = conjugate(m)."""
    counts = [0] * m.largest
    for p in m.parts:
        counts[p - 1] += 1
    return MultiplicityProfile(tuple(counts))


def is_valid_orbit_partition(kind, p) -> bool:
    """Parity test for nilpotent-orbit partitions of the group ``kind``; p
    is a Partition or its parts, largest first.

    Type A admits everything; in B, C and D every part of the parity the
    form pairs off has even multiplicity: the even parts for a symmetric
    form (B, D), the odd parts for an alternating one (C).  A size mismatch
    between the group and p is an error, not a False.
    """
    parts = p.parts if type(p) is Partition else p
    size = kind.matrix_size
    if size is not None and sum(parts) != size:
        raise ValueError("partition of %d does not match group on %d letters" % (sum(parts), size))
    if kind.family == "A":
        return True
    sign = kind.form_sign
    if sign is None:
        raise ValueError("no orbit-partition criterion for group family %r" % (kind.family,))
    paired = (1 - sign) // 2  # the parity of the parts the form pairs off
    return all(parts.count(i) % 2 == 0 for i in set(parts) if i % 2 == paired)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order (largest-first),
    as the walk of the type A listing (``sheets._gl_walk``) reaches them.
    Parts are positive and descending by construction, so they skip the
    validating constructor."""
    if n < 0:
        raise ValueError("n must be non-negative")
    from .sheets import _PARTS, _gl_walk  # sheets imports this module
    yield from _gl_walk(n, _PARTS)
