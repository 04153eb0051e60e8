"""Partition arithmetic: conjugation, multiplicity profiles, orbit validity.

Partitions label Levi classes and nilpotent orbits throughout the library.
Parts are stored largest-first; the empty partition is allowed and is its
own conjugate.
"""
from __future__ import annotations

from math import factorial
from typing import Dict, Iterable, Iterator, List, Tuple

from ._record import OrderedRecord, Record, _set

class Partition(OrderedRecord):
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = sorted((int(p) for p in parts), reverse=True)
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
    def num_parts(self) -> int:
        return len(self.parts)

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

    @classmethod
    def from_json(cls, obj) -> "MultiplicityProfile":
        s = max((int(k) for k in obj), default=0)
        return cls(tuple(int(obj.get(str(i), 0)) for i in range(1, s + 1)))


def conjugate_walk(parts: Tuple[int, ...]) -> Tuple[int, int, List[int]]:
    """(sum of m_i^2, product of l! over the runs of l equal parts, the
    conjugate parts largest first) of the partition m with these parts,
    largest first, from one walk up its runs from the smallest part.

    Exactly j parts are >= i for every i in (m_{j+1}, m_j] (1-based,
    m_{k+1} = 0), so m_j - m_{j+1} conjugate parts equal j; that is zero
    inside a run of equal parts, so the walk steps from the end of one run
    to the end of the next.
    """
    conj: List[int] = []
    d = below = 0
    w = 1
    j = len(parts)
    while j:
        p = parts[j - 1]
        # parts[i:j] is the run of parts equal to p; index() scans in C
        i = parts.index(p)
        conj += [j] * (p - below)
        d += (j - i) * p * p
        w *= factorial(j - i)
        below = p
        j = i
    return d, w, conj


def conjugate(m: Partition) -> Partition:
    """Conjugate (transposed Young diagram) partition: m^i = #{m_j >= i}."""
    return Partition._trusted(conjugate_walk(m.parts)[2])


def profile(m: Partition) -> MultiplicityProfile:
    """Multiplicity profile of m; satisfies l_i = n_i - n_{i+1} for n = conjugate(m)."""
    counts = [0] * m.largest
    for p in m.parts:
        counts[p - 1] += 1
    return MultiplicityProfile(tuple(counts))


def is_valid_orbit_partition(kind, p) -> bool:
    """Parity test for nilpotent-orbit partitions of classical groups; p is
    a Partition or its parts, largest first.

    Type A admits everything; orthogonal types (B, D) need every even part
    with even multiplicity; the symplectic type (C) needs every odd part
    with even multiplicity.  A size mismatch between the group and p is an
    error, not a False.
    """
    parts = p.parts if type(p) is Partition else p
    family = getattr(kind, "family", kind)
    expected = getattr(kind, "matrix_size", None)
    if expected is not None and sum(parts) != expected:
        raise ValueError("partition of %d does not match group on %d letters" % (sum(parts), expected))
    if family == "A":
        return True
    if family in ("B", "D"):
        return all(parts.count(i) % 2 == 0 for i in set(parts) if i % 2 == 0)
    if family == "C":
        return all(parts.count(i) % 2 == 0 for i in set(parts) if i % 2 == 1)
    raise ValueError("no orbit-partition criterion for group family %r" % (family,))


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order (largest-first).

    Iterative algorithm ZS1 (Zoghbi and Stojmenovic, 1998): x[1..m] holds
    the current partition, padded with 1s beyond m, and h indexes its last
    part above 1.  The next partition lowers x[h] to r = x[h] - 1 and
    regroups the unit taken off together with the m - h trailing 1s into
    parts of size r followed by one smaller remainder part; each step costs
    O(parts written).  Parts are positive and descending by construction,
    so they skip the validating constructor.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield Partition._trusted(())
        return
    x = [1] * (n + 1)
    x[1] = n
    m = h = 1
    yield Partition._trusted(x[1:2])
    while x[1] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h + 1
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t == 0:
                m = h
            else:
                m = h + 1
                if t > 1:
                    h += 1
                    x[h] = t
        yield Partition._trusted(x[1 : m + 1])
