"""Partition arithmetic: conjugation, multiplicity profiles, orbit validity.

Partitions label Levi classes and nilpotent orbits throughout the library.
Parts are stored largest-first; the empty partition is allowed and is its
own conjugate.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Tuple


@dataclass(frozen=True, order=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: Tuple[int, ...]

    def __init__(self, parts: Iterable[int] = ()):
        ps = sorted((int(p) for p in parts), reverse=True)
        if any(p <= 0 for p in ps):
            raise ValueError("partition parts must be positive: %r" % (ps,))
        object.__setattr__(self, "parts", tuple(ps))

    @classmethod
    def _trusted(cls, parts) -> "Partition":
        # internal: parts already positive ints, largest first
        out = object.__new__(cls)
        object.__setattr__(out, "parts", tuple(parts))
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

    def multiplicity(self, i: int) -> int:
        """Number of parts equal to i."""
        return sum(1 for p in self.parts if p == i)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self):
        return "(" + ",".join(str(p) for p in self.parts) + ")"

    def to_json(self) -> list:
        return list(self.parts)

    @classmethod
    def from_json(cls, obj) -> "Partition":
        return cls(obj)


@dataclass(frozen=True)
class MultiplicityProfile:
    """Part-multiplicity counts l_1..l_s of a partition, s = largest part.

    l_i is the number of parts equal to i; indices run 1..s even when some
    l_i = 0 so that downstream tuple shapes are total.
    """

    counts: Tuple[int, ...]

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


def conjugate(m: Partition) -> Partition:
    """Conjugate (transposed Young diagram) partition: m^i = #{m_j >= i}.

    One walk down the parts: exactly j parts are >= i for every i in
    (m_{j+1}, m_j] (1-based, m_{k+1} = 0), so m_j - m_{j+1} conjugate parts
    equal j.
    """
    parts = m.parts
    out = []
    for j in range(len(parts), 0, -1):
        below = parts[j] if j < len(parts) else 0
        out += [j] * (parts[j - 1] - below)
    return Partition._trusted(out)


def profile(m: Partition) -> MultiplicityProfile:
    """Multiplicity profile of m; satisfies l_i = n_i - n_{i+1} for n = conjugate(m)."""
    counts = [0] * m.largest
    for p in m.parts:
        counts[p - 1] += 1
    return MultiplicityProfile(tuple(counts))


def is_valid_orbit_partition(kind, p: Partition) -> bool:
    """Parity test for nilpotent-orbit partitions of classical groups.

    Type A admits everything; orthogonal types (B, D) need every even part
    with even multiplicity; the symplectic type (C) needs every odd part
    with even multiplicity.  A size mismatch between the group and p.n is
    an error, not a False.
    """
    family = getattr(kind, "family", kind)
    expected = getattr(kind, "matrix_size", None)
    if expected is not None and p.n != expected:
        raise ValueError("partition of %d does not match group on %d letters" % (p.n, expected))
    if family == "A":
        return True
    if family in ("B", "D"):
        return all(p.multiplicity(i) % 2 == 0 for i in set(p.parts) if i % 2 == 0)
    if family == "C":
        return all(p.multiplicity(i) % 2 == 0 for i in set(p.parts) if i % 2 == 1)
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
