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


# A node of the prefix tree of partitions: its parts >= 2, largest first, and
# the partition they make when closed by ones.  It carries (parts, sum of
# parts, sum of squared parts, product of l! over its closed runs of l equal
# parts, the length of its last run, its last part, the conjugate parts above
# its last part).  Exactly j parts are >= i for i in (m_{j+1}, m_j], so a
# part q below the last part p of j parts puts p - q copies of j on top of
# that conjugate tail.  The root has no parts; its last part 1 keeps the
# tail of its children empty ([0] * (1 - q) is) and closes it to (n).
_ROOT = ((), 0, 0, 1, 0, 1, [])


def _step(node: tuple, q: int) -> tuple:
    """The child of ``node`` whose parts end in one more part q >= 2, no
    larger than the last."""
    parts, s, d, w, run, last, tail = node
    if q == last:
        return parts + (q,), s + q, d + q * q, w, run + 1, q, tail
    return parts + (q,), s + q, d + q * q, w * factorial(run), 1, q, [len(parts)] * (last - q) + tail


def _close(node: tuple, n: int) -> Tuple[Tuple[int, ...], int, int, List[int]]:
    """(parts, sum of m_i^2, product of l! over the runs of l equal parts,
    the conjugate parts largest first) of the partition m of n made of the
    parts of ``node`` and n - (their sum) ones.  Every part of m counts
    towards the first conjugate part, and the parts of ``node`` towards each
    one up to its last part."""
    parts, s, d, w, run, last, tail = node
    r = n - s
    k = len(parts)
    return parts + (1,) * r, d + r, w * factorial(run) * factorial(r), [k + r] + [k] * (last - 1) + tail if n else []


def walk(n: int) -> Iterator[Tuple[Tuple[int, ...], int, int, List[int]]]:
    """(parts, sum of m_i^2, product of l! over the runs of l equal parts,
    the conjugate parts largest first) of each partition m of n, in
    reverse-lexicographic order.

    The partitions of n are the nodes of the prefix tree of parts >= 2,
    each closed by ones; a child, ending in a part >= 2, comes before its
    parent, ending in ones, so the order is the tree's post-order with the
    children taken largest part first.  Each of the p(n) nodes but the
    root is made by one step from its parent, and each is closed once.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    node = _ROOT
    # (node, largest part of its next child) of each ancestor still open
    stack = []
    q = n
    while True:
        if q >= 2:
            stack.append((node, q - 1))
            node = _step(node, q)
            r = n - node[1]
            if r < q:
                q = r
        else:
            yield _close(node, n)
            if not stack:
                return
            node, q = stack.pop()


def conjugate_walk(parts: Tuple[int, ...]) -> Tuple[int, int, List[int]]:
    """(sum of m_i^2, product of l! over the runs of l equal parts, the
    conjugate parts largest first) of the partition m with these parts,
    largest first: the walk's steps along m's own parts >= 2, then closed by
    its ones."""
    node = _ROOT
    for q in parts:
        if q == 1:
            break
        node = _step(node, q)
    _, d, w, conj = _close(node, sum(parts))
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
    as :func:`walk` reaches them.  Parts are positive and descending by
    construction, so they skip the validating constructor."""
    for parts, _, _, _ in walk(n):
        yield Partition._trusted(parts)
