"""Sheet identification and abelianisation data for two real-form families.

The special unitary family SU(p, q) attaches to the gl sheet with Levi
partition (p-q, 1^{2q}); the quaternionic orthogonal family SO*(2n) is
worked out for n = 2m+1, where the Levi is a product of m GL_2 blocks and
a one-dimensional torus.  Quasi-splitness is equivalent to the attached
sheet being the regular one.  The CLI reads the labels from its ``--label``.

Reports store only the RANK of the abelianised structure group, not the
group itself: the group is pinned down only up to finite index inside a
fixed-point group scheme, and the gap is real (for the quaternionic
special linear family SU*(2m), m > 1, the structure group is trivial while
the fixed-point fibres generically have order 2^(m-1)).
"""
from __future__ import annotations

from typing import Optional, Tuple, Union

from ._record import Record, _set, check_int
from .partitions import Partition
from .sheets import Levi, check_rank, type_a


class SU(Record):
    """SU(p, q) with p >= q >= 1."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        check_int("p", p)
        check_int("q", q)
        if not p >= q >= 1:
            raise ValueError("need p >= q >= 1")
        _set(self, "p", p)
        _set(self, "q", q)

    def __str__(self):
        return "SU(%d,%d)" % (self.p, self.q)


class SOStar(Record):
    """SO*(2n) with n >= 3."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        check_int("n", n)
        if n < 3:
            raise ValueError("need n >= 3")
        _set(self, "n", n)

    def __str__(self):
        return "SO*(%d)" % (2 * self.n,)


RealFormLabel = Union[SU, SOStar]


class RealSheetReport(Record):
    """Sheet, quasi-split status and abelianisation target of a real form.
    ``extra`` holds the integer invariants as (name, value) pairs, in the
    order they are written, so the record is immutable and hashable."""

    __slots__ = ("label", "levi_description", "quasi_split", "abelianised_target", "extra", "note")

    def __init__(
        self,
        label: RealFormLabel,
        levi_description: Union[Levi, str, None],
        quasi_split: bool,
        abelianised_target: Optional[str],
        extra: Tuple[Tuple[str, int], ...] = (),
        note: Optional[str] = None,
    ):
        _set(self, "label", label)
        _set(self, "levi_description", levi_description)
        _set(self, "quasi_split", quasi_split)
        _set(self, "abelianised_target", abelianised_target)
        _set(self, "extra", tuple(extra))
        _set(self, "note", note)

    def to_json(self) -> dict:
        levi = self.levi_description
        if isinstance(self.label, SU):  # the one family that names a Levi, of GL_{p+q}
            levi = {"gl": levi.blocks.to_json()}
        return {
            "label": str(self.label),
            "levi": levi,
            "quasi_split": self.quasi_split,
            "abelianised_target": self.abelianised_target,
            "extra": {k: str(v) for k, v in self.extra},
            "note": self.note,
        }


def toledo_max(q: int, g: int) -> int:
    """Largest value 2q(g-1) of the invariant on a genus-g curve."""
    check_int("q", q)
    check_int("genus", g)
    return 2 * q * (g - 1)


def so_star_fixed_degree(m: int, g: int) -> int:
    """Degree 4m(g-1) of the reduced bundle in the SO*(4m+2) deconstruction."""
    check_int("m", m)
    check_int("genus", g)
    return 4 * m * (g - 1)


def su_sheet_partition(p: int, q: int) -> Partition:
    """Levi partition (p-q, 1^{2q}) of the sheet through the isotropy-regular
    locus; the leading part is dropped when p = q.  The sheet lives in
    GL_{p+q}, so p + q above the record bound MAX_RANK is refused before the
    2q parts are built."""
    check_rank(type_a(p + q))
    r = p - q
    parts = ([r] if r > 0 else []) + [1] * (2 * q)
    return Partition(parts)


def _su_report(label: SU, genus: Optional[int]) -> RealSheetReport:
    p, q = label.p, label.q
    m = su_sheet_partition(p, q)
    quasi = (p - q) <= 1
    extra = ()
    note = None
    if quasi:
        target = "Hitchin fibration for SU(%d,%d) itself (regular sheet)" % (p, q)
        if p - q == 1:
            note = (
                "the quotient map to U(%d,%d) data is still defined but is "
                "nowhere injective; the regular theory applies instead" % (q, q)
            )
    else:
        target = "Hitchin fibration for U(%d,%d) at maximal Toledo invariant" % (q, q)
        if genus is not None:
            extra = (("toledo_max", toledo_max(q, genus)),)
    return RealSheetReport(
        label=label,
        levi_description=Levi(m, 0),
        quasi_split=quasi,
        abelianised_target=target,
        extra=extra,
        note=note,
    )


def _so_star_report(label: SOStar, genus: Optional[int]) -> RealSheetReport:
    n = label.n
    if n % 2 == 1:
        m = (n - 1) // 2
        extra = (("jh_rank", 1), ("gl2_blocks", m))
        if genus is not None:
            extra += (("fixed_degree", so_star_fixed_degree(m, genus)),)
        return RealSheetReport(
            label=label,
            levi_description="GL2^%d x Gm" % m,
            quasi_split=False,
            abelianised_target="Pic(curve) x Hitchin base for SO*(%d)" % (2 * n,),
            extra=extra,
        )
    # Even n: only the quasi-split classification is recorded (externally
    # sourced; the worked abelianisation covers the odd case).
    return RealSheetReport(
        label=label,
        levi_description=None,
        quasi_split=False,
        abelianised_target=None,
        note="abelianised fibration not worked out for SO*(4m); finite fibres",
    )


def sheet_of_real_form(label: RealFormLabel, genus: Optional[int] = None) -> RealSheetReport:
    """Identify the sheet and abelianisation data of a real form.

    With a genus the report's extra column carries the numeric invariants
    (maximal characteristic number, fixed reduced degree); without one only
    structural data is reported.  A genus below 2 is an error.
    """
    if type(label) not in (SU, SOStar):
        raise ValueError("unknown real form label %r" % (label,))
    if genus is not None:
        check_int("genus", genus)
        if genus < 2:
            raise ValueError("genus must be at least 2")
    return _su_report(label, genus) if type(label) is SU else _so_star_report(label, genus)


def abelianized_fiber_dim_is_positive(label: RealFormLabel) -> bool:
    """Whether the abelianised fibration has positive-dimensional fibres.

    True exactly for SU(p, q) with p - q > 1 and for SO*(4m+2).
    """
    if isinstance(label, SU):
        return label.p - label.q > 1
    if isinstance(label, SOStar):
        return label.n % 2 == 1
    raise ValueError("unknown real form label %r" % (label,))

