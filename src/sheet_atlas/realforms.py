"""Sheet identification and abelianisation data for two real-form families.

The special unitary family SU(p, q) attaches to the gl sheet with Levi
partition (p-q, 1^{2q}); the quaternionic orthogonal family SO*(2n) is
worked out for n = 2m+1, where the Levi is a product of m GL_2 blocks and
a one-dimensional torus.  Quasi-splitness is equivalent to the attached
sheet being the regular one.

Reports store only the RANK of the abelianised structure group, not the
group itself: the group is pinned down only up to finite index inside a
fixed-point group scheme, and the gap is real (for the quaternionic
special linear family SU*(2m), m > 1, the structure group is trivial while
the fixed-point fibres generically have order 2^(m-1)).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Union

from .partitions import Partition
from .sheets import GLLevi, LeviLabel, gl_sheet


@dataclass(frozen=True)
class SU:
    """SU(p, q) with p >= q >= 1."""

    p: int
    q: int

    def __post_init__(self):
        if not self.p >= self.q >= 1:
            raise ValueError("need p >= q >= 1")

    def __str__(self):
        return "SU(%d,%d)" % (self.p, self.q)


@dataclass(frozen=True)
class SOStar:
    """SO*(2n) with n >= 3."""

    n: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")

    def __str__(self):
        return "SO*(%d)" % (2 * self.n,)


RealFormLabel = Union[SU, SOStar]


@dataclass(frozen=True)
class RealSheetReport:
    """Sheet, quasi-split status and abelianisation target of a real form."""

    label: RealFormLabel
    levi_description: Union[LeviLabel, str, None]
    quasi_split: bool
    abelianised_target: Optional[str]
    extra: Dict[str, Fraction] = field(default_factory=dict)
    note: Optional[str] = None

    def to_json(self) -> dict:
        levi = self.levi_description
        if isinstance(levi, GLLevi):
            levi = {"gl": levi.m.to_json()}
        return {
            "label": str(self.label),
            "levi": levi,
            "quasi_split": self.quasi_split,
            "abelianised_target": self.abelianised_target,
            "extra": {k: str(v) for k, v in self.extra.items()},
            "note": self.note,
        }


def toledo(p: int, q: int, deg_v: int, deg_w: int) -> Fraction:
    """Characteristic number 2(q deg V - p deg W)/(p + q) of a U(p,q) pair."""
    if p < 1 or q < 1:
        raise ValueError("need p, q >= 1")
    return Fraction(2 * (q * deg_v - p * deg_w), p + q)


def toledo_max(q: int, g: int) -> int:
    """Largest value 2q(g-1) of the invariant on a genus-g curve."""
    return 2 * q * (g - 1)


def so_star_fixed_degree(m: int, g: int) -> int:
    """Degree 4m(g-1) of the reduced bundle in the SO*(4m+2) deconstruction."""
    return 4 * m * (g - 1)


def su_sheet_partition(p: int, q: int) -> Partition:
    """Levi partition (p-q, 1^{2q}) of the sheet through the isotropy-regular
    locus; the leading part is dropped when p = q."""
    r = p - q
    parts = ([r] if r > 0 else []) + [1] * (2 * q)
    return Partition(parts)


def _su_report(label: SU, genus: Optional[int]) -> RealSheetReport:
    p, q = label.p, label.q
    m = su_sheet_partition(p, q)
    quasi = (p - q) <= 1
    extra: Dict[str, Fraction] = {}
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
            extra["toledo_max"] = Fraction(toledo_max(q, genus))
    return RealSheetReport(
        label=label,
        levi_description=GLLevi(m),
        quasi_split=quasi,
        abelianised_target=target,
        extra=extra,
        note=note,
    )


def _so_star_report(label: SOStar, genus: Optional[int]) -> RealSheetReport:
    n = label.n
    if n % 2 == 1:
        m = (n - 1) // 2
        extra = {"jh_rank": Fraction(1), "gl2_blocks": Fraction(m)}
        if genus is not None:
            extra["fixed_degree"] = Fraction(so_star_fixed_degree(m, genus))
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
        extra={},
        note="abelianised fibration not worked out for SO*(4m); finite fibres",
    )


# Registry keyed by label type; new families plug in without schema change.
_REPORT_BUILDERS = {
    SU: _su_report,
    SOStar: _so_star_report,
}


def sheet_of_real_form(label: RealFormLabel, genus: Optional[int] = None) -> RealSheetReport:
    """Identify the sheet and abelianisation data of a real form.

    With a genus the report's extra column carries the numeric invariants
    (maximal characteristic number, fixed reduced degree); without one only
    structural data is reported.  A genus below 2 is an error.
    """
    builder = _REPORT_BUILDERS.get(type(label))
    if builder is None:
        raise ValueError("unknown real form label %r" % (label,))
    if genus is not None and genus < 2:
        raise ValueError("genus must be at least 2")
    return builder(label, genus)


def abelianized_fiber_dim_is_positive(label: RealFormLabel) -> bool:
    """Whether the abelianised fibration has positive-dimensional fibres.

    True exactly for SU(p, q) with p - q > 1 and for SO*(4m+2).
    """
    if isinstance(label, SU):
        return label.p - label.q > 1
    if isinstance(label, SOStar):
        return label.n % 2 == 1
    raise ValueError("unknown real form label %r" % (label,))


def parse_real_form(text: str) -> RealFormLabel:
    """Parse labels like "SU:3,1" or "SOSTAR:5" (case-insensitive)."""
    head, _, tail = text.partition(":")
    head = head.strip().upper()
    if head == "SU":
        p, q = (int(v) for v in tail.split(","))
        return SU(p, q)
    if head in ("SOSTAR", "SO*"):
        return SOStar(int(tail))
    raise ValueError("cannot parse real form label %r" % (text,))


def su_sheet(label: SU):
    """The full sheet descriptor behind an SU report."""
    return gl_sheet(su_sheet_partition(label.p, label.q))
