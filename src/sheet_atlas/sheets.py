"""Sheet classification and invariants for classical groups.

Covers all sheets of gl_n, the five sheets of the rank-2 symplectic group,
the Dixmier sheets attached to maximal Levi subgroups of SO/Sp (nine
classes), and the one exceptional record (the B3 Levi inside F4).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import factorial
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from .partitions import Partition, conjugate, is_valid_orbit_partition, partitions_of, profile

CLASS_NUMBER = {"I": 1, "II": 2, "III": 3, "IV": 4, "V": 5, "VI": 6, "VII": 7, "VIII": 8, "IX": 9}
TYPE1_CLASSES = frozenset({"II", "III", "VI", "VIII"})


@dataclass(frozen=True)
class GroupKind:
    """A classical group label A(n)=GL_n, B(r)=SO_{2r+1}, C(r)=Sp_{2r},
    D(r)=SO_{2r}, or the exceptional F4."""

    family: str
    rank: int = 0

    def __post_init__(self):
        if self.family not in ("A", "B", "C", "D", "F4"):
            raise ValueError("unknown group family %r" % (self.family,))
        if self.family == "F4":
            object.__setattr__(self, "rank", 4)
        elif self.rank < 1:
            raise ValueError("rank must be positive")
        elif self.family == "D" and self.rank < 2:
            raise ValueError("type D needs rank >= 2")

    @property
    def matrix_size(self) -> Optional[int]:
        fam = self.family
        if fam == "A":
            return self.rank
        if fam == "B":
            return 2 * self.rank + 1
        if fam == "F4":
            return None
        return 2 * self.rank

    @property
    def dim(self) -> int:
        fam, r = self.family, self.rank
        if fam == "A":
            return r * r
        if fam == "D":
            return r * (2 * r - 1)
        if fam == "F4":
            return 52
        return r * (2 * r + 1)

    @property
    def name(self) -> str:
        fam = self.family
        if fam == "A":
            return "GL%d" % self.rank
        if fam == "B":
            return "SO%d" % (2 * self.rank + 1)
        if fam == "C":
            return "Sp%d" % (2 * self.rank)
        if fam == "D":
            return "SO%d" % (2 * self.rank)
        return "F4"

    def __str__(self):
        return "F4" if self.family == "F4" else "%s(%d)" % (self.family, self.rank)


def type_a(n: int) -> GroupKind:
    return GroupKind("A", n)


def type_b(r: int) -> GroupKind:
    return GroupKind("B", r)


def type_c(r: int) -> GroupKind:
    return GroupKind("C", r)


def type_d(r: int) -> GroupKind:
    return GroupKind("D", r)


F4 = GroupKind("F4")


# --- Levi labels -----------------------------------------------------------


@dataclass(frozen=True)
class GLLevi:
    """Type A Levi: a product of GL blocks, labelled by a partition."""

    m: Partition

    def __str__(self):
        return "GL" + str(self.m)


@dataclass(frozen=True)
class MaxLevi:
    """Maximal Levi of SO/Sp: one GL_a block and the residual classical factor.

    For C the residual is p (an Sp_{2p} factor); for B/D it is q (an SO_q
    factor).  Constraints: a >= 1, and for D the residual must not be 2.
    """

    a: int
    residual: int

    def __post_init__(self):
        if self.a < 1 or self.residual < 0:
            raise ValueError("invalid maximal Levi label (%d;%d)" % (self.a, self.residual))

    def __str__(self):
        return "(%d;%d)" % (self.a, self.residual)


@dataclass(frozen=True)
class TorusLevi:
    """The Cartan subgroup; labels the regular sheet."""

    def __str__(self):
        return "T"


@dataclass(frozen=True)
class FullGroupLevi:
    """The group itself; labels rigid-orbit sheets and the zero sheet."""

    def __str__(self):
        return "G"


@dataclass(frozen=True)
class F4B3Levi:
    """The B3 Levi inside F4."""

    def __str__(self):
        return "B3"


LeviLabel = Union[GLLevi, MaxLevi, TorusLevi, FullGroupLevi, F4B3Levi]


# --- Sheet descriptors ------------------------------------------------------


@dataclass(frozen=True)
class SheetDescriptor:
    """Full invariant record of one sheet.

    w_s_order is derived (w_l_order / katsylo_order); the constructor checks
    divisibility, the dimension formula dim_sheet = dim g - d + dim_z, and
    the orbit-partition parity constraint.
    """

    kind: GroupKind
    levi: LeviLabel
    dixmier: bool
    nilpotent_orbit: Union[Partition, str]  # Bala-Carter tag for F4
    d: int
    dim_z: int
    w_l_order: int
    katsylo_order: int
    dim_sheet: int
    class_tag: Optional[str] = None
    type_tag: Optional[int] = None
    component_group_order: Optional[int] = None
    levi_conjugacy_caveat: bool = False  # D-type Levis conjugate only in the full orthogonal group
    name: Optional[str] = None

    def __post_init__(self):
        if self.w_l_order % self.katsylo_order:
            raise ValueError("katsylo order %d does not divide |W_L| = %d" % (self.katsylo_order, self.w_l_order))
        if self.dim_sheet != self.kind.dim - self.d + self.dim_z:
            raise ValueError("dim_sheet fails dim G - d + dim_z")
        if isinstance(self.nilpotent_orbit, Partition):
            if not is_valid_orbit_partition(self.kind, self.nilpotent_orbit):
                raise ValueError("orbit partition %s invalid for %s" % (self.nilpotent_orbit, self.kind))

    @property
    def w_s_order(self) -> int:
        return self.w_l_order // self.katsylo_order

    @property
    def decomposition_data(self) -> str:
        orbit = "0" if self.dixmier else str(self.nilpotent_orbit)
        if type(self.levi) is TorusLevi:
            levi = "T"
        elif type(self.levi) is FullGroupLevi:
            levi = self.kind.name
        else:
            levi = _levi_group_name(self.kind, self.levi)
        return "(%s,%s)" % (levi, orbit)

    def to_json(self) -> dict:
        orbit = (
            {"bala_carter": self.nilpotent_orbit}
            if isinstance(self.nilpotent_orbit, str)
            else self.nilpotent_orbit.to_json()
        )
        out = {
            "kind": str(self.kind),
            "name": self.name,
            "levi": _levi_to_json(self.levi),
            "decomposition_data": self.decomposition_data,
            "dixmier": self.dixmier,
            "nilpotent_orbit": orbit,
            "d": self.d,
            "dim_z": self.dim_z,
            "w_l_order": self.w_l_order,
            "katsylo_order": self.katsylo_order,
            "w_s_order": self.w_s_order,
            "dim_sheet": self.dim_sheet,
            "class_tag": self.class_tag,
            "type_tag": self.type_tag,
            "component_group_order": self.component_group_order,
            "levi_conjugacy_caveat": self.levi_conjugacy_caveat,
        }
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SheetDescriptor":
        orbit = obj["nilpotent_orbit"]
        nilpotent = orbit["bala_carter"] if isinstance(orbit, dict) else Partition(orbit)
        return cls(
            kind=parse_kind(obj["kind"]),
            levi=_levi_from_json(obj["levi"]),
            dixmier=obj["dixmier"],
            nilpotent_orbit=nilpotent,
            d=obj["d"],
            dim_z=obj["dim_z"],
            w_l_order=obj["w_l_order"],
            katsylo_order=obj["katsylo_order"],
            dim_sheet=obj["dim_sheet"],
            class_tag=obj.get("class_tag"),
            type_tag=obj.get("type_tag"),
            component_group_order=obj.get("component_group_order"),
            levi_conjugacy_caveat=obj.get("levi_conjugacy_caveat", False),
            name=obj.get("name"),
        )


def parse_kind(text: str) -> GroupKind:
    text = text.strip()
    if text.upper() == "F4":
        return F4
    fam = text[0].upper()
    inner = text[1:].strip("() ")
    return GroupKind(fam, int(inner))


def _levi_group_name(kind: GroupKind, levi: LeviLabel) -> str:
    if isinstance(levi, GLLevi):
        return "x".join("GL%d" % p for p in levi.m.parts)
    if isinstance(levi, F4B3Levi):
        return "B3-Levi"
    if isinstance(levi, MaxLevi):
        a, res = levi.a, levi.residual
        if kind.family == "C":
            tail = "" if res == 0 else "xSp%d" % (2 * res)
        else:
            tail = "" if res == 0 else "xSO%d" % res
        head = "GL%d" % a if a > 1 else "Gm"
        return head + tail
    raise ValueError("unnamed levi %r" % (levi,))


def _levi_to_json(levi: LeviLabel):
    if isinstance(levi, GLLevi):
        return {"gl": levi.m.to_json()}
    if isinstance(levi, MaxLevi):
        return {"a": levi.a, "residual": levi.residual}
    if isinstance(levi, TorusLevi):
        return "torus"
    if isinstance(levi, FullGroupLevi):
        return "full"
    if isinstance(levi, F4B3Levi):
        return "B3"
    raise ValueError("unknown levi %r" % (levi,))


def _levi_from_json(obj) -> LeviLabel:
    if obj == "torus":
        return TorusLevi()
    if obj == "full":
        return FullGroupLevi()
    if obj == "B3":
        return F4B3Levi()
    if isinstance(obj, dict) and "gl" in obj:
        return GLLevi(Partition(obj["gl"]))
    if isinstance(obj, dict):
        return MaxLevi(obj["a"], obj["residual"])
    raise ValueError("cannot parse levi from %r" % (obj,))


# --- JSON text of records -----------------------------------------------------
#
# The CLI and the golden fixtures write records as json.dumps(..., indent=2)
# would, but from the descriptor's fixed schema: one %-template per record,
# strings through the encoder json.dumps uses, ints as int.__repr__ writes
# them, and no intermediate dict.

# (key, conversion) of SheetDescriptor.to_json, in its order
_RECORD_FIELDS = (
    ("kind", "%s"),
    ("name", "%s"),
    ("levi", "%s"),
    ("decomposition_data", "%s"),
    ("dixmier", "%s"),
    ("nilpotent_orbit", "%s"),
    ("d", "%d"),
    ("dim_z", "%d"),
    ("w_l_order", "%d"),
    ("katsylo_order", "%d"),
    ("w_s_order", "%d"),
    ("dim_sheet", "%d"),
    ("class_tag", "%s"),
    ("type_tag", "%s"),
    ("component_group_order", "%s"),
    ("levi_conjugacy_caveat", "%s"),
)


@lru_cache(maxsize=8)
def _layout(depth: int):
    """Line breaks indented to nesting depths depth, ..., depth + 3, and the
    record template at ``depth``."""
    breaks = tuple("\n" + "  " * k for k in range(depth, depth + 4))
    fields = ",".join('%s"%s": %s' % (breaks[1], key, conv) for key, conv in _RECORD_FIELDS)
    return breaks, "{" + fields + breaks[0] + "}"


def _int_list(values, inner: str, outer: str) -> str:
    """A list of ints, one item per line break ``inner``, closed after ``outer``."""
    if not values:
        return "[]"
    return "[" + inner + ("," + inner).join(map(int.__repr__, values)) + outer + "]"


def _optional(value) -> str:
    """A string or int field that may be None, as JSON."""
    if value is None:
        return "null"
    return encode_basestring_ascii(value) if isinstance(value, str) else int.__repr__(value)


def record_json(desc: SheetDescriptor, depth: int = 0) -> str:
    """``json.dumps(desc.to_json(), indent=2)``, byte for byte, as it is
    written at nesting depth ``depth``: each line after the first is
    indented by 2 * depth more spaces.  Nothing but the text is built."""
    (b0, b1, b2, b3), template = _layout(depth)
    levi = desc.levi
    if isinstance(levi, GLLevi):
        levi_text = '{%s"gl": %s%s}' % (b2, _int_list(levi.m.parts, b3, b2), b1)
    elif isinstance(levi, MaxLevi):
        levi_text = '{%s"a": %d,%s"residual": %d%s}' % (b2, levi.a, b2, levi.residual, b1)
    else:
        levi_text = encode_basestring_ascii(_levi_to_json(levi))
    orbit = desc.nilpotent_orbit
    if isinstance(orbit, str):
        orbit_text = '{%s"bala_carter": %s%s}' % (b2, encode_basestring_ascii(orbit), b1)
    else:
        orbit_text = _int_list(orbit.parts, b2, b1)
    return template % (
        encode_basestring_ascii(str(desc.kind)),
        _optional(desc.name),
        levi_text,
        encode_basestring_ascii(desc.decomposition_data),
        "true" if desc.dixmier else "false",
        orbit_text,
        desc.d,
        desc.dim_z,
        desc.w_l_order,
        desc.katsylo_order,
        desc.w_s_order,
        desc.dim_sheet,
        _optional(desc.class_tag),
        _optional(desc.type_tag),
        _optional(desc.component_group_order),
        "true" if desc.levi_conjugacy_caveat else "false",
    )


def records_json(descs: Iterable[SheetDescriptor], depth: int = 0) -> Iterator[str]:
    """The JSON list of ``descs`` as :func:`record_json` writes it at
    ``depth``, in pieces of one record each (the last piece closes it)."""
    (b0, b1, _, _), _ = _layout(depth)
    sep = "[" + b1
    for desc in descs:
        yield sep + record_json(desc, depth + 1)
        sep = "," + b1
    # an empty list leaves the opening separator unused
    yield "[]" if sep[0] == "[" else b0 + "]"


# --- Type A -----------------------------------------------------------------


def enumerate_sheets_gln(n: int) -> List[SheetDescriptor]:
    """All sheets of gl_n, one per partition of n, reverse-lexicographic.

    The sheet for the Levi partition m has the conjugate partition as its
    nilpotent orbit, d = sum m_i^2, centre of dimension #parts, relative
    Weyl group of order prod l_i!, and trivial residual finite group.
    """
    if not 1 <= n <= 40:
        raise ValueError("n out of supported range 1..40")
    return [gl_sheet(m) for m in partitions_of(n)]


def gl_sheet(m: Partition) -> SheetDescriptor:
    n = m.n
    if n < 1:
        raise ValueError("empty partition labels no sheet")
    prof = profile(m)
    w_l = 1
    for li in prof.counts:
        w_l *= factorial(li)
    d = sum(p * p for p in m.parts)
    two_parts = m.num_parts == 2
    class_tag = None
    type_tag = None
    if two_parts:
        class_tag = "I" if m.parts[0] == m.parts[1] else "II"
        type_tag = 1 if class_tag in TYPE1_CLASSES else 2
    return SheetDescriptor(
        kind=type_a(n),
        levi=GLLevi(m),
        dixmier=True,
        nilpotent_orbit=conjugate(m),
        d=d,
        dim_z=m.num_parts,
        w_l_order=w_l,
        katsylo_order=1,
        dim_sheet=n * n - d + m.num_parts,
        class_tag=class_tag,
        type_tag=type_tag,
        component_group_order=1,
        name="gl%d:m=%s" % (n, ",".join(map(str, m.parts))),
    )


# --- Maximal Levi sheets in types B, C, D ------------------------------------


def classify_max_levi(kind: GroupKind, levi: MaxLevi) -> Tuple[str, Partition, int, int]:
    """Class tag, nilpotent orbit, |F| and |W_L| for a maximal Levi label.

    Implements the nine-class case analysis: the orbit partition depends on
    the parity relation between the GL-block size a and the residual, the
    residual finite group has order 1 or 2, and |W_L| is 1 only when no
    Weyl element inverts the centre (the odd-rank q = 0 orthogonal case and
    the unequal-blocks GL case).
    """
    a, res = levi.a, levi.residual
    if kind.family == "C":
        if a + res != kind.rank:
            raise ValueError("label %s does not fit %s" % (levi, kind))
        q = 2 * res
        if a >= q:
            return "VII", Partition([3] * q + [2] * (a - q)), 1, 2
        if a % 2 == 1:
            return "VIII", Partition([3] * (a - 1) + [2, 2] + [1] * (q - a - 1)), 2, 2
        return "IX", Partition([3] * a + [1] * (q - a)), 1, 2
    if kind.family in ("B", "D"):
        n = kind.matrix_size
        q = res
        if 2 * a + q != n:
            raise ValueError("label %s does not fit %s" % (levi, kind))
        if kind.family == "B" and q % 2 == 0:
            raise ValueError("odd orthogonal residual must be odd")
        if kind.family == "D" and (q % 2 == 1 or q == 2):
            raise ValueError("even orthogonal residual must be even and != 2")
        if q == 0:
            if a % 2 == 1:
                return "VI", Partition([2] * (a - 1) + [1, 1]), 1, 1
            return "IV", Partition([2] * a), 1, 2
        if a >= q and (a - q) % 2 == 1:
            return "III", Partition([3] * q + [2] * (a - q - 1) + [1, 1]), 2, 2
        if a >= q:
            return "IV", Partition([3] * q + [2] * (a - q)), 1, 2
        return "V", Partition([3] * a + [1] * (q - a)), 1, 2
    raise ValueError("maximal Levi labels apply to types B, C, D only")


def max_levi_dim(kind: GroupKind, levi: MaxLevi) -> int:
    """dim(GL_a x residual factor): a^2 + p(2p+1) for C, a^2 + q(q-1)/2 for B/D."""
    a, res = levi.a, levi.residual
    if kind.family == "C":
        return a * a + res * (2 * res + 1)
    return a * a + res * (res - 1) // 2


def maximal_levi_sheet(kind: GroupKind, levi: LeviLabel) -> SheetDescriptor:
    """The Dixmier sheet attached to a maximal Levi subgroup.

    Accepts a MaxLevi label for B/C/D or a two-part GL partition for A.
    """
    if kind.family == "A":
        if not isinstance(levi, GLLevi) or levi.m.num_parts != 2:
            raise ValueError("type A maximal Levi labels are two-part partitions")
        if levi.m.n != kind.rank:
            raise ValueError("partition of %d does not fit %s" % (levi.m.n, kind))
        return gl_sheet(levi.m)
    if not isinstance(levi, MaxLevi):
        raise ValueError("expected a MaxLevi label for %s" % (kind,))
    class_tag, orbit, f_order, w_l = classify_max_levi(kind, levi)
    d = max_levi_dim(kind, levi)
    return SheetDescriptor(
        kind=kind,
        levi=levi,
        dixmier=True,
        nilpotent_orbit=orbit,
        d=d,
        dim_z=1,
        w_l_order=w_l,
        katsylo_order=f_order,
        dim_sheet=kind.dim - d + 1,
        class_tag=class_tag,
        type_tag=1 if class_tag in TYPE1_CLASSES else 2,
        component_group_order=None,
        levi_conjugacy_caveat=(kind.family == "D" and levi.residual == 0),
        name="%s:levi=%d,%d" % (str(kind), levi.a, levi.residual),
    )


def valid_max_levi_labels(kind: GroupKind) -> List[MaxLevi]:
    """All maximal Levi labels for a fixed B/C/D group, ordered by a."""
    labels = []
    r = kind.rank
    if kind.family == "C":
        for a in range(1, r + 1):
            labels.append(MaxLevi(a, r - a))
    elif kind.family == "B":
        for a in range(1, r + 1):
            labels.append(MaxLevi(a, 2 * r + 1 - 2 * a))
    elif kind.family == "D":
        for a in range(1, r + 1):
            q = 2 * r - 2 * a
            if q != 2:
                labels.append(MaxLevi(a, q))
    else:
        raise ValueError("maximal Levi labels apply to B/C/D")
    return labels


def all_max_levi_sheets(max_n: int) -> List[SheetDescriptor]:
    """Every maximal-Levi sheet record with matrix size <= max_n.

    GL records (classes I and II) come first, then B/C/D, sorted by class
    number, then by group and label; deterministic for golden files.
    """
    out: List[SheetDescriptor] = []
    for n in range(2, max_n + 1):
        for m1 in range(n - 1, 0, -1):
            m2 = n - m1
            if m1 >= m2 >= 1:
                out.append(maximal_levi_sheet(type_a(n), GLLevi(Partition((m1, m2)))))
    for r in range(1, max_n // 2 + 1):
        for kind in (type_b(r) if 2 * r + 1 <= max_n else None, type_c(r) if 2 * r <= max_n else None, type_d(r) if r >= 2 and 2 * r <= max_n else None):
            if kind is None:
                continue
            for levi in valid_max_levi_labels(kind):
                out.append(maximal_levi_sheet(kind, levi))
    out.sort(key=_table2_sort_key)
    return out


def _table2_sort_key(desc: SheetDescriptor):
    levi = desc.levi
    label = (levi.m.parts if isinstance(levi, GLLevi) else (levi.a, levi.residual))
    return (CLASS_NUMBER[desc.class_tag], desc.kind.family, desc.kind.rank, label)


# --- The rank-2 symplectic table ---------------------------------------------


def sheets_sp4() -> List[SheetDescriptor]:
    """The five sheets of the rank-2 symplectic Lie algebra.

    Rows: the regular sheet, the two Dixmier sheets through the subregular
    orbit (with residual groups of order 2 and 1), the rigid minimal orbit,
    and the zero sheet.
    """
    kind = type_c(2)
    rows = [
        SheetDescriptor(
            kind=kind,
            levi=TorusLevi(),
            dixmier=True,
            nilpotent_orbit=Partition((4,)),
            d=2,
            dim_z=2,
            w_l_order=8,
            katsylo_order=1,
            dim_sheet=10,
            component_group_order=None,
            name="sp4:regular",
        ),
        replace(
            maximal_levi_sheet(kind, MaxLevi(1, 1)),
            component_group_order=2,
            name="sp4:SDix",
        ),
        replace(
            maximal_levi_sheet(kind, MaxLevi(2, 0)),
            name="sp4:SDix'",
        ),
        SheetDescriptor(
            kind=kind,
            levi=FullGroupLevi(),
            dixmier=False,
            nilpotent_orbit=Partition((2, 1, 1)),
            d=6,
            dim_z=0,
            w_l_order=1,
            katsylo_order=1,
            dim_sheet=4,
            name="sp4:Omin",
        ),
        SheetDescriptor(
            kind=kind,
            levi=FullGroupLevi(),
            dixmier=True,
            nilpotent_orbit=Partition((1, 1, 1, 1)),
            d=10,
            dim_z=0,
            w_l_order=1,
            katsylo_order=1,
            dim_sheet=0,
            name="sp4:zero",
        ),
    ]
    return rows


# --- The exceptional record ---------------------------------------------------


def f4_b3_sheet() -> SheetDescriptor:
    """Data-only record of the Dixmier sheet of the B3 Levi inside F4.

    The nilpotent orbit carries the Bala-Carter tag A~2 with trivial
    residual group; the relative Weyl group has order 2; the Levi has
    dimension 21 + 1 (centre), so the sheet has dimension 52 - 22 + 1.
    """
    return SheetDescriptor(
        kind=F4,
        levi=F4B3Levi(),
        dixmier=True,
        nilpotent_orbit="A~2",
        d=22,
        dim_z=1,
        w_l_order=2,
        katsylo_order=1,
        dim_sheet=31,
        type_tag=2,
        name="f4:B3",
    )


# --- Lookup used by the CLI ---------------------------------------------------


def find_sheet(kind: GroupKind, levi: Optional[LeviLabel]) -> SheetDescriptor:
    """Resolve (kind, levi) to a descriptor, preferring the full rank-2
    symplectic table when it applies."""
    if kind.family == "F4":
        return f4_b3_sheet()
    if kind.family == "A":
        if not isinstance(levi, GLLevi):
            raise ValueError("type A sheets are labelled by partitions")
        if levi.m.n != kind.rank:
            raise ValueError("partition of %d does not fit %s" % (levi.m.n, kind))
        return gl_sheet(levi.m)
    if levi is None:
        raise ValueError("a Levi label is required for %s" % (kind,))
    if kind == type_c(2) and isinstance(levi, MaxLevi):
        for row in sheets_sp4():
            if row.levi == levi:
                return row
    if isinstance(levi, (TorusLevi, FullGroupLevi)):
        if kind == type_c(2):
            for row in sheets_sp4():
                if row.levi == levi and isinstance(levi, TorusLevi):
                    return row
        raise ValueError("only maximal Levi labels are classified for %s" % (kind,))
    return maximal_levi_sheet(kind, levi)


def sheets_for(kind: GroupKind) -> List[SheetDescriptor]:
    """Everything this library classifies for one group."""
    if kind.family == "A":
        return enumerate_sheets_gln(kind.rank)
    if kind.family == "F4":
        return [f4_b3_sheet()]
    if kind == type_c(2):
        return sheets_sp4()
    return [maximal_levi_sheet(kind, levi) for levi in valid_max_levi_labels(kind)]
