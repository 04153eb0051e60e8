"""Sheet classification and invariants for classical groups.

Covers all sheets of gl_n, the five sheets of the rank-2 symplectic group,
the Dixmier sheets attached to maximal Levi subgroups of SO/Sp (nine
classes), and the one exceptional record (the B3 Levi inside F4).
"""
from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from math import factorial
from operator import mul
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ._record import Record, _set
from .partitions import Partition, is_valid_orbit_partition

CLASS_NUMBER = {"I": 1, "II": 2, "III": 3, "IV": 4, "V": 5, "VI": 6, "VII": 7, "VIII": 8, "IX": 9}
TYPE1_CLASSES = frozenset({"II", "III", "VI", "VIII"})
_FORM_SIGNS = {"B": 1, "C": -1, "D": 1}  # the sign of the form each B/C/D group keeps


class GroupKind(Record):
    """A classical group label A(n)=GL_n, B(r)=SO_{2r+1}, C(r)=Sp_{2r},
    D(r)=SO_{2r}, or the exceptional F4 (rank 4, which rank 0 also means).

    ``family`` and ``rank`` are its fields.  What the label fixes is read
    off them once, here: ``matrix_size`` (n, 2r + 1, 2r, 2r; None for F4),
    ``form_sign``, the sign of the form G keeps (+1 symmetric in B and D,
    -1 alternating in C, None in A and F4), and ``dim``, dim G."""

    __slots__ = ("family", "rank", "matrix_size", "form_sign", "dim")
    _fields = ("family", "rank")

    def __init__(self, family: str, rank: int = 0):
        if family not in ("A", "B", "C", "D", "F4"):
            raise ValueError("unknown group family %r" % (family,))
        if type(rank) is not int:
            raise ValueError("rank must be an int, got %r" % (rank,))
        if family == "F4":
            if rank not in (0, 4):
                raise ValueError("F4 has rank 4, not %r" % (rank,))
            rank, size, sign, dim = 4, None, None, 52
        elif rank < 1:
            raise ValueError("rank must be positive")
        elif family == "A":
            size, sign, dim = rank, None, rank * rank
        elif family == "D" and rank < 2:
            raise ValueError("type D needs rank >= 2")
        else:
            sign = _FORM_SIGNS[family]
            size = 2 * rank + 1 if family == "B" else 2 * rank
            dim = _form_dim(size, sign)
        _set(self, "family", family)
        _set(self, "rank", rank)
        _set(self, "matrix_size", size)
        _set(self, "form_sign", sign)
        _set(self, "dim", dim)

    @property
    def name(self) -> str:
        fam = self.family
        if fam == "A":
            return "GL%d" % self.rank
        return "F4" if fam == "F4" else self._form_name(self.matrix_size)

    # The groups keeping the form of G on s letters, and what a Levi's residual
    # means: G' keeps that form, Sp_{2p} for residual p in type C and SO_q for
    # q in B and D; F4's B3 Levi has SO_7, and type A has none (residual 0).

    def _form_name(self, size: int) -> str:
        return ("Sp%d" if self.form_sign == -1 else "SO%d") % size

    def residual_size(self, residual: int) -> int:
        """The size of G''s matrices: 2p in type C, q otherwise."""
        return 2 * residual if self.form_sign == -1 else residual

    def residual_name(self, residual: int) -> str:
        return self._form_name(self.residual_size(residual))

    def levi_dim(self, levi: Levi) -> int:
        """dim of the Levi: b^2 for each GL_b block, plus dim G'."""
        blocks = levi.blocks.parts
        return sum(map(mul, blocks, blocks)) + _form_dim(self.residual_size(levi.residual), self.form_sign or 1)

    def fits(self, levi: Levi) -> bool:
        """Whether ``levi`` is a Levi of this group: in type A a partition of
        n with residual 0; in B, C and D each GL block taken twice and G'
        fill the matrix size, and G' is not SO_2 (a torus, so GL_1 again).
        F4 takes no label."""
        if self.form_sign is None:
            return self.family == "A" and levi.residual == 0 and levi.blocks.n == self.rank
        return (2 * levi.blocks.n + self.residual_size(levi.residual) == self.matrix_size
                and (self.form_sign == -1 or levi.residual != 2))

    def __str__(self):
        return "F4" if self.family == "F4" else "%s(%d)" % (self.family, self.rank)


def _form_dim(size: int, sign: int) -> int:
    """s(s - sign)/2: dim so_s for sign +1, sp_s for -1."""
    return size * (size - sign) // 2


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


class Levi(Record):
    """A Levi subgroup GL_{b_1} x ... x GL_{b_k} x G' of a group: ``blocks``
    is the partition (b_1, ..., b_k) of its GL block sizes and ``residual``
    names G' as :class:`GroupKind` reads it (p for Sp_{2p} in type C, q for
    SO_q in B and D, 0 in type A).  The whole group has no blocks; the torus
    of a group of rank r >= 2 has r blocks of size 1 and the least residual."""

    __slots__ = ("blocks", "residual")

    def __init__(self, blocks: Partition, residual: int):
        if type(blocks) is not Partition:
            raise ValueError("a Levi's blocks must be a Partition, got %r" % (blocks,))
        if type(residual) is not int:
            raise ValueError("a Levi's residual must be an int, got %r" % (residual,))
        if residual < 0:
            raise ValueError("a Levi's residual is at least 0, got %d" % residual)
        _set(self, "blocks", blocks)
        _set(self, "residual", residual)

    def __str__(self):
        return "(%s;%d)" % (",".join(map(str, self.blocks.parts)), self.residual)


def MaxLevi(a: int, residual: int) -> Levi:
    """The maximal Levi GL_a x G' of a B, C or D group.  ``a`` is checked
    here, with the messages of the validating Partition, so its one part
    skips that constructor; Levi checks the residual."""
    if type(a) is not int:
        raise ValueError("partition parts must be ints: %r" % ((a,),))
    if a <= 0:
        raise ValueError("partition parts must be positive: %r" % ([a],))
    return Levi(Partition._trusted((a,)), residual)


def levi_shape(kind: GroupKind, levi: Levi) -> str:
    """Which of five shapes names ``levi`` in a record of ``kind``: "gl" in
    type A, "B3" for F4, "full" with no blocks, "max" with one block (so
    also the torus of a rank-1 group), and "torus" with several blocks of
    size 1 and the least residual (0, or 1 in type B).  The last three are
    the record's JSON text of a label without parameters."""
    if kind.form_sign is None:
        return "gl" if kind.family == "A" else "B3"
    blocks = levi.blocks.parts
    if len(blocks) < 2:
        return "max" if blocks else "full"
    if blocks[0] == 1 and levi.residual == kind.matrix_size % 2:
        return "torus"
    raise ValueError("no record names the Levi %s of %s" % (levi, kind))


# --- Sheet descriptors ------------------------------------------------------


class SheetDescriptor(Record):
    """Full invariant record of one sheet.

    w_s_order is derived (w_l_order / katsylo_order); the constructor checks
    divisibility, the dimension formula dim_sheet = dim g - d + dim_z, and
    the orbit-partition parity constraint.
    """

    __slots__ = (
        "kind", "levi", "dixmier", "nilpotent_orbit", "d", "dim_z", "w_l_order", "katsylo_order", "dim_sheet",
        "class_tag", "type_tag", "component_group_order", "levi_conjugacy_caveat", "name",
    )

    def __init__(
        self,
        kind: GroupKind,
        levi: Levi,
        dixmier: bool,
        nilpotent_orbit: Union[Partition, str],  # Bala-Carter tag for F4
        d: int,
        dim_z: int,
        w_l_order: int,
        katsylo_order: int,
        dim_sheet: int,
        class_tag: Optional[str] = None,
        type_tag: Optional[int] = None,
        component_group_order: Optional[int] = None,
        levi_conjugacy_caveat: bool = False,  # D-type Levis conjugate only in the full orthogonal group
        name: Optional[str] = None,
    ):
        check_record(kind, d, dim_z, w_l_order, katsylo_order, dim_sheet, nilpotent_orbit)
        _set(self, "kind", kind)
        _set(self, "levi", levi)
        _set(self, "dixmier", dixmier)
        _set(self, "nilpotent_orbit", nilpotent_orbit)
        _set(self, "d", d)
        _set(self, "dim_z", dim_z)
        _set(self, "w_l_order", w_l_order)
        _set(self, "katsylo_order", katsylo_order)
        _set(self, "dim_sheet", dim_sheet)
        _set(self, "class_tag", class_tag)
        _set(self, "type_tag", type_tag)
        _set(self, "component_group_order", component_group_order)
        _set(self, "levi_conjugacy_caveat", levi_conjugacy_caveat)
        _set(self, "name", name)

    @property
    def w_s_order(self) -> int:
        return self.w_l_order // self.katsylo_order

    @property
    def decomposition_data(self) -> str:
        return self._decomposition(levi_shape(self.kind, self.levi))

    def _decomposition(self, shape: str) -> str:
        """decomposition_data, with the Levi's shape already read."""
        orbit = "0" if self.dixmier else str(self.nilpotent_orbit)
        kind, levi = self.kind, self.levi
        if shape == "gl":
            name = "GL" + "xGL".join(map(str, levi.blocks.parts))
        elif shape == "max":
            a, res = levi.blocks.parts[0], levi.residual
            name = ("GL%d" % a if a > 1 else "Gm") + ("x" + kind.residual_name(res) if res else "")
        else:
            name = {"B3": "B3-Levi", "full": kind.name, "torus": "T"}[shape]
        return "(%s,%s)" % (name, orbit)

    def to_json(self) -> dict:
        """The record as a dict: the JSON that :func:`record_json` writes."""
        return json.loads(record_json(self))


def check_record(kind: GroupKind, d: int, dim_z: int, w_l_order: int, katsylo_order: int, dim_sheet: int, orbit) -> None:
    """The check of every sheet record, built or streamed: ValueError unless
    katsylo_order divides |W_L|, dim_sheet = dim G - d + dim_z, and the orbit
    (a Partition or its parts) is a valid orbit of the group's size; a
    Bala-Carter tag is not checked."""
    if w_l_order % katsylo_order:
        raise ValueError("katsylo order %d does not divide |W_L| = %d" % (katsylo_order, w_l_order))
    if dim_sheet != kind.dim - d + dim_z:
        raise ValueError("dim_sheet fails dim G - d + dim_z")
    if type(orbit) is not str and not is_valid_orbit_partition(kind, orbit):
        raise ValueError("orbit partition %s invalid for %s" % (Partition(orbit), kind))


# --- JSON text -----------------------------------------------------------------
#
# Every JSON answer of the CLI is written here, byte for byte as
# json.dumps(..., indent=2) writes it.  With an indent, json.dumps builds a
# pure-Python encoder afresh on every call; these writers use only its C
# string encoder.  A payload goes through json_text.  Records, and the
# golden fixtures, are written from the descriptor's fixed schema instead:
# one %-template per record, strings through the same string encoder, ints
# written by %d and str as json.dumps writes them, and no intermediate dict.


def json_text(value, newline: str = "\n") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, for dicts with
    str keys (in their order), lists, tuples, str, int, bool and None, each
    of exactly that type; every line after the first starts with ``newline``
    (a line break and the indent of the value's nesting depth).  Anything
    else, a float, a Fraction, bytes or a key other than a str among them,
    raises TypeError."""
    scalar = _scalar_text(type(value))
    if scalar is not None:
        return scalar(value)
    inner = newline + "  "
    items = []
    if type(value) is dict:
        if not value:
            return "{}"
        # the str encoder raises TypeError on a key of any other type
        for key, item in value.items():
            scalar = _scalar_text(type(item))
            items.append(encode_basestring_ascii(key) + ": " + (json_text(item, inner) if scalar is None else scalar(item)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(value) is list or type(value) is tuple:
        if not value:
            return "[]"
        for item in value:
            scalar = _scalar_text(type(item))
            items.append(json_text(item, inner) if scalar is None else scalar(item))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)


# the text of a scalar, by its exact type: a bool, though an int, is true or false
_CONSTANTS = {True: "true", False: "false", None: "null"}.__getitem__
_scalar_text = {str: encode_basestring_ascii, int: int.__repr__, bool: _CONSTANTS, type(None): _CONSTANTS}.get


# (key, conversion) of each field of a record, in its order
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

@lru_cache(maxsize=8)  # a few depths
def _layout(depth: int):
    """Line breaks indented to nesting depths depth, ..., depth + 3, and the
    record template at ``depth``."""
    breaks = tuple("\n" + "  " * k for k in range(depth, depth + 4))
    return breaks, _template(breaks, {})


def _template(breaks: Tuple[str, ...], fixed: Dict[str, str]) -> str:
    """The record template with line breaks ``breaks``, with the text of each
    field of ``fixed`` written in place of the field's conversion: the JSON
    text of a field every record shares, or a text around its own
    conversion."""
    fields = ",".join('%s"%s": %s' % (breaks[1], key, fixed.get(key, conv)) for key, conv in _RECORD_FIELDS)
    return "{" + fields + breaks[0] + "}"


def _list_text(texts, inner: str, outer: str) -> str:
    """A JSON list of item texts, one item per line break ``inner``, closed
    after ``outer``."""
    if not texts:
        return "[]"
    return "[%s%s%s]" % (inner, ("," + inner).join(texts), outer)


def record_json(desc: SheetDescriptor, depth: int = 0) -> str:
    """The record of ``desc``, byte for byte as ``json.dumps(..., indent=2)``
    writes it at nesting depth ``depth``: each line after the first is
    indented by 2 * depth more spaces.  Nothing but the text is built; this
    and _RECORD_FIELDS are the one definition of the record schema."""
    breaks, template = _layout(depth)
    b0, b1, b2, b3 = breaks
    levi = desc.levi
    shape = levi_shape(desc.kind, levi)
    if shape == "gl":
        levi_text = '{%s"gl": %s%s}' % (b2, _list_text([*map(str, levi.blocks.parts)], b3, b2), b1)
    elif shape == "max":
        levi_text = '{%s"a": %d,%s"residual": %d%s}' % (b2, levi.blocks.parts[0], b2, levi.residual, b1)
    else:
        levi_text = '"%s"' % shape
    orbit = desc.nilpotent_orbit
    if isinstance(orbit, str):
        orbit_text = '{%s"bala_carter": %s%s}' % (b2, encode_basestring_ascii(orbit), b1)
    else:
        orbit_text = _list_text([*map(str, orbit.parts)], b2, b1)
    return template % (
        encode_basestring_ascii(str(desc.kind)),
        json_text(desc.name),
        levi_text,
        encode_basestring_ascii(desc._decomposition(shape)),
        "true" if desc.dixmier else "false",
        orbit_text,
        desc.d,
        desc.dim_z,
        desc.w_l_order,
        desc.katsylo_order,
        desc.w_s_order,
        desc.dim_sheet,
        json_text(desc.class_tag),
        json_text(desc.type_tag),
        json_text(desc.component_group_order),
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
    """All sheets of gl_n, one per partition of n, reverse-lexicographic,
    sharing one (immutable) GroupKind."""
    return [*_gl_listing(type_a(n), _SHEETS)]


def gl_sheet(m: Partition) -> SheetDescriptor:
    """The sheet of gl_n with Levi partition m, n = |m| > 0: the listing's
    loop led down m's own parts >= 2 to m's node, which it closes first."""
    return next(_gl_walk(m.n, _SHEETS, m.parts))


def _gl_listing(kind: GroupKind, form: str) -> Iterator:
    """Every record of gl_n, n = kind.rank, written in ``form`` as the walk
    reaches it.  Every refusal is raised when this is called, before any
    record."""
    check_rank(kind)
    if kind.rank > 40:
        raise ValueError("n out of supported range 1..40")
    return _gl_walk(kind.rank, form)


def _gl_walk(n: int, form: str, own: Optional[Tuple[int, ...]] = None) -> Iterator:
    """The one walk of the partitions of n, and the one loop behind every
    type A record.

    The partitions of n are the nodes of the prefix tree of parts >= 2,
    each closed by ones; a child, ending in one more part >= 2, comes before
    its parent, ending in ones, so reverse-lexicographic order is the tree's
    post-order with the children taken largest part first.  Without ``own``
    the loop walks the whole tree from the root.  With ``own``, the parts of
    a partition m of n, its way down takes m's parts >= 2 and then no more,
    so the first node it closes is m's.

    The loop keeps the node it stands on in its locals, each child one step
    from its parent: its parts, their sum, d = sum m_i^2, the product of l!
    over its runs of l equal parts (the last run still growing), the length
    of its last run, its last part, and the conjugate parts above that last
    part (the tail).  Exactly k parts are >= i for i in (m_{k+1}, m_k], so a
    step to a part q below the last part p of k parts puts p - q copies of k
    on top of the tail, and adds k (p^2 - q^2) to the tail's share of
    sum (2i - 1) m'_i.  That step is the one place the tail changes, and it
    updates its three views together: the list, the text in the written
    orbit's separator, and the share.  The root has no parts and last part
    1, so its children's tail is empty.

    In ``form`` _PARTS it yields each partition.  In every other form it
    closes each node with its r ones: the orbit is the conjugate m' = (k +
    r, k, ..., k, tail) with last - 1 parts k, dim z = m'_1, and dim_sheet =
    dim O + dim z with dim O = n^2 - sum (2i - 1) m'_i = n^2 - (r + k last^2
    + the tail's share).  So the record check (dim_sheet = dim G - d +
    dim_z, and the orbit list is a partition of n) compares the walk's d
    with the conjugate it carries.  It runs on every record, as
    check_record on the group of gl_n (_gl_group), whose dim G and n are
    read off its slots.  Then it writes the record: _JSON the
    pieces of the JSON list, one record each (the last closes it), _ROWS
    the table row of each record, _SHEETS its descriptor.

    _JSON and _ROWS carry the texts they write too: the parts in the name's
    separator, the Levi's (JSON) and the decomposition's, each part followed
    by its separator (but the last part of a node without ones), so a
    record's text is its node's text and the text of its r ones; and the
    orbit's tail, a separator before each part.  Every piece comes from a
    table of at most n^2 + 1 texts, made with the record template and the
    tag texts once per rank and form in a process
    (_gl_tables) and only read by a walk.  The other forms make no table:
    every piece is empty, and _SHEETS writes the name from the Levi
    partition, so one record of a large rank stays small."""
    # the largest part of the next child of each node on the way down
    if own is None:
        q, path = n, []
    else:
        path = [1, *(p for p in reversed(own) if p >= 2)]
        q = path.pop()
    if form is _JSON or form is _ROWS:
        (kind, prefix, halves, nums, pieces, ones, levi_pieces, levi_ones, dec_pieces, dec_ones, orbit_pieces,
         tag_texts, no_tags, head, c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11) = _gl_tables(n, form)
        join = "".join
    else:
        # each piece a step or a closing adds to a text: none outside _JSON and _ROWS
        nums = pieces = levi_pieces = dec_pieces = orbit_pieces = ones = levi_ones = dec_ones = ("",) * (n + 1)
        if form is _SHEETS:
            kind, prefix, halves = _gl_group(n)
    nn = n * n
    parts, text, levi, dec, s, d, w, run, last, tail, tail_text, share = (), "", "", "", 0, 0, 1, 0, 1, [], "", 0
    # the state of each ancestor still open, with the largest part of its next child
    stack = []
    push, pop = stack.append, stack.pop
    while True:
        if q >= 2:
            push((parts, text, levi, dec, s, d, w, run, last, tail, tail_text, share, q - 1))
            if q == last:
                run += 1
                w *= run
            else:
                k = len(parts)
                tail = [k] * (last - q) + tail
                tail_text = orbit_pieces[k] * (last - q) + tail_text
                share += k * (last * last - q * q)
                run, last = 1, q
            parts += (q,)
            s += q
            d += q * q
            if s < n:
                text += pieces[q]
                levi += levi_pieces[q]
                dec += dec_pieces[q]
            else:  # a node without ones: its last part ends its texts
                text += nums[q]
                levi += nums[q]
                dec += nums[q]
            if path:
                q = path.pop()
            elif n - s < q:
                q = n - s
            continue
        r = n - s
        if form is _PARTS:
            yield Partition._trusted(parts + (1,) * r)
        else:
            k = len(parts)
            dim_z = k + r
            conj = [dim_z, *[k] * (last - 1), *tail]
            dim_sheet = nn - (r + k * last * last + share) + dim_z
            w_l = w * factorial(r)
            check_record(kind, d + r, dim_z, w_l, 1, dim_sheet, conj)
            if form is _JSON:
                class_tag, type_tag = tag_texts[text + ones[r] == halves] if dim_z == 2 else no_tags
                w_l = str(w_l)
                # w_s_order = w_l_order / katsylo_order = w_l_order
                yield join((head, text, ones[r], c1, levi, levi_ones[r], c2, dec, dec_ones[r], c3, nums[dim_z],
                            orbit_pieces[k] * (last - 1), tail_text, c4, nums[d + r], c5, nums[dim_z], c6, w_l, c7,
                            w_l, c8, nums[dim_sheet], c9, class_tag, c10, type_tag, c11))
                head = c0
            elif form is _ROWS:
                name = text + ones[r]
                class_tag = _GL_TWO_PART_TAGS[name == halves][0] if dim_z == 2 else "-"
                yield (prefix + name, _GL_DECOMPOSITION % (dec + dec_ones[r]),
                       "(%s%s%s)" % (nums[dim_z], orbit_pieces[k] * (last - 1), tail_text), nums[d + r],
                       nums[dim_z], str(w_l), "1", nums[dim_sheet], class_tag)
            else:
                levi_parts = parts + (1,) * r
                name = ",".join(map(str, levi_parts))
                class_tag, type_tag = _GL_TWO_PART_TAGS[name == halves] if dim_z == 2 else _NO_TAGS
                yield SheetDescriptor(kind, Levi(Partition._trusted(levi_parts), 0), True, Partition._trusted(conj),
                                      d + r, dim_z, w_l, 1, dim_sheet, class_tag, type_tag, 1, False, prefix + name)
        if not stack:
            break
        parts, text, levi, dec, s, d, w, run, last, tail, tail_text, share, q = pop()
    if form is _JSON:
        yield "\n]"


def _gl_group(n: int) -> Tuple[GroupKind, str, str]:
    """What every type A record of gl_n shares: the group, the prefix of the
    record's name, and the text of the two-part Levi partition with equal
    parts (for odd n, a text no Levi partition has)."""
    kind = type_a(n)
    # a two-part Levi partition is the class I record exactly when its parts are equal
    return kind, _GL_NAME % n, "%d,%d" % (n // 2, n - n // 2)


@lru_cache(maxsize=2 * 40)  # both text forms of every rank a listing takes
def _gl_tables(n: int, form: str) -> tuple:
    """The fixed data of a walk of gl_n in ``form``, _JSON or _ROWS, made
    once per rank and form in a process: _gl_group's and then the texts
    every record is written from.

    The tables hold the texts of 0..n^2 (each dim_z, d, dim_sheet and part
    is one), what a step to part q and a closing with r ones add to the
    name, the Levi's text (JSON only) and the decomposition's, and the
    orbit's piece for a conjugate part; _JSON adds the texts of the tags
    and the record template cut into chunks at its fields, with the list's
    separators in front: 26 items in all, the unused ones empty.  Every
    table is a tuple, so a walk cannot change what the next one reads.
    _JSON shares the _ROWS tables of its rank (made here if they are not),
    so a rank listed both ways keeps one table of n^2 + 1 texts."""
    if form is _ROWS:
        # the text of every dim_z, d, dim_sheet and part: each is at most n^2
        nums = tuple(map(str, range(n * n + 1)))
        blank = ("",) * (n + 1)
        return (*_gl_group(n), nums, *_gl_pieces(nums[:n + 1], ","), blank, blank,
                *_gl_pieces(nums[:n + 1], "xGL"), tuple("," + i for i in nums[:n + 1]), None, None, *("",) * 13)
    kind, prefix, halves, nums, pieces, ones, _, _, dec_pieces, dec_ones = _gl_tables(n, _ROWS)[:10]
    b0, b1, b2, b3 = _layout(1)[0]
    fixed = {"kind": encode_basestring_ascii(str(kind)), "name": '"%s%%s"' % prefix,
             "levi": '{%s"gl": [%s%%s%s]%s}' % (b2, b3, b2, b1), "decomposition_data": '"%s"' % _GL_DECOMPOSITION,
             "dixmier": "true", "nilpotent_orbit": "[%s%%s%s]" % (b2, b1), "katsylo_order": "1",
             "component_group_order": "1", "levi_conjugacy_caveat": "false"}
    # no text written in holds a literal %, so the fields cut the template into 12 chunks
    chunks = _template((b0, b1, b2, b3), fixed).replace("%d", "%s").split("%s")
    # the list's separators folded into the first chunk: "[" before the first record, "," before each other
    head, chunks[0] = "[" + b0 + chunks[0], "," + b0 + chunks[0]
    # the texts of the tags of a two-part Levi partition, at index 1 when its parts are equal
    tag_texts = tuple(tuple(map(json_text, _GL_TWO_PART_TAGS[equal])) for equal in (False, True))
    return (kind, prefix, halves, nums, pieces, ones, *_gl_pieces(nums[:n + 1], "," + b3), dec_pieces, dec_ones,
            tuple("," + b2 + i for i in nums[:n + 1]), tag_texts, tuple(map(json_text, _NO_TAGS)), head, *chunks)


def _gl_pieces(nums: Tuple[str, ...], sep: str) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """What a step and a closing add to a text of parts in separator
    ``sep``, from the texts of 0..n: part q followed by sep, and r ones
    with a separator between them, for q, r = 0..n."""
    return tuple(i + sep for i in nums), tuple(sep.join("1" * r) for r in range(len(nums)))


# the name of a type A record before its parts, and its decomposition data
_GL_NAME, _GL_DECOMPOSITION = "gl%d:m=", "(GL%s,0)"
# what _gl_walk writes of each partition: its record as JSON text, a table row or a descriptor, or itself
_JSON, _ROWS, _SHEETS, _PARTS = "json", "rows", "sheets", "parts"
# (class tag, type tag) of a two-part Levi partition, by whether its parts are equal
_GL_TWO_PART_TAGS = {equal: (tag, 1 if tag in TYPE1_CLASSES else 2) for equal, tag in ((True, "I"), (False, "II"))}
_NO_TAGS = (None, None)


# --- Maximal Levi sheets in types B, C, D ------------------------------------


def classify_max_levi(kind: GroupKind, levi: Levi) -> Tuple[str, Partition, int, int]:
    """Class tag, nilpotent orbit, |F| and |W_L| for a maximal Levi label.

    Implements the nine-class case analysis: the orbit partition depends on
    the parity relation between the GL-block size a and the size q of G',
    the residual finite group has order 1 or 2, and |W_L| is 1 only when no
    Weyl element inverts the centre (the odd-rank q = 0 orthogonal case and
    the unequal-blocks GL case).
    """
    if kind.form_sign is None:
        raise ValueError("maximal Levi labels apply to types B, C, D only")
    if len(levi.blocks.parts) != 1 or not kind.fits(levi):
        raise ValueError("label %s does not fit %s" % (levi, kind))
    a, q = levi.blocks.parts[0], kind.residual_size(levi.residual)
    trusted = Partition._trusted  # each orbit below is written largest part first, every part >= 1
    if kind.form_sign == -1:
        if a >= q:
            return "VII", trusted((3,) * q + (2,) * (a - q)), 1, 2
        if a % 2 == 1:
            return "VIII", trusted((3,) * (a - 1) + (2, 2) + (1,) * (q - a - 1)), 2, 2
        return "IX", trusted((3,) * a + (1,) * (q - a)), 1, 2
    if q == 0:
        if a % 2 == 1:
            return "VI", trusted((2,) * (a - 1) + (1, 1)), 1, 1
        return "IV", trusted((2,) * a), 1, 2
    if a >= q and (a - q) % 2 == 1:
        return "III", trusted((3,) * q + (2,) * (a - q - 1) + (1, 1)), 2, 2
    if a >= q:
        return "IV", trusted((3,) * q + (2,) * (a - q)), 1, 2
    return "V", trusted((3,) * a + (1,) * (q - a)), 1, 2


def maximal_levi_sheet(kind: GroupKind, levi: Levi) -> SheetDescriptor:
    """The Dixmier sheet attached to a maximal Levi subgroup: two GL blocks
    in type A, one GL block and G' in B, C and D."""
    if kind.family == "A":
        if len(levi.blocks.parts) != 2:
            raise ValueError("type A maximal Levi labels are two-part partitions")
        return find_sheet(kind, levi)
    return _max_levi_record(kind, levi)


def _max_levi_record(kind: GroupKind, levi: Levi, name: Optional[str] = None,
                     component_group_order: Optional[int] = None) -> SheetDescriptor:
    """The record of the maximal Levi label ``levi`` of a B, C or D group,
    built once: under ``name`` and with ``component_group_order`` where the
    rank-2 symplectic table gives them, else under its label's name."""
    class_tag, orbit, f_order, w_l = classify_max_levi(kind, levi)
    d = kind.levi_dim(levi)
    if name is None:
        name = "%s:levi=%d,%d" % (kind, levi.blocks.parts[0], levi.residual)
    return SheetDescriptor(kind, levi, True, orbit, d, 1, w_l, f_order, kind.dim - d + 1, class_tag,
                           1 if class_tag in TYPE1_CLASSES else 2, component_group_order,
                           kind.family == "D" and levi.residual == 0, name)


def valid_max_levi_labels(kind: GroupKind) -> List[Levi]:
    """All maximal Levi labels for a fixed B/C/D group, ordered by a: GL_a
    and the G' that fills the rest, where it is a Levi factor."""
    if kind.form_sign is None:
        raise ValueError("maximal Levi labels apply to B/C/D")
    # G' has the size n - 2a that GL_a leaves, so its residual is that over
    # the size of a unit residual
    unit = kind.residual_size(1)
    labels = (MaxLevi(a, (kind.matrix_size - 2 * a) // unit) for a in range(1, kind.rank + 1))
    return [levi for levi in labels if kind.fits(levi)]


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
                out.append(maximal_levi_sheet(type_a(n), Levi(Partition((m1, m2)), 0)))
    for r in range(1, max_n // 2 + 1):
        for kind in (type_b(r), type_c(r), type_d(r)) if r >= 2 else (type_b(r), type_c(r)):
            if kind.matrix_size <= max_n:
                for levi in valid_max_levi_labels(kind):
                    out.append(maximal_levi_sheet(kind, levi))
    out.sort(key=_table2_sort_key)
    return out


def _table2_sort_key(desc: SheetDescriptor):
    return (CLASS_NUMBER[desc.class_tag], desc.kind.family, desc.kind.rank, desc.levi.blocks, desc.levi.residual)


# --- The rank-2 symplectic table ---------------------------------------------


def sheets_sp4() -> List[SheetDescriptor]:
    """The five sheets of the rank-2 symplectic Lie algebra.

    Rows: the regular sheet, the two Dixmier sheets through the subregular
    orbit (with residual groups of order 2 and 1), the rigid minimal orbit,
    and the zero sheet.
    """
    kind = type_c(2)
    return [
        _sp4_row(kind, Levi(Partition((1, 1)), 0)),
        _sp4_row(kind, MaxLevi(1, 1)),
        _sp4_row(kind, MaxLevi(2, 0)),
        SheetDescriptor(
            kind=kind,
            levi=Levi(Partition(()), 2),
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
            levi=Levi(Partition(()), 2),
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


# (name, component group order) of the two maximal Levi rows of the sp4 table, by (a, residual)
_SP4_DIXMIER = {(1, 1): ("sp4:SDix", 2), (2, 0): ("sp4:SDix'", None)}


def _sp4_row(kind: GroupKind, levi: Levi) -> Optional[SheetDescriptor]:
    """The one row of the sp4 table (``kind`` is C(2)) that ``levi`` names,
    built alone, or None when no row has that label: the regular sheet for
    the torus, a Dixmier row for a maximal Levi.  The two rows of the whole
    group share their label, so it names neither."""
    blocks, residual = levi.blocks.parts, levi.residual
    if blocks == (1, 1) and residual == 0:
        return SheetDescriptor(kind, levi, True, Partition((4,)), 2, 2, 8, 1, 10, name="sp4:regular")
    if len(blocks) == 1 and (blocks[0], residual) in _SP4_DIXMIER:
        return _max_levi_record(kind, levi, *_SP4_DIXMIER[blocks[0], residual])
    return None


# --- The exceptional record ---------------------------------------------------


def f4_b3_sheet() -> SheetDescriptor:
    """Data-only record of the Dixmier sheet of the B3 Levi inside F4.

    The nilpotent orbit carries the Bala-Carter tag A~2 with trivial
    residual group; the relative Weyl group has order 2; the Levi has
    dimension 21 + 1 (centre), so the sheet has dimension 52 - 22 + 1.
    """
    return SheetDescriptor(
        kind=F4,
        levi=Levi(Partition((1,)), 7),  # GL_1 x Spin_7, the B3 Levi
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

# A B/C/D record holds O(rank) lines and a listing O(rank) records, so every
# request for a larger rank is refused before any record is built.
MAX_RANK = 1000


def check_rank(kind: GroupKind):
    """Refuse, with ValueError, a rank above MAX_RANK."""
    if kind.rank > MAX_RANK:
        raise ValueError("rank %d is beyond the supported maximum %d" % (kind.rank, MAX_RANK))


def find_sheet(kind: GroupKind, levi: Optional[Levi]) -> SheetDescriptor:
    """Resolve (kind, levi) to a descriptor, preferring the full rank-2
    symplectic table when it applies.  Ranks above MAX_RANK are refused."""
    check_rank(kind)
    if kind.family == "F4":
        if levi is not None:
            raise ValueError("F4 has one classified sheet, f4:B3, and takes no Levi label")
        return f4_b3_sheet()
    if kind.family == "A":
        if levi is None:
            raise ValueError("type A sheets are labelled by partitions")
        if not kind.fits(levi):
            raise ValueError("partition of %d does not fit %s" % (levi.blocks.n, kind))
        return gl_sheet(levi.blocks)
    if levi is None:
        raise ValueError("a Levi label is required for %s" % (kind,))
    if kind.family == "C" and kind.rank == 2:
        row = _sp4_row(kind, levi)
        if row is not None:
            return row
    if len(levi.blocks.parts) != 1:
        raise ValueError("only maximal Levi labels are classified for %s" % (kind,))
    return maximal_levi_sheet(kind, levi)


def sheets_for(kind: GroupKind) -> Iterable[SheetDescriptor]:
    """Everything this library classifies for one group; ranks above
    MAX_RANK are refused when this is called.  The maximal Levi records of
    B, C and D are built one at a time, as the iterator returned reaches
    them; the other groups' records come as a list."""
    check_rank(kind)
    if kind.family == "A":
        return enumerate_sheets_gln(kind.rank)
    if kind.family == "F4":
        return [f4_b3_sheet()]
    if kind.family == "C" and kind.rank == 2:
        return sheets_sp4()
    return map(_max_levi_record, repeat(kind), valid_max_levi_labels(kind))


LISTING_HEADER = ("sheet", "decomposition", "orbit", "d", "dim_z", "|W_L|", "|F|", "dim", "class")


def listing_json(kind: GroupKind, levi: Optional[Levi] = None) -> Iterator[str]:
    """The pieces of the JSON list of a ``sheets`` request: the record of
    ``levi``, or every record of ``kind``, type A as the walk reaches each
    and the maximal Levi records of B, C and D as each is built, so a
    listing holds one record at a time.  Every refusal is raised when this
    is called, before any piece."""
    if levi is not None:
        return records_json([find_sheet(kind, levi)])
    if kind.family != "A":
        return records_json(sheets_for(kind))
    return _gl_listing(kind, _JSON)


def listing_rows(kind: GroupKind, levi: Optional[Levi] = None) -> Callable[[], Iterator[Tuple[str, ...]]]:
    """The rows of the same records as a table, header first, afresh on each
    call of the function returned.  A type A listing is walked on each call
    and refused in the first, before its header; any other is built here."""
    if levi is None and kind.family == "A":
        return lambda: chain((LISTING_HEADER,), _gl_listing(kind, _ROWS))
    rows = [LISTING_HEADER, *((d.name or "", d.decomposition_data, str(d.nilpotent_orbit), str(d.d), str(d.dim_z),
                               str(d.w_l_order), str(d.katsylo_order), str(d.dim_sheet), d.class_tag or "-")
                              for d in ([find_sheet(kind, levi)] if levi is not None else sheets_for(kind)))]
    return rows.__iter__
