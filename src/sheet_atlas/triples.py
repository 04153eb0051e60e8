"""Explicit sl2-triples for Dixmier sheets, and the rank-2 symplectic slice.

Triples for GL come from the two-block shift construction; triples for
SO/Sp come from a normalised Jordan basis whose Gram pairings are supported
on block antidiagonals with alternating signs.  The rank-2 symplectic
worked example ships with both slice normalisations: the corrected corner
entry 4t^2 (the default, which keeps the slice inside its sheet) and the
uncorrected t^2 behind an as_printed flag for comparison.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ._record import Record, _set
from .liealg import ClassicalForm, LieAlgebraModel, RationalMatrix, bracket_is, build_model, in_algebra
from .partitions import Partition
from .scalars import RatPoly, as_scalar, clear, height, run
from .sheets import GroupKind, Levi, maximal_levi_sheet, type_a, type_c


class JordanBasisPlan(Record):
    """Pairing plan for a normalised Jordan basis.

    beta is an involution on block indices (0-based) pairing equal-size
    blocks; the first gl_block_size blocks have their chain tops spanning
    the isotropic subspace V+.
    """

    __slots__ = ("orbit", "beta", "gl_block_size", "symmetric")

    def __init__(self, orbit: Partition, beta: Tuple[int, ...], gl_block_size: int, symmetric: bool):
        parts = orbit.parts
        for j, bj in enumerate(beta):
            if parts[bj] != parts[j] or beta[bj] != j:
                raise ValueError("beta is not a size-preserving involution")
        _set(self, "orbit", orbit)
        _set(self, "beta", beta)
        _set(self, "gl_block_size", gl_block_size)
        _set(self, "symmetric", symmetric)


class Sl2Triple(Record):
    """An exact sl2-triple (e, h, f) adapted to a parabolic flag.

    Invariants checked on construction: the bracket relations [h,e] = 2e,
    [h,f] = -2f, [e,f] = h; form membership of all three; e strictly
    block-upper-triangular for flag_dims; h block-diagonal; and a nonzero
    abelianisation value.
    """

    __slots__ = ("e", "h", "f", "model", "flag_dims", "abelianization_value", "h_prime", "plan", "label")

    def __init__(
        self,
        e: RationalMatrix,
        h: RationalMatrix,
        f: RationalMatrix,
        model: LieAlgebraModel,
        flag_dims: Tuple[int, ...],
        abelianization_value: Fraction,
        h_prime: Optional[RationalMatrix] = None,
        plan: Optional[JordanBasisPlan] = None,
        label: str = "",
    ):
        _set(self, "e", e)
        _set(self, "h", h)
        _set(self, "f", f)
        _set(self, "model", model)
        _set(self, "flag_dims", flag_dims)
        _set(self, "abelianization_value", abelianization_value)
        _set(self, "h_prime", h_prime)
        _set(self, "plan", plan)
        _set(self, "label", label)
        for name, ok, _ in self.checks():
            if not ok:
                raise ValueError("sl2-triple construction failed check %r" % name)

    def checks(self) -> List[Tuple[str, bool, str]]:
        """Named verification results, used by construction and the CLI.
        Each bracket relation [a, b] = k c is the integer identity of
        :func:`~sheet_atlas.liealg.bracket_is`, which builds no matrix."""
        e, h, f = self.e, self.h, self.f
        out = [
            ("[h,e] = 2e", bracket_is(h, e, 2, e), "bracket relation"),
            ("[h,f] = -2f", bracket_is(h, f, -2, f), "bracket relation"),
            ("[e,f] = h", bracket_is(e, f, 1, h), "bracket relation"),
            ("e in algebra", in_algebra(e, self.model), "form membership"),
            ("h in algebra", in_algebra(h, self.model), "form membership"),
            ("f in algebra", in_algebra(f, self.model), "form membership"),
            ("e nilradical-valued", _strictly_block_upper(e, self.flag_dims), "flag condition"),
            ("h Levi-valued", _block_diagonal(h, self.flag_dims), "flag condition"),
            (
                "abelianisation nonzero",
                self.abelianization_value != 0,
                "value %s" % self.abelianization_value,
            ),
        ]
        if self.h_prime is not None:
            hp = self.h_prime
            out.extend(
                [
                    ("h' centralises e", bracket_is(hp, e, 0, e), "extra centraliser element"),
                    ("h' in algebra", in_algebra(hp, self.model), "form membership"),
                    ("h' Levi-valued", _block_diagonal(hp, self.flag_dims), "flag condition"),
                ]
            )
        return out


def _nonzero_blocks(x: RationalMatrix, flag_dims: Tuple[int, ...]) -> Iterator[Tuple[int, int]]:
    """(flag block of r, flag block of c) for every nonzero entry x[r][c],
    read from the matrix's cleared form; block k holds the indices
    below flag_dims[k] and not below an earlier bound.  A nonzero entry
    outside the last block raises IndexError."""
    block: List[int] = []
    for k, bound in enumerate(flag_dims):
        block += [k] * (bound - len(block))
    return ((block[r], block[c]) for r, row in enumerate(x.nz) for c, _ in row)


def _strictly_block_upper(x: RationalMatrix, flag_dims: Tuple[int, ...]) -> bool:
    return all(br < bc for br, bc in _nonzero_blocks(x, flag_dims))


def _block_diagonal(x: RationalMatrix, flag_dims: Tuple[int, ...]) -> bool:
    return all(br == bc for br, bc in _nonzero_blocks(x, flag_dims))


MAX_TRIPLE_SIZE = 64
"""The largest matrix size n of a GL or B/C/D triple.  The cost is set by
the centraliser dimension: at n = 64 (gl:32,32 at a generic z) it takes
about 0.005 s on sparse rank rows in the model's key cells, and
``triple-verify --case gl:32,32`` or ``--case bcd:C,8,24`` peaks at about
19 MB RSS in all."""


def _check_size(n: int):
    if n > MAX_TRIPLE_SIZE:
        raise ValueError("matrix size %d is beyond the supported maximum %d" % (n, MAX_TRIPLE_SIZE))


# --- GL triples ---------------------------------------------------------------


def build_gl_triple(m1: int, m2: int) -> Sl2Triple:
    """Two-block shift triple for the GL Levi (m1 >= m2 >= 1), with
    n = m1 + m2 <= MAX_TRIPLE_SIZE.

    e shifts the second block onto the head of the first, f shifts back,
    and h is the diagonal +1 on 1..m2, 0 on m2+1..m1, -1 on m1+1..n, so
    [e, f] = h is checked, not assumed; the abelianisation pairing is
    (x1, x2) -> m2 tr(x1) - m1 tr(x2) and evaluates to m2*n on h.
    For m1 > m2 an extra diagonal element h' commuting with e carries a
    nonzero abelianisation value m2.
    """
    if not (m1 >= m2 >= 1):
        raise ValueError("need m1 >= m2 >= 1")
    n = m1 + m2
    _check_size(n)
    e = RationalMatrix.from_cleared(n, 1, [[(m1 + k, 1)] if k < m2 else [] for k in range(n)])
    f = e.transpose()
    h = RationalMatrix.diagonal([1] * m2 + [0] * (m1 - m2) + [-1] * m2)
    abel = _gl_abelianisation(h, m1, m2)
    h_prime = None
    if m1 > m2:
        h_prime = RationalMatrix.unit(n, m2, m2)
        if _gl_abelianisation(h_prime, m1, m2) == 0:
            raise AssertionError("h' abelianisation vanished")
    model = build_model(type_a(n))
    return Sl2Triple(
        e=e,
        h=h,
        f=f,
        model=model,
        flag_dims=(m1, n),
        abelianization_value=abel,
        h_prime=h_prime,
        label="gl:%d,%d" % (m1, m2),
    )


def _gl_abelianisation(x: RationalMatrix, m1: int, m2: int) -> Fraction:
    diag = [dict(row).get(i, 0) for i, row in enumerate(x.nz)]
    return Fraction(m2 * sum(diag[:m1]) - m1 * sum(diag[m1:]), x.den)


# --- SO/Sp triples --------------------------------------------------------------


def build_bcd_triple(kind: GroupKind, levi: Levi) -> Sl2Triple:
    """Normalised-Jordan-basis triple for a maximal Levi sheet of SO/Sp.

    The block pairing is planned so that the chain tops of the first a
    blocks span an isotropic V+, every chain of length >= 2 threads the
    flag V+ < V+ + W < V, and the sign recursion produces a Gram
    matrix of the symmetry the group requires.  e is the down-shift, h the
    chain-weight diagonal, and f carries the coefficients i(n_j - i) forced
    by the bracket relations.  The plan, the basis order and the form are
    shared per (orbit, a, form sign); e, h, f and every check are made on
    each call.
    """
    if kind.form_sign is None:
        raise ValueError("normalised Jordan triples apply to types B, C, D")
    _check_size(kind.matrix_size)
    sheet = maximal_levi_sheet(kind, levi)
    orbit: Partition = sheet.nilpotent_orbit
    a = levi.blocks.parts[0]
    plan, pos, form = _jordan_basis(orbit, a, kind.form_sign == 1)
    model = build_model(kind, form)

    size = orbit.n
    # pos is a bijection, so each row of e and f gets at most one entry
    e_rows: List[list] = [[] for _ in range(size)]
    f_rows: List[list] = [[] for _ in range(size)]
    h_diag = [0] * size
    for j, nj in enumerate(orbit.parts):
        for i in range(1, nj + 1):
            h_diag[pos[(i, j)]] = nj - 2 * i + 1
            if i > 1:
                e_rows[pos[(i - 1, j)]].append((pos[(i, j)], 1))
            if i < nj:
                f_rows[pos[(i + 1, j)]].append((pos[(i, j)], i * (nj - i)))
    dim_w = size - 2 * a
    flag = (a, a + dim_w, size) if dim_w else (a, size)
    abel = Fraction(sum(orbit.parts[j] - 1 for j in range(a)))

    h_prime = None
    if sheet.type_tag == 1:
        # beta pairs block a-1 with block a; h' is +1 on one, -1 on the other.
        hp = [0] * size
        for i in range(1, orbit.parts[a - 1] + 1):
            hp[pos[(i, a - 1)]] = 1
        for i in range(1, orbit.parts[a] + 1):
            hp[pos[(i, a)]] = -1
        h_prime = RationalMatrix.diagonal(hp)

    return Sl2Triple(
        e=RationalMatrix.from_cleared(size, 1, e_rows),
        h=RationalMatrix.diagonal(h_diag),
        f=RationalMatrix.from_cleared(size, 1, f_rows),
        model=model,
        flag_dims=flag,
        abelianization_value=abel,
        h_prime=h_prime,
        plan=plan,
        label="bcd:%s,%d,%d" % (kind.family, a, levi.residual),
    )


PLAN_CACHE_SIZE = 128
"""How many Jordan-basis plans :func:`build_bcd_triple` keeps, the most
recently used, one per (orbit, a, form sign).  The sheet-points benchmark
reaches 92.  At matrix size 64 a plan holds under 20 KB, its form included,
so a full cache holds at most about 2.5 MB."""


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _jordan_basis(orbit: Partition, a: int, symmetric: bool) -> Tuple[JordanBasisPlan, Mapping, ClassicalForm]:
    """The pairing plan of the normalised Jordan basis, the position of each
    basis vector (i, j), read-only, and the form of its Gram matrix.
    Shared: built, and their checks run, once per process per key."""
    beta = _plan_beta(orbit.parts, a, symmetric)
    pos = _basis_order(orbit.parts, beta, a)
    gram = _build_gram(orbit.parts, beta, pos, symmetric)
    plan = JordanBasisPlan(orbit=orbit, beta=tuple(beta), gl_block_size=a, symmetric=symmetric)
    return plan, MappingProxyType(pos), ClassicalForm("symmetric" if symmetric else "antisymmetric", gram)


def _plan_beta(parts: Tuple[int, ...], a: int, symmetric: bool) -> List[int]:
    """Choose the pairing involution on Jordan blocks.

    Constraints: chain tops of blocks < a are isotropic (so a block of size
    1 in that range cannot self-pair and must take a partner beyond a); any
    block of size >= 2 outside {0..a-1} and its beta-image would strand a
    chain inside W and must be absorbed by a top block; self-pairing is only
    consistent with the form when the block size parity matches (odd blocks
    orthogonal, even blocks symplectic).
    """
    s = len(parts)
    beta: List[Optional[int]] = [None] * s
    i = 0
    while i < s:
        j = i
        while j < s and parts[j] == parts[i]:
            j += 1
        size = parts[i]
        idxs = list(range(i, j))
        i = j
        tops = [k for k in idxs if k < a]
        nons = [k for k in idxs if k >= a]
        if size >= 2:
            # the last tops absorb the non-tops
            spill = len(tops) - len(nons)
            if spill < 0:
                raise ValueError("cannot absorb %d non-top blocks of size %d" % (len(nons), size))
            pairs, rest = zip(tops[spill:], nons), tops[:spill]
        else:
            # each top 1-block takes a partner beyond a
            if len(tops) > len(nons):
                raise ValueError("top 1-blocks outnumber available partners")
            pairs, rest = zip(tops, nons), nons[len(tops) :]
        for t, nn in pairs:
            beta[t], beta[nn] = nn, t
        if (size % 2 == 1) == symmetric:
            for t in rest:
                beta[t] = t
        else:
            if len(rest) % 2:
                raise ValueError("odd number of size-%d blocks left to cross-pair" % size)
            for u in range(0, len(rest), 2):
                beta[rest[u]], beta[rest[u + 1]] = rest[u + 1], rest[u]
    return beta  # type: ignore[return-value]


def _basis_order(parts: Tuple[int, ...], beta: List[int], a: int):
    """The position of each basis vector, ordered V+ then W then V-."""
    vplus = [(1, j) for j in range(a)]
    vminus = [(parts[j], beta[j]) for j in range(a)]
    used = set(vplus) | set(vminus)
    if len(used) != 2 * a:
        raise ValueError("flag subspaces collide; invalid pairing plan")
    middle = [(i, j) for j in range(len(parts)) for i in range(1, parts[j] + 1) if (i, j) not in used]
    middle.sort(key=lambda t: (t[1], t[0]))
    return {v: k for k, v in enumerate(vplus + middle + vminus)}


def _build_gram(parts: Tuple[int, ...], beta: List[int], pos: Dict, symmetric: bool) -> RationalMatrix:
    """Solve the sign recursion: pairings supported on i + i' = n_j + 1 for
    beta-paired blocks, alternating down the antidiagonal; the beta-image
    side is forced by the requested symmetry, which ClassicalForm checks.
    Each basis vector pairs with one other, so each row gets one entry."""
    size = sum(parts)
    eps = 1 if symmetric else -1
    rows: List[list] = [[] for _ in range(size)]
    done = set()
    for j in range(len(parts)):
        jp = beta[j]
        if (jp, j) in done:
            continue
        done.add((j, jp))
        nj = parts[j]
        for i in range(1, nj + 1):
            rows[pos[(i, j)]].append((pos[(nj + 1 - i, jp)], (-1) ** (i - 1)))
            if jp != j:
                rows[pos[(i, jp)]].append((pos[(nj + 1 - i, j)], eps * (-1) ** (nj - i)))
    return RationalMatrix.from_cleared(size, 1, rows)


# --- Rank-2 symplectic artifacts -------------------------------------------------


def sp4_model() -> LieAlgebraModel:
    """The model of sp_4 for the unit symplectic form ``sp_gram(4)``, the
    default form of C(2): the shared model of
    :func:`~sheet_atlas.liealg.build_model`, built once per process (its
    basis-size check runs at that build)."""
    return build_model(type_c(2))


def sp4_e() -> RationalMatrix:
    return RationalMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])


# the order-2 symplectic flip s that generates the component group of e, as
# the permutation σ of the basis it makes: e_1 <-> e_2, e_3 <-> e_4
SP4_FLIP = (1, 0, 3, 2)


def formal_t() -> RatPoly:
    """The formal slice parameter."""
    return RatPoly.variable()


def sp4_slice(t, as_printed: bool = False) -> RationalMatrix:
    """The one-parameter slice matrix x_t through the subregular sheet.

    The corrected corner entry is 4t^2, under which x_t has characteristic
    polynomial λ^4 - t^2 λ^2 (eigenvalues t, 0, 0, -t) and x_0 = e/4.  With
    as_printed the corner entry is t^2 instead; that matrix still lies in
    the symplectic algebra but its characteristic polynomial picks up a
    nonzero constant term, so it leaves the sheet for t != 0.
    """
    # for t = v / q, 4 q^2 x_t has the entries +-2qv, q^2 and k v^2 (k = 1
    # as printed, else 4): integers, or over Q[t] read at t = 2^S, with
    # 1-norms at most 2q h, q^2 and k h^2 for h = ‖v‖₁
    form = clear([as_scalar(t)])
    q, k = form[0], 1 if as_printed else 4
    bound = lambda: max(2 * q * height(form[1]), q * q, k * height(form[1]) ** 2)
    (half, neg, unit, corner), symbol, _ = run([form], bound, lambda c: [2 * q * c[0], -2 * q * c[0], q * q, k * c[0] ** 2])
    rows = [[(0, half), (2, unit)], [(1, neg), (3, unit)], [(0, corner), (2, half)], [(1, corner), (3, neg)]]
    return RationalMatrix.from_cleared(4, 4 * q * q, rows, symbol)


def sp4_flip_action(t, as_printed: bool = False) -> RationalMatrix:
    """Conjugate x_t by the flip s; equals x_{-t}, and this is checked.
    s permutes the basis by :data:`SP4_FLIP`, so s x_t s⁻¹ relabels the
    cleared form of x_t (:meth:`~sheet_atlas.liealg.RationalMatrix.permuted`)
    and takes no matrix product."""
    conj = sp4_slice(t, as_printed=as_printed).permuted(SP4_FLIP)
    expected = sp4_slice(-as_scalar(t), as_printed=as_printed)
    if conj != expected:
        raise AssertionError("flip action did not negate the slice parameter")
    return conj
