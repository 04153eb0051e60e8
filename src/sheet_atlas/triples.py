"""Explicit sl2-triples for Dixmier sheets, and the rank-2 symplectic slice.

Triples for GL come from the two-block shift construction; triples for
SO/Sp come from a normalised Jordan basis whose Gram pairings are supported
on block antidiagonals with alternating signs.  The rank-2 symplectic
worked example ships with both slice normalisations: the corrected corner
entry 4t^2 (the default, which keeps the slice inside its sheet) and the
uncorrected t^2 behind an as_printed flag for comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .liealg import (
    ClassicalForm,
    LieAlgebraModel,
    RationalMatrix,
    bracket,
    build_model,
    in_algebra,
    sp_gram,
)
from .partitions import Partition
from .scalars import RatPoly, as_fraction, as_scalar, scalar_is_zero
from .sheets import GroupKind, MaxLevi, maximal_levi_sheet, type_a, type_c


@dataclass(frozen=True)
class JordanBasisPlan:
    """Pairing plan for a normalised Jordan basis.

    beta is an involution on block indices (0-based) pairing equal-size
    blocks; the first gl_block_size blocks have their chain tops spanning
    the isotropic subspace V+.  sign_choices holds the seed pairing value
    for each beta-orbit, keyed by the lower block index.
    """

    orbit: Partition
    beta: Tuple[int, ...]
    gl_block_size: int
    sign_choices: Tuple[Fraction, ...]
    symmetric: bool

    def __post_init__(self):
        parts = self.orbit.parts
        for j, bj in enumerate(self.beta):
            if parts[bj] != parts[j] or self.beta[bj] != j:
                raise ValueError("beta is not a size-preserving involution")


@dataclass(frozen=True)
class Sl2Triple:
    """An exact sl2-triple (e, h, f) adapted to a parabolic flag.

    Invariants checked on construction: the bracket relations [h,e] = 2e,
    [h,f] = -2f, [e,f] = h; form membership of all three; e strictly
    block-upper-triangular for flag_dims; h block-diagonal; and a nonzero
    abelianisation value.
    """

    e: RationalMatrix
    h: RationalMatrix
    f: RationalMatrix
    model: LieAlgebraModel
    flag_dims: Tuple[int, ...]
    abelianization_value: Fraction
    h_prime: Optional[RationalMatrix] = None
    plan: Optional[JordanBasisPlan] = None
    label: str = ""

    def __post_init__(self):
        for name, ok, _ in self.checks():
            if not ok:
                raise ValueError("sl2-triple construction failed check %r" % name)

    def checks(self) -> List[Tuple[str, bool, str]]:
        """Named verification results, used by construction and the CLI."""
        e, h, f = self.e, self.h, self.f
        two_e = e.scale(2)
        minus_two_f = f.scale(-2)
        out = [
            ("[h,e] = 2e", bracket(h, e) == two_e, "bracket relation"),
            ("[h,f] = -2f", bracket(h, f) == minus_two_f, "bracket relation"),
            ("[e,f] = h", bracket(e, f) == h, "bracket relation"),
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
                    ("h' centralises e", bracket(hp, e).is_zero(), "extra centraliser element"),
                    ("h' in algebra", in_algebra(hp, self.model), "form membership"),
                    ("h' Levi-valued", _block_diagonal(hp, self.flag_dims), "flag condition"),
                ]
            )
        return out


def _group_of(index: int, flag_dims: Tuple[int, ...]) -> int:
    for k, bound in enumerate(flag_dims):
        if index < bound:
            return k
    raise IndexError(index)


def _strictly_block_upper(x: RationalMatrix, flag_dims: Tuple[int, ...]) -> bool:
    for c in range(x.dim):
        for r in range(x.dim):
            if not scalar_is_zero(x.rows[r][c]) and _group_of(r, flag_dims) >= _group_of(c, flag_dims):
                return False
    return True


def _block_diagonal(x: RationalMatrix, flag_dims: Tuple[int, ...]) -> bool:
    for r in range(x.dim):
        for c in range(x.dim):
            if not scalar_is_zero(x.rows[r][c]) and _group_of(r, flag_dims) != _group_of(c, flag_dims):
                return False
    return True


# --- GL triples ---------------------------------------------------------------


def build_gl_triple(m1: int, m2: int) -> Sl2Triple:
    """Two-block shift triple for the GL Levi (m1 >= m2 >= 1), n = m1+m2 <= 20.

    e shifts the second block onto the head of the first, f shifts back,
    and h is defined as [e, f] (the diagonal +1 on 1..m2, 0 on m2+1..m1,
    -1 on m1+1..n); the abelianisation pairing is
    (x1, x2) -> m2 tr(x1) - m1 tr(x2) and evaluates to m2*n on h.
    For m1 > m2 an extra diagonal element h' commuting with e carries a
    nonzero abelianisation value m2.
    """
    if not (m1 >= m2 >= 1):
        raise ValueError("need m1 >= m2 >= 1")
    n = m1 + m2
    if n > 20:
        raise ValueError("n > 20 unsupported")
    e_rows = [[Fraction(0)] * n for _ in range(n)]
    f_rows = [[Fraction(0)] * n for _ in range(n)]
    for k in range(m2):
        e_rows[k][m1 + k] = Fraction(1)
        f_rows[m1 + k][k] = Fraction(1)
    e = RationalMatrix(e_rows)
    f = RationalMatrix(f_rows)
    h = bracket(e, f)
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
    tr1 = sum((as_fraction(x.rows[i][i]) for i in range(m1)), start=Fraction(0))
    tr2 = sum((as_fraction(x.rows[i][i]) for i in range(m1, m1 + m2)), start=Fraction(0))
    return m2 * tr1 - m1 * tr2


# --- SO/Sp triples --------------------------------------------------------------


def build_bcd_triple(kind: GroupKind, levi: MaxLevi) -> Sl2Triple:
    """Normalised-Jordan-basis triple for a maximal Levi sheet of SO/Sp.

    The block pairing is planned so that the chain tops of the first a
    blocks span an isotropic V+, every chain of length >= 2 threads the
    flag V+ < V+ + W < V, and the seeded sign recursion produces a Gram
    matrix of the symmetry the group requires.  e is the down-shift, h the
    chain-weight diagonal, and f carries the coefficients i(n_j - i) forced
    by the bracket relations.
    """
    if kind.family not in ("B", "C", "D"):
        raise ValueError("normalised Jordan triples apply to types B, C, D")
    n = kind.matrix_size
    if n > 16:
        raise ValueError("n > 16 unsupported")
    sheet = maximal_levi_sheet(kind, levi)
    orbit: Partition = sheet.nilpotent_orbit
    a = levi.a
    symmetric = kind.family in ("B", "D")
    beta = _plan_beta(orbit.parts, a, symmetric)
    order, pos = _basis_order(orbit.parts, beta, a)
    gram, seeds = _build_gram(orbit.parts, beta, pos, symmetric)
    plan = JordanBasisPlan(
        orbit=orbit,
        beta=tuple(beta),
        gl_block_size=a,
        sign_choices=tuple(seeds),
        symmetric=symmetric,
    )
    form = ClassicalForm("symmetric" if symmetric else "antisymmetric", gram)
    model = build_model(kind, form)

    size = orbit.n
    e_rows = [[Fraction(0)] * size for _ in range(size)]
    f_rows = [[Fraction(0)] * size for _ in range(size)]
    h_rows = [[Fraction(0)] * size for _ in range(size)]
    for j, nj in enumerate(orbit.parts):
        for i in range(1, nj + 1):
            h_rows[pos[(i, j)]][pos[(i, j)]] = Fraction(nj - 2 * i + 1)
            if i > 1:
                e_rows[pos[(i - 1, j)]][pos[(i, j)]] = Fraction(1)
            if i < nj:
                f_rows[pos[(i + 1, j)]][pos[(i, j)]] = Fraction(i * (nj - i))
    dim_w = size - 2 * a
    flag = (a, a + dim_w, size) if dim_w else (a, size)
    abel = Fraction(sum(orbit.parts[j] - 1 for j in range(a)))

    h_prime = None
    if sheet.type_tag == 1:
        # beta pairs block a-1 with block a; h' is +1 on one, -1 on the other.
        hp = [[Fraction(0)] * size for _ in range(size)]
        for i in range(1, orbit.parts[a - 1] + 1):
            hp[pos[(i, a - 1)]][pos[(i, a - 1)]] = Fraction(1)
        for i in range(1, orbit.parts[a] + 1):
            hp[pos[(i, a)]][pos[(i, a)]] = Fraction(-1)
        h_prime = RationalMatrix(hp)

    return Sl2Triple(
        e=RationalMatrix(e_rows),
        h=RationalMatrix(h_rows),
        f=RationalMatrix(f_rows),
        model=model,
        flag_dims=flag,
        abelianization_value=abel,
        h_prime=h_prime,
        plan=plan,
        label="bcd:%s,%d,%d" % (kind.family, levi.a, levi.residual),
    )


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
            spill = len(nons)
            if spill > len(tops):
                raise ValueError("cannot absorb %d non-top blocks of size %d" % (spill, size))
            for t, nn in zip(tops[len(tops) - spill :], nons):
                beta[t] = nn
                beta[nn] = t
            rest = tops[: len(tops) - spill]
            if (size % 2 == 1) == symmetric:
                for t in rest:
                    beta[t] = t
            else:
                if len(rest) % 2:
                    raise ValueError("odd number of size-%d blocks left to cross-pair" % size)
                for u in range(0, len(rest), 2):
                    beta[rest[u]] = rest[u + 1]
                    beta[rest[u + 1]] = rest[u]
        else:
            if len(tops) > len(nons):
                raise ValueError("top 1-blocks outnumber available partners")
            for t, nn in zip(tops, nons[: len(tops)]):
                beta[t] = nn
                beta[nn] = t
            rest = nons[len(tops) :]
            if symmetric:
                for t in rest:
                    beta[t] = t
            else:
                if len(rest) % 2:
                    raise ValueError("odd number of 1-blocks in a symplectic space")
                for u in range(0, len(rest), 2):
                    beta[rest[u]] = rest[u + 1]
                    beta[rest[u + 1]] = rest[u]
    return beta  # type: ignore[return-value]


def _basis_order(parts: Tuple[int, ...], beta: List[int], a: int):
    """Basis vectors ordered V+ then W then V-, with a position lookup."""
    vplus = [(1, j) for j in range(a)]
    vminus = [(parts[j], beta[j]) for j in range(a)]
    used = set(vplus) | set(vminus)
    if len(used) != 2 * a:
        raise ValueError("flag subspaces collide; invalid pairing plan")
    middle = [(i, j) for j in range(len(parts)) for i in range(1, parts[j] + 1) if (i, j) not in used]
    middle.sort(key=lambda t: (t[1], t[0]))
    order = vplus + middle + vminus
    return order, {v: k for k, v in enumerate(order)}


def _build_gram(parts: Tuple[int, ...], beta: List[int], pos: Dict, symmetric: bool):
    """Solve the sign recursion: pairings supported on i + i' = n_j + 1 for
    beta-paired blocks, alternating down the antidiagonal; the beta-image
    side is forced by the requested symmetry."""
    size = sum(parts)
    eps = Fraction(1) if symmetric else Fraction(-1)
    rows = [[Fraction(0)] * size for _ in range(size)]
    seeds = []
    done = set()
    for j in range(len(parts)):
        jp = beta[j]
        if (jp, j) in done:
            continue
        done.add((j, jp))
        nj = parts[j]
        seed = Fraction(1)
        seeds.append(seed)
        for i in range(1, nj + 1):
            rows[pos[(i, j)]][pos[(nj + 1 - i, jp)]] = seed * Fraction(-1) ** (i - 1)
            if jp != j:
                rows[pos[(i, jp)]][pos[(nj + 1 - i, j)]] = seed * eps * Fraction(-1) ** (nj - i)
    gram = RationalMatrix(rows)
    sign = 1 if symmetric else -1
    if gram.transpose() != gram.scale(sign):
        raise ValueError("sign recursion produced the wrong symmetry")
    return gram, seeds


# --- Rank-2 symplectic artifacts -------------------------------------------------


def sp4_model() -> LieAlgebraModel:
    return build_model(type_c(2), sp_gram(4))


def sp4_e() -> RationalMatrix:
    return RationalMatrix([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])


def sp4_h() -> RationalMatrix:
    return RationalMatrix.diagonal([1, 1, -1, -1])


def sp4_f() -> RationalMatrix:
    return RationalMatrix([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]])


def sp4_flip_matrix() -> RationalMatrix:
    """Order-2 symplectic element generating the component group of e."""
    return RationalMatrix([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def sp4_semisimple(t) -> RationalMatrix:
    """The semisimple orbit representatives diag(t, 0, 0, -t)."""
    t = as_scalar(t)
    return RationalMatrix.diagonal([t, 0, 0, -t])


def sp4_triple() -> Sl2Triple:
    """The standard subregular triple, adapted to the flag (1, 3, 4)."""
    return Sl2Triple(
        e=sp4_e(),
        h=sp4_h(),
        f=sp4_f(),
        model=sp4_model(),
        flag_dims=(1, 3, 4),
        abelianization_value=Fraction(1),
        label="sp4:subregular-triple",
    )


def formal_t() -> RatPoly:
    """The formal slice parameter."""
    return RatPoly.variable("t")


def sp4_slice(t, as_printed: bool = False) -> RationalMatrix:
    """The one-parameter slice matrix x_t through the subregular sheet.

    The corrected corner entry is 4t^2, under which x_t has characteristic
    polynomial λ^4 - t^2 λ^2 (eigenvalues t, 0, 0, -t) and x_0 = e/4.  With
    as_printed the corner entry is t^2 instead; that matrix still lies in
    the symplectic algebra but its characteristic polynomial picks up a
    nonzero constant term, so it leaves the sheet for t != 0.
    """
    t = as_scalar(t)
    c = t * t if as_printed else 4 * t * t
    q = Fraction(1, 4)
    two_t = 2 * t
    return RationalMatrix(
        [
            [q * two_t, 0, q, 0],
            [0, -(q * two_t), 0, q],
            [q * c, 0, q * two_t, 0],
            [0, q * c, 0, -(q * two_t)],
        ]
    )


def sp4_flip_action(t, as_printed: bool = False) -> RationalMatrix:
    """Conjugate x_t by the flip; equals x_{-t}, and this is checked."""
    s = sp4_flip_matrix()
    x = sp4_slice(t, as_printed=as_printed)
    conj = s @ x @ s  # s is an involution
    expected = sp4_slice(-as_scalar(t), as_printed=as_printed)
    if conj != expected:
        raise AssertionError("flip action did not negate the slice parameter")
    return conj
