"""Seeded inputs and closed-form expected results for the three workloads.

Nothing here imports sheet_atlas: every expected value is derived from a
formula written out in this file, so a wrong answer from the library cannot
also be the reference it is checked against.

An operation is a tuple ``(inp, expected, sheet_key)``.  ``inp`` is built
from strings, ints and tuples only, so it can cross a process boundary as
JSON and be hashed for the repeat shares.  ``sheet_key`` is the (kind, Levi)
pair an atlas request touches, or None.

Every workload draws its operations in blocks with a fixed composition,
shuffled within the block.  The slow classes therefore take the same share
of any long prefix of the stream whatever the seed, which keeps the median,
the tail and the throughput of a run comparable across seeds.
"""
from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from math import factorial, gcd

WORKLOADS = ("atlas-lookup", "sheet-points", "spectral-compose")


def _rng(seed: int, workload: str, stream: str) -> random.Random:
    return random.Random("%s/%s/%d" % (workload, stream, seed))


def _blocks(rng: random.Random, composition, count: int):
    """Yield ``count`` class labels, ``composition`` = [(label, per_block)]."""
    block = [label for label, k in composition for _ in range(k)]
    made = 0
    while made < count:
        rng.shuffle(block)
        for label in block[: count - made]:
            yield label
        made += len(block)


class _Cycle:
    """Draws items in seeded shuffled rounds, so each appears equally often."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.queue = rng, list(items), []

    def next(self):
        if not self.queue:
            self.queue = list(self.items)
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class _Zipf:
    """Zipf-like draw (weight 1/rank^s) over a seeded ranking of keys."""

    def __init__(self, rng: random.Random, items, s: float = 1.1):
        self.rng = rng
        self.items = list(items)
        rng.shuffle(self.items)
        self.weights = [1.0 / (k + 1) ** s for k in range(len(self.items))]

    def next(self):
        return self.rng.choices(self.items, weights=self.weights)[0]


# --- closed forms: partitions and sheet records --------------------------------


def partitions_desc(n: int):
    """Partitions of n, reverse-lexicographic, by iterating the successor rule."""
    if n == 0:
        return [()]
    out, p = [], [n]
    while True:
        out.append(tuple(p))
        # successor: drop trailing 1s, decrease the last part > 1, refill
        ones = 0
        while p and p[-1] == 1:
            p.pop()
            ones += 1
        if not p:
            return out
        k = p.pop() - 1
        rest = ones + 1
        p.append(k)
        while rest > k:
            p.append(k)
            rest -= k
        if rest:
            p.append(rest)


def conjugate(parts):
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, (parts[0] if parts else 0) + 1))


def _mult_counts(parts):
    return [sum(1 for p in parts if p == i) for i in range(1, (max(parts) if parts else 0) + 1)]


def _kind_str(family: str, rank: int) -> str:
    return "F4" if family == "F4" else "%s(%d)" % (family, rank)


def _dim_g(family: str, r: int) -> int:
    return {"A": r * r, "B": r * (2 * r + 1), "C": r * (2 * r + 1), "D": r * (2 * r - 1), "F4": 52}[family]


def gl_record(parts):
    n, k = sum(parts), len(parts)
    w_l = 1
    for c in _mult_counts(parts):
        w_l *= factorial(c)
    d = sum(p * p for p in parts)
    tag = ("I" if parts[0] == parts[1] else "II") if k == 2 else None
    return {
        "name": "gl%d:m=%s" % (n, ",".join(map(str, parts))),
        "kind": _kind_str("A", n),
        "d": d,
        "dim_z": k,
        "w_l_order": w_l,
        "katsylo_order": 1,
        "dim_sheet": n * n - d + k,
        "nilpotent_orbit": list(conjugate(parts)),
        "class_tag": tag,
    }


def max_levi_labels(family: str, r: int):
    if family == "C":
        return [(a, r - a) for a in range(1, r + 1)]
    if family == "B":
        return [(a, 2 * r + 1 - 2 * a) for a in range(1, r + 1)]
    return [(a, 2 * r - 2 * a) for a in range(1, r + 1) if 2 * r - 2 * a != 2]


def max_levi_dim(family: str, a: int, res: int) -> int:
    return a * a + (res * (2 * res + 1) if family == "C" else res * (res - 1) // 2)


def max_levi_class(family: str, a: int, res: int):
    """Nine-class table: (class tag, orbit partition, |F|, |W_L|)."""
    if family == "C":
        q = 2 * res
        if a >= q:
            return "VII", [3] * q + [2] * (a - q), 1, 2
        if a % 2:
            return "VIII", [3] * (a - 1) + [2, 2] + [1] * (q - a - 1), 2, 2
        return "IX", [3] * a + [1] * (q - a), 1, 2
    q = res
    if q == 0:
        return ("VI", [2] * (a - 1) + [1, 1], 1, 1) if a % 2 else ("IV", [2] * a, 1, 2)
    if a >= q:
        if (a - q) % 2:
            return "III", [3] * q + [2] * (a - q - 1) + [1, 1], 2, 2
        return "IV", [3] * q + [2] * (a - q), 1, 2
    return "V", [3] * a + [1] * (q - a), 1, 2


def max_levi_record(family: str, r: int, a: int, res: int):
    tag, orbit, f, w_l = max_levi_class(family, a, res)
    d = max_levi_dim(family, a, res)
    return {
        "name": "%s:levi=%d,%d" % (_kind_str(family, r), a, res),
        "kind": _kind_str(family, r),
        "d": d,
        "dim_z": 1,
        "w_l_order": w_l,
        "katsylo_order": f,
        "dim_sheet": _dim_g(family, r) - d + 1,
        "nilpotent_orbit": orbit,
        "class_tag": tag,
    }


def _sp4_row(name, d, dim_z, w_l, f, dim, orbit, tag=None):
    return {
        "name": name, "kind": "C(2)", "d": d, "dim_z": dim_z, "w_l_order": w_l, "katsylo_order": f,
        "dim_sheet": dim, "nilpotent_orbit": orbit, "class_tag": tag,
    }


SP4_ROWS = [
    _sp4_row("sp4:regular", 2, 2, 8, 1, 10, [4]),
    _sp4_row("sp4:SDix", 4, 1, 2, 2, 7, [2, 2], "VIII"),
    _sp4_row("sp4:SDix'", 4, 1, 2, 1, 7, [2, 2], "VII"),
    _sp4_row("sp4:Omin", 6, 0, 1, 1, 4, [2, 1, 1]),
    _sp4_row("sp4:zero", 10, 0, 1, 1, 0, [1, 1, 1, 1]),
]
F4_ROW = {
    "name": "f4:B3", "kind": "F4", "d": 22, "dim_z": 1, "w_l_order": 2, "katsylo_order": 1,
    "dim_sheet": 31, "nilpotent_orbit": {"bala_carter": "A~2"}, "class_tag": None,
}
RECORD_FIELDS = tuple(F4_ROW)


def sheet_record(family: str, r: int, levi):
    """Expected record for (kind, Levi); levi is a partition or (a, residual)."""
    if family == "F4":
        return F4_ROW
    if family == "A":
        return gl_record(levi)
    if (family, r) == ("C", 2):
        return SP4_ROWS[1] if levi == (1, 1) else SP4_ROWS[2]
    return max_levi_record(family, r, *levi)


def listing(family: str, r: int):
    if family == "A":
        return [gl_record(p) for p in partitions_desc(r)]
    if family == "F4":
        return [F4_ROW]
    if (family, r) == ("C", 2):
        return SP4_ROWS
    return [max_levi_record(family, r, a, res) for a, res in max_levi_labels(family, r)]


def project(record):
    return {k: record.get(k) for k in RECORD_FIELDS}


# --- closed forms: base dimensions, multiplicities, real forms ------------------


def h0(g: int, j: int) -> int:
    return g if j == 1 else (2 * j - 1) * (g - 1)


def invariant_degrees(family: str, r: int):
    if family == "A":
        return list(range(1, r + 1))
    if family in ("B", "C"):
        return [2 * i for i in range(1, r + 1)]
    if family == "D":
        return [2 * i for i in range(1, r)] + [r]
    return [2, 6, 8, 12]


def hitchin_payload(family: str, r: int, g: int, levi):
    out = {"kind": _kind_str(family, r), "genus": g, "dim_base": sum(h0(g, d) for d in invariant_degrees(family, r))}
    if levi is not None:
        rec = sheet_record(family, r, levi)
        if family == "A":
            weights = [j for c in _mult_counts(levi) for j in range(1, c + 1)]
        else:
            weights = [1 if rec["w_l_order"] == rec["katsylo_order"] else 2]
        out.update(
            {
                "sheet": rec["name"],
                "dim_s_base": sum(h0(g, w) for w in weights),
                "components": 1 if rec["katsylo_order"] == 1 else 4**g,
                "cameral_degree": rec["w_l_order"],
                "weights": weights,
            }
        )
    return out


def multiplicity_payload(family: str, r: int, levi, z):
    rec = sheet_record(family, r, levi)
    f = rec["katsylo_order"]
    stab = 2 if f == 2 and all(v == 0 for v in z) else 1
    return {
        "sheet": rec["name"],
        "z": [str(v) for v in z],
        "mu": f // stab,
        "inertia_order": stab,
        "polarisation_count": f,
    }


def realform_payload(label, g):
    if label[0] == "SU":
        p, q = label[1], label[2]
        quasi = p - q <= 1
        levi = sorted(([p - q] if p > q else []) + [1] * (2 * q), reverse=True)
        extra = {"toledo_max": str(2 * q * (g - 1))} if (not quasi and g is not None) else {}
        return {
            "label": "SU(%d,%d)" % (p, q), "levi": {"gl": levi}, "quasi_split": quasi, "extra": extra,
            "abelianised_fibres_positive_dimensional": p - q > 1,
        }
    n = label[1]
    if n % 2:
        m = (n - 1) // 2
        extra = {"jh_rank": "1", "gl2_blocks": str(m)}
        if g is not None:
            extra["fixed_degree"] = str(4 * m * (g - 1))
        levi = "GL2^%d x Gm" % m
    else:
        extra, levi = {}, None
    return {
        "label": "SO*(%d)" % (2 * n), "levi": levi, "quasi_split": False, "extra": extra,
        "abelianised_fibres_positive_dimensional": n % 2 == 1,
    }


REALFORM_FIELDS = ("label", "levi", "quasi_split", "extra", "abelianised_fibres_positive_dimensional")


# --- atlas-lookup ----------------------------------------------------------------

# Per block of 250 requests.  The five heavy listings (type A, ranks 20..24)
# set the tail: the 99th percentile falls inside the rank-22 listing.
ATLAS_MIX = [
    ("sheets", 40),
    ("sheet-info", 60),
    ("hitchin-dim", 50),
    ("multiplicity", 40),
    ("realform", 40),
    ("invalid", 15),
    ("heavy", 5),
]
HEAVY_RANKS = (20, 21, 22, 23, 24)
LIGHT_A_MAX = 8
BCD_MAX_RANK = 8
GENERA = (2, 3, 4, 5)


def _levi_flag(levi) -> str:
    return ",".join(map(str, levi))


def _kind_flags(family: str, r: int):
    return ["--kind", family] if family == "F4" else ["--kind", family, "--rank", str(r)]


def _all_sheet_labels():
    """(family, rank, levi) for every record sheet-info can return."""
    out = []
    for n in range(1, LIGHT_A_MAX + 1):
        out += [("A", n, p) for p in partitions_desc(n)]
    for fam in ("B", "C", "D"):
        for r in range(2 if fam == "D" else 1, BCD_MAX_RANK + 1):
            out += [(fam, r, lab) for lab in max_levi_labels(fam, r)]
    out.append(("F4", 4, None))
    return out


def _listing_kinds():
    kinds = [("A", n) for n in range(1, LIGHT_A_MAX + 1)]
    for fam in ("B", "C", "D"):
        kinds += [(fam, r) for r in range(2 if fam == "D" else 1, BCD_MAX_RANK + 1)]
    return kinds + [("F4", 4)]


def _sheet_key(family, r, levi):
    return "%s|%s" % (_kind_str(family, r), "" if levi is None else _levi_flag(levi))


ERROR = ("error",)  # expected answer: exit code 1 and a message on stderr


def _atlas_catalogue():
    """Every request key by class: (argv, expected, sheet_key)."""
    cat = {name: [] for name, _ in ATLAS_MIX}
    labels = _all_sheet_labels()
    for fam, r in _listing_kinds():
        argv = ("sheets", *_kind_flags(fam, r), "--json")
        cat["sheets"].append((argv, ("records", [project(x) for x in listing(fam, r)]), _sheet_key(fam, r, None)))
    for r in HEAVY_RANKS:
        argv = ("sheets", "--kind", "A", "--rank", str(r), "--json")
        cat["heavy"].append((argv, ("records", [project(x) for x in listing("A", r)]), _sheet_key("A", r, None)))
    for fam, r, levi in labels:
        argv = ("sheet-info", *_kind_flags(fam, r)) + (() if levi is None else ("--levi", _levi_flag(levi)))
        cat["sheet-info"].append((argv + ("--json",), ("record", project(sheet_record(fam, r, levi))), _sheet_key(fam, r, levi)))
    for g in GENERA:
        for fam, r in _listing_kinds():
            argv = ("hitchin-dim", "--genus", str(g), *_kind_flags(fam, r), "--json")
            cat["hitchin-dim"].append((argv, ("payload", hitchin_payload(fam, r, g, None)), _sheet_key(fam, r, None)))
        for fam, r, levi in labels:
            if levi is None:
                continue
            argv = ("hitchin-dim", "--genus", str(g), *_kind_flags(fam, r), "--levi", _levi_flag(levi), "--json")
            cat["hitchin-dim"].append((argv, ("payload", hitchin_payload(fam, r, g, levi)), _sheet_key(fam, r, levi)))
    for fam, r, levi in labels:
        if fam == "F4":
            spec, zs = "F4", [(Fraction(0),), (Fraction(3),)]
        elif fam == "A":
            spec = "A:%d:%s" % (r, _levi_flag(levi))
            zs = [tuple(Fraction(i) for i in range(len(levi))), tuple(Fraction(-3 * i, 2) for i in range(len(levi)))]
        else:
            spec = "%s:%d:%s" % (fam, r, _levi_flag(levi))
            zs = [(Fraction(0),), (Fraction(5),), (Fraction(-3, 2),)]
        for z in zs:
            argv = ("multiplicity", "--sheet", spec, "--z=" + ",".join(map(str, z)), "--json")
            cat["multiplicity"].append((argv, ("payload", multiplicity_payload(fam, r, levi, z)), _sheet_key(fam, r, levi)))
    for g in (None, 2, 3):
        tail = () if g is None else ("--genus", str(g))
        for p in range(1, 12):
            for q in range(1, min(p, 12 - p) + 1):
                argv = ("realform", "--label", "SU:%d,%d" % (p, q), *tail, "--json")
                key = _sheet_key("A", p + q, realform_payload(("SU", p, q), g)["levi"]["gl"])
                cat["realform"].append((argv, ("realform", realform_payload(("SU", p, q), g)), key))
        for n in range(3, 13):
            argv = ("realform", "--label", "SOSTAR:%d" % n, *tail, "--json")
            cat["realform"].append((argv, ("realform", realform_payload(("SOSTAR", n), g)), "SO*(%d)" % (2 * n)))
    for r in range(2, BCD_MAX_RANK + 1):  # an SO_2 residual is not a maximal Levi
        cat["invalid"].append((("sheet-info", "--kind", "D", "--rank", str(r), "--levi", "%d,2" % (r - 1), "--json"), ERROR, _sheet_key("D", r, (r - 1, 2))))
    for n in range(2, LIGHT_A_MAX + 1):  # a partition of n+1 does not fit GL_n
        cat["invalid"].append((("sheet-info", "--kind", "A", "--rank", str(n), "--levi", "%d,1" % n, "--json"), ERROR, _sheet_key("A", n, (n, 1))))
    for r in range(2, BCD_MAX_RANK + 1):
        cat["invalid"].append((("multiplicity", "--sheet", "C:%d:1,%d" % (r, r), "--json"), ERROR, _sheet_key("C", r, (1, r))))
        cat["invalid"].append((("hitchin-dim", "--genus", "1", "--kind", "A", "--rank", str(r), "--json"), ERROR, _sheet_key("A", r, None)))
    return cat


@functools.lru_cache(maxsize=None)
def _catalogue():
    return _atlas_catalogue()


def atlas_ops(seed: int, count: int):
    cat = _catalogue()
    rng = _rng(seed, "atlas-lookup", "draw")
    draws = {name: _Zipf(rng, cat[name]) for name, _ in ATLAS_MIX if name != "heavy"}
    heavy = _Cycle(rng, cat["heavy"])
    return [heavy.next() if c == "heavy" else draws[c].next() for c in _blocks(rng, ATLAS_MIX, count)]


def atlas_first(seed: int):
    rng = _rng(seed, "atlas-lookup", "first")
    return rng.choice(_catalogue()["sheet-info"])


def check_atlas(expected, result):
    code, out, err = result
    if expected == ERROR:
        if code == 1 and not out and err.startswith("error:"):
            return None
        return "expected exit 1 with a message on stderr, got exit %r" % (code,)
    if code != 0:
        return "exit %r: %s" % (code, err.strip()[:200])
    try:
        payload = json.loads(out)
    except ValueError as exc:
        return "stdout is not JSON: %s" % exc
    kind, want = expected
    try:
        if kind == "records":
            got = [project(x) for x in payload]
        elif kind == "record":
            got = project(payload)
        elif kind == "realform":
            got = {k: payload.get(k) for k in REALFORM_FIELDS}
        else:
            got = payload
    except (AttributeError, TypeError):
        return "output has the wrong shape"
    return None if got == want else "output differs from the closed form"


# --- sheet-points ------------------------------------------------------------------

# Per block of 800 operations, by matrix size n of the triple.  Most are
# small, so a run holds enough samples; the median falls in "small" and the
# 99th percentile near the top of "medium", while the rare large and xl
# triples (n up to 16, the costliest requests) lie beyond it.  "sym"
# operations use a formal t and add the rank-2 slice checks.
POINT_TIERS = [
    ("tiny", 240, range(2, 4)),
    ("small", 500, range(4, 6)),
    ("medium", 40, range(6, 9)),
    ("sym", 16, range(2, 7)),
    ("large", 3, range(9, 13)),
    ("xl", 1, range(13, 17)),
]


def _point_cases():
    """(n, case) for every GL pair with n <= 14 and B/C/D maximal Levi with n <= 16."""
    cases = []
    for n in range(2, 15):
        cases += [(n, ("gl", m1, n - m1)) for m1 in range((n + 1) // 2, n)]
    for fam in ("B", "C", "D"):
        for r in range(2 if fam == "D" else 1, 9):
            n = 2 * r + 1 if fam == "B" else 2 * r
            if n <= 16:
                cases += [(n, ("bcd", fam, r, a, res)) for a, res in max_levi_labels(fam, r)]
    return cases


def _char_coeffs(eigs):
    """Coefficients a_1..a_n of prod (λ - μ) for μ in eigs (descending powers)."""
    poly = [1]
    for mu in eigs:
        poly = [a - mu * b for a, b in zip(poly + [0], [0] + poly)]
    return tuple(poly[1:])


def point_centre(case):
    """Diagonal of the unit centre direction, in the triple's basis, and dim L."""
    if case[0] == "gl":
        _, m1, m2 = case
        return [m2] * m1 + [-m1] * m2, m1 * m1 + m2 * m2
    _, fam, r, a, res = case
    size = 2 * r + 1 if fam == "B" else 2 * r
    return [1] * a + [0] * (size - 2 * a) + [-1] * a, max_levi_dim(fam, a, res)


@functools.lru_cache(maxsize=None)
def _centre_char(case):
    diag, dim_l = point_centre(case)
    return _char_coeffs(diag), dim_l


def point_expected(case, c: Fraction, symbolic: bool):
    coeffs, dim_l = _centre_char(case)
    if not symbolic:
        # scaling the eigenvalues by c scales a_k by c^k
        return ("rational", dim_l, [str(a * c ** (k + 1)) for k, a in enumerate(coeffs)])
    # eigenvalues c*t*diag: a_k is the monomial a_k c^k t^k
    mono = [[] if a == 0 else ["0"] * (k + 1) + [str(a * c ** (k + 1))] for k, a in enumerate(coeffs)]
    # (x in algebra, char poly of x, slice in algebra, slice char poly, flip negates t)
    return ("symbolic", True, mono, True, SP4_CHAR, True)


# char poly of the corrected rank-2 slice: λ^4 - t^2 λ^2, ascending in t
SP4_CHAR = [[], ["0", "0", "-1"], [], []]


def _rational_multiple(rng: random.Random) -> Fraction:
    """A nonzero rational from about a million values, so points do not repeat."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 999), rng.randint(1, 999))


def point_ops(seed: int, count: int):
    rng = _rng(seed, "sheet-points", "draw")
    by_n = {}
    for n, case in _point_cases():
        by_n.setdefault(n, []).append(case)
    pools = {name: _Cycle(rng, [c for n in sizes for c in by_n.get(n, [])]) for name, _, sizes in POINT_TIERS}
    out = []
    for tier in _blocks(rng, [(name, k) for name, k, _ in POINT_TIERS], count):
        case = pools[tier].next()
        c = _rational_multiple(rng)
        sym = tier == "sym"
        inp = (case, c.numerator, c.denominator, sym)
        out.append((inp, point_expected(case, c, sym), None))
    return out


def point_first(seed: int):
    rng = _rng(seed, "sheet-points", "first")
    case = rng.choice([c for n, c in _point_cases() if n <= 4])
    c = _rational_multiple(rng)
    return ((case, c.numerator, c.denominator, False), point_expected(case, c, False), None)


# --- spectral-compose -------------------------------------------------------------

# Per block of 200 points: rational heart points, rational points with one
# repeated root, and points whose roots are r + s t in Q[t].  The symbolic
# 2% are the slowest class, so the 99th percentile falls in their middle.
# Symbolic points keep every factor of degree <= 4: the Q[t] gcd behind
# in_heart grows very steeply with degree (about 0.3 s at degree 6, minutes
# at degree 10).
SPECTRAL_MIX = [("heart", 156), ("repeat", 40), ("sym-heart", 2), ("sym-repeat", 2)]
SYM_MAX_FACTOR = 4


def _profiles():
    return [p for n in range(1, 11) for p in partitions_desc(n)]


# rational roots (numerator, denominator); symbolic roots (r, s) for r + s t
RATIONAL_ROOTS = [(r, 1) for r in range(-40, 41)] + [(r, 2) for r in range(-19, 20, 2)]
SYMBOLIC_ROOTS = [(r, s) for r in range(-9, 10) for s in (-3, -2, -1, 1, 2, 3)]


def _draw_roots(rng: random.Random, parts, repeat: bool, symbolic: bool):
    degs = _mult_counts(parts)
    roots = rng.sample(SYMBOLIC_ROOTS if symbolic else RATIONAL_ROOTS, sum(degs))
    out, k = [], 0
    for d in degs:
        out.append(roots[k : k + d])
        k += d
    if repeat:
        i = rng.choice([i for i, d in enumerate(degs) if d >= 2])
        out[i][1] = out[i][0]
    return tuple(tuple(f) for f in out)


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] += v
    while out and out[-1] == 0:
        out.pop()
    return out


def _pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _image_coeffs(factors, symbolic: bool):
    """prod over i of prod over roots of (λ - root)^i, as coeff_text."""
    if not symbolic:
        return _rational_image(factors)
    poly = [[1]]  # descending in λ, each coefficient ascending in t (integers)
    for i, roots in enumerate(factors, start=1):
        for r, s in roots:
            neg = [-r, -s]
            for _ in range(i):
                poly = [_padd(a, _pmul(neg, b)) for a, b in zip(poly + [[]], [[]] + poly)]
    return coeff_text([[str(v) for v in c] for c in poly[1:]])


def _rational_image(factors) -> str:
    """Rational roots a/2: prod (λ - a/2) has a_k = q_k / 2^k, where q_k are the
    coefficients of prod (μ - a) over the integers."""
    q = [1]
    for i, roots in enumerate(factors, start=1):
        for num, den in roots:
            a = num * (2 // den)
            for _ in range(i):
                q = [x - a * y for x, y in zip(q + [0], [0] + q)]
    out = []
    for k, v in enumerate(q[1:], start=1):
        g = gcd(v, 1 << k)
        num, den = v // g, (1 << k) // g
        out.append("" if v == 0 else str(num) if den == 1 else "%d/%d" % (num, den))
    return ";".join(out)


def coeff_text(coeffs) -> str:
    """Coefficient lists (ascending in t, as strings) as one compact string."""
    return ";".join(",".join(c) for c in coeffs)


def spectral_expected(parts, factors, heart: bool, symbolic: bool):
    return ("spectral", sum(parts), True, heart, _image_coeffs(factors, symbolic))


def spectral_ops(seed: int, count: int):
    rng = _rng(seed, "spectral-compose", "draw")
    profiles = _profiles()
    with_repeat = [p for p in profiles if max(_mult_counts(p)) >= 2]
    sym_ok = [p for p in profiles if max(_mult_counts(p)) <= SYM_MAX_FACTOR]
    pools = {
        "heart": _Cycle(rng, profiles),
        "repeat": _Cycle(rng, with_repeat),
        "sym-heart": _Cycle(rng, sym_ok),
        "sym-repeat": _Cycle(rng, [p for p in sym_ok if max(_mult_counts(p)) >= 2]),
    }
    out = []
    for cls in _blocks(rng, SPECTRAL_MIX, count):
        parts = pools[cls].next()
        symbolic, repeat = cls.startswith("sym"), cls.endswith("repeat")
        factors = _draw_roots(rng, parts, repeat, symbolic)
        out.append(((parts, factors, symbolic), spectral_expected(parts, factors, not repeat, symbolic), None))
    return out


def spectral_first(seed: int):
    rng = _rng(seed, "spectral-compose", "first")
    parts = rng.choice([p for p in _profiles() if sum(p) <= 4])
    factors = _draw_roots(rng, parts, False, False)
    return ((parts, factors, False), spectral_expected(parts, factors, True, False), None)


def check_equal(expected, result):
    """For expected values tagged in position 0: the rest must equal the result."""
    if result != list(expected[1:]):
        return "expected %r, got %r" % (list(expected[1:]), result)
    return None


GENERATORS = {
    "atlas-lookup": (atlas_first, atlas_ops, check_atlas),
    "sheet-points": (point_first, point_ops, check_equal),
    "spectral-compose": (spectral_first, spectral_ops, check_equal),
}


def first_op(workload: str, seed: int):
    return GENERATORS[workload][0](seed)


def make_ops(workload: str, seed: int, count: int):
    return GENERATORS[workload][1](seed, count)


def check(workload: str, expected, result):
    """None when the summarised result matches the expected value, else a message."""
    return GENERATORS[workload][2](expected, result)
