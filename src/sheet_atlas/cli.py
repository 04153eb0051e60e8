"""Command-line front end: every library operation with table or JSON output.

Data goes to stdout, diagnostics to stderr.  Exit status 0 on success, 1 on
a domain error (invalid label, precondition failure), 2 on a parse error.
Setting SHEET_ATLAS_JSON=1 forces JSON output.  Every command and option is
described once, in COMMANDS: plain requests are parsed from that table, and
help, abbreviations and parse errors go to an argparse parser built from it.
"""
from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional

from . import hitchin, multiplicity, realforms, sheets, spectral, triples
from .liealg import centralizer_dim, char_poly, in_algebra
from .partitions import Partition, profile
from .sheets import GroupKind, Levi, MaxLevi, SheetDescriptor, parse_kind

TABLE1_NAME = "table1.json"
TABLE2_NAME = "table2.json"
TABLE2_MAX_N = 12


def data_dir() -> Path:
    return Path(__file__).resolve().parent / "data"


def _json_mode(args) -> bool:
    return bool(getattr(args, "json", False)) or os.environ.get("SHEET_ATLAS_JSON") == "1"


def _rational(text: str, field: str) -> Fraction:
    """A rational number as Fraction reads it: 5, 7/5, 0.5 or 1e3.  Other
    text, and a zero denominator, are refused by the field's name ``field``.
    With L = sys.get_int_max_str_digits(), a decimal exponent beyond L (slow
    to build) and a numerator or denominator of more than L digits, as
    written or as read (too long to print), are refused before any work."""
    mantissa, e, exponent = text.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "")
    limit = sys.get_int_max_str_digits()
    if e and limit and digits.isdecimal() and (len(digits) > limit or int(digits) > limit):
        raise ValueError("decimal exponent beyond %d in a rational input" % limit)
    if limit and len(text) > limit and any(sum(map(str.isdecimal, p)) > limit for p in (mantissa if e else text).split("/")):
        raise ValueError("more than %d digits in a rational input" % limit)
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in the rational input %r" % text) from None
    except ValueError:
        raise ValueError("%s takes rational numbers such as 5, 7/5, 0.5 or 1e3, got %r" % (field, text)) from None
    big = max(abs(value.numerator), value.denominator)
    # 2^(3L) < 10^L, so the power is built only for a value of more than 3L bits
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise ValueError("more than %d digits in a rational input" % limit)
    return value


def _ints(text: str, field: str, count=None, form="comma-separated integers, e.g. 2,1,1 or 1,1", got=None) -> List[int]:
    """The comma-separated integers of one field (``count`` of them if given),
    or a refusal by its name and format quoting ``got`` (if given) or ``text``."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        values = []
    if values and count in (None, len(values)):
        return values
    raise ValueError("%s must be %s, got %r" % (field, form, text if got is None else got))


def _partition(text: str, field: str) -> Partition:
    """The partition of one field, its parts comma-separated, or a refusal
    by the field's name ``field``."""
    values = _ints(text, field)
    if min(values) >= 1:
        return Partition(values)
    raise ValueError("%s must be a partition, integers >= 1 such as 2,1,1, got %r" % (field, text))


def _parse_levi(kind: GroupKind, text: Optional[str], field: str = "--levi") -> Optional[Levi]:
    """The Levi named by ``text``, or None for no text: the parts of a
    partition in type A, ``a,res`` (one GL_a block and the residual)
    otherwise.  A malformed label is refused by the field's name ``field``."""
    if text is None:
        return None
    if kind.family == "A":
        return Levi(_partition(text, field), 0)
    values = _ints(text, field)
    if len(values) == 2 and values[0] >= 1 and values[1] >= 0:
        return MaxLevi(*values)
    raise ValueError("%s must be a,res with integers a >= 1 and res >= 0, got %r" % (field, text))


def _group_kind(args) -> GroupKind:
    """The group of --kind and --rank.  F4 has rank 4: an explicit other
    rank is refused, not ignored."""
    if args.kind == "F4" and args.rank not in (None, 4):
        raise ValueError("F4 has rank 4, not %d" % args.rank)
    return GroupKind(args.kind, 0 if args.rank is None else args.rank)


def _parse_sheet_spec(spec: str) -> SheetDescriptor:
    """Compact sheet ids: 'C:2:1,1', 'A:4:2,1,1', 'F4'."""
    bits = spec.split(":")
    if bits[0].strip().upper() == "F4":
        if len(bits) > 1:
            raise ValueError("the F4 sheet spec is 'F4' alone: F4 has one classified sheet and rank 4")
        return sheets.f4_b3_sheet()
    try:
        kind_text, rank_text, levi_text = bits
        int(rank_text)
    except ValueError:  # not three fields, or a RANK that is no integer
        raise ValueError("sheet spec must be KIND:RANK:LEVI, e.g. C:2:1,1") from None
    if len(kind_text.strip()) != 1:
        raise ValueError("the KIND of a sheet spec KIND:RANK:LEVI is one letter, A, B, C or D, got %r" % kind_text)
    kind = parse_kind(kind_text + rank_text)
    return sheets.find_sheet(kind, _parse_levi(kind, levi_text, "the LEVI of a sheet spec KIND:RANK:LEVI"))


def _print_table(rows):
    """rows() gives the rows, header first, afresh on each call: one pass
    takes the column widths and the next writes them, holding no table."""
    walk = rows()
    widths = [*map(len, next(walk))]
    for r in walk:
        widths = [*map(max, widths, map(len, r))]
    # each cell left-justified to its column's width
    line = "  ".join("%%-%ds" % w for w in widths) + "\n"
    write = sys.stdout.write
    walk = rows()
    head = line % next(walk)
    write(head + "-" * (len(head) - 1) + "\n")
    for r in walk:
        write(line % r)


def cmd_sheets(args) -> int:
    kind = _group_kind(args)
    levi = _parse_levi(kind, args.levi)
    # a refusal raises before the first piece is written, and the table also
    # checks every record in the pass that takes its widths: stdout stays empty
    if _json_mode(args):
        write = sys.stdout.write
        for piece in sheets.listing_json(kind, levi):
            write(piece)
        write("\n")
    else:
        _print_table(sheets.listing_rows(kind, levi))
    return 0


def cmd_sheet_info(args) -> int:
    kind = _group_kind(args)
    desc = sheets.find_sheet(kind, _parse_levi(kind, args.levi))
    print(sheets.record_json(desc))
    return 0


def _verify_lines(checks, json_mode: bool, extra_payload=None) -> int:
    failed = [name for name, ok, _ in checks if not ok]
    if json_mode:
        payload = {
            "checks": [{"name": name, "ok": ok, "detail": detail} for name, ok, detail in checks],
            "all_passed": not failed,
        }
        if extra_payload:
            payload.update(extra_payload)
        print(json.dumps(payload, indent=2))
    else:
        for name, ok, detail in checks:
            print("%s  %s (%s)" % ("PASS" if ok else "FAIL", name, detail))
    if failed:
        print("failed: %s" % ", ".join(failed), file=sys.stderr)
        return 1
    return 0


def cmd_triple_verify(args) -> int:
    case = args.case
    json_mode = _json_mode(args)
    if case == "sp4-slice":
        return _verify_sp4_slice(args, json_mode)
    if case.startswith("gl:"):
        m1, m2 = _ints(case[3:], "--case", 2, "gl:m1,m2 with integers m1 and m2", case)
        if not m1 >= m2 >= 1:
            raise ValueError("--case must be gl:m1,m2 with integers m1 >= m2 >= 1, got %r" % case)
        trip = triples.build_gl_triple(m1, m2)
        kind, levi = sheets.type_a(m1 + m2), Levi(Partition((m1, m2)), 0)
    elif case.startswith("bcd:"):
        fam, _, tail = case[4:].partition(",")
        a, res = _ints(tail, "--case", 2, "bcd:KIND,a,res with integers a and res", case)
        if a < 1 or res < 0:
            raise ValueError("--case must be bcd:KIND,a,res with integers a >= 1 and res >= 0, got %r" % case)
        kind, levi = _bcd_kind(fam, a, res), MaxLevi(a, res)
        trip = triples.build_bcd_triple(kind, levi)
    else:
        raise ValueError("unknown case %r; use gl:m1,m2 | bcd:kind,a,res | sp4-slice" % case)
    expected = sheets.find_sheet(kind, levi).d
    checks = trip.checks()
    got = centralizer_dim(trip.e, trip.model)
    checks.append(("centraliser dim = dim L", got == expected, "%d vs %d" % (got, expected)))
    extra = {"matrices": _triple_json(trip)} if args.matrices else None
    return _verify_lines(checks, json_mode, extra)


def _bcd_kind(fam: str, a: int, res: int) -> GroupKind:
    fam = fam.upper()
    if fam == "C":
        return sheets.type_c(a + res)
    if fam == "B":
        return sheets.type_b((2 * a + res - 1) // 2)
    if fam == "D":
        return sheets.type_d((2 * a + res) // 2)
    raise ValueError("bcd kind must be B, C or D")


def _triple_json(trip: triples.Sl2Triple) -> dict:
    out = {
        "e": trip.e.to_json(),
        "h": trip.h.to_json(),
        "f": trip.f.to_json(),
        "flag_dims": list(trip.flag_dims),
        "abelianization_value": str(trip.abelianization_value),
    }
    if trip.h_prime is not None:
        out["h_prime"] = trip.h_prime.to_json()
    return out


def _verify_sp4_slice(args, json_mode: bool) -> int:
    as_printed = args.as_printed
    t = triples.formal_t()
    x = triples.sp4_slice(t, as_printed=as_printed)
    model = triples.sp4_model()
    target = spectral.sp4_dix_image(t)
    cp = char_poly(x)
    checks = [
        ("symplectic membership (symbolic t)", in_algebra(x, model), "x_t^T J + J x_t = 0"),
        ("char poly is the sheet image", cp == target, "%s" % cp),
    ]
    for tv in (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-1)):
        cpv = char_poly(triples.sp4_slice(tv, as_printed=as_printed))
        checks.append(("char poly at t = %s" % tv, cpv == spectral.sp4_dix_image(tv), str(cpv)))
    x0 = triples.sp4_slice(Fraction(0), as_printed=as_printed)
    checks.append(("x_0 = e/4", x0 == triples.sp4_e().scale(Fraction(1, 4)), "nilpotent base point"))
    flipped = triples.sp4_flip_action(t, as_printed=as_printed)
    checks.append(("flip conjugation negates t", flipped == triples.sp4_slice(-t, as_printed=as_printed), "symbolic"))
    extra = {"x_t": x.to_json(), "as_printed": as_printed} if args.matrices else None
    return _verify_lines(checks, json_mode, extra)


def cmd_hitchin_dim(args) -> int:
    kind = _group_kind(args)
    g = args.genus
    if args.levi is not None:
        # a request for a sheet record is refused beyond the rank bound
        # before anything is computed; the base dimension alone is a closed
        # form and is answered at any rank
        sheets.check_rank(kind)
    payload = {"kind": str(kind), "genus": g, "dim_base": hitchin.dim_hitchin_base(kind, g)}
    if args.levi is not None:
        desc = sheets.find_sheet(kind, _parse_levi(kind, args.levi))
        weights = hitchin.slice_weights(desc)
        payload.update(
            {
                "sheet": desc.name,
                "dim_s_base": hitchin.dim_s_hitchin_base(desc, g),
                "components": hitchin.component_count(desc.katsylo_order, g),
                "cameral_degree": hitchin.s_cameral_degree(desc) if desc.dixmier else None,
                "weights": list(weights.weights),
            }
        )
    if args.levi is not None or _json_mode(args):
        _print_payload(args, payload)
    else:
        print(payload["dim_base"])
    return 0


def cmd_mu_s(args) -> int:
    m = _partition(args.profile, "--profile")
    # the profile of m lives in gl_n, n = |m|: refused beyond the rank bound
    # before the profile (one count per integer up to the largest part) is built
    sheets.check_rank(sheets.type_a(m.n))
    prof = profile(m)
    factor_chunks = args.factors.split(";") if args.factors else []
    if len(factor_chunks) != prof.s:
        raise ValueError("--factors has %d factors where profile %s needs %d (one per part size up to %d), got %r"
                         % (len(factor_chunks), m, prof.s, prof.s, args.factors))
    factors = []
    for i, chunk in enumerate(factor_chunks, start=1):
        coeffs = chunk.split(",") if chunk.strip() else []  # an empty factor, for l_i = 0
        if not all(map(str.strip, coeffs)):
            raise ValueError("--factors has an empty coefficient in factor %d, got %r" % (i, args.factors))
        coeffs = [_rational(v, "--factors") for v in coeffs]
        if len(coeffs) != prof.l(i):
            raise ValueError("factor %d of --factors has %d coefficients where profile %s needs l_%d = %d, got %r"
                             % (i, len(coeffs), m, i, prof.l(i), args.factors))
        factors.append(spectral.GradedPolynomial(coeffs))
    point = spectral.SheetBasePoint(prof, factors)
    image = spectral.mu_s(point)
    minimal = spectral.min_poly(point)
    heart = spectral.in_heart(point)
    if _json_mode(args):
        print(
            json.dumps(
                {
                    "profile": prof.to_json(),
                    "factors": [f.to_json() for f in factors],
                    "image": image.to_json(),
                    "min_poly": minimal.to_json(),
                    "in_heart": heart,
                },
                indent=2,
            )
        )
    else:
        print("image:    %s" % image)
        print("min poly: %s" % minimal)
        print("in heart: %s" % heart)
    return 0


def cmd_multiplicity(args) -> int:
    desc = _parse_sheet_spec(args.sheet)
    z = [_rational(v, "--z") for v in args.z.split(",")] if args.z is not None else [Fraction(0)] * desc.dim_z
    point = multiplicity.SlicePoint(desc, z if len(z) > 1 else z[0])
    payload = {
        "sheet": desc.name,
        "z": [str(v) for v in point.z],
        "mu": multiplicity.orbit_method_multiplicity(point),
        "inertia_order": multiplicity.inertia_order(point),
        "polarisation_count": multiplicity.polarisation_orbit_count(desc) if desc.dixmier else None,
    }
    _print_payload(args, payload)
    return 0


def cmd_realform(args) -> int:
    label = realforms.parse_real_form(args.label)
    report = realforms.sheet_of_real_form(label, genus=args.genus)
    payload = report.to_json()
    payload["abelianised_fibres_positive_dimensional"] = realforms.abelianized_fiber_dim_is_positive(label)
    _print_payload(args, payload)
    return 0


def _print_payload(args, payload: dict) -> None:
    """The payload as indented JSON, or one "key: value" line per entry."""
    if _json_mode(args):
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print("%s: %s" % (key, value))


def render_table1() -> str:
    rows = "".join(sheets.records_json(sheets.sheets_sp4(), 1))
    return '{\n  "table": "sp4_sheets",\n  "rows": %s\n}\n' % rows


def render_table2(max_n: int = TABLE2_MAX_N) -> str:
    rows = "".join(sheets.records_json(sheets.all_max_levi_sheets(max_n), 1))
    return '{\n  "table": "maximal_levi_sheets",\n  "max_n": %d,\n  "rows": %s\n}\n' % (max_n, rows)


def cmd_fixtures(args) -> int:
    if args.out_dir == "":
        raise ValueError("--out-dir must name a directory, got ''")
    out_dir = data_dir() if args.out_dir is None else Path(args.out_dir)
    if args.regen:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / TABLE1_NAME).write_text(render_table1())
        (out_dir / TABLE2_NAME).write_text(render_table2())
        print("wrote %s and %s in %s" % (TABLE1_NAME, TABLE2_NAME, out_dir), file=sys.stderr)
        return 0
    # default: check committed fixtures against a fresh render
    ok = True
    for name, rendered in ((TABLE1_NAME, render_table1()), (TABLE2_NAME, render_table2())):
        path = out_dir / name
        if not path.exists() or path.read_text() != rendered:
            ok = False
            print("stale fixture: %s" % path, file=sys.stderr)
    print("fixtures %s" % ("up to date" if ok else "STALE"))
    return 0 if ok else 1


# Every subcommand once: name -> (handler, help, options by flag).  An option
# is (flag, dest, type, choices, required, help), where type is int or str,
# or bool for a store_true flag.  _parse decides plain requests from this
# table, and build_parser builds the argparse parser from it for the rest.
_JSON = ("--json", "json", bool, None, False, "JSON output (also SHEET_ATLAS_JSON=1)")
_GROUP = (
    ("--kind", "kind", str, ("A", "B", "C", "D", "F4"), True, None),
    ("--rank", "rank", int, None, False, None),
    ("--levi", "levi", str, None, False, "partition for A (e.g. 2,1,1) or a,residual for B/C/D"),
)


def _options(*options):
    """A command's options by flag, ``--json`` first."""
    return {option[0]: option for option in (_JSON, *options)}


COMMANDS = {
    "sheets": (cmd_sheets, "list classified sheets of one group", _options(*_GROUP)),
    "sheet-info": (cmd_sheet_info, "full JSON record of one sheet", _options(*_GROUP)),
    "triple-verify": (cmd_triple_verify, "verify an sl2-triple or slice construction", _options(
        ("--case", "case", str, None, True, "gl:m1,m2 | bcd:kind,a,res | sp4-slice"),
        ("--as-printed", "as_printed", bool, None, False, "use the as-printed slice entry t^2"),
        ("--matrices", "matrices", bool, None, False, "include matrices in JSON output"),
    )),
    "hitchin-dim": (cmd_hitchin_dim, "base dimensions, components, weights", _options(
        *_GROUP,
        ("--genus", "genus", int, None, True, None),
    )),
    "mu-s": (cmd_mu_s, "compose factor polynomials into the full base", _options(
        ("--profile", "profile", str, None, True, "the Levi partition, e.g. 2,1,1"),
        ("--factors", "factors", str, None, True, "semicolon-separated coefficient lists (a_1..a_l per factor)"),
    )),
    "multiplicity": (cmd_multiplicity, "orbit-method multiplicity at a slice point", _options(
        ("--sheet", "sheet", str, None, True, "sheet spec KIND:RANK:LEVI, e.g. C:2:1,1"),
        ("--z", "z", str, None, False, "slice coordinate(s), e.g. 5 or 0,1"),
    )),
    "realform": (cmd_realform, "sheet and abelianisation report for a real form", _options(
        ("--label", "label", str, None, True, "SU:p,q or SOSTAR:n (for SO*(2n))"),
        ("--genus", "genus", int, None, False, None),
    )),
    "fixtures": (cmd_fixtures, "regenerate or check the golden tables", _options(
        ("--regen", "regen", bool, None, False, None),
        ("--out-dir", "out_dir", str, None, False, None),
    )),
}


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of COMMANDS.  It answers what _parse leaves:
    help, abbreviated options, ``--`` and every parse error (exit 2)."""
    import argparse

    parser = argparse.ArgumentParser(prog="sheet-atlas", description="Sheets, slices and spectral data, exactly.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, dest, kind, choices, required, help in options.values():
            if kind is bool:
                p.add_argument(flag, action="store_true", dest=dest, help=help)
            else:
                p.add_argument(flag, type=None if kind is str else kind, choices=choices, required=required, dest=dest, help=help)
        p.set_defaults(func=func)
    return parser


def _parse(argv):
    """The parsed request, as argparse would give it, or None to leave argv
    to argparse.  Decided here: the command's name, then exact long options
    of that command only, each written ``--opt value`` (a value that does not
    start with ``-``), ``--opt=value`` (a value other than ``--``) or a bare
    flag, whose values pass their type and choices, with every required
    option given.  A repeated option keeps its last value, as in argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        option = options.get(flag)
        if option is None:
            return None
        _, dest, kind, choices, _, _ = option
        if kind is bool:
            if eq:
                return None
            values[dest] = True
            continue
        if not eq:
            value = next(tokens, "-")  # a missing value is left to argparse
            if value.startswith("-"):
                return None
        elif value == "--":  # which argparse reads as no value
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    for _, dest, kind, _, required, _ in options.values():
        if dest not in values:
            if required:
                return None
            values[dest] = False if kind is bool else None
    return SimpleNamespace(command=argv[0], func=func, **values)


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader of stdout has gone (``| head``): as the Python docs
        # advise, stdout is pointed at devnull so the flush at exit cannot
        # raise again, and the exit code is 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
