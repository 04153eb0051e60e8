"""Command-line front end: every library operation with table or JSON output.

Data goes to stdout, diagnostics to stderr.  Exit status 0 on success, 1 on
a domain error (invalid label, precondition failure), 2 on a parse error.
Setting SHEET_ATLAS_JSON=1 forces JSON output.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

from . import hitchin, multiplicity, realforms, sheets, spectral, triples
from .liealg import centralizer_dim, char_poly, in_algebra
from .partitions import Partition, profile
from .sheets import (
    GLLevi,
    GroupKind,
    MaxLevi,
    SheetDescriptor,
    parse_kind,
)

TABLE1_NAME = "table1.json"
TABLE2_NAME = "table2.json"
TABLE2_MAX_N = 12


def data_dir() -> Path:
    return Path(__file__).resolve().parent / "data"


def _json_mode(args) -> bool:
    return bool(getattr(args, "json", False)) or os.environ.get("SHEET_ATLAS_JSON") == "1"


def _parse_levi(kind: GroupKind, text: Optional[str]):
    if text is None:
        return None
    parts = [int(v) for v in text.split(",")]
    if kind.family == "A":
        return GLLevi(Partition(parts))
    if len(parts) != 2:
        raise ValueError("B/C/D Levi labels are 'a,residual'")
    return MaxLevi(parts[0], parts[1])


def _parse_sheet_spec(spec: str) -> SheetDescriptor:
    """Compact sheet ids: 'C:2:1,1', 'A:4:2,1,1', 'F4'."""
    bits = spec.split(":")
    if bits[0].strip().upper() == "F4":
        return sheets.f4_b3_sheet()
    if len(bits) != 3:
        raise ValueError("sheet spec must be KIND:RANK:LEVI, e.g. C:2:1,1")
    kind = parse_kind(bits[0] + bits[1])
    return sheets.find_sheet(kind, _parse_levi(kind, bits[2]))


def _print_table(rows: List[List[str]], header: List[str]):
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def _descriptor_rows(descs: List[SheetDescriptor]) -> List[List[str]]:
    rows = []
    for d in descs:
        orbit = d.nilpotent_orbit if isinstance(d.nilpotent_orbit, str) else str(d.nilpotent_orbit)
        rows.append(
            [
                d.name or "",
                d.decomposition_data,
                orbit,
                str(d.d),
                str(d.dim_z),
                str(d.w_l_order),
                str(d.katsylo_order),
                str(d.dim_sheet),
                d.class_tag or "-",
            ]
        )
    return rows


DESCRIPTOR_HEADER = ["sheet", "decomposition", "orbit", "d", "dim_z", "|W_L|", "|F|", "dim", "class"]


def cmd_sheets(args) -> int:
    kind = GroupKind(args.kind, args.rank if args.kind != "F4" else 4)
    if args.levi:
        descs = [sheets.find_sheet(kind, _parse_levi(kind, args.levi))]
    else:
        descs = sheets.sheets_for(kind)
    if _json_mode(args):
        # every record is built before the first is written, so a request
        # that fails leaves stdout empty
        write = sys.stdout.write
        for piece in sheets.records_json(descs):
            write(piece)
        write("\n")
    else:
        _print_table(_descriptor_rows(descs), DESCRIPTOR_HEADER)
    return 0


def cmd_sheet_info(args) -> int:
    kind = GroupKind(args.kind, args.rank if args.kind != "F4" else 4)
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
        m1, m2 = (int(v) for v in case[3:].split(","))
        trip = triples.build_gl_triple(m1, m2)
        expected = m1 * m1 + m2 * m2
    elif case.startswith("bcd:"):
        fam, a, res = case[4:].split(",")
        kind = _bcd_kind(fam, int(a), int(res))
        levi = MaxLevi(int(a), int(res))
        trip = triples.build_bcd_triple(kind, levi)
        expected = sheets.max_levi_dim(kind, levi)
    else:
        raise ValueError("unknown case %r; use gl:m1,m2 | bcd:kind,a,res | sp4-slice" % case)
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
    kind = GroupKind(args.kind, args.rank if args.kind != "F4" else 4)
    g = args.genus
    payload = {"kind": str(kind), "genus": g, "dim_base": hitchin.dim_hitchin_base(kind, g)}
    if args.levi:
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
    if _json_mode(args):
        print(json.dumps(payload, indent=2))
    elif args.levi:
        for key, value in payload.items():
            print("%s: %s" % (key, value))
    else:
        print(payload["dim_base"])
    return 0


def cmd_mu_s(args) -> int:
    m = Partition(int(v) for v in args.profile.split(","))
    prof = profile(m)
    factor_chunks = args.factors.split(";") if args.factors else []
    if len(factor_chunks) != prof.s:
        raise ValueError("expected %d factors for profile of %s, got %d" % (prof.s, m, len(factor_chunks)))
    factors = []
    for i, chunk in enumerate(factor_chunks, start=1):
        coeffs = [Fraction(v) for v in chunk.split(",") if v.strip() != ""]
        if len(coeffs) != prof.l(i):
            raise ValueError("factor %d needs %d coefficients, got %d" % (i, prof.l(i), len(coeffs)))
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
    z = [Fraction(v) for v in args.z.split(",")] if args.z is not None else [Fraction(0)] * desc.dim_z
    point = multiplicity.SlicePoint(desc, z if len(z) > 1 else z[0])
    payload = {
        "sheet": desc.name,
        "z": [str(v) for v in point.z],
        "mu": multiplicity.orbit_method_multiplicity(point),
        "inertia_order": multiplicity.inertia_order(point),
        "polarisation_count": multiplicity.polarisation_orbit_count(desc) if desc.dixmier else None,
    }
    if _json_mode(args):
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print("%s: %s" % (key, value))
    return 0


def cmd_realform(args) -> int:
    label = realforms.parse_real_form(args.label)
    report = realforms.sheet_of_real_form(label, genus=args.genus)
    payload = report.to_json()
    payload["abelianised_fibres_positive_dimensional"] = realforms.abelianized_fiber_dim_is_positive(label)
    if _json_mode(args):
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print("%s: %s" % (key, value))
    return 0


def render_table1() -> str:
    rows = "".join(sheets.records_json(sheets.sheets_sp4(), 1))
    return '{\n  "table": "sp4_sheets",\n  "rows": %s\n}\n' % rows


def render_table2(max_n: int = TABLE2_MAX_N) -> str:
    rows = "".join(sheets.records_json(sheets.all_max_levi_sheets(max_n), 1))
    return '{\n  "table": "maximal_levi_sheets",\n  "max_n": %d,\n  "rows": %s\n}\n' % (max_n, rows)


def cmd_fixtures(args) -> int:
    out_dir = Path(args.out_dir) if args.out_dir else data_dir()
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sheet-atlas", description="Sheets, slices and spectral data, exactly.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="JSON output (also SHEET_ATLAS_JSON=1)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("sheets", help="list classified sheets of one group")
    p.add_argument("--kind", required=True, choices=["A", "B", "C", "D", "F4"])
    p.add_argument("--rank", type=int, default=0)
    p.add_argument("--levi", help="partition for A (e.g. 2,1,1) or a,residual for B/C/D")
    p.set_defaults(func=cmd_sheets)

    p = add_parser("sheet-info", help="full JSON record of one sheet")
    p.add_argument("--kind", required=True, choices=["A", "B", "C", "D", "F4"])
    p.add_argument("--rank", type=int, default=0)
    p.add_argument("--levi")
    p.set_defaults(func=cmd_sheet_info)

    p = add_parser("triple-verify", help="verify an sl2-triple or slice construction")
    p.add_argument("--case", required=True, help="gl:m1,m2 | bcd:kind,a,res | sp4-slice")
    p.add_argument("--as-printed", action="store_true", dest="as_printed", help="use the as-printed slice entry t^2")
    p.add_argument("--matrices", action="store_true", help="include matrices in JSON output")
    p.set_defaults(func=cmd_triple_verify)

    p = add_parser("hitchin-dim", help="base dimensions, components, weights")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--kind", required=True, choices=["A", "B", "C", "D", "F4"])
    p.add_argument("--rank", type=int, default=0)
    p.add_argument("--levi")
    p.set_defaults(func=cmd_hitchin_dim)

    p = add_parser("mu-s", help="compose factor polynomials into the full base")
    p.add_argument("--profile", required=True, help="the Levi partition, e.g. 2,1,1")
    p.add_argument("--factors", required=True, help="semicolon-separated coefficient lists (a_1..a_l per factor)")
    p.set_defaults(func=cmd_mu_s)

    p = add_parser("multiplicity", help="orbit-method multiplicity at a slice point")
    p.add_argument("--sheet", required=True, help="sheet spec KIND:RANK:LEVI, e.g. C:2:1,1")
    p.add_argument("--z", help="slice coordinate(s), e.g. 5 or 0,1")
    p.set_defaults(func=cmd_multiplicity)

    p = add_parser("realform", help="sheet and abelianisation report for a real form")
    p.add_argument("--label", required=True, help="SU:p,q or SOSTAR:n (for SO*(2n))")
    p.add_argument("--genus", type=int)
    p.set_defaults(func=cmd_realform)

    p = add_parser("fixtures", help="regenerate or check the golden tables")
    p.add_argument("--regen", action="store_true")
    p.add_argument("--out-dir")
    p.set_defaults(func=cmd_fixtures)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    # The parser depends on nothing per request; build it on the first call
    # (not at import) and reuse it for the life of the process.
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
