"""One request of each workload against sheet_atlas, and its summary.

``execute`` is the timed part: it turns a generated input into library
objects and calls the public API.  ``summarise`` runs after the timer stops
and reduces the raw answer to strings, ints and lists, the form in which
``gen.check`` compares it with the closed form.

Library functions are always looked up on their module at call time, so a
traced run sees the wrapped versions.
"""
from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from sheet_atlas import cli, liealg, partitions, sheets, spectral, triples
from sheet_atlas.scalars import RatPoly


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def sheet_point(inp):
    """Build the triple, move e to x = z + e with z on the Levi centre, and
    measure x.  Symbolic inputs use z = c t (centre direction) over Q[t]."""
    case, num, den, symbolic = inp
    c = Fraction(num, den)
    if case[0] == "gl":
        _, m1, m2 = case
        trip = triples.build_gl_triple(m1, m2)
        diag = [m2] * m1 + [-m1] * m2
    else:
        _, fam, r, a, res = case
        trip = triples.build_bcd_triple(sheets.GroupKind(fam, r), sheets.MaxLevi(a, res))
        diag = [1] * a + [0] * (trip.e.dim - 2 * a) + [-1] * a
    scale = RatPoly([0, c]) if symbolic else c
    x = trip.e + liealg.RationalMatrix.diagonal([scale * v for v in diag])
    if not symbolic:
        return ("rational", liealg.centralizer_dim(x, trip.model), liealg.char_poly(x))
    t = triples.formal_t()
    slice_t = triples.sp4_slice(t)
    return (
        "symbolic",
        liealg.in_algebra(x, trip.model),
        liealg.char_poly(x),
        liealg.in_algebra(slice_t, triples.sp4_model()),
        liealg.char_poly(slice_t),
        triples.sp4_flip_action(t) == triples.sp4_slice(-t),
    )


def _root(root, symbolic: bool):
    return RatPoly(root) if symbolic else Fraction(root[0], root[1])


def spectral_point(inp):
    parts, factors, symbolic = inp
    prof = partitions.profile(partitions.Partition(parts))
    polys = [spectral.GradedPolynomial.from_roots([_root(r, symbolic) for r in roots]) for roots in factors]
    point = spectral.SheetBasePoint(prof, polys)
    image = spectral.mu_s(point)
    return image, spectral.min_poly(point).divides(image), spectral.in_heart(point)


EXECUTE = {
    "atlas-lookup": run_cli,
    "sheet-points": sheet_point,
    "spectral-compose": spectral_point,
}


def _coeff(v):
    """A scalar as its ascending coefficient strings in t ([] for zero)."""
    if isinstance(v, RatPoly):
        return [str(c) for c in v.coeffs]
    return [str(Fraction(v))] if v else []


def summarise(workload: str, raw):
    if workload == "atlas-lookup":
        return list(raw)
    if workload == "sheet-points":
        if raw[0] == "rational":
            return [raw[1], [str(Fraction(c)) for c in raw[2].coeffs]]
        _, x_in, x_cp, s_in, s_cp, flip = raw
        return [x_in, [_coeff(c) for c in x_cp.coeffs], s_in, [_coeff(c) for c in s_cp.coeffs], flip]
    image, divides, heart = raw
    return [image.degree, divides, heart, ";".join(",".join(_coeff(c)) for c in image.coeffs)]
