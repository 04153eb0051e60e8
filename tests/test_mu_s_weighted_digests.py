"""``mu-s`` answers whose factors clear to a large weighted denominator are
byte-identical to their recorded output.

``tests/golden/mu_s_weighted_digests.json`` holds the sha256 of stdout of
``mu-s``, as text and with ``--json``, for three points whose coefficients
have denominators that grow with the weight: the CI's degree-160 factor with
a repeated root, the product of 40 factors λ - a/b drawn by the seed-3301
case of ``tests/test_scalars.py``, and λ^2 + 1/4.  Every coefficient of an
answer goes back to a reduced Fraction, so the digests hold whatever
common denominator the factors are cleared by.  Regenerate the file (only
when the output is meant to change) with

    PYTHONPATH=src python tests/test_mu_s_weighted_digests.py > tests/golden/mu_s_weighted_digests.json
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce
from io import StringIO
from pathlib import Path

from sheet_atlas import cli

from oracles import seed_3301_inputs

GOLDEN = Path(__file__).parent / "golden" / "mu_s_weighted_digests.json"


def degree_160_factor():
    """The coefficients after the leading 1 of the CI's degree-160 factor:
    159 roots a/b with |a| <= 60 and b <= 9 drawn by random.Random(7), the
    first one doubled, multiplied in one at a time as the workflow does."""
    r = random.Random(7)
    a = [Fraction(r.randint(-60, 60), r.randint(1, 9)) for _ in range(159)]
    c = reduce(lambda c, x: [u - x * v for u, v in zip(c + [0], [0] + c)], a + a[:1], [Fraction(1)])
    return c[1:]


def cases() -> dict:
    """{name: (profile, factors argument)} for each recorded point."""
    out = {}
    for name, coeffs in (("degree 160", degree_160_factor()), ("seed 3301", seed_3301_inputs()[1])):
        out[name] = (",".join(["1"] * len(coeffs)), ",".join(map(str, coeffs)))
    out["square plus 1/4"] = ("1,1", "0,1/4")
    return out


def _digest(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    if (code, err.getvalue()) != (0, ""):
        raise RuntimeError("%s failed: %s" % (argv[:3], err.getvalue()))
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def digests() -> dict:
    """{"<name> text|json": sha256 of stdout} for every case."""
    recorded = {}
    for name, (profile, factors) in cases().items():
        for form, extra in (("text", []), ("json", ["--json"])):
            recorded["%s %s" % (name, form)] = _digest(["mu-s", "--profile", profile, "--factors=" + factors, *extra])
    return recorded


def test_mu_s_weighted_digests_match_recorded(monkeypatch):
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    assert digests() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
