"""``mu-s`` transcripts are byte-identical to their recorded output.

``tests/golden/mu_s_transcripts.json`` holds stdout of ``mu-s``, as text
and with ``--json``, for every profile with n <= 8 and two seeded points
each: random rational coefficients (denominators up to 12, some zero) and
factors built from rational roots (denominators up to 12) with a repeated
root in every factor of degree two or more.  Profiles with a gap have an
empty factor.  Regenerate it (only when the output is meant to change) with

    PYTHONPATH=src python tests/test_mu_s_transcripts.py > tests/golden/mu_s_transcripts.json
"""
from __future__ import annotations

import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

from sheet_atlas import cli

from oracles import expand_roots

GOLDEN = Path(__file__).parent / "golden" / "mu_s_transcripts.json"
MAX_N = 8


def _partitions(n, largest=None):
    """Partitions of n with parts at most ``largest``, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _counts(parts):
    """l_1, ..., l_s: the number of parts equal to each i."""
    return [parts.count(i) for i in range(1, parts[0] + 1)]


def _rational(rng):
    return Fraction(rng.randint(-12, 12), rng.randint(1, 12))


def _factor_text(coeffs):
    return ",".join(str(c) for c in coeffs)


def cases():
    """{"<parts> <point>": factors argument} for every profile with n <= 8."""
    rng = random.Random(20261018)
    out = {}
    for n in range(1, MAX_N + 1):
        for parts in _partitions(n):
            label = ",".join(map(str, parts))
            coeffs = []
            for li in _counts(parts):
                coeffs.append([Fraction(0) if rng.random() < 0.3 else _rational(rng) for _ in range(li)])
            out["%s coeffs" % label] = ";".join(map(_factor_text, coeffs))
            factors = []
            for li in _counts(parts):
                roots = [_rational(rng) for _ in range(li)]
                if li >= 2:
                    roots[-1] = roots[0]
                factors.append(expand_roots(roots)[1:])
            out["%s roots" % label] = ";".join(map(_factor_text, factors))
    return out


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    if (code, err.getvalue()) != (0, ""):
        raise RuntimeError("%s failed: %s" % (argv, err.getvalue()))
    return out.getvalue()


def transcripts() -> dict:
    """{"<parts> <point> text|json": {"argv", "stdout"}} for every case."""
    recorded = {}
    for key, factors in cases().items():
        parts = key.split()[0]
        for form, extra in (("text", []), ("json", ["--json"])):
            argv = ["mu-s", "--profile", parts, "--factors=" + factors, *extra]
            recorded["%s %s" % (key, form)] = {"argv": argv, "stdout": _run(argv)}
    return recorded


def test_mu_s_transcripts_match_recorded(monkeypatch):
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = transcripts()
    assert sorted(got) == sorted(golden)
    for key, entry in golden.items():
        assert got[key] == entry, key


def test_mu_s_transcripts_cover_the_listed_shapes():
    """Every profile with n <= 8 appears; the points include empty factors,
    zero coefficients, denominators of 12 and both heart answers."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    profiles = {key.split()[0] for key in golden}
    assert profiles == {",".join(map(str, p)) for n in range(1, MAX_N + 1) for p in _partitions(n)}
    assert len(profiles) == 66
    args = [entry["argv"][3] for entry in golden.values()]
    assert any(";;" in a or a.startswith("--factors=;") for a in args)
    assert any(",0," in a or ";0" in a for a in args)
    assert any("/12" in a for a in args)
    hearts = {entry["stdout"].rsplit(" ", 1)[-1] for key, entry in golden.items() if key.endswith("text")}
    assert hearts == {"True\n", "False\n"}


if __name__ == "__main__":
    json.dump(transcripts(), sys.stdout, indent=1, sort_keys=True, ensure_ascii=False)
    sys.stdout.write("\n")
