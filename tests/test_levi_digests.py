"""Requests that name a Levi subgroup answer byte for byte as recorded.

``tests/golden/levi_request_digests.json`` holds, for a fixed sweep of
requests, the sha256 of the exit code and stdout of each request that is
answered, and the number of requests and the sha256 of their list.  Every
other request of the sweep must be refused: exit 1, empty stdout and an
``error:`` line on stderr.  The sweep, each request bare and with
``--json``:

- ``sheets``, ``sheet-info``, ``hitchin-dim --genus 2 --levi`` and
  ``multiplicity --sheet`` for B, C and D at ranks 1 to 6, with every
  ``--levi a,res`` for 0 <= a <= r + 1 and res in {0, 1, 2, 3, r - a,
  2r - 2a, 2r + 1 - 2a}, plus each group's whole ``sheets`` listing;
- the same for type A at n <= 6, with every partition of n and a few
  labels that are not partitions of n, and for F4 with no label and one;
- ``realform`` for SU(p, q), p + q <= 8, and SO*(6), SO*(10), SO*(14),
  with and without ``--genus 2``.

Regenerate the file (only when the output is meant to change) with

    PYTHONPATH=src python tests/test_levi_digests.py > tests/golden/levi_request_digests.json
"""
from __future__ import annotations

import hashlib
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from sheet_atlas import cli
from sheet_atlas.partitions import partitions_of

GOLDEN = Path(__file__).parent / "golden" / "levi_request_digests.json"


def _bcd_labels(r: int):
    """The ``a,res`` texts swept for a B/C/D group of rank r."""
    for a in range(r + 2):
        for res in sorted({0, 1, 2, 3, r - a, 2 * r - 2 * a, 2 * r + 1 - 2 * a}):
            yield "%d,%d" % (a, res)


def _type_a_labels(n: int):
    yield from (",".join(map(str, m.parts)) for m in partitions_of(n))
    yield from ("%d,0" % n, "%d" % (n + 1), "0", "%d,-1" % (n + 1))


def _group_requests(kind: str, rank: int, labels):
    group = ["--kind", kind, "--rank", str(rank)]
    yield ["sheets", *group]
    yield ["sheet-info", *group]
    yield ["hitchin-dim", "--genus", "2", *group]
    for levi in labels:
        yield ["sheets", *group, "--levi", levi]
        yield ["sheet-info", *group, "--levi", levi]
        yield ["hitchin-dim", "--genus", "2", *group, "--levi", levi]
        yield ["multiplicity", "--sheet", "%s:%d:%s" % (kind, rank, levi)]


def requests():
    """Every request of the sweep, without ``--json``."""
    for kind in "BCD":
        for r in range(1, 7):
            yield from _group_requests(kind, r, _bcd_labels(r))
    for n in range(1, 7):
        yield from _group_requests("A", n, _type_a_labels(n))
    yield ["sheets", "--kind", "F4"]
    yield ["sheet-info", "--kind", "F4"]
    yield ["sheet-info", "--kind", "F4", "--levi", "1,2"]
    yield ["hitchin-dim", "--genus", "2", "--kind", "F4"]
    yield ["multiplicity", "--sheet", "F4"]
    labels = ["SU:%d,%d" % (p, s - p) for s in range(1, 9) for p in range(s + 1)]
    for label in labels + ["SOSTAR:3", "SOSTAR:5", "SOSTAR:7"]:
        yield ["realform", "--label", label]
        yield ["realform", "--label", label, "--genus", "2"]


def _answer(argv):
    """Exit code, sha256 of the exit code and stdout, and stderr of one
    in-process request."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    digest = hashlib.sha256(("%d\n%s" % (code, out.getvalue())).encode("utf-8")).hexdigest()
    return code, digest, err.getvalue()


# the digest of a refusal: exit code 1 and nothing on stdout
_REFUSED = hashlib.sha256(b"1\n").hexdigest()


def request_digests() -> dict:
    """The sweep's size and sha256, and {request: sha256} for every request
    it answers, each request bare and with --json; a refusal without an
    ``error:`` line on stderr raises RuntimeError."""
    sweep, answered = [], {}
    for argv in requests():
        for form in (argv, argv + ["--json"]):
            key = " ".join(form)
            sweep.append(key)
            code, digest, err = _answer(form)
            if code and not err.startswith("error:"):
                raise RuntimeError("%s refused without an error line: %r" % (key, err))
            if digest != _REFUSED:
                answered[key] = digest
    listed = hashlib.sha256("\n".join(sweep).encode("utf-8")).hexdigest()
    return {"sweep": {"requests": len(sweep), "sha256": listed}, "answered": answered}


def test_levi_requests_match_recorded_digests(monkeypatch):
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = request_digests()
    assert got["sweep"] == golden["sweep"]
    answered, recorded = got["answered"], golden["answered"]
    assert sorted(answered.keys() - recorded.keys()) == [], "answered, but recorded as refused"
    assert sorted(recorded.keys() - answered.keys()) == [], "refused, but recorded as answered"
    assert [key for key in recorded if answered[key] != recorded[key]] == []


if __name__ == "__main__":
    json.dump(request_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
