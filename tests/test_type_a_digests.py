"""Type A listings are byte-identical to their recorded output.

``tests/golden/type_a_listing_digests.json`` holds the sha256 and byte
length of stdout for ``sheets --kind A --rank n``, as a table and with
``--json``, for n = 1..30 and n = 40.  Regenerate it (only when the output
is meant to change) with

    PYTHONPATH=src python tests/test_type_a_digests.py > tests/golden/type_a_listing_digests.json
"""
from __future__ import annotations

import hashlib
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from sheet_atlas import cli

GOLDEN = Path(__file__).parent / "golden" / "type_a_listing_digests.json"
RANKS = tuple(range(1, 31)) + (40,)


class _Digest:
    """A text stream that keeps only the sha256 and byte length of what is
    written to it (a rank-40 listing is about 26 MB)."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.size += len(data)
        return len(text)

    def flush(self):
        pass


def _listing(argv):
    """Exit code, stdout digest and stderr of one in-process request."""
    out, err = _Digest(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, {"sha256": out.sha.hexdigest(), "bytes": out.size}, err.getvalue()


def listing_digests() -> dict:
    """{"<n> json" or "<n> table": {"sha256", "bytes"}} for every rank."""
    digests = {}
    for n in RANKS:
        for form, extra in (("json", ["--json"]), ("table", [])):
            code, digest, err = _listing(["sheets", "--kind", "A", "--rank", str(n), *extra])
            if (code, err) != (0, ""):
                raise RuntimeError("rank %d %s listing failed: %s" % (n, form, err))
            digests["%d %s" % (n, form)] = digest
    return digests


def test_type_a_listings_match_recorded_digests(monkeypatch):
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 2 * len(RANKS)
    assert listing_digests() == golden


def test_type_a_listing_beyond_rank_40_is_refused(monkeypatch):
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    for extra in (["--json"], []):
        code, digest, err = _listing(["sheets", "--kind", "A", "--rank", "41", *extra])
        assert (code, digest["bytes"]) == (1, 0) and err.startswith("error:"), extra


if __name__ == "__main__":
    json.dump(listing_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
