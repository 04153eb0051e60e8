"""B, C and D listings at the rank bound: byte-identical to their recorded
output, and written one record at a time.

``tests/golden/bcd_listing_digests.json`` holds the sha256 and byte length
of stdout for ``sheets --kind B|C|D --rank 1000 --json``.  Regenerate it
(only when the output is meant to change) with

    PYTHONPATH=src:tests python tests/test_bcd_listings.py > tests/golden/bcd_listing_digests.json
"""
from __future__ import annotations

import json
import sys
import tracemalloc
from pathlib import Path

import pytest

from sheet_atlas import sheets
from sheet_atlas.sheets import GroupKind, MAX_RANK

from test_type_a_digests import _listing

GOLDEN = Path(__file__).parent / "golden" / "bcd_listing_digests.json"
FAMILIES = ("B", "C", "D")


def listing_digests() -> dict:
    """{"<family> 1000 json": {"sha256", "bytes"}} for B, C and D."""
    digests = {}
    for family in FAMILIES:
        code, digest, err = _listing(["sheets", "--kind", family, "--rank", str(MAX_RANK), "--json"])
        if (code, err) != (0, ""):
            raise RuntimeError("%s(%d) listing failed: %s" % (family, MAX_RANK, err))
        digests["%s %d json" % (family, MAX_RANK)] = digest
    return digests


def test_bcd_listings_at_the_rank_bound_match_recorded_digests(monkeypatch):
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    assert listing_digests() == json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("family", FAMILIES)
def test_bcd_listing_at_the_rank_bound_holds_one_record_at_a_time(family):
    """The JSON listing of B, C or D at rank 1000 builds each of its ~1000
    records as it writes it: its pieces, read and dropped, allocate under
    1 MB at their peak, where the ~10 MB of all its descriptors, built
    before the first piece, would not fit."""
    "".join(sheets.listing_json(GroupKind(family, 3)))  # the record template of its depth, made once
    count = 0
    tracemalloc.start()
    try:
        for piece in sheets.listing_json(GroupKind(family, MAX_RANK)):
            count += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == len(sheets.valid_max_levi_labels(GroupKind(family, MAX_RANK))) + 1
    assert peak < 10**6, peak


@pytest.mark.parametrize("family", FAMILIES)
def test_bcd_listing_beyond_the_rank_bound_is_refused_before_the_first_piece(family, monkeypatch):
    """Rank 1001 is refused when the listing is asked for, before any piece
    is taken from it, and the request leaves stdout empty."""
    kind = GroupKind(family, MAX_RANK + 1)
    with pytest.raises(ValueError, match="beyond the supported maximum"):
        sheets.listing_json(kind)
    with pytest.raises(ValueError, match="beyond the supported maximum"):
        sheets.sheets_for(kind)
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    code, digest, err = _listing(["sheets", "--kind", family, "--rank", str(MAX_RANK + 1), "--json"])
    assert (code, digest["bytes"]) == (1, 0) and err.startswith("error: rank %d is beyond" % (MAX_RANK + 1)), err


if __name__ == "__main__":
    json.dump(listing_digests(), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
