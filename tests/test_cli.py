"""CLI smoke and golden-file tests (subprocess level)."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from sheet_atlas import sheets
from sheet_atlas.cli import data_dir, render_table1, render_table2
from sheet_atlas.partitions import Partition


def run_cli(*args, env_extra=None, expect=0):
    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    completed = subprocess.run(
        [sys.executable, "-m", "sheet_atlas.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    assert completed.returncode == expect, completed.stderr
    return completed


def test_sheet_info_sdix_row():
    out = run_cli("sheet-info", "--kind", "C", "--rank", "2", "--levi", "1,1")
    payload = json.loads(out.stdout)
    assert payload["name"] == "sp4:SDix"
    assert payload["d"] == 4
    assert payload["katsylo_order"] == 2
    fixture = json.loads((data_dir() / "table1.json").read_text())
    row = [r for r in fixture["rows"] if r["name"] == "sp4:SDix"][0]
    assert payload == row


def test_sheets_listing_modes():
    table = run_cli("sheets", "--kind", "C", "--rank", "2")
    assert "sp4:SDix" in table.stdout and "PASS" not in table.stdout
    as_json = run_cli("sheets", "--kind", "C", "--rank", "2", "--json")
    rows = json.loads(as_json.stdout)
    assert len(rows) == 5
    forced = run_cli("sheets", "--kind", "C", "--rank", "2", env_extra={"SHEET_ATLAS_JSON": "1"})
    assert json.loads(forced.stdout) == rows


def test_hitchin_dim_bare():
    out = run_cli("hitchin-dim", "--genus", "2", "--kind", "C", "--rank", "2")
    assert out.stdout.strip() == "10"


def test_hitchin_dim_sheet_json():
    out = run_cli(
        "hitchin-dim", "--genus", "2", "--kind", "C", "--rank", "2", "--levi", "1,1", "--json"
    )
    payload = json.loads(out.stdout)
    assert payload["dim_base"] == 10
    assert payload["dim_s_base"] == 2
    assert payload["components"] == 16
    assert payload["cameral_degree"] == 2
    assert payload["weights"] == [1]


def test_triple_verify_cases():
    out = run_cli("triple-verify", "--case", "gl:2,1")
    assert "FAIL" not in out.stdout
    out = run_cli("triple-verify", "--case", "bcd:C,1,1")
    assert "FAIL" not in out.stdout
    out = run_cli("triple-verify", "--case", "sp4-slice")
    assert "FAIL" not in out.stdout


def test_triple_verify_as_printed_documents_erratum():
    out = run_cli("triple-verify", "--case", "sp4-slice", "--as-printed", expect=1)
    assert "FAIL" in out.stdout
    assert "char poly" in out.stdout
    # membership still passes: the discrepancy is sheet membership, not the form
    assert "PASS  symplectic membership" in out.stdout


def test_mu_s_command():
    # leading '-' in a coefficient list needs the --flag=value spelling
    out = run_cli("mu-s", "--profile", "2,1,1", "--factors=-2,1;2", "--json")
    payload = json.loads(out.stdout)
    assert payload["image"]["degree"] == 4
    assert payload["min_poly"]["degree"] == 3
    # (λ^2 - 2λ + 1)(λ + 2)^2 = (λ-1)^2 (λ+2)^2, not in the heart
    assert payload["in_heart"] is False


def test_multiplicity_command():
    out = run_cli("multiplicity", "--sheet", "C:2:1,1", "--z", "5", "--json")
    payload = json.loads(out.stdout)
    assert payload["mu"] == 2 and payload["inertia_order"] == 1
    out = run_cli("multiplicity", "--sheet", "C:2:1,1", "--z", "0", "--json")
    payload = json.loads(out.stdout)
    assert payload["mu"] == 1 and payload["inertia_order"] == 2
    out = run_cli("multiplicity", "--sheet", "A:4:2,1,1", "--z", "1,2,3", "--json")
    assert json.loads(out.stdout)["mu"] == 1


def test_realform_command():
    out = run_cli("realform", "--label", "SU:3,1", "--genus", "2", "--json")
    payload = json.loads(out.stdout)
    assert payload["levi"] == {"gl": [2, 1, 1]}
    assert payload["quasi_split"] is False
    assert payload["abelianised_fibres_positive_dimensional"] is True
    out = run_cli("realform", "--label", "SOSTAR:5", "--genus", "2", "--json")
    payload = json.loads(out.stdout)
    assert payload["extra"]["fixed_degree"] == "8"


def test_realform_rejects_genus_below_two():
    for g in ("0", "-3"):
        out = run_cli("realform", "--label", "SOSTAR:5", "--genus", g, "--json", expect=1)
        assert out.stdout == ""
        assert out.stderr == "error: genus must be at least 2\n"


def test_domain_error_exit_code():
    out = run_cli("sheets", "--kind", "D", "--rank", "3", "--levi", "2,2", expect=1)
    assert "error:" in out.stderr


def test_parse_error_exit_code():
    run_cli("sheets", expect=2)


# (argv, SHEET_ATLAS_JSON or None, expected exit code), run in this order
REUSE_SEQUENCE = [
    (["sheets"], None, 2),
    (["sheets", "--kind", "C", "--rank", "2"], None, 0),
    (["sheets", "--kind", "A", "--rank", "7", "--json"], None, 0),
    (["sheets", "--kind", "A", "--rank", "4"], None, 0),
    (["triple-verify", "--case", "gl:2,1", "--matrices", "--json"], None, 0),
    (["triple-verify", "--case", "gl:2,1"], None, 0),
    (["hitchin-dim", "--genus", "2", "--kind", "C", "--rank", "2", "--levi", "1,1"], "1", 0),
    (["hitchin-dim", "--genus", "2", "--kind", "C", "--rank", "2", "--levi", "1,1"], None, 0),
    (["sheets", "--kind", "D", "--rank", "3", "--levi", "2,2"], None, 1),
    (["realform", "--label", "SU:3,1", "--genus", "2"], None, 0),
    (["no-such-command"], None, 2),
    (["sheets", "--kind", "A", "--rank", "3", "--levi", "2,1", "--json"], None, 0),
]

REUSE_DRIVER = """
import io, json, os, sys
from contextlib import redirect_stderr, redirect_stdout
from sheet_atlas import cli
results = []
for argv, env_json, _ in json.loads(sys.argv[1]):
    os.environ.pop("SHEET_ATLAS_JSON", None)
    if env_json is not None:
        os.environ["SHEET_ATLAS_JSON"] = env_json
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(results))
"""


def test_reused_parser_matches_fresh_processes(monkeypatch):
    """One interpreter serving a sequence of cli.main calls answers each
    exactly as a fresh `python -m sheet_atlas.cli` process does."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    served = subprocess.run(
        [sys.executable, "-c", REUSE_DRIVER, json.dumps(REUSE_SEQUENCE)],
        capture_output=True,
        text=True,
        check=True,
    )
    results = json.loads(served.stdout)
    assert len(results) == len(REUSE_SEQUENCE)
    for (argv, env_json, expect), (code, out, err) in zip(REUSE_SEQUENCE, results):
        fresh = run_cli(*argv, env_extra={"SHEET_ATLAS_JSON": env_json} if env_json else None, expect=expect)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# (argv, the records it answers with), each answered by a fresh process
JSON_REQUESTS = [
    (["sheets", "--kind", "A", "--rank", "7"], lambda: sheets.enumerate_sheets_gln(7)),
    (["sheets", "--kind", "C", "--rank", "2"], sheets.sheets_sp4),
    (["sheets", "--kind", "D", "--rank", "4"], lambda: sheets.sheets_for(sheets.type_d(4))),
    (["sheets", "--kind", "B", "--rank", "3", "--levi", "2,3"], lambda: [sheets.maximal_levi_sheet(sheets.type_b(3), sheets.MaxLevi(2, 3))]),
    (["sheets", "--kind", "F4"], lambda: [sheets.f4_b3_sheet()]),
    (["sheet-info", "--kind", "C", "--rank", "2", "--levi", "1,1"], lambda: sheets.sheets_sp4()[1]),
    (["sheet-info", "--kind", "D", "--rank", "4", "--levi", "4,0"], lambda: sheets.maximal_levi_sheet(sheets.type_d(4), sheets.MaxLevi(4, 0))),
    (["sheet-info", "--kind", "A", "--rank", "5", "--levi", "2,2,1"], lambda: sheets.gl_sheet(Partition((2, 2, 1)))),
    (["sheet-info", "--kind", "F4"], sheets.f4_b3_sheet),
]


def test_sheets_json_is_json_dumps(monkeypatch):
    """`sheets --json` and `sheet-info --json` write exactly
    json.dumps(..., indent=2) and a newline."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    for argv, records in JSON_REQUESTS:
        got = records()
        obj = [d.to_json() for d in got] if isinstance(got, list) else got.to_json()
        out = run_cli(*argv, "--json")
        assert (out.stdout, out.stderr) == (json.dumps(obj, indent=2) + "\n", ""), argv


def test_listing_beyond_rank_40_is_refused_with_empty_stdout():
    out = run_cli("sheets", "--kind", "A", "--rank", "41", "--json", expect=1)
    assert out.stdout == "" and out.stderr.startswith("error:")


# The largest type A listing (rank 40, p(40) = 37338 records) must not hold
# its reply in memory: 287 MB before records were streamed, about 54 MB
# after (Linux x86-64, CPython 3.11), most of it the list of descriptors.
RANK_40_MAX_RSS_MB = 128

# A child's ru_maxrss also counts the memory of the process that spawned it
# (the spawn shares its address space until exec), so a small intermediate
# interpreter spawns the listing and reports its peak.
RSS_PROBE = """
import os, subprocess, sys
with open(os.devnull, "w") as null:
    child = subprocess.Popen([sys.executable, "-m", "sheet_atlas.cli", *sys.argv[1:]], stdout=null)
    _, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_rank_40_listing_memory_is_bounded():
    argv = ["sheets", "--kind", "A", "--rank", "40", "--json"]
    done = subprocess.run([sys.executable, "-c", RSS_PROBE, *argv], capture_output=True, text=True, check=True)
    code, maxrss = map(int, done.stdout.split())
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak_mb = maxrss / (1024 * 1024 if sys.platform == "darwin" else 1024)
    assert code == 0
    assert peak_mb < RANK_40_MAX_RSS_MB, peak_mb


def test_fixture_regen_byte_identical(tmp_path: Path):
    out = run_cli("fixtures", "--regen", "--out-dir", str(tmp_path))
    for name in ("table1.json", "table2.json"):
        assert (tmp_path / name).read_bytes() == (data_dir() / name).read_bytes()


def test_fixture_check_mode():
    out = run_cli("fixtures")
    assert "up to date" in out.stdout


def test_render_matches_committed():
    assert render_table1() == (data_dir() / "table1.json").read_text()
    assert render_table2() == (data_dir() / "table2.json").read_text()


def test_json_roundtrip_on_fixtures():
    from sheet_atlas.sheets import SheetDescriptor

    for name in ("table1.json", "table2.json"):
        payload = json.loads((data_dir() / name).read_text())
        for row in payload["rows"]:
            desc = SheetDescriptor.from_json(row)
            assert desc.to_json() == row


def test_fixtures_validate_against_documented_schema():
    import jsonschema

    schema = json.loads(
        (Path(__file__).resolve().parents[1] / "docs" / "descriptor-schema.json").read_text()
    )
    validator = jsonschema.Draft202012Validator(schema)
    for name in ("table1.json", "table2.json"):
        payload = json.loads((data_dir() / name).read_text())
        for row in payload["rows"]:
            validator.validate(row)


def test_sp4_slice_transcripts_are_golden(monkeypatch):
    """Exact exit code, stdout and stderr of every sp4-slice verification
    (with and without --as-printed and --matrices, table and JSON), as
    recorded in tests/golden; the char poly lines print Q[t] coefficients."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from sheet_atlas import cli

    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    golden = json.loads((Path(__file__).parent / "golden" / "sp4_slice_transcripts.json").read_text(encoding="utf-8"))
    assert len(golden) == 8
    for case in golden:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(case["argv"]))
        assert (code, out.getvalue(), err.getvalue()) == (case["exit"], case["stdout"], case["stderr"]), case["argv"]
