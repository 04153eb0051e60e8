"""CLI smoke and golden-file tests (subprocess level)."""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sheet_atlas import sheets
from sheet_atlas.cli import data_dir, render_table1, render_table2
from sheet_atlas.partitions import Partition
from sheet_atlas.sheets import type_b, type_c, type_d, valid_max_levi_labels
from sheet_atlas.triples import MAX_TRIPLE_SIZE

from oracles import descriptor_from_json, descriptor_to_json, sheets_table


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


def _serve(argv):
    """Exit code, stdout and stderr of one in-process cli.main request."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    from sheet_atlas import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


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


def test_mu_s_is_bounded_at_rank_1000(monkeypatch):
    """A profile of n = 1000 is answered; n = 1001, a single part of 3200
    and the part 10^9 that used to end in a MemoryError are refused with
    exit 1 and nothing on stdout, before the factors are read."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    ones = ",".join(["1"] * 1000)
    factor = ",".join(["0"] * 999 + ["-1"])  # λ^1000 - 1
    code, out, err = _serve(["mu-s", "--profile", ones, "--factors=" + factor])
    assert (code, err) == (0, "")
    assert out == "image:    λ^1000 - 1\nmin poly: λ^1000 - 1\nin heart: True\n"
    for profile, n in ((ones + ",1", 1001), ("3200", 3200), (str(10**9), 10**9)):
        for extra in ([], ["--json"]):
            argv = ["mu-s", "--profile", profile, "--factors", "not parsed", *extra]
            assert _serve(argv) == (1, "", "error: rank %d is beyond the supported maximum 1000\n" % n)


def test_multiplicity_command():
    out = run_cli("multiplicity", "--sheet", "C:2:1,1", "--z", "5", "--json")
    payload = json.loads(out.stdout)
    assert payload["mu"] == 2 and payload["inertia_order"] == 1
    out = run_cli("multiplicity", "--sheet", "C:2:1,1", "--z", "0", "--json")
    payload = json.loads(out.stdout)
    assert payload["mu"] == 1 and payload["inertia_order"] == 2
    out = run_cli("multiplicity", "--sheet", "A:4:2,1,1", "--z", "1,2,3", "--json")
    assert json.loads(out.stdout)["mu"] == 1


def test_rational_inputs_with_huge_exponents_are_refused(monkeypatch):
    """`multiplicity --z` and `mu-s --factors` refuse a decimal exponent
    beyond sys.get_int_max_str_digits() with exit 1 and nothing on stdout,
    before the value is built (1e10000000 took 13 s to end in an error),
    and read ordinary rationals as Fraction does."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    limit = sys.get_int_max_str_digits()
    huge = ["1e10000000", "-2.5E-10000000", "0e+10_000_000", "7e%d" % (limit + 1), "1e" + "9" * (limit + 1)]
    for value in huge:
        for argv in (["multiplicity", "--sheet", "C:2:1,1", "--z=" + value], ["mu-s", "--profile", "1", "--factors=" + value]):
            start = time.perf_counter()
            code, out, err = _serve(argv)
            assert time.perf_counter() - start < 1.0, argv
            assert (code, out) == (1, "") and err.startswith("error:"), argv
    for value in ("5", "7/5", "0.5", "1e3", "-3E-2"):
        code, out, _ = _serve(["multiplicity", "--sheet", "C:2:1,1", "--z=" + value, "--json"])
        assert code == 0 and json.loads(out)["z"] == [str(Fraction(value))]
        code, out, _ = _serve(["mu-s", "--profile", "1", "--factors=" + value, "--json"])
        assert code == 0 and json.loads(out)["image"]["coeffs"] == [str(Fraction(value))]


def test_rational_inputs_with_too_many_digits_are_refused(monkeypatch):
    """A rational input whose numerator or denominator, as written or as
    read, has more than sys.get_int_max_str_digits() digits is refused with
    the CLI's own error line, exit 1 and nothing on stdout, within 1 s; one
    digit fewer is answered.  At the default L = 4300, mu-s answers the
    least prime of 4300 digits, 10^4299 + 3187 (a BPSW probable prime), as
    a denominator within 2 s in both forms; its weighted clear takes one
    gcd per weight, so that prime costs no factoring and no root search."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    limit = sys.get_int_max_str_digits()
    long_digits = "7" * (limit + 1)
    too_long = ["1e%d" % limit, "-1e-%d" % limit, long_digits, "1/" + long_digits, "0." + long_digits, "1" * limit + "e1"]
    for value in too_long:
        for argv in (["multiplicity", "--sheet", "C:2:1,1", "--z=" + value], ["mu-s", "--profile", "1", "--factors=" + value]):
            start = time.perf_counter()
            code, out, err = _serve(argv)
            assert time.perf_counter() - start < 1.0, argv
            assert (code, out) == (1, "") and err == "error: more than %d digits in a rational input\n" % limit, argv
    for value in ("1e%d" % (limit - 1), "7" * limit, "1/" + "7" * limit):
        code, out, err = _serve(["multiplicity", "--sheet", "C:2:1,1", "--z=" + value, "--json"])
        assert (code, err) == (0, "") and json.loads(out)["z"] == [str(Fraction(value))]
    if limit == 4300:
        den = str(10**4299 + 3187)
        for extra in ([], ["--json"]):
            start = time.perf_counter()
            code, out, err = _serve(["mu-s", "--profile", "2,1", "--factors=1/%s;3" % den, *extra])
            assert time.perf_counter() - start < 2.0 and (code, err) == (0, ""), extra
        assert json.loads(out)["factors"][0]["coeffs"] == ["1/" + den]


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


def test_f4_refuses_a_levi_label():
    """F4 has one classified sheet: a Levi label is refused (exit 1, an
    error line, nothing on stdout) instead of answering the f4:B3 record."""
    for argv in (
        ["sheet-info", "--kind", "F4", "--levi", "1,2"],
        ["sheets", "--kind", "F4", "--levi", "7,9"],
        ["sheets", "--kind", "F4", "--levi", "1,2", "--json"],
        ["hitchin-dim", "--genus", "2", "--kind", "F4", "--levi", "1,2"],
    ):
        code, out, err = _serve(argv)
        assert (code, out) == (1, "") and err.startswith("error:") and "no Levi label" in err, argv
    code, out, _ = _serve(["sheet-info", "--kind", "F4"])
    assert code == 0 and json.loads(out)["name"] == "f4:B3"
    code, out, _ = _serve(["hitchin-dim", "--genus", "2", "--kind", "F4", "--json"])
    assert code == 0 and json.loads(out)["dim_base"] == 52


def test_f4_refuses_a_rank_other_than_four():
    """F4 has rank 4: any other explicit --rank is refused (exit 1, an
    error line, nothing on stdout) instead of being ignored; --rank 4 and
    no --rank answer as before."""
    for argv in (
        ["sheets", "--kind", "F4", "--rank", "7"],
        ["sheets", "--kind", "F4", "--rank", "0", "--json"],
        ["sheet-info", "--kind", "F4", "--rank", "3"],
        ["hitchin-dim", "--genus", "2", "--kind", "F4", "--rank", "9"],
    ):
        code, out, err = _serve(argv)
        assert (code, out) == (1, "") and err.startswith("error:") and "rank 4" in err, argv
    for argv in (["hitchin-dim", "--genus", "2", "--kind", "F4", "--json"], ["hitchin-dim", "--genus", "2", "--kind", "F4", "--rank", "4", "--json"]):
        code, out, _ = _serve(argv)
        assert code == 0 and json.loads(out)["dim_base"] == 52
    code, out, _ = _serve(["sheets", "--kind", "F4"])
    assert code == 0 and "f4:B3" in out
    # the other kinds still need a positive rank
    code, out, err = _serve(["sheets", "--kind", "C"])
    assert (code, out) == (1, "") and err == "error: rank must be positive\n"


def test_f4_sheet_spec_takes_no_fields():
    """The --sheet spec of the F4 sheet is 'F4' alone: a rank or Levi field
    after it is refused instead of being ignored."""
    for spec in ("F4:4:1,2", "F4:4", "f4:", "F4:7:3,1"):
        code, out, err = _serve(["multiplicity", "--sheet", spec, "--z", "5"])
        assert (code, out) == (1, "") and err.startswith("error:") and "'F4' alone" in err, spec
    code, out, _ = _serve(["multiplicity", "--sheet", "F4", "--z", "5"])
    assert code == 0 and out.startswith("sheet: f4:B3\n")


def test_zero_denominators_are_refused_by_name():
    """A rational input with a zero denominator is refused with a message
    that names it, not Python's Fraction(1, 0)."""
    for argv, text in (
        (["multiplicity", "--sheet", "A:3:2,1", "--z", "1/0"], "1/0"),
        (["multiplicity", "--sheet", "A:3:2,1", "--z", "1,0/0"], "0/0"),
        (["mu-s", "--profile", "1", "--factors", "1/0"], "1/0"),
        (["mu-s", "--profile", "2,1", "--factors", "3/00;1", "--json"], "3/00"),
    ):
        assert _serve(argv) == (1, "", "error: zero denominator in the rational input %r\n" % text), argv


def test_sheet_spec_rank_must_be_an_integer():
    """An empty or non-integer RANK field of a --sheet spec is refused with
    the spec's format; an integer rank is read by int(), and KIND stripped
    and in either case."""
    for spec in ("A::1", "A:x:2,1", "C:1.5:1,1", "C: :1,1"):
        assert _serve(["multiplicity", "--sheet", spec]) == (1, "", "error: sheet spec must be KIND:RANK:LEVI, e.g. C:2:1,1\n"), spec
    assert _serve(["multiplicity", "--sheet", "A:-2:1"]) == (1, "", "error: rank must be positive\n")
    for spec in ("C: 2 :1,1", "C:+2:1,1", "c:2:1,1", " C :2:1,1"):
        code, out, _ = _serve(["multiplicity", "--sheet", spec, "--z", "1"])
        assert code == 0 and out.startswith("sheet: sp4:SDix\n"), spec


def test_sheet_spec_kind_must_be_one_letter():
    """A KIND field of a --sheet spec that is not one of the letters A, B, C
    or D is refused by name, not with int()'s message (it was read into the
    rank: C1:2 was C12), and F with rank 4 does not reach F4 (the F4 sheet's
    spec is 'F4' alone)."""
    for spec, kind in (("AB:3:1", "AB"), (":3:1", ""), ("C1:2:1,1", "C1"), ("F:4:1,1", "F"), ("f:4:1,1", "f"), ("x:2:1,1", "x")):
        message = "error: the KIND of a sheet spec KIND:RANK:LEVI is one letter, A, B, C or D, got %r\n" % kind
        assert _serve(["multiplicity", "--sheet", spec]) == (1, "", message), spec


def test_sheet_spec_levi_must_be_integers():
    for spec, levi in (("C:2:1,x", "1,x"), ("A:3:2,", "2,"), ("A:3:", "")):
        message = "error: the LEVI of a sheet spec KIND:RANK:LEVI must be comma-separated integers, e.g. 2,1,1 or 1,1, got %r\n" % levi
        assert _serve(["multiplicity", "--sheet", spec]) == (1, "", message), spec


def test_levi_flag_must_be_integers():
    for argv, levi in (
        (["sheet-info", "--kind", "A", "--rank", "3", "--levi", "2,x"], "2,x"),
        (["sheet-info", "--kind", "A", "--rank", "3", "--levi", ""], ""),
        (["sheet-info", "--kind", "C", "--rank", "2", "--levi=1;1", "--json"], "1;1"),
        (["hitchin-dim", "--genus", "2", "--kind", "C", "--rank", "2", "--levi", "1,x"], "1,x"),
        (["sheets", "--kind", "B", "--rank", "2", "--levi", "1.0,1"], "1.0,1"),
    ):
        message = "error: --levi must be comma-separated integers, e.g. 2,1,1 or 1,1, got %r\n" % levi
        assert _serve(argv) == (1, "", message), argv


def test_mu_s_profile_must_be_integers():
    for profile in ("1,x", "", "2,,1"):
        message = "error: --profile must be comma-separated integers, e.g. 2,1,1 or 1,1, got %r\n" % profile
        assert _serve(["mu-s", "--profile", profile, "--factors", "1"]) == (1, "", message), profile


def test_real_form_labels_read_as_their_records():
    """--label reads SU:p,q and SOSTAR:n, the family in any case, as the
    realforms records; a label of another family is refused by its text."""
    from sheet_atlas import cli
    from sheet_atlas.realforms import SOStar, SU

    assert cli._real_form("SU:3,1") == SU(3, 1)
    assert cli._real_form("sostar:5") == SOStar(5)
    with pytest.raises(ValueError, match="cannot parse real form label 'E8:1'"):
        cli._real_form("E8:1")
    assert _serve(["realform", "--label", "E8:1"]) == (1, "", "error: cannot parse real form label 'E8:1'\n")


def test_real_form_label_fields_must_be_integers():
    """A label that is not made of integers gets the wording of one out of
    range: the field's name, its form and range, and the quoted text."""
    for label, form in (
        ("SU:3,x", "SU:p,q with integers p >= q >= 1"),
        ("su:3", "SU:p,q with integers p >= q >= 1"),
        ("SU:3,1,1", "SU:p,q with integers p >= q >= 1"),
        ("SOSTAR:x", "SOSTAR:n with an integer n >= 3"),
        ("SO*:", "SOSTAR:n with an integer n >= 3"),
    ):
        for extra in ([], ["--json"]):
            argv = ["realform", "--label", label, *extra]
            assert _serve(argv) == (1, "", "error: --label must be %s, got %r\n" % (form, label)), argv
    # the integer fields are still checked as before once they are read
    assert _serve(["realform", "--label", "SU:1,3"])[0] == 1


def test_out_of_range_fields_are_refused_by_name():
    """A field of integers out of its range is refused as --levi is: exit
    1, nothing on stdout, and an error line naming the field and quoting its
    text.  The library constructors keep their own checks."""
    for argv, message in (
        (["mu-s", "--profile", "3,0", "--factors", "1;;"], "--profile must be a partition, integers >= 1 such as 2,1,1, got '3,0'"),
        (["mu-s", "--profile", "-1", "--factors", "1"], "--profile must be a partition, integers >= 1 such as 2,1,1, got '-1'"),
        (["triple-verify", "--case", "gl:0,2"], "--case must be gl:m1,m2 with integers m1 >= m2 >= 1, got 'gl:0,2'"),
        (["triple-verify", "--case", "gl:1,2"], "--case must be gl:m1,m2 with integers m1 >= m2 >= 1, got 'gl:1,2'"),
        (["realform", "--label", "SU:0,0"], "--label must be SU:p,q with integers p >= q >= 1, got 'SU:0,0'"),
        (["realform", "--label", "su:1,3"], "--label must be SU:p,q with integers p >= q >= 1, got 'su:1,3'"),
        (["realform", "--label", "SOSTAR:2"], "--label must be SOSTAR:n with an integer n >= 3, got 'SOSTAR:2'"),
    ):
        for extra in ([], ["--json"]):
            assert _serve([*argv, *extra]) == (1, "", "error: %s\n" % message), argv


def test_bcd_case_of_the_wrong_parity_is_refused_by_name():
    """A bcd case whose matrix size 2a + res has the wrong parity for its
    family is refused by --case before any group is built, instead of being
    rounded down to a rank that does not fit it."""
    for case, family, parity in (
        ("bcd:B,1,2", "B", "odd"),
        ("bcd:b,2,0", "B", "odd"),
        ("bcd:D,1,1", "D", "even"),
        ("bcd:D,3,3", "D", "even"),
    ):
        message = "--case must be bcd:%s,a,res with an %s res, as SO_(2a+res) has %s size in type %s, got %r" % (family, parity, parity, family, case)
        for extra in ([], ["--json"]):
            assert _serve(["triple-verify", "--case", case, *extra]) == (1, "", "error: %s\n" % message), case
    for case in ("bcd:B,1,1", "bcd:D,2,0", "bcd:C,1,2"):
        assert _serve(["triple-verify", "--case", case])[0] == 0, case
    assert _serve(["triple-verify", "--case", "bcd:X,1,2"]) == (1, "", "error: bcd kind must be B, C or D\n")


def test_bcd_case_that_is_no_type_d_group_is_refused_by_name():
    """A type D case of matrix size 2 (no D(1)) or with an SO_2 residual
    (a torus, not a residual group) is refused by --case before any group
    is built, in the wording of the parity refusal, instead of by the
    group's own rank or fit message."""
    for case, message in (
        ("bcd:D,1,0", "--case must be bcd:D,a,res with 2a + res >= 4, as SO_(2a+res) has size at least 4 in type D, got %r"),
        ("bcd:d,1,0", "--case must be bcd:D,a,res with 2a + res >= 4, as SO_(2a+res) has size at least 4 in type D, got %r"),
        ("bcd:D,1,2", "--case must be bcd:D,a,res with a res other than 2, as SO_2 is a torus and no residual group in type D, got %r"),
        ("bcd:D,2,2", "--case must be bcd:D,a,res with a res other than 2, as SO_2 is a torus and no residual group in type D, got %r"),
    ):
        for extra in ([], ["--json"]):
            assert _serve(["triple-verify", "--case", case, *extra]) == (1, "", "error: %s\n" % (message % case)), case
    # the neighbouring type D cases still build and verify
    for case in ("bcd:D,2,0", "bcd:D,1,4", "bcd:D,2,4"):
        assert _serve(["triple-verify", "--case", case])[0] == 0, case


def test_z_of_the_wrong_length_is_refused_by_name():
    """A --z with more or fewer rationals than the sheet's centre has
    dimensions is refused by --z, quoting it; the library's SlicePoint keeps
    its own message."""
    for spec, z, needs in (
        ("A:3:2,1", "1", "2 comma-separated rational numbers for the 2-dimensional"),
        ("A:4:2,1,1", "1,2", "3 comma-separated rational numbers for the 3-dimensional"),
        ("C:2:1,1", "1,2", "one rational number for the 1-dimensional"),
        ("F4", "0,0", "one rational number for the 1-dimensional"),
    ):
        message = "error: --z must be %s centre of sheet %s, got %r\n" % (needs, spec, z)
        for extra in ([], ["--json"]):
            assert _serve(["multiplicity", "--sheet", spec, "--z", z, *extra]) == (1, "", message), (spec, z)
    assert _serve(["multiplicity", "--sheet", "A:3:2,1", "--z", "1,2"])[0] == 0


@pytest.mark.parametrize("json_flag", [["--json"], []], ids=["json", "table"])
def test_listing_into_a_closed_pipe_exits_1_without_traceback(json_flag):
    """A reader that closes the listing's stdout after one line, as ``| head
    -1`` does, ends the listing with exit 1 and nothing on stderr."""
    argv = [sys.executable, "-m", "sheet_atlas.cli", "sheets", "--kind", "A", "--rank", "25", *json_flag]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = child.stdout.readline()
    child.stdout.close()
    err = child.stderr.read().decode()
    child.stderr.close()
    assert child.wait(timeout=120) == 1
    assert first and err == "", err


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
    (["sheets", "--kind", "D", "--rank", "4"], lambda: [*sheets.sheets_for(sheets.type_d(4))]),
    (["sheets", "--kind", "B", "--rank", "3", "--levi", "2,3"], lambda: [sheets.maximal_levi_sheet(sheets.type_b(3), sheets.MaxLevi(2, 3))]),
    (["sheets", "--kind", "F4"], lambda: [sheets.f4_b3_sheet()]),
    (["sheet-info", "--kind", "C", "--rank", "2", "--levi", "1,1"], lambda: sheets.sheets_sp4()[1]),
    (["sheet-info", "--kind", "D", "--rank", "4", "--levi", "4,0"], lambda: sheets.maximal_levi_sheet(sheets.type_d(4), sheets.MaxLevi(4, 0))),
    (["sheet-info", "--kind", "A", "--rank", "5", "--levi", "2,2,1"], lambda: sheets.gl_sheet(Partition((2, 2, 1)))),
    (["sheet-info", "--kind", "F4"], sheets.f4_b3_sheet),
]


# a request of every other command that writes JSON
PAYLOAD_REQUESTS = [
    ["hitchin-dim", "--kind", "C", "--rank", "2", "--genus", "3"],
    ["hitchin-dim", "--kind", "A", "--rank", "5", "--genus", "2"],
    ["hitchin-dim", "--kind", "C", "--rank", "2", "--levi", "1,1", "--genus", "3"],
    ["hitchin-dim", "--kind", "A", "--rank", "4", "--levi", "2,1,1", "--genus", "2"],
    ["hitchin-dim", "--kind", "D", "--rank", "4", "--levi", "4,0", "--genus", "2"],
    ["multiplicity", "--sheet", "C:2:1,1", "--z", "5"],
    ["multiplicity", "--sheet", "A:3:2,1", "--z", "0,1/2"],
    ["multiplicity", "--sheet", "F4"],
    ["realform", "--label", "SU:3,1", "--genus", "2"],
    ["realform", "--label", "SU:2,2"],
    ["realform", "--label", "SOSTAR:7", "--genus", "3"],
    ["realform", "--label", "SOSTAR:4"],
    ["mu-s", "--profile", "2,1", "--factors", "1/2;3"],
    ["mu-s", "--profile", "2,2", "--factors", ";1,-1/4"],
    *(["triple-verify", "--case", case, *matrices]
      for case in ("gl:2,1", "gl:3,3", "bcd:B,1,1", "bcd:C,2,0", "bcd:D,2,0", "sp4-slice")
      for matrices in ([], ["--matrices"])),
]


def test_sheets_json_is_json_dumps(monkeypatch):
    """Every command writes JSON exactly as json.dumps(..., indent=2) does,
    and a newline: `sheets --json` and `sheet-info --json` their records,
    and every other command the payload its output reads back as."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    for argv, records in JSON_REQUESTS:
        got = records()
        obj = [descriptor_to_json(d) for d in got] if isinstance(got, list) else descriptor_to_json(got)
        out = run_cli(*argv, "--json")
        assert (out.stdout, out.stderr) == (json.dumps(obj, indent=2) + "\n", ""), argv
    for argv in PAYLOAD_REQUESTS:
        code, out, err = _serve([*argv, "--json"])
        assert (code, err) == (0, "") and out == json.dumps(json.loads(out), indent=2) + "\n", argv


def test_listing_beyond_rank_40_is_refused_with_empty_stdout():
    out = run_cli("sheets", "--kind", "A", "--rank", "41", "--json", expect=1)
    assert out.stdout == "" and out.stderr.startswith("error:")


# The largest type A listing (rank 40, p(40) = 37338 records) must not hold
# its reply in memory: 287 MB before records were streamed, about 54 MB
# while they were written from a list of descriptors, and about 18 MB since
# they are written straight from the partition walk (Linux x86-64, CPython
# 3.11; the interpreter with the CLI imported takes about 17 MB).
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


# Either form of the rank-40 listing may grow the peak RSS by at most 8 MB
# over the interpreter with the CLI imported: it is written one record at a
# time, and the table is walked twice (widths, then rows) instead of being
# held.  Holding the table's rows grew it by about 57 MB.
RANK_40_MAX_GROWTH_MB = 8

# Both listings in one fresh interpreter, stdout counted and dropped; one
# line per form: exit code, characters written, peak RSS growth so far.
GROWTH_PROBE = """
import resource
from contextlib import redirect_stdout
from sheet_atlas import cli

class Count:
    size = 0
    def write(self, text):
        self.size += len(text)
        return len(text)
    def flush(self):
        pass

base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
for extra in (["--json"], []):
    with redirect_stdout(Count()) as out:
        code = cli.main(["sheets", "--kind", "A", "--rank", "40", *extra])
    print(code, out.size, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
"""


def test_rank_40_listings_grow_the_peak_rss_by_at_most_8_mb():
    env = {k: v for k, v in os.environ.items() if k != "SHEET_ATLAS_JSON"}
    done = subprocess.run([sys.executable, "-c", GROWTH_PROBE], capture_output=True, text=True, check=True, env=env)
    golden = json.loads((Path(__file__).parent / "golden" / "type_a_listing_digests.json").read_text())
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    for line, form in zip(lines, ("json", "table")):
        code, size, growth = map(int, line.split())
        # the whole listing was written (it is ASCII: one byte a character)
        assert (code, size) == (0, golden["40 %s" % form]["bytes"]), form
        # ru_maxrss is in KiB on Linux and in bytes on macOS
        growth_mb = growth / (1024 * 1024 if sys.platform == "darwin" else 1024)
        assert growth_mb <= RANK_40_MAX_GROWTH_MB, (form, growth_mb)


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
    for name in ("table1.json", "table2.json"):
        payload = json.loads((data_dir() / name).read_text())
        for row in payload["rows"]:
            desc = descriptor_from_json(row)
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
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    golden = json.loads((Path(__file__).parent / "golden" / "sp4_slice_transcripts.json").read_text(encoding="utf-8"))
    assert len(golden) == 8
    for case in golden:
        assert _serve(case["argv"]) == (case["exit"], case["stdout"], case["stderr"]), case["argv"]


def _record_requests(r):
    """Every request that builds a sheet record of rank r."""
    return [
        ["sheet-info", "--kind", "A", "--rank", str(r), "--levi", str(r)],
        ["sheet-info", "--kind", "B", "--rank", str(r), "--levi", "1,%d" % (2 * r - 1)],
        ["sheet-info", "--kind", "C", "--rank", str(r), "--levi", "1,%d" % (r - 1)],
        ["sheet-info", "--kind", "D", "--rank", str(r), "--levi", "1,%d" % (2 * r - 2)],
        ["sheets", "--kind", "B", "--rank", str(r), "--json"],
        ["sheets", "--kind", "C", "--rank", str(r), "--json"],
        ["sheets", "--kind", "D", "--rank", str(r)],
        ["hitchin-dim", "--genus", "2", "--kind", "C", "--rank", str(r), "--levi", "1,%d" % (r - 1)],
        ["multiplicity", "--sheet", "C:%d:1,%d" % (r, r - 1)],
    ]


def test_record_requests_are_bounded_at_rank_1000(monkeypatch):
    """Rank 1000 is served; rank 1001, and the rank 10^9 that used to end in
    a MemoryError, are refused with exit 1 and nothing on stdout."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    assert sheets.MAX_RANK == 1000
    for argv in _record_requests(1000):
        code, out, err = _serve(argv)
        assert (code, err) == (0, "") and out, argv
        if argv[0] == "sheets" and "--json" in argv:
            assert len(json.loads(out)) == 1000
    for r in (1001, 10**9):
        for argv in _record_requests(r):
            assert _serve(argv) == (1, "", "error: rank %d is beyond the supported maximum 1000\n" % r), argv
    # without a record, the base dimension has no rank bound
    assert _serve(["hitchin-dim", "--genus", "2", "--kind", "C", "--rank", "1001"]) == (0, "%d\n" % (1001 * 2003), "")


def test_hitchin_dim_without_levi_is_answered_at_any_rank(monkeypatch):
    """The full base is a closed form: rank 10^9 in type C (which used to
    end in a MemoryError) is answered, and a genus below 2 still fails."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    argv = ["hitchin-dim", "--genus", "2", "--kind", "C", "--rank", str(10**9)]
    assert _serve(argv) == (0, "2000000001000000000\n", "")
    code, out, err = _serve(argv + ["--json"])
    assert (code, err) == (0, "") and json.loads(out)["dim_base"] == 2000000001000000000
    code, out, err = _serve(["hitchin-dim", "--genus", "1", "--kind", "C", "--rank", str(10**9)])
    assert (code, out) == (1, "") and err.startswith("error:")


def test_answers_too_long_to_write_are_refused_by_their_fields(monkeypatch):
    """An integer answer of more than L = sys.get_int_max_str_digits()
    digits cannot be written.  At the boundary the largest answer that fits
    is written in full; one step beyond, the request is refused with exit 1,
    an error naming its fields and nothing on stdout, in both output modes,
    and 4^g components before the power is built."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    limit = sys.get_int_max_str_digits()
    top = 10**limit  # the least integer of more than L digits

    def refused(argv, message):
        for extra in ([], ["--json"]):
            assert _serve([*argv, *extra]) == (1, "", "error: %s\n" % message), (argv[:3], extra)

    # the base dimension of C_r at genus 2 is r(2r + 1), at genus g of C_1 3(g - 1)
    rank = math.isqrt(top // 2)
    while rank * (2 * rank + 1) >= top:
        rank -= 1
    genus = (top - 1) // 3 + 1
    for r, g, dim in ((rank, 2, rank * (2 * rank + 1)), (1, genus, 3 * (genus - 1))):
        argv = ["hitchin-dim", "--kind", "C", "--rank", str(r), "--genus", str(g)]
        assert len(str(dim)) == limit and _serve(argv) == (0, "%d\n" % dim, ""), r
        code, out, err = _serve(argv + ["--json"])
        assert (code, err) == (0, "") and json.loads(out)["dim_base"] == dim
    message = "--rank and --genus give a base dimension of more than %d digits, too long to write" % limit
    refused(["hitchin-dim", "--kind", "C", "--rank", str(rank + 1), "--genus", "2"], message)
    refused(["hitchin-dim", "--kind", "C", "--rank", "1", "--genus", str(genus + 1)], message)
    # |F| = 2: 4^g components, and 2^(2g) < 10^L for 2g below the bit length of 10^L
    genus = (top.bit_length() - 1) // 2
    code, out, err = _serve(["hitchin-dim", "--kind", "C", "--rank", "2", "--levi", "1,1", "--genus", str(genus), "--json"])
    assert (code, err) == (0, "") and json.loads(out)["components"] == 4**genus
    for g in (genus + 1, 10**100):
        refused(["hitchin-dim", "--kind", "C", "--rank", "2", "--levi", "1,1", "--genus", str(g)],
                "--genus gives 4^genus components, of more than %d digits, too long to write" % limit)
    # SO*(2n), n = 2m + 1, has fixed degree 4m(g - 1): 12(g - 1) for SO*(14)
    genus = (top - 1) // 12 + 1
    code, out, err = _serve(["realform", "--label", "SOSTAR:7", "--genus", str(genus), "--json"])
    assert (code, err) == (0, "") and json.loads(out)["extra"]["fixed_degree"] == str(12 * (genus - 1))
    refused(["realform", "--label", "SOSTAR:7", "--genus", str(genus + 1)],
            "--label and --genus give the fixed_degree of more than %d digits, too long to write" % limit)
    # (λ + 1/R)(λ + 3)^2, R the repunit of k ones: its λ coefficient
    # 9 + 6/R = (10^k + 5)/R has k + 1 digits over k, so k = L refuses it
    for k in (limit - 1, limit):
        argv = ["mu-s", "--profile", "2,1", "--factors=1/%s;3" % ("1" * k)]
        if k < limit:
            code, out, err = _serve(argv)
            assert (code, err) == (0, "") and out.endswith("in heart: True\n")
            code, out, err = _serve(argv + ["--json"])
            assert (code, err) == (0, "") and json.loads(out)["image"]["coeffs"][1] == str(Fraction(10**k + 5, int("1" * k)))
        else:
            refused(argv, "--factors give an image coefficient of more than %d digits, too long to write" % limit)


def test_realform_su_is_bounded_by_the_record_rank(monkeypatch):
    """SU(p, q) lives in GL_{p+q}: p + q = 1000 is answered, and a larger
    label (which used to end in a MemoryError) is refused with exit 1 and
    nothing on stdout before its partition is built."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    for p, q in ((500, 500), (999, 1), (600, 400)):
        code, out, err = _serve(["realform", "--label", "SU:%d,%d" % (p, q), "--genus", "2", "--json"])
        assert (code, err) == (0, "") and json.loads(out)["levi"]["gl"] == ([p - q] if p > q else []) + [1] * (2 * q)
    for p, q in ((501, 500), (1000, 1), (30000000, 20000000), (1000000000, 999999999)):
        for extra in ([], ["--json"]):
            argv = ["realform", "--label", "SU:%d,%d" % (p, q), *extra]
            assert _serve(argv) == (1, "", "error: rank %d is beyond the supported maximum 1000\n" % (p + q)), argv
    code, out, err = _serve(["realform", "--label", "SOSTAR:1000001", "--json"])
    assert (code, err) == (0, "") and json.loads(out)["label"] == "SO*(2000002)"


def test_triple_verify_transcripts_are_golden(monkeypatch):
    """Exact exit code, stdout and stderr of triple-verify for every GL pair
    with n <= 8 and every B/C/D maximal Levi label up to rank 4, with and
    without --matrices, table and JSON, as recorded in tests/golden."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    golden = json.loads((Path(__file__).parent / "golden" / "triple_verify_transcripts.json").read_text(encoding="utf-8"))
    assert len(golden) == 168
    cases = {case["argv"][2] for case in golden}
    assert "gl:4,4" in cases and "bcd:B,4,1" in cases and "bcd:D,4,0" in cases
    for case in golden:
        assert _serve(case["argv"]) == (case["exit"], case["stdout"], case["stderr"]), case["argv"]


def test_triples_beyond_the_size_bound_are_refused():
    """n = 65 is refused with exit 1, an error on stderr and nothing on
    stdout, in both output modes."""
    assert MAX_TRIPLE_SIZE == 64
    for case in ("gl:33,32", "bcd:B,1,63"):
        for extra in ([], ["--json"]):
            code, out, err = _serve(["triple-verify", "--case", case, *extra])
            assert (code, out) == (1, "") and err == "error: matrix size 65 is beyond the supported maximum 64\n", case


def test_triples_above_the_former_ceilings_pass_every_check(monkeypatch):
    """A seeded sample of two GL pairs and two B/C/D maximal Levi labels
    with 24 < n <= 64 (beyond the former ceilings n <= 20 and n <= 16):
    triple-verify passes every check, the centraliser dimension included."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    gl = ["gl:%d,%d" % (n - m2, m2) for n in range(25, MAX_TRIPLE_SIZE + 1) for m2 in range(1, n // 2 + 1)]
    bcd = [
        "bcd:%s,%d,%d" % (kind.family, levi.blocks.parts[0], levi.residual)
        for r in range(12, MAX_TRIPLE_SIZE // 2 + 1)
        for kind in (type_b(r), type_c(r), type_d(r))
        if 24 < kind.matrix_size <= MAX_TRIPLE_SIZE
        for levi in valid_max_levi_labels(kind)
    ]
    rng = random.Random(19)
    for case in rng.sample(gl, 2) + rng.sample(bcd, 2):
        code, out, err = _serve(["triple-verify", "--case", case])
        lines = out.splitlines()
        assert (code, err) == (0, "") and all(line.startswith("PASS") for line in lines), (case, out)
        assert any(line.startswith("PASS  centraliser dim = dim L") for line in lines)


def _table_requests():
    """(argv, records) of every non-A ``sheets`` table: B, C and D at ranks
    1-6, bare and with each valid --levi (D(1) is refused), and F4."""
    for family, kind_of in (("B", type_b), ("C", type_c), ("D", type_d)):
        for r in range(2 if family == "D" else 1, 7):
            kind = kind_of(r)
            argv = ["sheets", "--kind", family, "--rank", str(r)]
            yield argv, lambda kind=kind: sheets.sheets_for(kind)
            for levi in valid_max_levi_labels(kind):
                yield argv + ["--levi", "%d,%d" % (levi.blocks.parts[0], levi.residual)], lambda kind=kind, levi=levi: [sheets.find_sheet(kind, levi)]
    yield ["sheets", "--kind", "F4"], lambda: [sheets.f4_b3_sheet()]


TABLE_REQUESTS = list(_table_requests())


@pytest.mark.parametrize("argv, records", TABLE_REQUESTS, ids=[" ".join(argv[2:]) for argv, _ in TABLE_REQUESTS])
def test_non_a_tables_match_the_oracle(monkeypatch, argv, records):
    """Each B/C/D and F4 table is the oracle's table of the same records."""
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    expected = sheets_table([descriptor_to_json(d) for d in records()])
    assert _serve(argv) == (0, expected, ""), argv


def test_triple_verify_case_fields_are_refused_by_name():
    """A --case whose integers are missing, extra or not integers is refused
    with the case's format, not with Python's int() or unpacking message."""
    for case, form in (
        ("gl:2,x", "gl:m1,m2 with integers m1 and m2"),
        ("gl:2", "gl:m1,m2 with integers m1 and m2"),
        ("gl:2,1,1", "gl:m1,m2 with integers m1 and m2"),
        ("gl:", "gl:m1,m2 with integers m1 and m2"),
        ("bcd:C,1", "bcd:KIND,a,res with integers a and res"),
        ("bcd:C,1,x", "bcd:KIND,a,res with integers a and res"),
        ("bcd:C", "bcd:KIND,a,res with integers a and res"),
        ("bcd:C,1,2,3", "bcd:KIND,a,res with integers a and res"),
    ):
        for extra in ([], ["--json"]):
            argv = ["triple-verify", "--case", case, *extra]
            assert _serve(argv) == (1, "", "error: --case must be %s, got %r\n" % (form, case)), argv
    # well-formed cases still answer, and an unknown KIND keeps its message
    assert _serve(["triple-verify", "--case", "gl:2,1"])[0] == 0
    assert _serve(["triple-verify", "--case", "bcd:B,2,1"])[0] == 0
    assert _serve(["triple-verify", "--case", "bcd:X,1,1"]) == (1, "", "error: bcd kind must be B, C or D\n")


def test_rational_fields_are_refused_by_name():
    """Text that is no rational number is refused by its field's name and
    the accepted forms, not with Fraction's message."""
    for argv, field, text in (
        (["multiplicity", "--sheet", "C:2:1,1", "--z", "x"], "--z", "x"),
        (["multiplicity", "--sheet", "A:3:2,1", "--z", "1,x"], "--z", "x"),
        (["multiplicity", "--sheet", "C:2:1,1", "--z", ""], "--z", ""),
        (["mu-s", "--profile", "1", "--factors", "x"], "--factors", "x"),
        (["mu-s", "--profile", "2,1", "--factors", "1/2/3;1", "--json"], "--factors", "1/2/3"),
    ):
        message = "error: %s takes rational numbers such as 5, 7/5, 0.5 or 1e3, got %r\n" % (field, text)
        assert _serve(argv) == (1, "", message), argv
    code, out, _ = _serve(["multiplicity", "--sheet", "C:2:1,1", "--z", "1e3"])
    assert code == 0 and "z: ['1000']" in out


def test_empty_coefficients_in_a_factor_are_refused():
    """An empty coefficient inside a non-empty factor is refused (it was
    dropped, answering as if ;1,2); an empty factor, for l_i = 0, is not."""
    for factors in (";1,,2", ";1,2,", ";,1,2"):
        message = "error: --factors has an empty coefficient in factor 2, got %r\n" % factors
        assert _serve(["mu-s", "--profile", "2,2", "--factors=" + factors]) == (1, "", message), factors
    code, out, err = _serve(["mu-s", "--profile", "2,2", "--factors=;1,2"])
    assert code == 0 and out.startswith("image:") and err == ""
    assert _serve(["mu-s", "--profile", "3,1", "--factors=1;;2"])[0] == 0


def test_an_empty_levi_is_refused_not_ignored():
    """An empty --levi is a malformed label, as sheet-info reads it: sheets
    and hitchin-dim refuse it instead of answering as if no --levi was given."""
    message = "error: --levi must be comma-separated integers, e.g. 2,1,1 or 1,1, got ''\n"
    for argv in (
        ["sheets", "--kind", "C", "--rank", "2", "--levi", ""],
        ["sheets", "--kind", "C", "--rank", "2", "--levi="],
        ["sheets", "--kind", "A", "--rank", "3", "--levi=", "--json"],
        ["sheet-info", "--kind", "C", "--rank", "2", "--levi="],
        ["hitchin-dim", "--genus", "2", "--kind", "C", "--rank", "2", "--levi", ""],
    ):
        assert _serve(argv) == (1, "", message), argv


def test_out_of_shape_levi_labels_are_refused_by_name():
    """A Levi label of integers with the wrong count or range is refused by
    the field's name and form, quoting it, with empty stdout."""
    max_form = "a,res with integers a >= 1 and res >= 0"
    spec = "the LEVI of a sheet spec KIND:RANK:LEVI"
    for argv, field, form, text in (
        (["sheet-info", "--kind", "C", "--rank", "3", "--levi", "1,1,1"], "--levi", max_form, "1,1,1"),
        (["sheets", "--kind", "B", "--rank", "3", "--levi", "2", "--json"], "--levi", max_form, "2"),
        (["multiplicity", "--sheet", "C:2:1,1,1"], spec, max_form, "1,1,1"),
        (["sheet-info", "--kind", "D", "--rank", "4", "--levi", "0,5"], "--levi", max_form, "0,5"),
        (["hitchin-dim", "--genus", "2", "--kind", "C", "--rank", "4", "--levi", "4,-1"], "--levi", max_form, "4,-1"),
        (["multiplicity", "--sheet", "B:3:0,7"], spec, max_form, "0,7"),
        (["triple-verify", "--case", "bcd:C,0,3"], "--case", "bcd:KIND,a,res with integers a >= 1 and res >= 0", "bcd:C,0,3"),
        (["triple-verify", "--case", "bcd:D,2,-2", "--json"], "--case", "bcd:KIND,a,res with integers a >= 1 and res >= 0", "bcd:D,2,-2"),
        (["sheet-info", "--kind", "A", "--rank", "3", "--levi", "3,0"], "--levi", "a partition, integers >= 1 such as 2,1,1", "3,0"),
        (["sheets", "--kind", "A", "--rank", "1", "--levi", "2,-1"], "--levi", "a partition, integers >= 1 such as 2,1,1", "2,-1"),
        (["multiplicity", "--sheet", "A:2:2,0"], spec, "a partition, integers >= 1 such as 2,1,1", "2,0"),
    ):
        assert _serve(argv) == (1, "", "error: %s must be %s, got %r\n" % (field, form, text)), argv


def test_fixtures_refuse_an_empty_out_dir(monkeypatch, tmp_path: Path):
    """An empty --out-dir is refused, in both modes, and nothing is written:
    it was read as no --out-dir, and --regen rewrote the packaged tables."""
    from sheet_atlas import cli

    monkeypatch.setattr(cli, "data_dir", lambda: tmp_path)
    for argv in (["fixtures", "--regen", "--out-dir="], ["fixtures", "--regen", "--out-dir", ""], ["fixtures", "--out-dir="]):
        assert _serve(argv) == (1, "", "error: --out-dir must name a directory, got ''\n"), argv
    assert list(tmp_path.iterdir()) == []


def test_factor_counts_and_lengths_are_refused_by_name():
    """A wrong number of factors, or a factor of the wrong length, is
    refused naming --factors, the profile and what it needs."""
    for factors, count in (("1;;", 3), ("1", 1), ("1;2;3;4", 4)):
        message = "error: --factors has %d factors where profile (2,1) needs 2 (one per part size up to 2), got %r\n" % (
            count, factors)
        assert _serve(["mu-s", "--profile", "2,1", "--factors=" + factors]) == (1, "", message), factors
    for profile, factors, i, got, l_i in (("2,1", "1,2;3", 1, 2, 1), ("2,1", "1;", 2, 0, 1), ("2,2", ";1", 2, 1, 2)):
        message = "error: factor %d of --factors has %d coefficients where profile (%s) needs l_%d = %d, got %r\n" % (
            i, got, profile, i, l_i, factors)
        assert _serve(["mu-s", "--profile", profile, "--factors", factors]) == (1, "", message), factors
