"""The CLI's parsing against :func:`oracles.reference_parser`.

``cli.main`` decides plain requests from its option table and leaves the
rest to an argparse parser built from the same table.  The reference parser
is the CLI's parser written out by hand.  Here both must give the same help
texts, the same parse of every seeded argv (the same namespace, or the same
exit code, stdout and stderr) and the same answers to the documented and
recorded requests.

The module imports nothing outside the standard library and the source and
test trees, so its checks also run without pytest::

    PYTHONPATH=src:tests python -c "import test_cli_parse as t; t.check_all()"
"""
from __future__ import annotations

import io
import json
import os
import random
import shlex
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from sheet_atlas import cli

from oracles import reference_parser

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FUZZ_SEED = 20261019
FUZZ_COUNT = 2500


def _subparsers(parser):
    """{command: its parser} of a parser with one subparsers action."""
    (action,) = [a for a in parser._actions if isinstance(a.choices, dict)]
    return action.choices


@contextmanager
def _captured():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        yield out, err


@contextmanager
def _recording(seen):
    """Every handler of cli.COMMANDS replaced by one that appends the vars
    of its namespace to ``seen`` (with the handler it stands for as func),
    so that a parse can be read through cli.main without running it."""
    saved = dict(cli.COMMANDS)

    def recorder(func):
        def record(args):
            seen.append(dict(vars(args), func=func))
            return 0
        return record

    for name, (func, text, options) in saved.items():
        cli.COMMANDS[name] = (recorder(func), text, options)
    try:
        yield
    finally:
        cli.COMMANDS.update(saved)


def cli_parse(argv):
    """("parsed", vars) or ("exit", code, stdout, stderr) of argv through cli.main."""
    seen = []
    with _recording(seen), _captured() as (out, err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    if seen:
        assert (code, out.getvalue(), err.getvalue()) == (0, "", ""), argv
        return ("parsed", seen[0])
    return ("exit", code, out.getvalue(), err.getvalue())


def oracle_parse(parser, argv):
    """The same outcome of argv through the reference parser."""
    with _captured() as (out, err):
        try:
            return ("parsed", vars(parser.parse_args(list(argv))))
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())


def oracle_serve(parser, argv):
    """Exit code, stdout and stderr of argv parsed by the reference parser
    and run through its handler, with the CLI's domain-error report."""
    with _captured() as (out, err):
        try:
            args = parser.parse_args(list(argv))
            try:
                code = args.func(args)
            except (ValueError, ZeroDivisionError) as exc:
                print("error: %s" % exc, file=sys.stderr)
                code = 1
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_serve(argv):
    with _captured() as (out, err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# --- seeded argv ----------------------------------------------------------------

CLEAN_STR = ("2,1", "1,1", "2,1,1", "C:2:1,1", "A:3:2,1", "SU:3,1", "SOSTAR:5", "gl:2,1", "sp4-slice", "5", "0,1", "7/5")
ODD_STR = ("", "-2,1", "-3", "-3/2", "-1e3", "-x", "-", "--", "--json", "-h", "a=b", "x y", "=")
CLEAN_INT = ("2", "3", "4", "5")
ODD_INT = ("0", "-1", "-3", "+4", " 5", "1_0", "x", "2.5", "", "0x10", "--")
ODD_CHOICE = ("X", "a", "f4", "", "-A", "AB")
STRAY = ("-h", "--help", "--", "--nope", "-x", "stray", "", "-3", "--jso", "--j", "-", "--json=1", "--=x")


def _options(parser):
    """{command: [(flag, store_true, int_typed, choices, required)]} read
    off the reference parser."""
    out = {}
    for name, sub in _subparsers(parser).items():
        out[name] = [
            (a.option_strings[0], a.nargs == 0, a.type is int, a.choices, a.required)
            for a in sub._actions
            if a.option_strings and a.option_strings[0].startswith("--") and a.dest != "help"
        ]
    return out


def _value(rng, flag_info, clean):
    _, _, int_typed, choices, _ = flag_info
    if choices:
        return rng.choice(choices) if clean else rng.choice(ODD_CHOICE + tuple(choices))
    if int_typed:
        return rng.choice(CLEAN_INT) if clean else rng.choice(ODD_INT + CLEAN_INT)
    return rng.choice(CLEAN_STR) if clean else rng.choice(ODD_STR + CLEAN_STR)


def _option_tokens(rng, info, clean):
    """The tokens of one option: exact, '=' or abbreviated spelling."""
    flag, store_true = info[0], info[1]
    if store_true:
        if clean or rng.random() < 0.6:
            return [flag]
        return [rng.choice((flag + "=", flag + "=1", flag[: rng.randint(3, len(flag) - 1)] if len(flag) > 3 else flag))]
    value = _value(rng, info, clean)
    if clean:
        return [flag, value] if rng.random() < 0.7 else [flag + "=" + value]
    roll = rng.random()
    if roll < 0.3:
        return [flag, value]
    if roll < 0.55:
        return [flag + "=" + value]
    if roll < 0.8 and len(flag) > 3:
        short = flag[: rng.randint(3, len(flag) - 1)]
        return [short, value] if rng.random() < 0.6 else [short + "=" + value]
    return [flag]  # a missing value, or one taken from the next token


def fuzz_argv(rng, options):
    """One seeded argv: a command (now and then none, or an unknown one) and
    its options in random order, most of them clean, some with an odd
    spelling or value, repeated, dropped or joined by a stray token."""
    commands = sorted(options)
    roll = rng.random()
    if roll < 0.02:
        return []
    if roll < 0.05:
        return [rng.choice(("-h", "--help", "no-such-command", "--json", "sheet", "Sheets"))] + rng.choice(([], ["--kind", "A"]))
    name = rng.choice(commands)
    infos = options[name]
    dirty = rng.random() < 0.6
    chosen = [i for i in infos if rng.random() < (0.93 if i[4] else 0.5)]
    if dirty and rng.random() < 0.3:
        chosen += [rng.choice(infos)]  # a repeat
    rng.shuffle(chosen)
    argv = [name]
    for info in chosen:
        argv += _option_tokens(rng, info, clean=not dirty or rng.random() < 0.6)
    if dirty and rng.random() < 0.4:
        other = options[rng.choice(commands)]
        token = rng.choice(STRAY) if rng.random() < 0.7 else rng.choice(other)[0]
        argv.insert(rng.randint(1, len(argv)), token)
    return argv


def fuzz_cases(seed=FUZZ_SEED, count=FUZZ_COUNT):
    rng = random.Random(seed)
    options = _options(reference_parser())
    return [fuzz_argv(rng, options) for _ in range(count)]


# --- checks ----------------------------------------------------------------------

def check_help():
    ours, reference = cli.build_parser(), reference_parser()
    assert ours.format_help() == reference.format_help()
    mine, theirs = _subparsers(ours), _subparsers(reference)
    assert list(mine) == list(theirs) and len(mine) == 8
    for name in theirs:
        assert mine[name].format_help() == theirs[name].format_help(), name
        assert mine[name].format_usage() == theirs[name].format_usage(), name


def check_fuzz(seed=FUZZ_SEED, count=FUZZ_COUNT):
    """Every seeded argv parses through cli.main as through the reference
    parser; returns how many the option table decided and how many went to
    argparse and parsed, exited 0 and exited 2."""
    parser = reference_parser()
    tally = {"table": 0, "argparse parsed": 0, "exit 0": 0, "exit 2": 0}
    for argv in fuzz_cases(seed, count):
        got, want = cli_parse(argv), oracle_parse(parser, argv)
        assert got == want, (argv, got, want)
        if cli._parse(argv) is not None:
            tally["table"] += 1
        elif want[0] == "parsed":
            tally["argparse parsed"] += 1
        else:
            tally["exit %d" % want[1]] += 1
    return tally


def readme_requests():
    """The argv of every `sheet-atlas ...` example line in README.md."""
    out = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("sheet-atlas "):
            out.append(shlex.split(line, comments=True)[1:])
    return out


def recorded_requests():
    """(argv, SHEET_ATLAS_JSON or None) of the README examples,
    test_cli.REUSE_SEQUENCE and the argv of the golden transcripts."""
    from test_cli import REUSE_SEQUENCE

    out = [(argv, None) for argv in readme_requests()]
    out += [(argv, env_json) for argv, env_json, _ in REUSE_SEQUENCE]
    for name in ("triple_verify_transcripts", "sp4_slice_transcripts", "mu_s_transcripts"):
        golden = json.loads((GOLDEN / ("%s.json" % name)).read_text(encoding="utf-8"))
        out += [(case["argv"], None) for case in (golden.values() if isinstance(golden, dict) else golden)]
    return out


def check_recorded():
    parser = reference_parser()
    saved = os.environ.pop("SHEET_ATLAS_JSON", None)
    try:
        for argv, env_json in recorded_requests():
            os.environ.pop("SHEET_ATLAS_JSON", None)
            if env_json is not None:
                os.environ["SHEET_ATLAS_JSON"] = env_json
            assert cli_serve(argv) == oracle_serve(parser, argv), argv
    finally:
        os.environ.pop("SHEET_ATLAS_JSON", None)
        if saved is not None:
            os.environ["SHEET_ATLAS_JSON"] = saved


def check_all():
    check_help()
    tally = check_fuzz()
    check_recorded()
    print("help, %d seeded argv %s and %d recorded requests agree" % (FUZZ_COUNT, tally, len(recorded_requests())))


# --- tests -----------------------------------------------------------------------

def test_help_matches_the_reference_parser():
    check_help()


def test_seeded_argv_parse_as_the_reference_parser_does():
    tally = check_fuzz()
    # the seeded argv reach both parsers and every outcome
    assert all(n >= 50 for n in tally.values()), tally


def test_seeded_argv_cover_every_spelling():
    cases = fuzz_cases()
    tokens = {t for argv in cases for t in argv}
    options = _options(reference_parser())
    flags = {info[0] for infos in options.values() for info in infos}
    for name, infos in options.items():
        assert [name] in [argv[:1] for argv in cases], name
        for flag, *_ in infos:
            assert flag in tokens and any(t.startswith(flag + "=") for t in tokens), flag
    # a value missing at the end of argv
    assert {info[0] for infos in options.values() for info in infos if not info[1]} <= {argv[-1] for argv in cases if argv}
    assert {"-h", "--help", "--", "--nope", "", "-3", "-3/2"} <= tokens
    abbreviated = {t.partition("=")[0] for t in tokens if t.startswith("--") and t.partition("=")[0] not in flags}
    assert any(f.startswith(a) and a != "--" for a in abbreviated for f in flags - {"--json"})
    assert any(argv.count(f) > 1 for argv in cases for f in flags)
    assert [] in cases


def test_recorded_requests_answer_as_the_reference_parser(monkeypatch):
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    assert len(readme_requests()) == 13
    check_recorded()


if __name__ == "__main__":
    check_all()
