"""Importing the package and its CLI loads none of the modules that only
code generation or introspection needs (``dataclasses`` pulls in
``inspect``, ``ast`` and ``dis``), nor the argparse parser, which only
help and parse errors need: they would be paid on every start of the CLI.
A module a bare interpreter already loads is not held against it."""
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis")
# cli.main parses plain requests from its option table; argparse (and the
# gettext it loads for its messages) is imported only for help and errors
PARSING = ("argparse", "gettext")
IMPORT_CLI = "import sheet_atlas, sheet_atlas.cli; assert sheet_atlas.__file__.startswith(sys.path[0])"


def _loaded_after(statement, modules):
    """The modules of ``modules`` loaded in a fresh isolated interpreter,
    with the source tree on sys.path, once ``statement`` has run."""
    code = "import sys; sys.path.insert(0, %r); %s; print(*[m for m in %r if m in sys.modules])" % (str(SRC), statement, modules)
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True).stdout
    return set(out.split())


def test_package_and_cli_import_no_introspection_modules():
    bare = _loaded_after("pass", HEAVY)
    loaded = _loaded_after(IMPORT_CLI, HEAVY)
    assert loaded <= bare, "imported by sheet_atlas: %s" % ", ".join(sorted(loaded - bare))


def test_package_and_cli_import_no_argument_parser():
    bare = _loaded_after("pass", PARSING)
    loaded = _loaded_after(IMPORT_CLI, PARSING)
    assert loaded <= bare, "imported by sheet_atlas: %s" % ", ".join(sorted(loaded - bare))
