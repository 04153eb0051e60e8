"""The library's answers are exact: no floating point and nothing
probabilistic in src/.  Arithmetic modulo a prime may certify an answer,
which needs only integers, so this guard does not stand in its way.  The
same scan keeps ``dataclasses`` out of src/: its import and its generated
code were most of the CLI's start-up time.  It also keeps ``json.dumps``
and ``json.dump`` out: with an indent they run a pure-Python encoder, and
every answer is written by ``sheets.json_text`` or ``sheets.record_json``
instead."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sheet_atlas"

FORBIDDEN_NAMES = {"float", "complex"}
FORBIDDEN_MODULES = {"random", "cmath", "statistics", "dataclasses"}
# integer-only functions of math; everything else in it works on floats
MATH_ALLOWED = {"gcd", "lcm", "factorial", "prod", "comb", "isqrt"}
# json's writers; its readers and its string encoder are allowed
JSON_FORBIDDEN = {"dumps", "dump"}


def _findings(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, "literal %r" % (node.value,)
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            yield node.lineno, "name %s" % node.id
        elif (isinstance(node, ast.Attribute) and node.attr in JSON_FORBIDDEN
              and isinstance(node.value, ast.Name) and node.value.id == "json"):
            yield node.lineno, "json.%s" % node.attr
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in FORBIDDEN_MODULES or top == "math":
                    yield node.lineno, "import %s" % alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            top = node.module.split(".")[0]
            if top in FORBIDDEN_MODULES:
                yield node.lineno, "from %s import" % node.module
            elif node.module == "math":
                for alias in node.names:
                    if alias.name not in MATH_ALLOWED:
                        yield node.lineno, "from math import %s" % alias.name
            elif node.module == "json":
                for alias in node.names:
                    if alias.name in JSON_FORBIDDEN:
                        yield node.lineno, "from json import %s" % alias.name


def test_no_floating_point_or_randomness_in_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d: %s" % (path.relative_to(SRC.parent), line, what) for line, what in _findings(tree)]
    assert not found, "inexact or probabilistic code, a dataclasses import or json's writer in the library: " + "; ".join(found)


def test_guard_catches_each_forbidden_form():
    source = "\n".join(
        [
            "x = 0.5",
            "y = 2j",
            "z = float(1)",
            "w = complex",
            "import random",
            "import cmath as c",
            "from statistics import mean",
            "import math",
            "from math import sqrt, gcd",
            "from math import lcm, factorial, prod, comb, isqrt",
            "from fractions import Fraction",
            "import dataclasses",
            "from dataclasses import dataclass",
            "s = json.dumps(x, indent=2)",
            "json.dump(x, out)",
            "from json import loads, dumps",
            "from json import dump as write",
            "x = json.loads(s)",
            "from json.encoder import encode_basestring_ascii",
            "s = text.dumps",
        ]
    )
    lines = sorted(line for line, _ in _findings(ast.parse(source)))
    assert lines == [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 14, 15, 16, 17]
