"""The library keeps its checks under ``python -O``: no ``assert`` in src/."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sheet_atlas"


def test_no_assert_statements_in_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.relative_to(SRC.parent), node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements (removed under python -O) at: " + ", ".join(found)
