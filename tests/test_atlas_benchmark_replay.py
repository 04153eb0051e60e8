"""The benchmark's atlas requests, checked against its closed forms.

Replays the first 600 seed-1 operations of the ``atlas-lookup`` workload:
inputs from ``perfbench/gen.py``, answers through ``perfbench/ops.py``
(``run_cli``, then ``summarise``), each checked by ``gen.check``.  ``gen.py``
never imports sheet_atlas, so its closed forms are an independent oracle.
Nothing under ``perfbench/`` is changed.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
COUNT = 600


def _load(name: str):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _request_class(gen, argv, expected) -> str:
    """The class of ``gen.ATLAS_MIX`` an operation was drawn from."""
    if expected == gen.ERROR:
        return "invalid"
    if argv[:3] == ("sheets", "--kind", "A") and int(argv[4]) in gen.HEAVY_RANKS:
        return "heavy"
    return argv[0]


def test_atlas_answers_match_the_closed_forms(monkeypatch):
    monkeypatch.delenv("SHEET_ATLAS_JSON", raising=False)
    gen, ops = _load("gen"), _load("ops")
    workload = "atlas-lookup"
    classes = set()
    for argv, expected, _ in gen.make_ops(workload, 1, COUNT):
        raw = ops.run_cli(argv)
        assert gen.check(workload, expected, ops.summarise(workload, raw)) is None, argv
        classes.add(_request_class(gen, argv, expected))
    assert classes == {name for name, _ in gen.ATLAS_MIX}
    assert {"heavy", "invalid"} <= classes
