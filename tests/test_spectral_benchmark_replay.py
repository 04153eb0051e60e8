"""The benchmark's spectral operations, checked against its closed forms.

Replays the first 600 seed-1 operations of the ``spectral-compose``
workload: inputs from ``perfbench/gen.py``, answers through
``perfbench/ops.py`` (``spectral_point``, then ``summarise``), each checked
by ``gen.check``.  ``gen.py`` never imports sheet_atlas, so its closed
forms are an independent oracle.  Nothing under ``perfbench/`` is changed.
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


def test_spectral_compose_answers_match_the_closed_forms():
    gen, ops = _load("gen"), _load("ops")
    workload = "spectral-compose"
    classes = set()
    for inp, expected, _ in gen.make_ops(workload, 1, COUNT):
        result = ops.summarise(workload, ops.spectral_point(inp))
        assert gen.check(workload, expected, result) is None, inp
        # (symbolic, in the heart): the four classes of the workload
        classes.add((inp[2], expected[3]))
    assert classes == {(False, True), (False, False), (True, True), (True, False)}
