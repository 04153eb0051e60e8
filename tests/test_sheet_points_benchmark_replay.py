"""The benchmark's sheet-point operations, checked against its closed forms.

Replays the first 600 seed-1 operations of the ``sheet-points`` workload,
and sweeps every case the workload draws from, at a rational z and over
Q[t]: inputs from ``perfbench/gen.py``, answers through ``perfbench/ops.py``
(``sheet_point``, then ``summarise``), each checked by ``gen.check``.
``gen.py`` never imports sheet_atlas, so its closed forms are an independent
oracle.  Nothing under ``perfbench/`` is changed.
"""
from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
COUNT = 600


def _load(name: str):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sheet_points_answers_match_the_closed_forms():
    gen, ops = _load("gen"), _load("ops")
    workload = "sheet-points"
    families, classes = set(), set()
    for inp, expected, _ in gen.make_ops(workload, 1, COUNT):
        raw = ops.sheet_point(inp)
        assert gen.check(workload, expected, ops.summarise(workload, raw)) is None, inp
        case = inp[0]
        families.add("gl" if case[0] == "gl" else case[1])
        classes.add(raw[0])
    assert families == {"gl", "B", "C", "D"}
    assert classes == {"rational", "symbolic"}


def test_every_sheet_point_case_at_a_rational_z_and_over_qt():
    """Each case of ``gen._point_cases()`` (GL pairs with n <= 14, B/C/D
    maximal Levis with n <= 16) once at a rational z and once at z = c t
    over Q[t], against ``gen.point_expected``."""
    gen, ops = _load("gen"), _load("ops")
    workload = "sheet-points"
    cases = gen._point_cases()
    for n, case in cases:
        for c, symbolic in ((Fraction(-11, 6), False), (Fraction(-7, 5), True)):
            inp = (case, c.numerator, c.denominator, symbolic)
            raw = ops.sheet_point(inp)
            assert raw[0] == ("symbolic" if symbolic else "rational")
            assert gen.check(workload, gen.point_expected(case, c, symbolic), ops.summarise(workload, raw)) is None, inp
    assert {n for n, _ in cases} == set(range(2, 17))
    assert {case[1] for _, case in cases if case[0] == "bcd"} == {"B", "C", "D"}
