"""The benchmark's spectral operations, checked against its closed forms.

Replays the first 600 seed-1 operations of the ``spectral-compose``
workload: inputs from ``perfbench/gen.py``, answers through
``perfbench/ops.py`` (``spectral_point``, then ``summarise``), each checked
by ``gen.check``.  ``gen.py`` never imports sheet_atlas, so its closed
forms are an independent oracle.  Each operation's factors and minimal
polynomial, whose coefficients the workload never reads, are read here
through their lazy view and checked against ``oracles.expand_roots`` of
the operation's roots, and the image against the polynomial built from its
coefficients.  Nothing under ``perfbench/`` is changed.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

from sheet_atlas.partitions import Partition, profile
from sheet_atlas.spectral import GradedPolynomial, SheetBasePoint, min_poly

from oracles import expand_roots

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
        raw = ops.spectral_point(inp)
        assert gen.check(workload, expected, ops.summarise(workload, raw)) is None, inp
        assert GradedPolynomial(raw[0].coeffs) == raw[0], inp
        parts, factors, symbolic = inp
        roots = [[ops._root(r, symbolic) for r in rs] for rs in factors]
        polys = [GradedPolynomial.from_roots(rs) for rs in roots]
        for poly, rs in zip(polys, roots):
            assert list(poly.coeffs) == expand_roots(rs)[1:], inp
        minimal = min_poly(SheetBasePoint(profile(Partition(parts)), polys))
        assert list(minimal.coeffs) == expand_roots([r for rs in roots for r in rs])[1:], inp
        # (symbolic, in the heart): the four classes of the workload
        classes.add((inp[2], expected[3]))
    assert classes == {(False, True), (False, False), (True, True), (True, False)}
