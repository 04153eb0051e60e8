"""The benchmark tracer wraps library functions by name at run time; check
here that every name it lists still resolves, so a rename fails a test
instead of the traced benchmark run."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from sheet_atlas import liealg, partitions, scalars, sheets

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load("tracer")
    for layer, name, modname, attr in tracer.FUNCTIONS:
        assert layer in tracer.LAYERS, (layer, name)
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            assert inspect.isfunction(cls.__dict__.get(meth)), "%s.%s" % (modname, attr)
        else:
            assert inspect.isfunction(getattr(mod, attr, None)), "%s.%s" % (modname, attr)
    for layer in tracer.MODULE_LAYERS:
        importlib.import_module("sheet_atlas." + layer)


def test_partitions_of_is_a_generator_function():
    # the tracer's partitions.yielded counter wraps it as a generator
    assert inspect.isgeneratorfunction(partitions.partitions_of)


def test_rank_rows_keep_the_shape_the_tracer_counts(monkeypatch):
    """The tracer counts liealg.rank_entries as len(rows) * len(rows[0]) of
    the argument of fraction_free_rank.  That measures the same work only
    while every sheet-points case, at a rational z, hands the elimination
    one row per basis element of the model, each of n^2 entries."""
    gen, ops = _load("gen"), _load("ops")
    shapes = []
    rank = liealg.fraction_free_rank

    def recorded(rows):
        shapes.append((len(rows), {len(row) for row in rows}))
        return rank(rows)

    monkeypatch.setattr(liealg, "fraction_free_rank", recorded)
    cases = gen._point_cases()
    for n, case in cases:
        shapes.clear()
        assert ops.sheet_point((case, 3, 7, False))[0] == "rational"
        dimension = n * n if case[0] == "gl" else liealg.build_model(sheets.GroupKind(case[1], case[2])).dimension
        assert shapes == [(dimension, {n * n})], case
    assert len(cases) > 80


def test_ratpoly_is_a_value_type():
    """RatPoly keeps what a matrix entry or a graded coefficient needs, and
    the two methods the tracer wraps by name; nothing in the library calls
    those two, so they go when the tracer drops the names."""
    value_type = {
        *("constant", "variable", "degree", "is_zero", "__bool__", "is_constant", "constant_value"),
        *("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"),
        *("__eq__", "__hash__", "__repr__", "__str__"),
    }
    tracer_only = {"divmod", "gcd"}
    internal = {"__init__", "__setattr__", "_sym"}
    methods = {name for name, v in vars(scalars.RatPoly).items() if callable(v) or isinstance(v, classmethod)}
    assert methods == value_type | tracer_only | internal
    wrapped = {attr.split(".")[1] for _, _, _, attr in _load("tracer").FUNCTIONS if attr.startswith("RatPoly.")}
    assert wrapped - {"__mul__"} == tracer_only
