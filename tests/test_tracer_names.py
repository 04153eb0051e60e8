"""The benchmark tracer wraps library functions by name at run time; check
here that every name it lists still resolves, so a rename fails a test
instead of the traced benchmark run."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

from sheet_atlas import partitions

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
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
