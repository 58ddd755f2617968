"""Every name the benchmark's tracer wraps must still exist where it
looks it up, so a rename fails here rather than only in the benchmark."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("zenosim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library imports only
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module_name,path,name", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_resolves_as_the_tracer_looks_it_up(module_name, path, name):
    # Tracer._replace walks the dotted path by getattr, then reads the last
    # part from the owner's __dict__ and wraps a function or a classmethod
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module_name}.{path} ({name}) is gone"
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        raw = raw.__func__
    assert inspect.isfunction(raw), f"{module_name}.{path} is not a plain function"
