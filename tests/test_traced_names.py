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


def traced(module_name, path):
    """The function the tracer wraps: Tracer._replace walks the dotted path
    by getattr, then reads the last part from the owner's __dict__."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{module_name}.{path} is gone"
    raw = owner.__dict__[attr]
    return raw.__func__ if isinstance(raw, classmethod) else raw


@pytest.mark.parametrize("module_name,path,name", tracing.SPANNED + tracing.COUNTED)
def test_traced_name_resolves_as_the_tracer_looks_it_up(module_name, path, name):
    raw = traced(module_name, path)
    assert inspect.isfunction(raw), f"{module_name}.{path} ({name}) is not a plain function"


#: the arguments each fixed-arity wrapper of Tracer._spanned passes on
CALL_SHAPES = {
    "intervals.sample": (("dist", "rng", "m"), {}),
    "dynamics.lnq_vector": (("lam", "w", "mus"), {}),
    "intervals.expect_windowed": (("dist", "g"), {"edges": "edges"}),
}


@pytest.mark.parametrize("module_name,path,name",
                         [entry for entry in tracing.SPANNED if entry[2] in CALL_SHAPES])
def test_fixed_arity_wrapper_binds_to_the_traced_signature(module_name, path, name):
    # a signature change that the wrapper's call no longer fits fails here,
    # not only under a traced benchmark run
    args, kwargs = CALL_SHAPES[name]
    inspect.signature(traced(module_name, path)).bind(*args, **kwargs)


def test_every_call_shape_is_traced():
    assert set(CALL_SHAPES) <= {name for _, _, name in tracing.SPANNED}
