"""The benchmark's tracer (``perfbench/tracing.py``) wraps functions and
methods of the package by name. Installing it must find every one of those
names, and restoring it must put back each binding it replaced; a change
that renames or deletes a traced name fails here, naming it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("ann", "avd", "convexify", "envelope")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every name bound in the traced modules and in the classes they define."""
    modules = [importlib.import_module("eann." + m) for m in MODULES]
    owners = modules + [v for m in modules for v in vars(m).values()
                        if isinstance(v, type) and v.__module__ == m.__name__]
    return {(owner.__name__, name): value
            for owner in owners for name, value in vars(owner).items()}


def test_tracer_install_and_restore_round_trip():
    tracing = _load_tracing()
    before = _bindings()
    restore = tracing.install(tracing.Tracer())
    try:
        during = _bindings()
    finally:
        restore()
    after = _bindings()
    wrapped = sorted(k for k in before if during[k] is not before[k])
    assert set(during) == set(before)
    assert ("eann.convexify", "batch_values") in wrapped
    assert ("eann.envelope", "normalize") in wrapped
    assert ("AvdTree", "locate") in wrapped
    assert set(after) == set(before)
    assert [k for k in before if after[k] is not before[k]] == []
