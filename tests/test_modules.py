"""Every annotation in the package resolves to a defined name, standing in
for a linter's undefined-name check (``from __future__ import annotations``
defers the lookup until something asks for the hints), and every function
the benchmark traces exists."""
import importlib
import inspect
import pkgutil
import runpy
import typing
from pathlib import Path

import pytest

import hcara

MODULES = sorted(m.name for m in pkgutil.iter_modules(hcara.__path__))


def _annotated(module):
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                member = getattr(member, "__func__", getattr(member, "fget", member))
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(f"hcara.{name}")
    for obj in _annotated(module):
        typing.get_type_hints(obj)


def test_benchmark_traces_only_existing_functions():
    """``bench/tracing.py`` wraps every name in ``TRACED`` with a ``getattr``
    on its hcara module, so deleting one breaks the benchmark."""
    tracing = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracing.py"))
    missing = [
        f"hcara.{layer}.{name}"
        for layer, names in tracing["TRACED"].items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hcara.{layer}"), name, None))
    ]
    assert tracing["TRACED"] and not missing
