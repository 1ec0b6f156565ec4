"""Every annotation in the package resolves to a defined name, standing in
for a linter's undefined-name check (``from __future__ import annotations``
defers the lookup until something asks for the hints)."""
import importlib
import inspect
import pkgutil
import typing

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
