"""Every exported name resolves.

Deleting a function leaves its name behind in an __all__ list, where
`from module import *` is the first thing to trip over it.  The package
itself has no __all__: its imports fail at import time instead.
"""

import importlib
import pkgutil

import pytest

import formflux

MODULES = [formflux] + [
    importlib.import_module(f"formflux.{info.name}")
    for info in pkgutil.iter_modules(formflux.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
