"""Replace library callables at every place they are bound.

A module that does ``from .seminorms import fixed_theta_seminorm`` holds its
own reference, so wrapping the defining module alone misses its callers.
``function_sites`` finds every ``formflux`` module attribute that is the
given function object; ``method_sites`` finds the class that defines a
method and every subclass that overrides it.  ``Rebinding`` swaps the
replacements in and restores the originals on exit.
"""

from __future__ import annotations

import sys


def function_sites(func):
    """(module, attribute) pairs in loaded formflux modules bound to func."""
    sites = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not mod_name.split(".")[0] == "formflux":
            continue
        for attr, value in vars(module).items():
            if value is func:
                sites.append((module, attr))
    if not sites:
        raise LookupError(f"{func!r} is bound nowhere in formflux")
    return sites


def method_sites(cls, name):
    """(class, name) for cls and every subclass whose own body defines name."""
    if name not in vars(cls):
        raise LookupError(f"{cls.__name__} defines no {name!r}")
    seen = []
    stack = [cls]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.append(c)
        stack.extend(c.__subclasses__())
    return [(c, name) for c in seen if name in vars(c)]


class Rebinding:
    """Context manager installing {(owner, attr): replacement} bindings."""

    def __init__(self, bindings):
        self._bindings = dict(bindings)
        self._saved = {}

    def __enter__(self):
        for (owner, attr), new in self._bindings.items():
            self._saved[(owner, attr)] = vars(owner)[attr]
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for (owner, attr), old in self._saved.items():
            setattr(owner, attr, old)
        self._saved.clear()
        return False
