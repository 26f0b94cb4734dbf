"""Lazy re-exports for package inits (PEP 562).

A package init re-exports a numpy- or networkx-backed name through
:func:`lazy_exports` instead of importing its module, so that
``import repro.core`` loads neither stack.  The name resolves on first
use — attribute access, ``from pkg import name`` or ``import *`` — to
the defining module's own object, which is then cached in the package.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, modules: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for ``package``.  ``modules`` maps a
    submodule to the names of it that ``package`` re-exports; a name
    equal to its submodule's stands for the submodule itself."""
    home = {name: sub for sub, names in modules.items() for name in names}

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home[name]}")
        value = module if name == home[name] else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *home})

    return __getattr__, __dir__
