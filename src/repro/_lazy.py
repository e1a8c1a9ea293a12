"""Lazy package namespaces: a public name imports its submodule on first use.

``repro``, ``repro.core`` and ``repro.analysis`` each export names defined
in their submodules.  Importing them all up front made every process pay
for numpy and every driver, including the ones that only run the sweep
ledger, the result cache or the service.  Instead each package keeps one
table — public name → the submodule that defines it — and hands it to
:func:`lazy_exports`, which supplies the package's PEP 562 ``__getattr__``
and ``__dir__``::

    _EXPORTS = {"NetworkConfig": ".config", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

A resolved name is stored in the package, so the second lookup is a plain
attribute read.  ``from pkg import X``, ``from pkg import *``, ``dir(pkg)``
and pickling by qualified name behave as they did with eager imports.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Any, Callable, Mapping

__all__ = ["lazy_exports"]


class _LazyPackage(types.ModuleType):
    """A package whose exports outrank its same-named submodules.

    The import system binds a newly loaded submodule on its parent, so
    loading ``repro.core.explore`` would bind the module over the
    ``explore`` function the package exports from it.  An eager
    ``__init__`` re-bound the function right after; here the export is
    bound in the module's place.
    """

    _exports: Mapping[str, str]

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, types.ModuleType) and self._exports.get(name) == "." + name:
            value = getattr(value, name)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, exporting ``exports``.

    ``exports`` maps each public name to the submodule, relative to
    ``package``, that defines it.
    """
    module = sys.modules[package]
    module.__class__ = _LazyPackage
    vars(module)["_exports"] = exports

    def __getattr__(name: str) -> Any:
        try:
            submodule = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(submodule, package), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(module), *exports})

    return __getattr__, __dir__
