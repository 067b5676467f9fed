"""Lazy package re-exports (PEP 562).

A package lists its public names once, in a ``{public name: submodule}``
table.  :func:`exports` turns that table into the package's module-level
``__getattr__`` and ``__dir__``: a name's submodule is imported the first
time the name is read, and the value is cached in the package's globals,
so later reads are plain lookups.  ``import repro`` therefore imports no
subpackage, and ``python -m repro scenario run`` loads only the modules
the run uses.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping


def exports(
    package: str, namespace: dict, table: Mapping[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, driven by ``table``.

    ``table`` maps each public name to the module defining it, relative
    to ``package`` (e.g. ``".runner"``); ``namespace`` is the package's
    ``globals()``, where resolved names are cached.
    """

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
