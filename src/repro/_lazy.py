"""Lazy package exports (PEP 562), shared by every ``repro`` package.

A package ``__init__`` maps each public name to the submodule that
defines it and installs the ``__getattr__``/``__dir__`` pair this module
builds.  A name's submodule is imported on first access, and the value
is cached in the package, so a process imports only the code it runs:
a ``ProcessRuntime`` worker or a sidecar never loads the model checker,
the benchmark programs or NumPy.  ``from repro import X``, ``repro.X``,
``from repro.core import *`` and pickling by reference all behave as
with eager imports.
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping, Union

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, namespace: dict, exports: Mapping[str, Union[str, tuple]]
) -> tuple[Callable[[str], object], Callable[[], list]]:
    """Return the ``(__getattr__, __dir__)`` pair for *package*.

    *exports* maps each public name to the submodule that defines it,
    relative to *package* (``".policy"``), or to a tuple of other
    exported names, which the name resolves to as a tuple of their
    values (``TJ_POLICIES``).  *namespace* is the package's
    ``globals()``; a resolved value is stored there, so each name costs
    one lookup through ``__getattr__`` and none after.

    A name exported from a submodule of the same name (``finish`` from
    ``constructs/finish.py``) is bound now: once anything imported that
    submodule, the import system would have bound the module over the
    lazy name.
    """

    def __getattr__(name: str) -> object:
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        if isinstance(source, tuple):
            value: object = tuple(__getattr__(part) for part in source)
        else:
            value = getattr(importlib.import_module(source, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(exports))

    for name, source in exports.items():
        if source == "." + name:
            __getattr__(name)
    return __getattr__, __dir__
