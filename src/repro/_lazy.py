"""Package namespaces that import their exports on first use (PEP 562).

A package ``__init__`` lists its public names by defining module and
installs the pair this module returns::

    __getattr__, __dir__ = _lazy.exports(globals(), {
        ".nsga2": ("NSGA2", "EpsilonArchiveNSGA2"),
    })

``from repro.core import NSGA2`` then imports ``repro.core.nsga2`` (and
what it needs) instead of every module the package re-exports, so a
process pays only for the layers it uses.  Code inside ``repro`` names
the defining module directly and never goes through a namespace.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping


def exports(
    namespace: dict, modules: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are *namespace*.

    *modules* maps a module path relative to the package (``".nsga2"``)
    to the names it defines.  A name is imported on first access and
    cached in *namespace*, so later lookups never reach
    ``__getattr__``.  Unknown names raise :class:`AttributeError`, which
    lets ``from package import submodule`` fall through to the import
    system as usual.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
