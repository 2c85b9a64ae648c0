"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from heavy submodules hands
them to :func:`lazy_exports` instead of importing them.  The submodule is
imported the first time one of its names is read — ``repro.faults.FaultInjector``
or ``from repro.faults import FaultInjector`` alike — so ``import repro``
loads only what an unarmed run uses.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, namespace: Dict[str, Any], exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return the ``(__getattr__, __dir__)`` pair of package ``package``.

    ``exports`` maps a submodule, relative to the package (``".injector"``),
    to the names the package re-exports from it.  The first read of a name
    imports its submodule and binds the value in ``namespace`` (the
    package's ``globals()``), so every later read is a plain lookup.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__
