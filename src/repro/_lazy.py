"""PEP 562 lazy re-exports, shared by the package facades.

A facade (``repro``, ``repro.core``, ``repro.store``, ``repro.api``) maps
each name it re-exports to the module it comes from.  That module is
imported on the first access to one of its names, so a process loads only
the layers it touches: opening a store or a session loads no checker
module.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(
    facade: str, exports: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of facade ``facade``.

    ``exports`` maps each re-exported name to the module it comes from.
    The ``__getattr__`` reads the name off that module on every access and
    never stores it in the facade's globals: whoever rebinds that module's
    global (a tracer wrapping an entry point, a test's monkeypatch) is
    seen through the facade, and undoing the rebinding leaves no stale
    copy behind.  Names outside ``exports`` raise
    :class:`AttributeError`, which also lets ``from facade import
    submodule`` fall through to the import system.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {facade!r} has no attribute {name!r}")
        return getattr(import_module(module), name)

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[facade]), *exports})

    return __getattr__, __dir__
