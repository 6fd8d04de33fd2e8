"""Annotations on the strict-typed public surface must resolve at runtime.

The modules ``pyproject.toml`` opts into strict mypy promise complete
annotations.  Under ``from __future__ import annotations`` a name that is
used in an annotation but never imported stays invisible until something
evaluates it; ``typing.get_type_hints`` does exactly that, so this suite
catches the bug class without mypy installed.
"""

import importlib
import inspect
import typing
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def strict_modules() -> list[str]:
    """The module list of every strict ``[[tool.mypy.overrides]]`` block."""
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    return [
        module
        for override in config["tool"]["mypy"]["overrides"]
        if override.get("strict")
        for module in override["module"]
    ]


def defined_functions(module):
    """Every function and method defined in ``module`` (not re-exported)."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_the_strict_module_list_is_found():
    assert "repro.backends" in strict_modules()


@pytest.mark.parametrize("module_name", strict_modules())
def test_every_annotation_resolves(module_name):
    module = importlib.import_module(module_name)
    unresolved = []
    for qualname, function in defined_functions(module):
        try:
            typing.get_type_hints(function)
        except Exception as exc:  # noqa: BLE001 - report every failure
            unresolved.append(f"{qualname}: {type(exc).__name__}: {exc}")
    assert unresolved == []
