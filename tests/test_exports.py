"""Every ``__all__`` name of every ``repro`` module resolves.

A stale export breaks ``from module import *`` (and the API docs
generator) while every test that imports names one by one still passes.
"""

import importlib
import pkgutil

import repro


def test_every_export_of_every_module_resolves():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith("__main__")
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing.extend(
            f"{name}.{export}"
            for export in getattr(module, "__all__", ())
            if not hasattr(module, export)
        )
    assert len(names) > 70
    assert missing == []
