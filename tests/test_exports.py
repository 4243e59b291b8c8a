"""Every name a module exports in ``__all__`` exists in it.

A deletion that leaves its name in ``__all__`` still imports cleanly, and
only ``from polypencil.<module> import *`` would find the stale entry.
"""

import importlib
import pkgutil

import pytest

import polypencil

MODULES = [info.name for info in pkgutil.iter_modules(polypencil.__path__)
           if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"polypencil.{name}")
    assert [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)] == []

