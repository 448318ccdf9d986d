"""The public surface: every name a module exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import secgame

MODULES = ["secgame"] + [f"secgame.{info.name}"
                         for info in pkgutil.iter_modules(secgame.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
