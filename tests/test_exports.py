"""Every name a holoest module lists in ``__all__`` resolves in that module."""

import importlib
import pkgutil

import pytest

import holoest

MODULES = sorted(info.name for info in pkgutil.iter_modules(holoest.__path__))


def test_every_module_is_listed():
    assert MODULES == [
        "cli",
        "config",
        "correlation",
        "coupling",
        "estimation",
        "experiments",
        "geometry",
        "linalg",
        "special",
    ]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"holoest.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
