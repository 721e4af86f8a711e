"""Every public name a module exports resolves, so a removed name cannot linger in ``__all__``."""
import importlib
import pkgutil

import pytest

import hedonic_lab

MODULES = sorted(info.name for info in pkgutil.iter_modules(hedonic_lab.__path__))


def test_every_module_is_listed():
    assert {"clustering", "experiments", "games", "stability"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hedonic_lab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_star_import_of_clustering():
    namespace: dict = {}
    exec("from hedonic_lab.clustering import *", namespace)
    assert "AlgoConfig" in namespace and "run_three_stage" in namespace
