"""Every name a module exports resolves, so a deleted function cannot leave a stale ``__all__`` entry."""

import importlib
import pkgutil

import pytest

import se3diffuse

MODULES = ["se3diffuse"] + [m.name for m in pkgutil.walk_packages(se3diffuse.__path__, "se3diffuse.")
                            if m.name != "se3diffuse.__main__"]  # importing __main__ runs the CLI


def test_the_package_and_its_kernels_are_checked():
    assert {"se3diffuse", "se3diffuse._kernels", "se3diffuse.igso3", "se3diffuse.diffusion"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
