"""Every name a plapx module exports resolves, so that ``from plapx.<module>
import *`` keeps working after a deletion."""

import importlib
import pkgutil

import pytest

import plapx

MODULES = ["plapx"] + [f"plapx.{info.name}"
                       for info in pkgutil.iter_modules(plapx.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(exported) == len(set(exported))
