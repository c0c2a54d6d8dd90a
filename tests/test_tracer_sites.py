"""The names perfbench's layer tracer wraps must exist in plapx.

``perfbench/layertrace.py`` patches module attributes such as
``plapx.solver.triangulate_convex`` and the ``plapx.cli._RUNNERS`` table by
name, so deleting or renaming one of them breaks ``perfbench/run.py
--trace 1`` without failing anything else.  The perfbench modules import
only the standard library at module level; they are loaded here without
writing bytecode next to them.
"""

import importlib
import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def load_perfbench(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def layertrace(monkeypatch):
    return load_perfbench("layertrace", monkeypatch)


def test_every_traced_site_resolves(layertrace):
    assert layertrace.SITES
    for module_name, attribute, *_ in layertrace.SITES:
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            assert hasattr(owner, part), f"{module_name}.{attribute}"
            owner = getattr(owner, part)
        assert callable(owner), f"{module_name}.{attribute}"


def test_every_workload_command_has_a_runner(monkeypatch):
    import plapx.cli

    workloads = load_perfbench("workloads", monkeypatch)
    assert all(callable(fn) for fn in plapx.cli._RUNNERS.values())
    for wl in workloads.WORKLOADS.values():
        assert wl.command is None or wl.command in plapx.cli._RUNNERS
