"""The names importers and the benchmark tracer look up in the package."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from gflswing import dynamics

MODULES = (
    "gflswing",
    "gflswing.network",
    "gflswing.pcc",
    "gflswing.dynamics",
    "gflswing.stability",
    "gflswing.cli",
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_traced_attribute_resolves():
    # Loaded by path so that perfbench/ never lands on sys.path.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, attr) for module, attr, _, _ in tracer.TARGETS]
    assert targets
    missing = [
        (module, attr)
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_step_takes_the_fleet_second():
    # The tracer reads a step's fleet size from its second positional argument.
    assert list(inspect.signature(dynamics.step).parameters)[1] == "fleet"
