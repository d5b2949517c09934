"""The names importers and the benchmark tracer look up in the package, and
the benchmark inputs the config loader must keep reading the same way."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from gflswing import dynamics
from gflswing.cli import load_config

MODULES = (
    "gflswing",
    "gflswing.network",
    "gflswing.pcc",
    "gflswing.dynamics",
    "gflswing.stability",
    "gflswing.cli",
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    # Loaded by path so that perfbench/ never lands on sys.path.
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_traced_attribute_resolves():
    tracer = _perfbench_module("tracer")
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


# Provenance hash of each document perfbench/inputs.py draws, in draw order:
# the benchmark's inputs load, and load to the same resolved config.
PERFBENCH_INPUT_SHA256 = {
    ("wide_fleet", 1): (
        "02eb5c06ffadd1e29ba34c4380b1f844f7f34231d0cb193a3772a1ee5128c73d",
        "a3f537010941937086466ee1edfbc23b0c920a45da0d00e8fef26c151e5e8534",
    ),
    ("wide_fleet", 601): (
        "8809aebc4645c0e0e9e3a320f1a7e78119c44458e962cd1fd2a926307396b4e7",
        "65f0387250e552a7ecfcab037b4016f5ae56cfa10aea5037bbf467b749d78ce8",
    ),
    ("cct_search", 1): (
        "68c8adf96e0400f08b4d9c7f2369a40752e79c8d3e06c2c60bee2c4f22e7d254",
        "bb581c97a7f780874598cdf278131e00b5089125da7ebf420a62c391212ca0a1",
        "fa9b2869411676a1bbec818c32b532973a7bbae9bdfb2e592bea47fc29e3fc28",
        "2c4729bd0172176930a92de0c2b7258c360493d4577a8e1b24797420556b7444",
        "8aaab1f06bd7ef7fd70321e55d435b0a8a863e14545fb67c1ea77b5b73ffe011",
        "11a2e306fb7c3711cfe6aa3ef7456bcdde8e9e2c00421ad31d16b091630bdeb4",
        "a9d7b4ea5fd0046f44964092f3acca11a50cc60f8462bdf7911798bf76fdcafd",
        "5b331a24eb847fe744737ef13fb3d2c8a396e44803e7a943b19575bdd748e63b",
        "a246a432c78e6fd89819066341ac471aa0d6cc9ba1a97f236769e466cb83dd90",
        "fb49e4aa1ff247dc4639f86add945177dd20271470a41441d8dd12ee170f301c",
    ),
    ("cct_search", 601): (
        "5e93a1bd51e402b00a82db2aaadd7646afbc8944198be859895f4b8a34d429fe",
        "cb5475e6c13ac0af878728025d076fc0a23b2d49da720fac17af04338b350675",
        "bdae7ebabb3a8c5e9e5044bd6f3faf0bc425e6f723b1c2f65def577547c8dd24",
        "18a11134e26648fa94f7dde3a2acf28d2e2a484e0be6c9d21c497eba391d80b4",
        "86a9010df9d53516ac99522ddf44d4e078859481f1f2965480969e053d40853d",
        "fe32f4a107562deb7fdd5a2ca9637f48332a565d9aadc0246f7514cc2205a118",
        "4a80cf48ba5a33717543ee5fc22962174b668d39909ae9ef13693e86eec917d5",
        "0e19a44e9e4df83f62ee842513ce2490cdb374d74b48c6bc1b8ae23b17f3300f",
        "f430b138689b753471c327115e98c2b82da3c93735bf089410e0418f6138fae1",
        "3fa79ab5140d8259a7d05f9a37abfa99016553724bb5a3259540497bd2b04dbb",
    ),
}


@pytest.mark.parametrize("workload, seed", sorted(PERFBENCH_INPUT_SHA256))
def test_perfbench_inputs_load_with_pinned_hashes(workload, seed, tmp_path):
    documents = [text for candidates in _perfbench_module("inputs").draw(workload, seed)
                 for text in candidates]
    hashes = []
    for k, text in enumerate(documents):
        path = tmp_path / f"{k}.yaml"
        path.write_text(text, encoding="utf-8")
        hashes.append(load_config(path).sha256)
    assert tuple(hashes) == PERFBENCH_INPUT_SHA256[workload, seed]
