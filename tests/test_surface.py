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
        "11908d97353af796f3f3ce391e24d5d98713a7ce7bc0ffeec6b22625c942145e",
        "916df3e90c745e08d8cff7a7c19b8dd4f2be17d9affdfc2b7b3db56a0711f3de",
    ),
    ("wide_fleet", 601): (
        "6700d18aa17c942fed02f0924b23018ffd0de86a2cc809789d744c32caecf78d",
        "4151a70506af1595e2f8a3c96154dc2de804e9f13882da8b9d91c55962cd1040",
    ),
    ("cct_search", 1): (
        "120fc52a2a9f7b2a3f631aedf6392a63868edb552f0b8ba066871b22319760e3",
        "292bbac38d20be1926266f3253c46ab33ef78944bc3a1bb0f273fd637793a6be",
        "0bc1e5b1464b690a40eaed9ef89ecf816d11cbfd5071b3c9fc6086e4785bc26c",
        "56a9ec95c29d3c5d25c27b4ccc64f62c1db028440beeca1a77d6682d12829d30",
        "d6765e4d8ae1b55cfea8027e597fe3c9301966954ca58352dc0dc7663dd10bab",
        "6daffd741400a40dd98035d6ebf325a0cf4ff817bd81dfbe3fa6e2966642fa0a",
        "1142598ed8543aa5e3cd42ec4c325f09bf4899f07b9c4641665cd9751098f190",
        "e63c3761c722631033182cf3227e3f5c8c611864bee63bb3b7a0e6d0a333845a",
        "a299a4014dd46d2ee46340a6838f260daa3887cee2e77193571174586518c399",
        "5ff406b1a6aeb1a1d5e50971ae823517f9afd72fe1ca989b1ad84e891bfee96d",
    ),
    ("cct_search", 601): (
        "d9664fa3a9b83da5f2e25607a13cfa486c1fa9d040d60922816ca996e3f138cb",
        "0587bc3863206c2be5d28aa35b720e34f128149bdc162503b19ada74b021b4d2",
        "6d18564665b2f7e54614fcd60c7d6b9dba75fbdfd94761cd59c4c29844cf6591",
        "c68e865c97f318cb9cd41f3aef7554fe30c9003e3bfc196d8f7b15a3b52d2beb",
        "5cf7b237d6d74f11513547ad1be2cd4404e052565c61584c01b96cb50dc68a56",
        "e798e6f59e6d17b969a534fea4ca10b0b9fdd5a9c38c9da45cbe79365275e1ce",
        "29920d9788e9102d2db1b53570fc500c9f99a3670b6217202d64d611aa32e2f4",
        "b272e48fd7b512a4809f6fbc650d801ccdfdd0ec9d3d02687c9ceac06416c2d6",
        "4e4074f94c3ef96431600d735bbc3bf52df65bf185bdb093fa111c5ae5720f37",
        "38cc0b3f85600a14a3674f5bec9dbf89053eff89113695a6843a8435c8b6ff4d",
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
