"""The names importers and the benchmark tracer look up in the package, and
the benchmark inputs the config loader must keep reading the same way."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gflswing
from gflswing import cli, dynamics, stability
from gflswing.cli import bundled_config_path, load_config

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


def test_every_config_attribute_the_benchmark_reads_resolves():
    # perfbench/worker.py reads fields of a loaded config and of its CCT
    # settings; a rename must fail here, not only in the benchmark.
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    reads = {"config": set(), "config.cct": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name) and owner.id == "config":
                reads["config"].add(node.attr)
            elif (isinstance(owner, ast.Attribute) and owner.attr == "cct"
                  and isinstance(owner.value, ast.Name) and owner.value.id == "config"):
                reads["config.cct"].add(node.attr)
    assert reads["config"] and reads["config.cct"]
    config = load_config(bundled_config_path("table1.yaml"))
    owners = {"config": config, "config.cct": config.cct}
    missing = [
        f"{owner}.{attr}"
        for owner, attrs in reads.items()
        for attr in sorted(attrs)
        if not hasattr(owners[owner], attr)
    ]
    assert missing == []


# Names only perfbench reads: stability's adapter block, which no command and
# no test calls, so that it can go once perfbench streams its runs.
ADAPTER_NAMES = {"simulate", "classify", "Trajectory"}


def test_the_adapter_names_are_exported_nowhere():
    exported = {
        (module, name)
        for module in MODULES
        for name in importlib.import_module(module).__all__
        if name in ADAPTER_NAMES
    }
    assert exported == set()
    assert [name for name in sorted(ADAPTER_NAMES) if hasattr(gflswing, name)] == []


@pytest.mark.parametrize("deep", [False, True])
def test_the_adapter_keeps_a_stream_and_folds_it(deep):
    # perfbench's bracket check and tracer read runs through the adapter:
    # table1's stable run, and an uncleared full-depth fault that fails to
    # solve.
    cfg = load_config(bundled_config_path("table1.yaml"))
    scen = cfg.scenario
    if deep:
        scen = replace(scen, fault_depth=1.0, t_clear=None)
    assert (cli.simulate, cli.classify) == (stability.simulate, stability.classify)
    traj = stability.simulate(cfg.fleet, cfg.grid, scen, cfg.solver)
    run = dynamics.Runs(cfg.fleet, cfg.grid, scen, cfg.solver).stream(scen.t_clear)
    assert (traj.records, traj.scenario, traj.fleet) == (tuple(run), run.scenario, run.fleet)
    run = dynamics.Runs(cfg.fleet, cfg.grid, scen, cfg.solver).stream(scen.t_clear)
    verdict = stability.RunFold(run, run.fleet, run.scenario, cfg.settle_tol).verdict(
        cfg.settle_window)
    assert verdict.stable is not deep
    assert stability.classify(traj, cfg.settle_tol, cfg.settle_window) == verdict


def test_runs_has_no_materializing_run():
    # A run is read as a stream (Runs.stream) and folded (RunFold).
    assert not hasattr(dynamics.Runs, "run")


def test_no_test_module_refers_to_the_adapter_names():
    # Names, attributes and import aliases: a command name in a string,
    # such as "simulate", is not a reference.
    tests = Path(__file__).resolve().parent
    found = []
    for path in sorted(tests.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names = (node.id,)
            elif isinstance(node, ast.Attribute):
                names = (node.attr,)
            elif isinstance(node, ast.alias):
                names = (node.name, node.asname)
            else:
                continue
            found += [(path.name, node.lineno, n) for n in names if n in ADAPTER_NAMES]
    assert found == []


def _stops_at_a_trip(func):
    """Whether func, a function definition, returns or breaks out of a loop
    under a test that reads a record's tripped flags: a cut at a trip."""
    return any(
        isinstance(node, ast.If)
        and any(getattr(n, "attr", None) == "tripped" for n in ast.walk(node.test))
        and any(isinstance(n, (ast.Return, ast.Break)) for stmt in node.body for n in ast.walk(stmt))
        for loop in ast.walk(func) if isinstance(loop, (ast.For, ast.While))
        for node in ast.walk(loop)
    )


def _folds_of_own_cuts(tree):
    """Lines of tree's RunFold calls whose records are a call, or a name
    bound to a call, of a function of tree that cuts them at a trip, or of
    itertools.takewhile."""
    cutters = {f.name for f in ast.walk(tree)
               if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and _stops_at_a_trip(f)}
    cutters.add("takewhile")

    def cuts(expr):
        return (isinstance(expr, ast.Call)
                and getattr(expr.func, "id", getattr(expr.func, "attr", None)) in cutters)

    cut_names = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and any(cuts(n) for n in ast.walk(node.value))
                 for target in node.targets if isinstance(target, ast.Name)}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "RunFold"):
            records = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "records"), None)
            if records is not None and any(
                cuts(n) or (isinstance(n, ast.Name) and n.id in cut_names)
                for n in ast.walk(records)
            ):
                lines.append(node.lineno)
    return lines


_A_FOLD_OF_ITS_OWN_CUT = """
def cut(run):
    for rec in run:
        yield rec
        if True in rec.tripped:
            return

fold = RunFold(cut(run), fleet, scenario, settle_tol)
kept = tuple(cut(run))
again = stability.RunFold(kept, fleet, scenario, settle_tol)
"""


def test_only_stability_decide_cuts_a_run_at_its_first_trip():
    # One decision path: stability.decide reads a run to its first trip
    # (its _to_first_trip), and no other module, test modules included,
    # names that cut or folds a run that it cuts at a trip itself.
    assert _folds_of_own_cuts(ast.parse(_A_FOLD_OF_ITS_OWN_CUT)) == [8, 10]
    root = Path(__file__).resolve().parents[1]
    sources = sorted((root / "src" / "gflswing").glob("*.py")) + sorted(
        (root / "tests").glob("*.py"))
    named, folded = [], []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "stability.py":
            assert len(_folds_of_own_cuts(tree)) == 1  # decide's
            continue
        if path.name == Path(__file__).name:
            continue
        # Names, attributes, import aliases and strings (a monkeypatched name).
        named += [(path.name, node.lineno) for node in ast.walk(tree)
                  if "_to_first_trip" in (getattr(node, "id", None), getattr(node, "attr", None),
                                          getattr(node, "name", None), getattr(node, "asname", None),
                                          getattr(node, "value", None))]
        folded += [(path.name, line) for line in _folds_of_own_cuts(tree)]
    assert (named, folded) == ([], [])


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


# Modules that only sweep's process pool, main's argument parser or a
# statistics call would load; a simulate or cct run must not pay for them.
_START_UP_EXCLUDED = ("concurrent.futures.process", "multiprocessing", "argparse", "statistics")

_COMMANDS_IN_A_FRESH_INTERPRETER = """
import json, sys
before = set(sys.modules)
import gflswing.cli as cli
config = cli.load_config(sys.argv[1])
cli.cmd_simulate(config, sys.argv[2] + "/simulate")
cli.cmd_cct(config, sys.argv[2] + "/cct")
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_simulate_and_cct_import_no_pool_parser_or_statistics(tmp_path):
    src = Path(gflswing.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _COMMANDS_IN_A_FRESH_INTERPRETER,
         str(bundled_config_path("table1.yaml")), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    imported = json.loads(proc.stdout.splitlines()[-1])
    assert "gflswing.cli" in imported
    assert [m for m in _START_UP_EXCLUDED if m in imported] == []
