import csv
import errno
import hashlib
import json
import math
import os
import random
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from gflswing import cli, dynamics
from gflswing.cli import (
    ConfigError,
    bundled_config_path,
    cmd_cct,
    cmd_compare,
    cmd_simulate,
    cmd_sweep,
    cmd_validate,
    load_config,
    main,
)
from gflswing.dynamics import InitializationFailure, Runs
from gflswing.stability import BracketInvalid, RunFold, decide, uniform_fleet_of
from helpers_oracles import decided, quadrature_currents, records_of

SMALL_CONFIG = """\
grid:
  v_th_volts: 230.0
  z_th_ohms: {r: 0.20, x: 0.10}
  z_load_ohms: {r: 0.10, x: 0.05}
fleet:
  - name: A
    s_rated_va: 6000.0
    line_resistance_ohm: 0.15
    line_inductance_uh: 40.0
    virtual_resistance_ohm: 0.16
    kp: 4.31e-3
    ki: 260.0
    i_max_a: 55.0
    trip_holdoff_s: 8.0e-4
  - name: B
    s_rated_va: 12000.0
    line_resistance_ohm: 0.35
    line_inductance_uh: 60.0
    virtual_resistance_ohm: 0.0
    kp: 4.76e-3
    ki: 265.0
    i_max_a: 55.0
    trip_holdoff_s: 8.0e-4
scenario:
  t_fault_s: 1.0e-3
  t_clear_s: null
  fault_depth: 0.5
  t_end_s: 8.0e-3
  dt_s: 2.0e-5
stability:
  settle_tol_rad: 0.02
  settle_window_s: 2.0e-3
  cct:
    t_min_s: 2.0e-4
    t_max_s: 2.0e-3
    resolution_s: 1.0e-4
    audit_samples: 5
"""


@pytest.fixture()
def small_config_path(tmp_path):
    p = tmp_path / "small.yaml"
    p.write_text(SMALL_CONFIG, encoding="utf-8")
    return p


@pytest.fixture(autouse=True)
def _serial_sweeps(monkeypatch):
    # One worker for every sweep, and the in-process path for every
    # trajectory CSV: a test that runs the writer process sets
    # GFLSWING_THREADS itself (see WRITER_THREADS).
    monkeypatch.setenv("GFLSWING_THREADS", "1")


def test_bundled_reference_config(table_config):
    assert [c.name for c in table_config.fleet] == [
        "Inv 1", "Inv 2", "Inv 3", "Inv 4", "Inv 5"
    ]
    assert [c.s_rated for c in table_config.fleet] == [
        6000.0, 9000.0, 8000.0, 12000.0, 10000.0
    ]
    assert len(table_config.sha256) == 64
    assert table_config.resolved["grid"]["frequency_hz"] == 60.0


def test_zero_dt_is_rejected_with_field_address(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text(SMALL_CONFIG.replace("dt_s: 2.0e-5", "dt_s: 0.0"), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "scenario.dt_s" in str(err.value)


@pytest.mark.parametrize("command", ["validate", "simulate"])
@pytest.mark.parametrize("given", [True, False], ids=["given_bases", "default_bases"])
def test_a_zero_volt_grid_is_a_config_error(command, given, tmp_path, capsys):
    # A 0 V pre-fault source has no equilibrium. With v_nominal_volts and
    # i_max_a given, it passed validate and simulate failed on its voltage
    # solve; without them, validate raised ZeroDivisionError on the default
    # current ceiling.
    doc = yaml.safe_load(bundled_config_path().read_text(encoding="utf-8"))
    doc["grid"]["v_th_volts"] = 0.0
    if not given:
        del doc["grid"]["v_nominal_volts"]
        for unit in doc["fleet"]:
            del unit["i_max_a"]
    path = tmp_path / "zero_volts.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "out"
    argv = [command, "--config", str(path)] + (["--out", str(out)] if command != "validate" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: grid.v_th_volts: must be > 0.0, got 0.0\n"
    assert not out.exists()


@pytest.mark.parametrize("old, new, field", [
    ("kp: 4.31e-3", "kp: .nan", r"fleet\[0\]\.kp"),
    ("ki: 260.0", "ki: 1" + "0" * 400, r"fleet\[0\]\.ki"),
    ("stability:\n", "sweep:\n  axes:\n    fault_depth: [0.4, .nan]\nstability:\n",
     r"sweep\.axes\.fault_depth\[1\]"),
], ids=["nan_gain", "int_beyond_float", "nan_sweep_value"])
def test_non_finite_numbers_are_rejected_with_field_address(tmp_path, old, new, field):
    # A NaN gain would otherwise load and read as a loss of synchronism.
    p = tmp_path / "non_finite.yaml"
    p.write_text(SMALL_CONFIG.replace(old, new), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{field}: must be finite"):
        load_config(p)


def test_infinite_end_time_is_a_config_error(tmp_path, capsys):
    # An infinite t_end would otherwise overflow the step count mid-run.
    p = tmp_path / "inf.yaml"
    p.write_text(SMALL_CONFIG.replace("t_end_s: 8.0e-3", "t_end_s: .inf"), encoding="utf-8")
    assert main(["simulate", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    assert "scenario.t_end_s: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("dt", [float("nan"), float("inf")])
def test_non_finite_dt_override_is_rejected(small_config_path, dt):
    with pytest.raises(ConfigError, match="scenario.dt_s: --dt override must be finite"):
        load_config(small_config_path, dt_override=dt)


@pytest.mark.parametrize("old, new, field", [
    ("stability:\n", "solver:\n  max_iter: 2.5\nstability:\n", "solver.max_iter"),
    ("audit_samples: 5", "audit_samples: 3.9", "stability.cct.audit_samples"),
], ids=["max_iter", "audit_samples"])
def test_non_integral_integer_fields_are_rejected(tmp_path, old, new, field):
    p = tmp_path / "frac.yaml"
    p.write_text(SMALL_CONFIG.replace(old, new), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"{field}: must be a whole number"):
        load_config(p)


def test_whole_valued_floats_load_as_their_integers(tmp_path, small_config_path):
    p = tmp_path / "whole.yaml"
    p.write_text(
        SMALL_CONFIG.replace("stability:\n", "solver:\n  max_iter: 100.0\nstability:\n")
        .replace("audit_samples: 5", "audit_samples: 5.0"),
        encoding="utf-8",
    )
    cfg = load_config(p)
    assert cfg.solver.max_iter == 100 and cfg.cct.audit_samples == 5
    assert cfg.sha256 == load_config(small_config_path).sha256


def test_missing_imax_gets_documented_default_and_echo(tmp_path):
    text = SMALL_CONFIG.replace("    i_max_a: 55.0\n", "")
    p = tmp_path / "defaulted.yaml"
    p.write_text(text, encoding="utf-8")
    cfg = load_config(p)
    assert cfg.fleet[0].i_max == pytest.approx(1.2 * 6000.0 / 230.0)
    assert cfg.fleet[1].i_max == pytest.approx(1.2 * 12000.0 / 230.0)
    out = tmp_path / "out"
    cmd_simulate(cfg, out)
    summary = json.loads((out / "summary.json").read_text())
    echoed = {row["name"]: row["i_max_a"] for row in summary["fleet"]}
    assert echoed["A"] == pytest.approx(1.2 * 6000.0 / 230.0, rel=1e-8)


def test_parse_error_reports_location(tmp_path):
    p = tmp_path / "broken.yaml"
    p.write_text("grid: {v_th_volts: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "line" in str(err.value)


def test_missing_required_fields_are_named(tmp_path):
    p = tmp_path / "nogrid.yaml"
    p.write_text("fleet: []\n", encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "grid" in str(err.value)

    q = tmp_path / "nofleet.yaml"
    q.write_text(
        "grid:\n  v_th_volts: 230.0\n  z_th_ohms: {r: 0.1, x: 0.1}\n"
        "  z_load_ohms: {r: 0.1, x: 0.1}\nfleet: []\n",
        encoding="utf-8",
    )
    with pytest.raises(ConfigError) as err:
        load_config(q)
    assert "fleet" in str(err.value)


@pytest.mark.parametrize("text", ["", "# only a comment\n", "- grid\n"],
                         ids=["empty", "comment", "sequence"])
def test_a_config_root_that_is_not_a_mapping_is_rejected(tmp_path, text):
    # An empty document (or one of comments only) has no root node at all.
    p = tmp_path / "root.yaml"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match="^config root: expected a mapping of sections$"):
        load_config(p)


def test_cct_needs_the_cct_section(tmp_path, capsys):
    p = tmp_path / "nocct.yaml"
    p.write_text(SMALL_CONFIG.split("  cct:\n", 1)[0], encoding="utf-8")
    config = load_config(p)
    assert config.cct is None
    with pytest.raises(ConfigError, match=r"^stability\.cct: section is required"):
        cmd_cct(config, tmp_path / "out")
    assert not (tmp_path / "out" / "cct.json").exists()
    assert main(["cct", "--config", str(p), "--out", str(tmp_path / "main")]) == 1
    assert "stability.cct: section is required for this command" in capsys.readouterr().err


def test_unknown_sweep_axis_rejected(tmp_path):
    text = SMALL_CONFIG + "sweep:\n  axes:\n    bogus: [1.0]\n"
    p = tmp_path / "sweep.yaml"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "sweep.axes.bogus" in str(err.value)


def test_duplicate_inverter_names_rejected(tmp_path):
    text = SMALL_CONFIG.replace("name: B", "name: A")
    p = tmp_path / "dup.yaml"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "duplicate" in str(err.value)


def test_simulate_exit_codes_for_bundled_variants(tmp_path):
    stable_cfg = load_config(bundled_config_path("table1_nofault.yaml"))
    assert cmd_simulate(stable_cfg, tmp_path / "stable") == 0
    unstable_cfg = load_config(bundled_config_path("table1_uncleared.yaml"))
    assert cmd_simulate(unstable_cfg, tmp_path / "unstable") == 2
    summary = json.loads((tmp_path / "unstable" / "summary.json").read_text())
    assert summary["verdict"]["stable"] is False
    assert summary["verdict"]["first_unstable"] == "Inv 4"


def test_cleared_early_bundled_scenario_is_stable(tmp_path, table_config):
    assert cmd_simulate(table_config, tmp_path / "out") == 0


def test_outputs_are_byte_identical_across_runs(small_config_path, tmp_path):
    cfg = load_config(small_config_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cmd_simulate(cfg, out_a)
    code_b = cmd_simulate(load_config(small_config_path), out_b)
    assert code_a == code_b
    for name in ("trajectory.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_trajectory_csv_shape(small_config_path, tmp_path, monkeypatch, threads):
    monkeypatch.setenv("GFLSWING_THREADS", threads)
    cfg = load_config(small_config_path)
    out = tmp_path / "out"
    cmd_simulate(cfg, out)
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["t_s", "vpcc_mag_V", "vpcc_angle_rad", "vpcc_angle_deg"]
    assert "A.theta_cg_rad" in header and "B.tripped" in header
    assert "A.theta_cg_deg" in header
    n_steps = round(cfg.scenario.t_end / cfg.scenario.dt)
    assert len(lines) == 1 + n_steps + 1  # header + t=0 + every step
    first_row = lines[1].split(",")
    assert "e" in first_row[0]  # scientific-notation time column
    assert set(first_row[header.index("A.limited")]) <= set("truefals")


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "readme.yaml"
    p.write_text(example, encoding="utf-8")
    cfg = load_config(p)
    assert len(cfg.fleet) == 1 and cfg.cct is not None and cfg.sweep_axes


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(example, "README.md", "exec"), namespace)
    assert namespace["verdict"].stable
    assert len(namespace["t"]) == namespace["cfg"].scenario.k_end + 1
    assert namespace["cct"] == pytest.approx(1.505e-3)


def test_provenance_hash_ignores_formatting(tmp_path):
    a = tmp_path / "a.yaml"
    b = tmp_path / "b.yaml"
    a.write_text(SMALL_CONFIG, encoding="utf-8")
    b.write_text("# a comment\n" + SMALL_CONFIG.replace(
        "  t_fault_s: 1.0e-3", "  t_fault_s:   0.001"), encoding="utf-8")
    assert load_config(a).sha256 == load_config(b).sha256


# Solver keys of removed features and the one value of each that still loads.
RETIRED_SOLVER_KEYS = {"lag_mode": "false", "damping": "0.7"}


@pytest.mark.parametrize("key", sorted(RETIRED_SOLVER_KEYS))
def test_retired_solver_key_at_its_kept_value_loads_and_hashes_as_omitted(
    tmp_path, small_config_path, key
):
    p = tmp_path / "retired.yaml"
    p.write_text(SMALL_CONFIG + f"solver:\n  {key}: {RETIRED_SOLVER_KEYS[key]}\n",
                 encoding="utf-8")
    assert load_config(p).sha256 == load_config(small_config_path).sha256


@pytest.mark.parametrize("key, value", [
    ("lag_mode", "true"), ("lag_mode", "null"), ("lag_mode", "0"), ("lag_mode", "'false'"),
    ("damping", "0.5"), ("damping", "null"), ("damping", "true"),
])
def test_retired_solver_key_other_values_are_rejected(tmp_path, key, value):
    # A config that asks for a removed solver feature must not silently run
    # the one that replaced it.
    p = tmp_path / "retired.yaml"
    p.write_text(SMALL_CONFIG + f"solver:\n  {key}: {value}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^solver\.{key}: .*removed"):
        load_config(p)


# The hash covers the resolved echo of every section, impedances included, so
# a change in how the package stores numbers must leave these values alone.
BUNDLED_SHA256 = {
    "table1.yaml": "5ec658e9f3bbeb3790a0135c7f66a110fc3af68ad39c17072f49ded896b371a3",
    "table1_uncleared.yaml": "6b4224dcf7f7b55347f090e3c7f039600cffe33f33fffc701249d5286e9a1195",
    "table1_nofault.yaml": "523276079405e2460e4c46b097a48ec73f5095bcc75218aa6954e6a2788d0077",
    "table1_sync.yaml": "2dcdf324b7fadde371261efeffd9cc352fedfa123218a0dd005e3cd4962c54f5",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_SHA256))
def test_bundled_config_provenance_hash_is_pinned(name):
    assert load_config(bundled_config_path(name)).sha256 == BUNDLED_SHA256[name]


# cct.json of bundled table1.yaml: CCT, bracket, evaluation log, audit and loss
# order. A change that only makes the search cheaper must leave it alone.
TABLE1_CCT_JSON_SHA256 = "86e68672124f4cda72c488de0975fb11fa8e6ef93251952835d4ff090d1d8bb3"


# GFLSWING_THREADS 1 writes trajectory CSVs and decides CCT clearing steps
# in process, 2 forks a writer process and deciding processes; both must
# write the same bytes.
WRITER_THREADS = ("1", "2")


def test_bundled_cct_json_is_pinned(tmp_path, monkeypatch):
    for threads in WRITER_THREADS:
        monkeypatch.setenv("GFLSWING_THREADS", threads)
        assert cmd_cct(load_config(bundled_config_path()), tmp_path / threads) == 0
        _assert_no_child_left()
        digest = hashlib.sha256((tmp_path / threads / "cct.json").read_bytes()).hexdigest()
        assert digest == TABLE1_CCT_JSON_SHA256, f"GFLSWING_THREADS={threads}"


# trajectory.csv of bundled runs. These catch what cct.json cannot, e.g. a
# tripped unit's i_q, which is 0.0 * sin(...) = -0.0 and prints "-0".
TRAJECTORY_CSV_SHA256 = {
    "table1.yaml": "9bca9cf35a787f63b47689aa95dcc8e34e29240ce3e92acf2d90a346a5a040a9",
    "table1_uncleared.yaml": "c25962be5036d66a1dc4b4444425d8bb92cdcd82f67293b10d68c94743c2454a",
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_CSV_SHA256))
def test_bundled_trajectory_csv_is_pinned(name, tmp_path, monkeypatch):
    for threads in WRITER_THREADS:
        monkeypatch.setenv("GFLSWING_THREADS", threads)
        cmd_simulate(load_config(bundled_config_path(name)), tmp_path / threads)
        digest = hashlib.sha256((tmp_path / threads / "trajectory.csv").read_bytes()).hexdigest()
        assert digest == TRAJECTORY_CSV_SHA256[name], f"GFLSWING_THREADS={threads}"


# comparison.json and both replay CSVs of cmd_compare on bundled table1.yaml:
# the trajectory writer's second caller.
COMPARE_SHA256 = {
    "trajectory_nonuniform.csv": "4ecd1b3fd2f473cea02cd5b9184c44110753d27f2faa23327ed91a4e3ce9c8de",
    "trajectory_uniform.csv": "cc58b5bb5e003ecfb661b91e3539bc301e122d756541f5488ae07e450cc4a254",
    "comparison.json": "c70379467a1d588af6c152672d0df04b353db14c500d3c4305d8bf962a0404ff",
}


def test_bundled_compare_outputs_are_pinned(table_config, tmp_path, monkeypatch):
    for threads in WRITER_THREADS:
        monkeypatch.setenv("GFLSWING_THREADS", threads)
        out = tmp_path / threads
        assert cmd_compare(table_config, out) == 0
        _assert_no_child_left()
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in COMPARE_SHA256
        }
        assert digests == COMPARE_SHA256, f"GFLSWING_THREADS={threads}"


def test_compare_replays_from_its_searches_runs(table_config, tmp_path, monkeypatch):
    # Each fleet's equilibrium is found once, for its search, and both
    # replays fork from the fault-on run that search stepped: fresh replays
    # took 4 equilibria and 32,390 steps.
    calls = {"find_equilibrium": 0, "step": 0}

    def counting(name):
        original = getattr(dynamics, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(dynamics, name, counting(name))
    assert cmd_compare(table_config, tmp_path) == 0
    assert calls == {"find_equilibrium": 2, "step": 32_092}


def _write_trajectory_csv(path, cfg, records):
    """records written to path, by a writer process where cli._may_fork()."""
    for _ in cli._trajectory_csv(path, cfg.fleet, cfg.scenario.dt, records, cli._may_fork()):
        pass


def test_trajectory_csv_is_streamed_not_built_in_memory(table_config, tmp_path):
    # Holding the rows, their join and its encoding costs about 3x the file.
    records = records_of(table_config.fleet, table_config.grid, table_config.scenario,
                         table_config.solver)
    path = tmp_path / "trajectory.csv"
    tracemalloc.start()
    try:
        _write_trajectory_csv(path, table_config, records)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 500_000
    assert peak <= 0.25 * size, f"peak {peak} B for a {size} B file"


_UNIT_FIELDS = ("theta_cg", "i_mag", "v_gq", "limited", "tripped")

# trajectory.csv of table1_uncleared at depth 1.0, whose last row is the
# solver-failure record.
SOLVER_FAILURE_TRAJECTORY_CSV_SHA256 = (
    "08cabdd64639863eb1aafab4e03a2d7168d591d4618b425496cdb5620f36a694"
)


def test_simulate_reports_a_solver_failure_as_the_materialized_run_does(
    uncleared_config, tmp_path, monkeypatch
):
    # table1_uncleared at depth 1.0: every unit has tripped by 4.5 ms and
    # the source-less node fails to solve at step 451. The streamed command
    # writes what the run's records, every one kept, and their fold give,
    # through either writer path, and the pinned bytes.
    cfg = replace(uncleared_config,
                  scenario=replace(uncleared_config.scenario, fault_depth=1.0))
    ref = tmp_path / "ref"
    run = Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver).stream(cfg.scenario.t_clear)
    records = tuple(run)
    verdict = RunFold(records, cfg.fleet, cfg.scenario, cfg.settle_tol).verdict(
        cfg.settle_window)
    ref.mkdir()
    _write_trajectory_csv(ref / "trajectory.csv", cfg, records)
    for threads in WRITER_THREADS:
        monkeypatch.setenv("GFLSWING_THREADS", threads)
        out = tmp_path / threads
        assert cmd_simulate(cfg, out) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solver_failure_t_s"] == 4.51e-3
        assert summary["verdict"]["stable"] is False
        cli._write_json(ref / "summary.json", {
            **summary,
            "verdict": cli._verdict_dict(verdict),
            "solver_failure_t_s": run.solver_failure_t,
        })
        for name in ("trajectory.csv", "summary.json"):
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (name, threads)
        digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
        assert digest == SOLVER_FAILURE_TRAJECTORY_CSV_SHA256, threads


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_trajectory_writer_process_is_waited_for(table_config, tmp_path, monkeypatch):
    # The writer process has written the whole file, and exited, by the
    # time the command writes summary.json and returns.
    monkeypatch.setenv("GFLSWING_THREADS", "2")
    forks, written = [], []
    fork, write_json = os.fork, cli._write_json

    def counting_fork():
        forks.append(1)
        return fork()

    def recording(path, payload):
        written.append((tmp_path / "trajectory.csv").read_bytes())
        write_json(path, payload)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(cli, "_write_json", recording)
    assert cmd_simulate(table_config, tmp_path) == 0
    _assert_no_child_left()
    assert forks == [1]
    digest = hashlib.sha256(written[0]).hexdigest()
    assert digest == TRAJECTORY_CSV_SHA256["table1.yaml"]


def test_trajectory_csv_is_written_in_process_while_another_thread_runs(
    table_config, tmp_path, monkeypatch
):
    # A forked child would inherit the other thread's held locks.
    monkeypatch.setenv("GFLSWING_THREADS", "2")
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked while another thread ran"))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert cmd_simulate(table_config, tmp_path) == 0
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == TRAJECTORY_CSV_SHA256["table1.yaml"]


def test_trajectory_rows_up_to_a_failed_step_are_written_and_the_writer_waited_for(
    table_config, tmp_path, monkeypatch
):
    # A step that raises ends the command with its error; both writer paths
    # have then written the row of every record read before it, and no
    # writer process is left.
    original = dynamics.step
    calls = [0]

    def failing(*args, **kwargs):
        calls[0] += 1
        if calls[0] == 100:
            raise RuntimeError("step 100 failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", failing)
    for threads in WRITER_THREADS:
        monkeypatch.setenv("GFLSWING_THREADS", threads)
        calls[0] = 0
        with pytest.raises(RuntimeError, match="step 100 failed"):
            cmd_simulate(table_config, tmp_path / threads)
        _assert_no_child_left()
    rows = (tmp_path / "1" / "trajectory.csv").read_bytes()
    assert (tmp_path / "2" / "trajectory.csv").read_bytes() == rows
    # The records before the fault, then 99 steps.
    assert rows.count(b"\n") == 1 + table_config.scenario.k_fault + 99


def test_a_failing_trajectory_writer_process_raises_naming_the_csv(
    table_config, tmp_path, monkeypatch, capfd
):
    # A record the writer cannot format (a limited flag of 2) fails the
    # writer process, and the parent raises an OSError naming the file.
    monkeypatch.setenv("GFLSWING_THREADS", "2")
    records = list(records_of(table_config.fleet, table_config.grid,
                              table_config.scenario, table_config.solver))
    records[200] = replace(records[200], limited=(2,) * len(table_config.fleet))
    path = tmp_path / "trajectory.csv"
    with pytest.raises(OSError, match=str(path)):
        _write_trajectory_csv(path, table_config, records)
    _assert_no_child_left()
    assert "IndexError" in capfd.readouterr().err


def test_a_stream_error_after_the_writer_failed_is_the_error_raised(
    table_config, tmp_path, monkeypatch, capfd
):
    # The writer fails on the first frame's first record and has exited
    # before the stream raises: the last frame meets a closed pipe, and the
    # stream's error, not the writer's, ends the run (as a Ctrl-C that
    # ends both processes ends the command with KeyboardInterrupt).
    monkeypatch.setenv("GFLSWING_THREADS", "2")
    pids = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(fork()) or pids[-1])
    kept = records_of(table_config.fleet, table_config.grid, table_config.scenario,
                      table_config.solver)
    bad = replace(kept[0], limited=(2,) * len(table_config.fleet))

    def records():
        yield from [bad, *kept[1:cli._FRAME_RECORDS]]
        os.waitid(os.P_PID, pids[0], os.WEXITED | os.WNOWAIT)
        raise RuntimeError("the stream failed")

    with pytest.raises(RuntimeError, match="the stream failed"):
        _write_trajectory_csv(tmp_path / "t.csv", table_config, records())
    _assert_no_child_left()
    assert "IndexError" in capfd.readouterr().err


def test_simulate_and_compare_write_in_process_when_no_process_can_be_forked(
    table_config, tmp_path, monkeypatch
):
    # os.fork failing with EAGAIN (no process to spare) leaves the trajectory
    # writer and the CCT decisions in process, with the same outputs.
    monkeypatch.setenv("GFLSWING_THREADS", "2")

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert cmd_simulate(table_config, tmp_path / "simulate") == 0
    digest = hashlib.sha256((tmp_path / "simulate" / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == TRAJECTORY_CSV_SHA256["table1.yaml"]
    assert cmd_compare(table_config, tmp_path / "compare") == 0
    digests = {
        name: hashlib.sha256((tmp_path / "compare" / name).read_bytes()).hexdigest()
        for name in COMPARE_SHA256
    }
    assert digests == COMPARE_SHA256
    _assert_no_child_left()


@pytest.mark.parametrize("threads", WRITER_THREADS)
def test_an_unopenable_trajectory_csv_raises_before_any_step(
    table_config, tmp_path, monkeypatch, threads
):
    monkeypatch.setenv("GFLSWING_THREADS", threads)
    steps = []
    original = dynamics.step
    monkeypatch.setattr(dynamics, "step", lambda *a, **k: steps.append(1) or original(*a, **k))
    (tmp_path / "trajectory.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        cmd_simulate(table_config, tmp_path)
    assert steps == []
    _assert_no_child_left()


def _synthetic_records(n):
    # n distinct records of two units, except that records 14 to 17 are one
    # object (a run across the boundary of the first two frames) and
    # records 31 and 32 another (the last of the second frame and the
    # third frame's only record).
    shared = {}
    records = []
    for k in range(n):
        key = 14 if 14 <= k <= 17 else 31 if 31 <= k <= 32 else k
        if key not in shared:
            x = (key + 1) * 0.1234567891
            shared[key] = dynamics.TrajectoryRecord(
                230.0 + x, -x / 7, (x, -0.0 if key % 3 else 1e-300),
                (x * 9, 0.0 if key % 2 else 2.5e6 * x),
                (x / 3, -x / 3), (key % 2 == 0, False), (False, key % 5 == 4),
                (x, 0.0), (x / 11, 0.0), (0, 0), x,
            )
        records.append(shared[key])
    return records


@pytest.mark.parametrize("n", [1, 15, 16, 17, 33])
def test_trajectory_csv_frames_are_written_whole_on_both_paths(
    table_config, tmp_path, monkeypatch, n
):
    # Records go to the frame writer 16 at a time: the CSV of a stream that
    # ends inside, at or just past a frame, with a repeated record on each
    # side of a frame boundary, equals rows formatted one by one, through
    # either writer path. Each row's i_q reads the previous record's
    # injection angle, which the writer carries across frames.
    fleet, dt = table_config.fleet[:2], 2.5e-5
    records = _synthetic_records(n)
    expected = "t_s,vpcc_mag_V,vpcc_angle_rad,vpcc_angle_deg" + "".join(
        f",{cfg.name}.{column}" for cfg in fleet for column in cli._UNIT_COLUMNS
    ) + "\n"
    template = "%.9e,%.9g,%.9g,%.9g" + ",%.9g,%.9g,%.9g,%.9g,%.9g,%s,%s" * len(fleet) + "\n"
    for k, (rec, i_q) in enumerate(zip(records, quadrature_currents(records))):
        values = [k * dt, rec.v_pcc_mag, rec.v_pcc_angle, math.degrees(rec.v_pcc_angle)]
        for th, i, iq, vq, lim, trip in zip(rec.theta_cg, rec.i_mag, i_q, rec.v_gq,
                                            rec.limited, rec.tripped):
            values += [th, math.degrees(th), i, iq, vq, str(lim).lower(), str(trip).lower()]
        expected += template % tuple(values)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    for threads in WRITER_THREADS:
        monkeypatch.setenv("GFLSWING_THREADS", threads)
        path = tmp_path / f"{threads}.csv"
        written = cli._trajectory_csv(path, fleet, dt, iter(records), cli._may_fork())
        assert list(written) == records
        _assert_no_child_left()
        assert path.read_bytes() == expected.encode(), f"GFLSWING_THREADS={threads}"
    assert forks == [1]


# Not an integer, or an integer below 1: each is an error, not a cap of 1.
BAD_THREAD_COUNTS = ("zebra", "0", "-1")


def test_a_bad_thread_count_fails_simulate_before_its_csv_is_opened(
    small_config_path, tmp_path, monkeypatch
):
    for threads in BAD_THREAD_COUNTS:
        monkeypatch.setenv("GFLSWING_THREADS", threads)
        with pytest.raises(ConfigError, match="GFLSWING_THREADS: expected an integer >= 1"):
            cmd_simulate(load_config(small_config_path), tmp_path)
        assert not (tmp_path / "trajectory.csv").exists()
        # Decided before the out directory is made, as cct and compare do.
        out = tmp_path / "main"
        assert main(["simulate", "--config", str(small_config_path), "--out", str(out)]) == 1
        assert not out.exists()


def test_a_bad_thread_count_fails_cct_before_any_step(small_config_path, tmp_path, monkeypatch):
    steps = []
    original = dynamics.step
    monkeypatch.setattr(dynamics, "step", lambda *a, **k: steps.append(1) or original(*a, **k))
    for threads in BAD_THREAD_COUNTS:
        monkeypatch.setenv("GFLSWING_THREADS", threads)
        with pytest.raises(ConfigError, match="GFLSWING_THREADS: expected an integer >= 1"):
            cmd_cct(load_config(small_config_path), tmp_path / "out")
        out = tmp_path / "main"
        assert main(["cct", "--config", str(small_config_path), "--out", str(out)]) == 1
        assert steps == []
        assert not (tmp_path / "out").exists() and not (out / "cct.json").exists()


def test_a_bad_thread_count_fails_compare_before_either_search(
    small_config_path, tmp_path, monkeypatch
):
    def no_search(*args):
        raise AssertionError("a CCT search ran")

    monkeypatch.setattr(cli, "find_cct", no_search)
    for threads in BAD_THREAD_COUNTS:
        monkeypatch.setenv("GFLSWING_THREADS", threads)
        with pytest.raises(ConfigError, match="GFLSWING_THREADS: expected an integer >= 1"):
            cmd_compare(load_config(small_config_path), tmp_path / "out")
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["cct", "compare"])
def test_a_missing_cct_section_fails_before_the_out_directory(command, tmp_path, capsys):
    config = bundled_config_path("table1_nofault.yaml")
    assert load_config(config).cct is None
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    message = "error: stability.cct: section is required for this command\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_a_cct_sweep_without_a_cct_section_fails_before_the_out_directory(tmp_path, capsys):
    # With no clear_interval_s axis every cell is a CCT search, which needs
    # the section; a verdict-mode sweep does not.
    config = tmp_path / "nofault_sweep.yaml"
    config.write_text(bundled_config_path("table1_nofault.yaml").read_text(encoding="utf-8")
                      + "sweep:\n  axes: {fault_depth: [0.3, 0.4]}\n", encoding="utf-8")
    assert load_config(config).cct is None
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 1
    message = "error: stability.cct: section is required for this command\n"
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_a_bad_thread_count_fails_sweep_before_the_out_directory(
    small_config_path, tmp_path, monkeypatch, capsys
):
    for threads in BAD_THREAD_COUNTS:
        monkeypatch.setenv("GFLSWING_THREADS", threads)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(small_config_path), "--out", str(out)]) == 1
        message = f"error: GFLSWING_THREADS: expected an integer >= 1, got {threads!r}\n"
        assert capsys.readouterr().err == message
        assert not out.exists()


def test_compare_of_one_unit_fails_before_any_runs_or_search(
    small_config_path, tmp_path, monkeypatch, capsys
):
    def no_search(*args):
        raise AssertionError("a Runs was built or a CCT search ran")

    monkeypatch.setattr(cli, "Runs", no_search)
    monkeypatch.setattr(cli, "find_cct", no_search)
    text = small_config_path.read_text(encoding="utf-8")
    one = tmp_path / "one.yaml"
    one.write_text(text[:text.index("  - name: B")] + text[text.index("scenario:"):],
                   encoding="utf-8")
    assert len(load_config(one).fleet) == 1
    out = tmp_path / "out"
    assert main(["compare", "--config", str(one), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: fleet: compare needs at least two inverters\n"
    assert not out.exists()


def _table1_with(tmp_path, fault_depth=0.3, s_scale=1.0, pf=0.0, seed=0, i_max=None, sweep=None,
                 resolution=None):
    """The path of a copy of table1.yaml with the given fault_depth, every
    s_rated_va times s_scale, each unit's pf_angle_rad drawn from seed
    within +-pf, and, where given, every i_max_a, the sweep section and the
    CCT resolution."""
    doc = yaml.safe_load(bundled_config_path().read_text(encoding="utf-8"))
    rng = random.Random(seed)
    for unit in doc["fleet"]:
        unit["s_rated_va"] *= s_scale
        unit["pf_angle_rad"] = rng.uniform(-pf, pf)
        if i_max is not None:
            unit["i_max_a"] = i_max
    doc["scenario"]["fault_depth"] = fault_depth
    if resolution is not None:
        doc["stability"]["cct"]["resolution_s"] = resolution
    if sweep is not None:
        doc["sweep"] = {"axes": sweep}
    path = tmp_path / f"table1_{fault_depth}_{s_scale}_{pf}_{seed}.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def test_a_bolted_fault_on_units_below_their_ceiling_runs_every_command(tmp_path):
    # At depth 1.0 the fault-on source is 0 V and every live unit is
    # limited; at 0.3 times their ratings the units' rated currents fall
    # under their ceilings, and un-limiting them asked for a constant-power
    # solve behind 0 V, which raised ValueError out of every command.
    path = _table1_with(tmp_path, fault_depth=1.0, s_scale=0.3)
    config = load_config(path)
    assert cmd_simulate(config, tmp_path / "simulate") == 0
    summary = json.loads((tmp_path / "simulate" / "summary.json").read_text())
    assert summary["verdict"]["stable"] and summary["solver_failure_t_s"] is None
    assert cmd_cct(config, tmp_path / "cct") == 0
    result = json.loads((tmp_path / "cct" / "cct.json").read_text())
    assert (result["bracket_lo_s"], result["bracket_hi_s"]) == (1.32e-3, 1.35e-3)
    assert result["loss_order"] == ["Inv 4"]
    swept = _table1_with(tmp_path, fault_depth=1.0, s_scale=0.3, sweep={"fault_depth": [1.0]})
    assert cmd_sweep(load_config(swept), tmp_path / "sweep") == 0
    rows = _sweep_rows(tmp_path / "sweep" / "sweep.csv")
    assert [(row["status"], row["bracket_lo_s"], row["bracket_hi_s"]) for row in rows] == [
        ("ok", "0.00132", "0.00135")
    ]


@pytest.mark.parametrize("fault_depth", [0.3, 0.9, 1.0])
def test_simulate_and_cct_raise_only_config_errors_on_a_grid_of_faults_and_fleets(
    fault_depth, tmp_path
):
    # Ratings from far below the ceilings to table1's own, with and without
    # seeded power-factor angles, at dt 100 us: a command ends with an exit
    # code or with one of the errors a config can cause, never another.
    for s_scale in (0.05, 0.3, 1.0):
        for pf in (0.0, 0.3):
            path = _table1_with(tmp_path, fault_depth, s_scale, pf, seed=7, resolution=1e-4)
            config = load_config(path, dt_override=1e-4)
            for command in (cmd_simulate, cmd_cct):
                try:
                    assert command(config, tmp_path / "out") in (0, 1, 2)
                except (ConfigError, InitializationFailure, BracketInvalid):
                    pass


@pytest.mark.parametrize("command", ["simulate", "cct", "compare"])
def test_a_fleet_with_no_equilibrium_fails_before_the_out_directory(command, tmp_path, capsys):
    path = _table1_with(tmp_path, i_max=5.0)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: Inv 1: rated current 23.14 A exceeds the 5.00 A ceiling at the pre-fault "
        "voltage\n"
    )
    assert not out.exists()


def test_compare_builds_the_uniform_fleet_s_runs_before_either_search(
    table_config, tmp_path, monkeypatch
):
    # A uniform fleet with no equilibrium fails compare before any search
    # runs or the output directory is made.
    def no_search(*args):
        raise AssertionError("a CCT search ran")

    def tight(fleet):
        return tuple(replace(unit, i_max=5.0) for unit in uniform_fleet_of(fleet))

    monkeypatch.setattr(cli, "find_cct", no_search)
    monkeypatch.setattr(cli, "uniform_fleet_of", tight)
    with pytest.raises(InitializationFailure, match="^Uni 1: rated current"):
        cmd_compare(table_config, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_simulate_rejects_a_horizon_short_of_the_settle_window_before_any_step(
    tmp_path, monkeypatch
):
    # table1 cleared at 20 ms: t_end = 22 ms does not cover t_clear plus
    # its 13 ms settle window, which validate, reading no t_clear rule, accepts.
    text = bundled_config_path().read_text(encoding="utf-8")
    assert "t_clear_s: 4.0e-3" in text and "fault_depth: 0.3" in text
    p = tmp_path / "short.yaml"
    p.write_text(text.replace("t_clear_s: 4.0e-3", "t_clear_s: 2.0e-2", 1)
                     .replace("fault_depth: 0.3", "fault_depth: 0.01", 1), encoding="utf-8")
    config = load_config(p)
    assert cmd_validate(config) == 0
    steps = []
    original = dynamics.step
    monkeypatch.setattr(dynamics, "step", lambda *a, **k: steps.append(1) or original(*a, **k))
    message = ("scenario.t_end_s: trajectory ends at 0.022 s, before t_clear + settle_window "
               "= 0.033 s; cannot classify")
    with pytest.raises(ConfigError) as err:
        cmd_simulate(config, tmp_path / "out")
    assert str(err.value) == message
    out = tmp_path / "main"
    assert main(["simulate", "--config", str(p), "--out", str(out)]) == 1
    assert steps == []
    assert not (tmp_path / "out").exists() and not (out / "trajectory.csv").exists()
    # Uncleared, the run must span the settle window itself.
    uncleared = replace(config, scenario=replace(config.scenario, t_clear=None),
                        settle_window=config.scenario.t_end * 2)
    with pytest.raises(ConfigError, match=r"^scenario\.t_end_s: trajectory ends at 0\.022 s, "
                       r"before settle_window = 0\.044 s; cannot classify$"):
        cmd_simulate(uncleared, tmp_path / "out")
    assert steps == []


def _traced_peak(command, config, out):
    tracemalloc.start()
    try:
        assert command(config, out) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", [cmd_simulate, cmd_cct], ids=["simulate", "cct"])
def test_command_memory_does_not_grow_with_the_run_length(table_config, command, tmp_path):
    # Commands stream each run, so a run ten times longer holds no more:
    # the peak at t_end 220 ms is 1.00x that at 22 ms for both commands,
    # where keeping every record gave 15.5x (simulate) and 18.2x (cct). At
    # dt 100 us, as tracemalloc slows each step about tenfold. The first
    # run, at the long length, warms what every command allocates once and
    # fills the interpreter's tuple and float free lists, which tracemalloc
    # counts as live: warmed at 22 ms, simulate read 2.8x when this test
    # ran alone.
    dt = 1e-4
    cfg = replace(table_config, cct=replace(table_config.cct, resolution=dt))

    def at(t_end):
        return replace(cfg, scenario=replace(cfg.scenario, dt=dt, t_end=t_end))

    _traced_peak(command, at(220e-3), tmp_path / "warm")
    short = _traced_peak(command, at(22e-3), tmp_path / "short")
    long = _traced_peak(command, at(220e-3), tmp_path / "long")
    assert long <= 1.1 * short, f"{long} B at 220 ms, {short} B at 22 ms"


def test_trajectory_csv_of_shared_tuples_equals_that_of_copied_ones(table_config, tmp_path):
    # The records before the fault share the equilibrium's tuples, and the
    # writer formats them once. Record 100 is equal to its neighbours by
    # value but holds -0.0 where they hold 0.0, and prints "-0".
    cfg = table_config
    records = list(records_of(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver))
    rec = records[100]
    records[100] = replace(rec, v_gq=tuple(-v for v in rec.v_gq))
    assert records[100].v_gq == records[99].v_gq == records[101].v_gq
    copied = [
        replace(r, **{f: tuple(list(getattr(r, f))) for f in _UNIT_FIELDS})
        for r in records
    ]
    assert copied[99].theta_cg is not copied[100].theta_cg
    _write_trajectory_csv(tmp_path / "shared.csv", cfg, records)
    _write_trajectory_csv(tmp_path / "copied.csv", cfg, copied)
    text = (tmp_path / "shared.csv").read_bytes()
    assert text == (tmp_path / "copied.csv").read_bytes()
    rows = text.decode().splitlines()
    assert rows[1 + 100].split(",")[8] == "-0"
    assert rows[1 + 99].split(",")[8] == rows[1 + 101].split(",")[8] == "0"


def _wide_fleet_yaml(units: int = 20, seed: int = 20) -> str:
    """A fleet of table1-like units with jittered parameters, written the way
    the benchmark inputs are: flow-style impedances, floats with a '.'."""
    rng = random.Random(seed)
    lines = [
        "grid:",
        "  v_th_volts: 230.0",
        "  v_th_angle_rad: 0.0",
        "  z_th_ohms: {r: 0.20, x: 0.10}",
        "  z_load_ohms: {r: 0.10, x: 0.05}",
        "  frequency_hz: 60.0",
        "  v_nominal_volts: 230.0",
        "fleet:",
    ]

    def jitter(x: float) -> str:
        return repr(round(x * rng.uniform(0.9, 1.1), 9))

    for k in range(units):
        lines += [
            f"  - name: U{k + 1:02d}",
            f"    s_rated_va: {jitter(2250.0)}",
            f"    line_resistance_ohm: {jitter(1.1)}",
            f"    line_inductance_uh: {jitter(210.0)}",
            f"    virtual_resistance_ohm: {jitter(0.3)}",
            f"    kp: {jitter(4.5e-3)}",
            f"    ki: {jitter(260.0)}",
            f"    i_max_a: {jitter(13.75)}",
            "    trip_holdoff_s: 1.5e-3",
        ]
    lines += [
        "scenario: {t_fault_s: 3.0e-3, t_clear_s: 4.0e-3, fault_depth: 0.3, "
        "t_end_s: 22.0e-3, dt_s: 1.0e-5}",
        "solver:",
        "  tol_rel: 1.0e-9",
        "  max_iter: 100",
        "  damping: 0.7",
        "  lag_mode: false",
        "stability:",
        "  settle_tol_rad: 0.02",
        "  settle_window_s: 1.3e-2",
    ]
    return "\n".join(lines) + "\n"


LOADERS = [
    pytest.param("SafeLoader", id="python"),
    pytest.param("CSafeLoader", id="libyaml", marks=pytest.mark.skipif(
        not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")),
]


@pytest.fixture()
def loader_inputs(tmp_path):
    wide = tmp_path / "wide_fleet.yaml"
    wide.write_text(_wide_fleet_yaml(), encoding="utf-8")
    return [bundled_config_path(name) for name in sorted(BUNDLED_SHA256)] + [wide]


def test_module_parses_with_libyaml_when_present():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert cli._YAML_LOADER is expected


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML was built without libyaml")
def test_libyaml_and_python_parsers_give_equal_documents(loader_inputs):
    for path in loader_inputs:
        text = path.read_text(encoding="utf-8")
        # repr tells 1 from 1.0, which == does not.
        assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(
            yaml.load(text, Loader=yaml.SafeLoader)
        ), path.name


@pytest.mark.parametrize("loader", LOADERS)
def test_load_config_hash_is_the_same_under_each_parser(loader, loader_inputs, monkeypatch):
    reference = [load_config(path).sha256 for path in loader_inputs]
    monkeypatch.setattr(cli, "_YAML_LOADER", getattr(yaml, loader))
    assert [load_config(path).sha256 for path in loader_inputs] == reference
    assert reference[:-1] == [BUNDLED_SHA256[name] for name in sorted(BUNDLED_SHA256)]
    assert len(load_config(loader_inputs[-1]).fleet) == 20


@pytest.mark.parametrize("loader", LOADERS)
def test_parse_error_reports_location_under_each_parser(loader, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_YAML_LOADER", getattr(yaml, loader))
    p = tmp_path / "broken.yaml"
    p.write_text("grid: {v_th_volts: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="at line 2, column 1"):
        load_config(p)


@pytest.mark.parametrize("loader", LOADERS)
def test_duplicate_keys_are_parse_errors_under_each_parser(loader, tmp_path, monkeypatch):
    # Either parser would otherwise keep the last of the two values silently.
    monkeypatch.setattr(cli, "_YAML_LOADER", getattr(yaml, loader))
    p = tmp_path / "dup.yaml"
    p.write_text(SMALL_CONFIG + "solver: {tol_rel: 1.0e-3, tol_rel: 1.0e-9}\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="^config parse error at line 38, column 27: "
                                          "duplicate key 'tol_rel'"):
        load_config(p)
    p.write_text(SMALL_CONFIG.replace("    kp: 4.76e-3\n", "    kp: 4.76e-3\n    kp: 1.0\n"),
                 encoding="utf-8")
    with pytest.raises(ConfigError, match="at line 21, column 5: duplicate key 'kp'"):
        load_config(p)


@pytest.mark.parametrize("loader", LOADERS)
def test_a_self_referential_alias_is_a_config_error_under_each_parser(
    loader, tmp_path, monkeypatch
):
    # The axis list is its own second item: the duplicate-key scan visits
    # the aliased node once, and the axis check rejects the nested list.
    monkeypatch.setattr(cli, "_YAML_LOADER", getattr(yaml, loader))
    p = tmp_path / "alias.yaml"
    p.write_text(SMALL_CONFIG + "sweep:\n  axes:\n    fault_depth: &x [0.3, *x]\n",
                 encoding="utf-8")
    with pytest.raises(ConfigError, match=r"^sweep\.axes\.fault_depth\[1\]: expected a number, "):
        load_config(p)


@pytest.mark.parametrize("section, message", [
    ("solver: []", "solver: expected a mapping, got list"),
    ("solver: 0", "solver: expected a mapping, got int"),
    ("solver: false", "solver: expected a mapping, got bool"),
    ("stability: []", "stability: expected a mapping, got list"),
    ("sweep: {axes: []}", "sweep.axes: expected a mapping, got list"),
])
def test_a_section_that_is_not_a_mapping_is_an_error(tmp_path, section, message):
    # A falsy non-mapping used to load as the section's defaults.
    p = tmp_path / "section.yaml"
    p.write_text(SMALL_CONFIG[:SMALL_CONFIG.index("stability:")] + section + "\n",
                 encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert str(err.value) == message


def test_a_null_section_takes_its_defaults(tmp_path, small_config_path):
    p = tmp_path / "null.yaml"
    p.write_text(SMALL_CONFIG + "solver:\n", encoding="utf-8")
    assert load_config(p).sha256 == load_config(small_config_path).sha256


@pytest.mark.parametrize("old, new, field", [
    ("stability:\n", "stabilty:\n  settle_tol_rad: 0.5\nstability:\n", "stabilty"),
    ("  v_th_volts: 230.0\n", "  v_th_volts: 230.0\n  frequency: 50.0\n", "grid.frequency"),
    ("z_load_ohms: {r: 0.10, x: 0.05}", "z_load_ohms: {r: 0.10, x: 0.05, l: 1.0e-4}",
     "grid.z_load_ohms.l"),
    ("    ki: 265.0\n", "    ki: 265.0\n    kd: 1.0\n", r"fleet\[1\]\.kd"),
    ("    ki: 260.0\n", "    ki: 260.0\n    line_reactance_ohm: 0.0151\n",
     r"fleet\[0\]\.line_reactance_ohm"),
    ("  dt_s: 2.0e-5\n", "  dt_s: 2.0e-5\n  t_clear: 2.0e-3\n", "scenario.t_clear"),
    ("stability:\n", "solver:\n  tol_rell: 1.0e-3\nstability:\n", "solver.tol_rell"),
    ("  settle_window_s: 2.0e-3\n", "  settle_window_s: 2.0e-3\n  settle: 1.0\n",
     "stability.settle"),
    ("    audit_samples: 5\n", "    audit_samples: 5\n    samples: 7\n", "stability.cct.samples"),
    ("stability:\n", "sweep:\n  axis: {fault_depth: [0.4]}\nstability:\n", "sweep.axis"),
], ids=["top", "grid", "impedance", "fleet",
        "derived_reactance", "scenario", "solver", "stability", "cct", "sweep"])
def test_unknown_keys_are_rejected_with_field_address(tmp_path, old, new, field):
    # A misspelt key would otherwise run silently with its default.
    p = tmp_path / "unknown.yaml"
    p.write_text(SMALL_CONFIG.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(ConfigError, match=f"^{field}: unknown key$"):
        load_config(p)


@pytest.mark.parametrize("old, new, message", [
    ("stability:\n", "solver:\n  tol_rel: 0.0\nstability:\n",
     "solver.tol_rel: must be > 0.0, got 0.0"),
    ("fault_depth: 0.5", "fault_depth: 1.5", "scenario.fault_depth: must be <= 1.0, got 1.5"),
    ("stability:\n", "solver:\n  max_iter: 0\nstability:\n",
     "solver.max_iter: must be >= 1, got 0.0"),
    ("audit_samples: 5", "audit_samples: 1",
     "stability.cct.audit_samples: must be >= 2, got 1.0"),
    ("z_th_ohms: {r: 0.20, x: 0.10}", "z_th_ohms: {r: 0.20}",
     "grid.z_th_ohms.x: required field is missing"),
    ("z_th_ohms: {r: 0.20, x: 0.10}", "z_th_ohms: 0.2",
     "grid.z_th_ohms: expected a mapping, got float"),
    ("kp: 4.31e-3", "kp: fast", "fleet[0].kp: expected a number, got 'fast'"),
    ("t_min_s: 2.0e-4", "t_min_s: 2.0e-3",
     "stability.cct: need 0 < t_min < t_max <= t_end, got 0.002, 0.002"),
    ("t_end_s: 8.0e-3", "t_end_s: 4.0e-3",
     "stability.cct: t_end = 0.004 s does not cover "
     "t_fault + t_max + settle_window = 0.005 s"),
    ("resolution_s: 1.0e-4", "resolution_s: 1.0e-5",
     "stability.cct: resolution must be at least dt = 2e-05 s, got 1e-05: "
     "a bracket cannot be narrower than one step"),
    ("t_min_s: 2.0e-4", "t_min_s: 5.0e-6",
     "stability.cct: need 0 < k_min < k_max, got steps 0 and 100 of dt"),
    ("t_min_s: 2.0e-4\n    t_max_s: 2.0e-3", "t_min_s: 2.4e-5\n    t_max_s: 2.8e-5",
     "stability.cct: need 0 < k_min < k_max, got steps 1 and 1 of dt"),
    ("name: A", "name: 'A,1'",
     "fleet[0].name: must not contain commas, semicolons, double quotes or newlines"),
    ("name: A", "name: 'A;1'",
     "fleet[0].name: must not contain commas, semicolons, double quotes or newlines"),
    ("name: A", "name: 'A\"1'",
     "fleet[0].name: must not contain commas, semicolons, double quotes or newlines"),
    ("s_rated_va: 6000.0", "s_rated_va: 0.0", "fleet[0].s_rated_va: must be > 0.0, got 0.0"),
    ("line_resistance_ohm: 0.15", "line_resistance_ohm: -0.15",
     "fleet[0].line_resistance_ohm: must be >= 0.0, got -0.15"),
    ("t_clear_s: null", "t_clear_s: 1.008e-3",
     "scenario.t_clear_s: t_clear must lie more than half a step (dt = 2e-05 s) after "
     "t_fault, got t_clear - t_fault = 8e-06 s: the fault would last no step"),
    ("t_fault_s: 1.0e-3\n  t_clear_s: null", "t_fault_s: 0.0\n  t_clear_s: 1.0e-3",
     "scenario.t_fault_s: t_fault must lie more than half a step (dt = 2e-05 s) after 0 "
     "when the fault is cleared, got 0 s: no step makes record 0"),
    ("t_end_s: 8.0e-3", "t_end_s: 1.0e-3",
     "scenario.t_fault_s: t_fault must satisfy 0 <= t_fault < t_end, got 0.001"),
    ("name: A", "name: '  '", "fleet[0].name: required non-empty string"),
    ("stability:\n", "sweep:\n  axes: {fault_depth: []}\nstability:\n",
     "sweep.axes.fault_depth: expected a non-empty list of numbers"),
    # Each value is in range, but 2 pi f overflows: InverterConfig's error,
    # addressed to the unit.
    ("  v_th_volts: 230.0\n", "  v_th_volts: 230.0\n  frequency_hz: 1.0e+308\n",
     "fleet[0]: A: z_line must be finite, got (0.15+infj)"),
], ids=["solver_strict_min", "maximum", "whole_number_minimum", "cct_whole_number",
        "impedance_part", "impedance_not_a_map", "not_a_number", "cct_bracket",
        "t_end_coverage", "cct_resolution", "cct_t_min_at_step_0",
        "cct_bracket_in_one_step", "name_comma", "name_semicolon", "name_quote", "strict_min",
        "minimum", "fault_of_no_step", "cleared_fault_at_step_0", "fault_after_end",
        "name_blank", "sweep_axis_empty", "unit_line_overflow"])
def test_config_errors_keep_their_messages(tmp_path, old, new, message):
    p = tmp_path / "bad.yaml"
    p.write_text(SMALL_CONFIG.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert str(err.value) == message


@pytest.mark.parametrize("faulted", [
    "{v_th_volts: 100.0}", "{v_th_volts: 100.0, z_th_ohms: {r: 0.2, x: 0.1}}", "{}", "0.5",
], ids=["voltage", "voltage_and_impedance", "empty", "number"])
def test_a_fault_on_source_override_is_rejected_naming_fault_depth(tmp_path, faulted):
    # The fault-on source is the pre-fault one scaled by 1 - fault_depth: an
    # override would leave fault_depth and its sweep axis inert.
    p = tmp_path / "faulted.yaml"
    p.write_text(SMALL_CONFIG.replace("fleet:\n", f"  faulted: {faulted}\nfleet:\n", 1),
                 encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=r"^grid\.faulted: .*removed; set scenario\.fault_depth, "):
        load_config(p)


def test_a_null_fault_on_source_hashes_as_if_omitted(tmp_path, small_config_path):
    p = tmp_path / "null_faulted.yaml"
    p.write_text(SMALL_CONFIG.replace("fleet:\n", "  faulted: null\nfleet:\n", 1),
                 encoding="utf-8")
    cfg = load_config(p)
    assert cfg.resolved["grid"]["faulted"] is None
    assert cfg.sha256 == load_config(small_config_path).sha256


def test_provenance_hash_tracks_semantic_changes(tmp_path):
    a = tmp_path / "a.yaml"
    b = tmp_path / "b.yaml"
    a.write_text(SMALL_CONFIG, encoding="utf-8")
    b.write_text(SMALL_CONFIG.replace("fault_depth: 0.5", "fault_depth: 0.6"),
                 encoding="utf-8")
    assert load_config(a).sha256 != load_config(b).sha256


def test_cmd_cct_writes_bisection_result(small_config_path, tmp_path):
    cfg = load_config(small_config_path)
    out = tmp_path / "out"
    assert cmd_cct(cfg, out) == 0
    payload = json.loads((out / "cct.json").read_text())
    assert payload["cct_s"] == pytest.approx(8e-4, abs=1.5e-4)
    assert payload["bracket_lo_s"] < payload["cct_s"] <= payload["bracket_hi_s"]
    assert payload["monotonic"] is True
    assert len(payload["audit"]) == 5
    assert payload["evaluation_log"]
    assert payload["evaluations"] == len(payload["evaluation_log"])
    assert payload["provenance"]["config_sha256"] == cfg.sha256


def test_cmd_cct_reports_invalid_bracket(small_config_path, tmp_path):
    text = SMALL_CONFIG.replace("fault_depth: 0.5", "fault_depth: 0.0")
    p = tmp_path / "nofault.yaml"
    p.write_text(text, encoding="utf-8")
    cfg = load_config(p)
    out = tmp_path / "out"
    assert cmd_cct(cfg, out) == 1
    payload = json.loads((out / "cct.json").read_text())
    assert "error" in payload
    assert payload["bracket"]["t_min_stable"] is True
    assert payload["bracket"]["t_max_stable"] is True


def test_cmd_compare_writes_both_trajectories(small_config_path, tmp_path):
    cfg = load_config(small_config_path)
    out = tmp_path / "out"
    assert cmd_compare(cfg, out) == 0
    payload = json.loads((out / "comparison.json").read_text())
    assert {"cct_nonuniform_s", "cct_uniform_s", "delta_s"} <= payload.keys()
    assert len(payload["uniform_fleet"]) == 2
    assert payload["uniform_fleet"][0]["s_rated_va"] == pytest.approx(9000.0)
    assert (out / "trajectory_nonuniform.csv").exists()
    assert (out / "trajectory_uniform.csv").exists()


def test_empty_sweep_equals_cct_command(small_config_path, tmp_path):
    cfg = load_config(small_config_path)
    cct_dir = tmp_path / "cct"
    cmd_cct(cfg, cct_dir)
    expected = json.loads((cct_dir / "cct.json").read_text())["cct_s"]

    sweep_dir = tmp_path / "sweep"
    assert cmd_sweep(cfg, sweep_dir) == 0
    lines = (sweep_dir / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 2
    row = dict(zip(header, lines[1].split(",")))
    assert row["status"] == "ok"
    assert float(row["cct_s"]) == pytest.approx(expected, rel=1e-9)


def test_clearing_time_sweep_matches_individual_runs(small_config_path, tmp_path):
    cfg = load_config(small_config_path)
    intervals = [2e-4, 5e-4, 8e-4, 1.1e-3, 1.4e-3]
    out = tmp_path / "sweep"
    assert cmd_sweep(replace(cfg, sweep_axes={"clear_interval_s": tuple(intervals)}), out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 5
    verdicts = [row["stable"] == "true" for row in rows]
    # monotone: once unstable, stays unstable
    assert verdicts == sorted(verdicts, reverse=True)

    for interval, row in zip(intervals, rows):
        runs = Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
        verdict = decide(runs, cfg.scenario.t_fault + interval, cfg.settle_tol,
                         cfg.settle_window)
        assert (row["stable"] == "true") == verdict.stable
        assert row["max_angle_excursion_rad"] == f"{verdict.max_angle_excursion:.9g}"


def _sweep_rows(path):
    """The rows of sweep.csv at path, each as {column: cell}; every row
    has the header's width."""
    with path.open(encoding="utf-8", newline="") as f:
        header, *rows = csv.reader(f)
    assert [len(row) for row in rows] == [len(header)] * len(rows)
    return [dict(zip(header, row)) for row in rows]


def test_sweep_csv_quotes_an_error_cell_that_holds_a_comma(table_config, tmp_path, monkeypatch):
    # Cleared 19 ms after the fault, table1's run ends before its settle
    # window, and the message has a comma: the row keeps the header's
    # width, and its error cell the whole message.
    monkeypatch.setenv("GFLSWING_THREADS", "1")
    cfg = replace(table_config, scenario=replace(table_config.scenario, fault_depth=0.01),
                  sweep_axes={"clear_interval_s": (1.0e-3, 1.9e-2)})
    assert cmd_sweep(cfg, tmp_path) == 0
    rows = _sweep_rows(tmp_path / "sweep.csv")
    assert [row["status"] for row in rows] == ["ok", "error"]
    assert rows[1]["error"] == (
        "ValueError: trajectory ends at 0.022 s, before t_clear + settle_window "
        "= 0.035 s; cannot classify"
    )


def test_clearing_time_sweep_reports_a_fault_of_no_step_as_an_error_row(
    small_config_path, tmp_path
):
    # 0.4 dt rounds to no step under the fault; 0.6 dt to one.
    cfg = load_config(small_config_path)
    dt = cfg.scenario.dt
    axes = {"clear_interval_s": (0.4 * dt, 0.6 * dt)}
    assert cmd_sweep(replace(cfg, sweep_axes=axes), tmp_path) == 0
    rows = _sweep_rows(tmp_path / "sweep.csv")
    assert rows[0]["status"] == "error"
    assert rows[0]["error"] == (
        f"ValueError: t_clear must lie more than half a step (dt = {dt:.6g} s) after "
        f"t_fault, got t_clear - t_fault = {0.4 * dt:.6g} s: the fault would last no step"
    )
    assert rows[1]["status"] == "ok" and rows[1]["stable"] == "true"


def test_depth_sweep_records_bracket_failures_and_continues(small_config_path, tmp_path):
    cfg = load_config(small_config_path)
    out = tmp_path / "sweep"
    assert cmd_sweep(replace(cfg, sweep_axes={"fault_depth": (0.0, 0.5)}), out) == 0
    rows = _sweep_rows(out / "sweep.csv")
    assert rows[0]["status"] == "error"
    assert "BracketInvalid" in rows[0]["error"]
    assert rows[1]["status"] == "ok"
    assert float(rows[1]["cct_s"]) > 0


def test_parallel_sweep_output_matches_serial(small_config_path, tmp_path, monkeypatch):
    cfg = replace(
        load_config(small_config_path),
        sweep_axes={"clear_interval_s": (4e-4, 1.2e-3), "fault_depth": (0.4, 0.6)},
    )
    monkeypatch.setenv("GFLSWING_THREADS", "1")
    cmd_sweep(cfg, tmp_path / "serial")
    monkeypatch.setenv("GFLSWING_THREADS", "2")
    cmd_sweep(cfg, tmp_path / "parallel")
    for name in ("sweep.csv", "sweep.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "parallel" / name
        ).read_bytes()


def test_split_group_sweep_output_matches_serial(small_config_path, tmp_path, monkeypatch):
    # One group of clearing intervals and two workers: the group's cells are
    # dealt into two tasks, each with its own Runs.
    cfg = replace(
        load_config(small_config_path),
        sweep_axes={"clear_interval_s": (2e-4, 5e-4, 8e-4, 1.1e-3, 1.4e-3)},
    )
    monkeypatch.setenv("GFLSWING_THREADS", "1")
    cmd_sweep(cfg, tmp_path / "serial")
    monkeypatch.setenv("GFLSWING_THREADS", "2")
    cmd_sweep(cfg, tmp_path / "parallel")
    for name in ("sweep.csv", "sweep.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "parallel" / name
        ).read_bytes()


# Criterion 11's 10 x 10 verdict sweep of table1.
CRITERION_11_AXES = {
    "fault_depth": tuple(0.25 + 0.05 * k for k in range(10)),
    "clear_interval_s": tuple(4e-4 * (k + 1) for k in range(10)),
}


def test_sweep_cells_of_one_fleet_and_fault_share_one_runs(table_config, tmp_path, monkeypatch):
    # Criterion 11's 10 x 10 grid: one Runs per depth, so 10 equilibria, and
    # each depth's fault-on steps are made once, each cell's run read only to
    # its first trip (see stability.decide): 56,140 steps. Read to t_end,
    # 17,210 steps a depth; a Runs per cell made 100 equilibria and 190,100.
    calls = {"step": 0, "find_equilibrium": 0}
    for name in calls:
        original = getattr(dynamics, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(dynamics, name, counting)
    assert cmd_sweep(replace(table_config, sweep_axes=CRITERION_11_AXES), tmp_path) == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 101
    assert calls == {"step": 56_140, "find_equilibrium": 10}


def test_verdict_sweep_rows_are_decides_verdicts_read_to_their_first_trip(
    table_config, tmp_path
):
    # Every row of criterion 11's sweep is decide's verdict of its clearing
    # interval on a Runs of its depth; the records decide reads end at the
    # first tripped record of the 70 runs that trip, and at t_end of the 30
    # that do not. A row's excursion is the largest up to that record.
    cfg = table_config
    assert cmd_sweep(replace(cfg, sweep_axes=CRITERION_11_AXES), tmp_path) == 0
    rows = iter(_sweep_rows(tmp_path / "sweep.csv"))
    ends = {"trip": 0, "t_end": 0}
    for depth in CRITERION_11_AXES["fault_depth"]:
        runs = Runs(cfg.fleet, cfg.grid, replace(cfg.scenario, fault_depth=depth), cfg.solver)
        for interval in CRITERION_11_AXES["clear_interval_s"]:
            verdict, read = decided(runs, cfg.scenario.t_fault + interval, cfg.settle_tol,
                                    cfg.settle_window)
            assert not any(True in rec.tripped for rec in read[:-1])
            if True in read[-1].tripped:
                ends["trip"] += 1
            else:
                assert len(read) - 1 == cfg.scenario.k_end
                ends["t_end"] += 1
            row = next(rows)
            assert (row["status"], row["stable"], row["first_unstable"]) == (
                "ok", "true" if verdict.stable else "false", verdict.first_unstable or "")
            assert row["t_unstable_s"] == (
                "" if verdict.t_unstable is None else f"{verdict.t_unstable:.9g}")
            assert row["max_angle_excursion_rad"] == f"{verdict.max_angle_excursion:.9g}"
    assert ends == {"trip": 70, "t_end": 30}


def test_a_trip_decides_a_sweep_row_before_its_horizon_is_checked(
    table_config, tmp_path, monkeypatch
):
    # Cleared 19 ms after the fault, table1's run ends before its settle
    # window. At depth 0.01 nothing trips, so the row is the horizon error;
    # at depth 0.3 Inv 4 trips at 4.5 ms, which decides the row, and the
    # sweep steps no run past that trip: 1,952 steps, where its runs read
    # to t_end took 3,702.
    monkeypatch.setenv("GFLSWING_THREADS", "1")
    steps = []
    original = dynamics.step
    monkeypatch.setattr(dynamics, "step", lambda *a: steps.append(1) or original(*a))
    cells = {}
    for depth in (0.01, 0.3):
        cfg = replace(table_config, scenario=replace(table_config.scenario, fault_depth=depth),
                      sweep_axes={"clear_interval_s": (1.0e-3, 1.9e-2)})
        steps.clear()
        assert cmd_sweep(cfg, tmp_path / str(depth)) == 0
        cells[depth] = (tmp_path / str(depth) / "sweep.csv").read_text().splitlines()[2]
    assert cells[0.01] == (
        '1,0.019,error,,,,,"ValueError: trajectory ends at 0.022 s, before t_clear + '
        'settle_window = 0.035 s; cannot classify"'
    )
    assert cells[0.3].startswith("1,0.019,ok,false,Inv 4,0.0045,")
    assert len(steps) == 1_952 < 3_702


def test_a_group_that_fails_to_build_gives_each_of_its_cells_the_error(table_config, tmp_path):
    # At s_scale 1.5 no equilibrium exists; the group's Runs is built again
    # for its second cell and fails the same way.
    axes = {"s_scale": (1.0, 1.5), "clear_interval_s": (4e-4, 8e-4)}
    assert cmd_sweep(replace(table_config, sweep_axes=axes), tmp_path) == 0
    rows = _sweep_rows(tmp_path / "sweep.csv")
    assert [row["s_scale"] for row in rows] == ["1", "1.5", "1", "1.5"]
    for row in rows:
        if row["s_scale"] == "1":
            assert row["status"] == "ok" and row["error"] == ""
        else:
            assert row["status"] == "error"
            assert row["error"].startswith(
                "InitializationFailure: Inv 4: rated current 66.18 A exceeds "
            )


# How a sweep cell applies each fleet axis, written out by hand: s_scale
# multiplies every unit's s_rated, xr_scale its line reactance only.
HAND_SCALED = {
    "s_scale": lambda c, v: replace(c, s_rated=c.s_rated * v),
    "xr_scale": lambda c, v: replace(c, z_line=complex(c.z_line.real, c.z_line.imag * v)),
}


# At s_scale 2 table1 has no equilibrium: that cell is the hand-built Runs' error.
@pytest.mark.parametrize("axis, statuses", [("s_scale", ["ok", "error"]),
                                            ("xr_scale", ["ok", "ok"])])
def test_fleet_axis_cells_match_the_fleet_scaled_by_hand(axis, statuses, table_config, tmp_path):
    cfg, values, interval = table_config, (1.0, 2.0), 1e-3
    axes = {axis: values, "clear_interval_s": (interval,)}
    assert cmd_sweep(replace(cfg, sweep_axes=axes), tmp_path) == 0
    rows = _sweep_rows(tmp_path / "sweep.csv")
    assert [row["status"] for row in rows] == statuses
    for value, row in zip(values, rows):
        fleet = tuple(HAND_SCALED[axis](c, value) for c in cfg.fleet)
        try:
            runs = Runs(fleet, cfg.grid, cfg.scenario, cfg.solver)
        except InitializationFailure as exc:
            assert row["error"] == f"InitializationFailure: {exc}"
            continue
        verdict = decide(runs, cfg.scenario.t_fault + interval, cfg.settle_tol,
                         cfg.settle_window)
        assert row["stable"] == ("true" if verdict.stable else "false")
        assert row["max_angle_excursion_rad"] == f"{verdict.max_angle_excursion:.9g}"


def test_sweep_worker_cap_env_validation(small_config_path, tmp_path, monkeypatch):
    cfg = load_config(small_config_path)
    monkeypatch.setenv("GFLSWING_THREADS", "zebra")
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, tmp_path / "out")


def test_sweep_worker_cap_is_the_cpus_the_process_may_run_on(monkeypatch):
    # Checked without starting a worker: the affinity set, not the host's
    # CPU count, and the CPU count where the platform has no affinity.
    monkeypatch.delenv("GFLSWING_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli._worker_cap() == 3
    monkeypatch.setenv("GFLSWING_THREADS", "2")
    assert cli._worker_cap() == 2
    monkeypatch.delenv("GFLSWING_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._worker_cap() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_cap() == 1


def test_main_validate_and_exit_codes(small_config_path, tmp_path):
    assert main(["validate", "--config", str(small_config_path)]) == 0
    assert main(["validate", "--config", str(tmp_path / "missing.yaml")]) == 1
    out = tmp_path / "run"
    code = main([
        "simulate", "--config", str(bundled_config_path("table1_nofault.yaml")),
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "trajectory.csv").exists()


@pytest.mark.parametrize("command, code, outputs", [
    ("simulate", 2, ["summary.json", "trajectory.csv"]),
    ("cct", 0, ["cct.json"]),
    ("compare", 0, ["comparison.json", "trajectory_nonuniform.csv", "trajectory_uniform.csv"]),
    ("sweep", 0, ["sweep.csv", "sweep.json"]),
    ("validate", 0, None),
])
def test_main_runs_each_command(small_config_path, tmp_path, capsys, command, code, outputs):
    out = tmp_path / "out"
    argv = [command, "--config", str(small_config_path)]
    if command != "validate":
        argv += ["--out", str(out)]
    assert main(argv) == code
    if command == "validate":
        assert not out.exists()
        assert capsys.readouterr().out.startswith("config OK: 2 inverters")
    else:
        assert sorted(p.name for p in out.iterdir()) == outputs


def test_main_dt_override_changes_effective_config(small_config_path):
    base = load_config(small_config_path)
    overridden = load_config(small_config_path, dt_override=4e-5)
    assert overridden.scenario.dt == 4e-5
    assert overridden.sha256 != base.sha256


def test_cmd_validate_prints_summary(small_config_path, capsys):
    cfg = load_config(small_config_path)
    assert cmd_validate(cfg) == 0
    out = capsys.readouterr().out
    assert "2 inverters" in out
    assert cfg.sha256[:16] in out
