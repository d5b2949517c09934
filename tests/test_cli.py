import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest
import yaml

from gflswing import cli
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
from gflswing.dynamics import simulate

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


def test_trajectory_csv_shape(small_config_path, tmp_path):
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
}


@pytest.mark.parametrize("name", sorted(BUNDLED_SHA256))
def test_bundled_config_provenance_hash_is_pinned(name):
    assert load_config(bundled_config_path(name)).sha256 == BUNDLED_SHA256[name]


# cct.json of bundled table1.yaml: CCT, bracket, evaluation log, audit and loss
# order. A change that only makes the search cheaper must leave it alone.
TABLE1_CCT_JSON_SHA256 = "86e68672124f4cda72c488de0975fb11fa8e6ef93251952835d4ff090d1d8bb3"


def test_bundled_cct_json_is_pinned(tmp_path):
    assert cmd_cct(load_config(bundled_config_path()), tmp_path) == 0
    digest = hashlib.sha256((tmp_path / "cct.json").read_bytes()).hexdigest()
    assert digest == TABLE1_CCT_JSON_SHA256


# trajectory.csv of bundled runs. These catch what cct.json cannot, e.g. a
# tripped unit's i_q, which is 0.0 * sin(...) = -0.0 and prints "-0".
TRAJECTORY_CSV_SHA256 = {
    "table1.yaml": "2dbb3292c5c43c423e7f02fff86edf3a04fbda3ab1650e169bc63e9dbbecc337",
    "table1_uncleared.yaml": "86536f64fa2041c320c1b72fc7316736d2f99c4d84e31496d2441a7963526a59",
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_CSV_SHA256))
def test_bundled_trajectory_csv_is_pinned(name, tmp_path):
    cmd_simulate(load_config(bundled_config_path(name)), tmp_path)
    digest = hashlib.sha256((tmp_path / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == TRAJECTORY_CSV_SHA256[name]


# comparison.json and both replay CSVs of cmd_compare on bundled table1.yaml:
# the trajectory writer's second caller.
COMPARE_SHA256 = {
    "trajectory_nonuniform.csv": "a7640dc5e0baacd6d64d49020d0053915822704a978e1fdd0419a0eb4b833c36",
    "trajectory_uniform.csv": "e52efe9e0d40f0670fe2410008f7080f9357be22867481bbc42e96cc2a2d4a70",
    "comparison.json": "c70379467a1d588af6c152672d0df04b353db14c500d3c4305d8bf962a0404ff",
}


def test_bundled_compare_outputs_are_pinned(table_config, tmp_path):
    assert cmd_compare(table_config, tmp_path) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in COMPARE_SHA256
    }
    assert digests == COMPARE_SHA256


def test_trajectory_csv_is_streamed_not_built_in_memory(table_config, tmp_path):
    # Holding the rows, their join and its encoding costs about 3x the file.
    traj = simulate(table_config.fleet, table_config.grid, table_config.scenario,
                    table_config.solver)
    path = tmp_path / "trajectory.csv"
    tracemalloc.start()
    try:
        cli._write_trajectory_csv(path, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 500_000
    assert peak <= 0.25 * size, f"peak {peak} B for a {size} B file"


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
    assert reference[:3] == [BUNDLED_SHA256[name] for name in sorted(BUNDLED_SHA256)]
    assert len(load_config(loader_inputs[3]).fleet) == 20


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
    ("fleet:\n", "  faulted: {v_th_volts: 100.0, depth: 0.5}\nfleet:\n", "grid.faulted.depth"),
    ("z_load_ohms: {r: 0.10, x: 0.05}", "z_load_ohms: {r: 0.10, x: 0.05, l: 1.0e-4}",
     "grid.z_load_ohms.l"),
    ("fleet:\n", "  faulted:\n    v_th_volts: 100.0\n    z_th_ohms: {r: 0.2, x: 0.1, y: 0.0}\nfleet:\n",
     "grid.faulted.z_th_ohms.y"),
    ("    ki: 265.0\n", "    ki: 265.0\n    kd: 1.0\n", r"fleet\[1\]\.kd"),
    ("    ki: 260.0\n", "    ki: 260.0\n    line_reactance_ohm: 0.0151\n",
     r"fleet\[0\]\.line_reactance_ohm"),
    ("  dt_s: 2.0e-5\n", "  dt_s: 2.0e-5\n  t_clear: 2.0e-3\n", "scenario.t_clear"),
    ("stability:\n", "solver:\n  tol_rell: 1.0e-3\nstability:\n", "solver.tol_rell"),
    ("  settle_window_s: 2.0e-3\n", "  settle_window_s: 2.0e-3\n  settle: 1.0\n",
     "stability.settle"),
    ("    audit_samples: 5\n", "    audit_samples: 5\n    samples: 7\n", "stability.cct.samples"),
    ("stability:\n", "sweep:\n  axis: {fault_depth: [0.4]}\nstability:\n", "sweep.axis"),
], ids=["top", "grid", "faulted", "impedance", "faulted_impedance", "fleet",
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
    ("fleet:\n", "  faulted: {v_th_volts: 300.0}\nfleet:\n",
     "grid.faulted.v_th_volts: fault-on voltage 300.0 exceeds pre-fault 230.0"),
    ("t_min_s: 2.0e-4", "t_min_s: 2.0e-3",
     "stability.cct: t_min_s must be strictly below t_max_s"),
    ("t_end_s: 8.0e-3", "t_end_s: 4.0e-3",
     "scenario.t_end_s: 0.004 does not cover "
     "t_fault_s + cct.t_max_s + settle_window_s = 0.005"),
    ("resolution_s: 1.0e-4", "resolution_s: 1.0e-5",
     "stability.cct.resolution_s: must be >= scenario.dt_s = 2e-05, got 1e-05"),
    ("name: A", "name: 'A,1'", "fleet[0].name: must not contain commas or newlines"),
    ("s_rated_va: 6000.0", "s_rated_va: 0.0", "fleet[0].s_rated_va: must be > 0.0, got 0.0"),
    ("line_resistance_ohm: 0.15", "line_resistance_ohm: -0.15",
     "fleet[0].line_resistance_ohm: must be >= 0.0, got -0.15"),
], ids=["solver_strict_min", "maximum", "whole_number_minimum", "cct_whole_number",
        "impedance_part", "impedance_not_a_map", "not_a_number", "faulted_above_prefault",
        "cct_bracket", "t_end_coverage", "cct_resolution", "name_comma", "strict_min", "minimum"])
def test_config_errors_keep_their_messages(tmp_path, old, new, message):
    p = tmp_path / "bad.yaml"
    p.write_text(SMALL_CONFIG.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert str(err.value) == message


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
    assert cmd_sweep(cfg, None, sweep_dir) == 0
    lines = (sweep_dir / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 2
    row = dict(zip(header, lines[1].split(",")))
    assert row["status"] == "ok"
    assert float(row["cct_s"]) == pytest.approx(expected, rel=1e-9)


def test_clearing_time_sweep_matches_individual_runs(small_config_path, tmp_path):
    cfg = load_config(small_config_path)
    intervals = [2e-4, 5e-4, 8e-4, 1.1e-3, 1.4e-3]
    axes = {"clear_interval_s": tuple(intervals)}
    out = tmp_path / "sweep"
    assert cmd_sweep(cfg, axes, out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert len(rows) == 5
    verdicts = [row["stable"] == "true" for row in rows]
    # monotone: once unstable, stays unstable
    assert verdicts == sorted(verdicts, reverse=True)

    from dataclasses import replace as dc_replace
    from gflswing.dynamics import simulate
    from gflswing.stability import classify

    for interval, row in zip(intervals, rows):
        scen = dc_replace(cfg.scenario, t_clear=cfg.scenario.t_fault + interval)
        verdict = classify(simulate(cfg.fleet, cfg.grid, scen, cfg.solver),
                           cfg.settle_tol, cfg.settle_window)
        assert (row["stable"] == "true") == verdict.stable


def test_depth_sweep_records_bracket_failures_and_continues(small_config_path, tmp_path):
    cfg = load_config(small_config_path)
    out = tmp_path / "sweep"
    assert cmd_sweep(cfg, {"fault_depth": (0.0, 0.5)}, out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    assert rows[0]["status"] == "error"
    assert "BracketInvalid" in rows[0]["error"]
    assert rows[1]["status"] == "ok"
    assert float(rows[1]["cct_s"]) > 0


def test_parallel_sweep_output_matches_serial(small_config_path, tmp_path, monkeypatch):
    cfg = load_config(small_config_path)
    axes = {"clear_interval_s": (4e-4, 1.2e-3), "fault_depth": (0.4, 0.6)}
    monkeypatch.setenv("GFLSWING_THREADS", "1")
    cmd_sweep(cfg, axes, tmp_path / "serial")
    monkeypatch.setenv("GFLSWING_THREADS", "2")
    cmd_sweep(cfg, axes, tmp_path / "parallel")
    for name in ("sweep.csv", "sweep.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "parallel" / name
        ).read_bytes()


def test_sweep_worker_cap_env_validation(small_config_path, tmp_path, monkeypatch):
    cfg = load_config(small_config_path)
    monkeypatch.setenv("GFLSWING_THREADS", "zebra")
    with pytest.raises(ConfigError):
        cmd_sweep(cfg, None, tmp_path / "out")


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
