"""Command-line surface: config ingestion, scenario runs, result emission.

Configuration is one YAML document with named sections (grid, fleet,
scenario, solver, stability, sweep); see the bundled reference file under
gflswing/data/ for a fully annotated example. Outputs are plot-ready CSV
(UTF-8, comma separated, LF endings) and JSON with stable key ordering;
floats are written with 9 significant digits so identical configs yield
byte-identical files.

Exit codes: 0 stable / success, 2 unstable, 1 error.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import itertools
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Any, Sequence

import yaml

from gflswing.dynamics import (
    DEFAULT_TOL_REL,
    DEFAULT_TRIP_HOLDOFF_S,
    FaultScenario,
    InitializationFailure,
    InverterConfig,
    SolverOptions,
    Trajectory,
    absolute_tol,
    simulate,
    whole_steps,
)
from gflswing.network import GridModel, TheveninEquivalent, line_impedance
from gflswing.stability import (
    DEFAULT_AUDIT_SAMPLES,
    DEFAULT_SETTLE_TOL_RAD,
    DEFAULT_SETTLE_WINDOW_S,
    BracketInvalid,
    CctResult,
    StabilityVerdict,
    classify,
    compare_uniform,
    find_cct,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "CctSettings",
    "load_config",
    "bundled_config_path",
    "cmd_simulate",
    "cmd_cct",
    "cmd_compare",
    "cmd_sweep",
    "cmd_validate",
    "main",
]

try:
    from gflswing import __version__ as TOOL_VERSION
except ImportError:  # pragma: no cover
    TOOL_VERSION = "unknown"

log = logging.getLogger("gflswing")

DEFAULT_I_MAX_HEADROOM = 1.2
DEFAULT_FREQUENCY_HZ = 60.0
SWEEP_AXES = ("fault_depth", "clear_interval_s", "s_scale", "xr_scale")
THREADS_ENV = "GFLSWING_THREADS"

# libyaml's parser with PyYAML's safe constructor and resolver; the
# pure-Python parser when PyYAML was built without libyaml.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Configuration parse or validation failure with a field-addressed message."""


@dataclass(frozen=True, slots=True)
class CctSettings:
    t_min: float
    t_max: float
    resolution: float
    audit_samples: int


@dataclass(frozen=True)
class RunConfig:
    grid: GridModel
    fleet: tuple[InverterConfig, ...]
    scenario: FaultScenario
    solver: SolverOptions
    settle_tol: float
    settle_window: float
    cct: CctSettings | None
    sweep_axes: dict[str, tuple[float, ...]] | None
    resolved: dict[str, Any]
    sha256: str


# ---------------------------------------------------------------------------
# config parsing
#
# The schema is one table per section, {key: (default, rule)}. An absent or
# null key takes its default, and the default REQUIRED makes its absence an
# error. A rule is one of:
#   (minimum, strict, maximum)  a finite number within the bounds (None: no
#                               bound; strict: the minimum is excluded);
#   an int                      a whole number of at least that;
#   a table                     a mapping checked by that table;
#   a function (value, path)    which checks value and returns its echo.
# _section checks one mapping against its table; what it returns is the
# resolved echo, and a key missing from the table is rejected as unknown.

REQUIRED = object()

_ANY = (None, False, None)
_NONNEGATIVE = (0.0, False, None)
_POSITIVE = (0.0, True, None)


def _expect_map(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _finite(value: Any, where: str) -> float:
    """value as a float; booleans, non-numbers, NaN and +-inf are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    return number


def _number(value: Any, rule: tuple | int, where: str) -> float | int:
    number = _finite(value, where)
    whole = isinstance(rule, int)
    minimum, strict, maximum = (rule, False, None) if whole else rule
    if minimum is not None and (number <= minimum if strict else number < minimum):
        raise ConfigError(f"{where}: must be {'>' if strict else '>='} {minimum}, got {number}")
    if maximum is not None and number > maximum:
        raise ConfigError(f"{where}: must be <= {maximum}, got {number}")
    if not whole:
        return number
    if number != int(number):
        raise ConfigError(f"{where}: must be a whole number, got {number}")
    return int(number)


def _section(raw: Any, table: dict, path: str) -> dict:
    """The resolved echo of the mapping raw, checked row by row against table."""
    raw = _expect_map(raw, path)
    prefix = f"{path}." if path else ""
    echo = {}
    for key, (default, rule) in table.items():
        where = prefix + key
        value = raw.get(key)
        if value is None:
            value = default
        if value is REQUIRED:
            raise ConfigError(f"{where}: required {'field' if path else 'section'} is missing")
        if value is None:
            echo[key] = None
        elif isinstance(rule, dict):
            echo[key] = _section(value, rule, where)
        elif callable(rule):
            echo[key] = rule(value, where)
        else:
            echo[key] = _number(value, rule, where)
    for key in raw:
        if key not in table:
            raise ConfigError(f"{prefix}{key}: unknown key")
    return echo


def _name(value: Any, where: str) -> str:
    if not isinstance(value, str) or not value.strip():
        raise ConfigError(f"{where}: required non-empty string")
    if any(ch in value for ch in ",\n\r"):
        raise ConfigError(f"{where}: must not contain commas or newlines")
    return value


_IMPEDANCE = {"r": (REQUIRED, _NONNEGATIVE), "x": (REQUIRED, _ANY)}

# load_config adds line_reactance_ohm to each unit's echo. It is derived from
# the inductance, so as an input it is an unknown key.
_UNIT = {
    "name": (REQUIRED, _name),
    "s_rated_va": (REQUIRED, _POSITIVE),
    "line_resistance_ohm": (REQUIRED, _NONNEGATIVE),
    "line_inductance_uh": (REQUIRED, _NONNEGATIVE),
    "virtual_resistance_ohm": (REQUIRED, _NONNEGATIVE),
    "kp": (REQUIRED, _NONNEGATIVE),
    "ki": (REQUIRED, _NONNEGATIVE),
    "i_max_a": (None, _POSITIVE),  # None: DEFAULT_I_MAX_HEADROOM * s_rated / v_nominal
    "pf_angle_rad": (0.0, _ANY),
    "trip_holdoff_s": (DEFAULT_TRIP_HOLDOFF_S, _NONNEGATIVE),
}


def _fleet(value: Any, where: str) -> list[dict]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where}: required section must be a non-empty list")
    return [_section(unit, _UNIT, f"{where}[{k}]") for k, unit in enumerate(value)]


def _axes(value: Any, where: str) -> dict[str, list[float]]:
    axes = {}
    for key, values in _expect_map(value, where).items():
        if key not in SWEEP_AXES:
            raise ConfigError(
                f"{where}.{key}: unknown axis; expected one of {', '.join(SWEEP_AXES)}"
            )
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{where}.{key}: expected a non-empty list of numbers")
        axes[key] = [_finite(v, f"{where}.{key}[{j}]") for j, v in enumerate(values)]
    return axes


_CONFIG = {
    "grid": (REQUIRED, {
        "v_th_volts": (REQUIRED, _NONNEGATIVE),
        "v_th_angle_rad": (0.0, _ANY),
        "z_th_ohms": (REQUIRED, _IMPEDANCE),
        "z_load_ohms": (REQUIRED, _IMPEDANCE),
        "frequency_hz": (DEFAULT_FREQUENCY_HZ, _POSITIVE),
        "v_nominal_volts": (None, _POSITIVE),  # None: v_th_volts
        "faulted": (None, {
            "v_th_volts": (REQUIRED, _NONNEGATIVE),
            "v_th_angle_rad": (None, _ANY),  # None: the pre-fault angle
            "z_th_ohms": (None, _IMPEDANCE),  # None: the pre-fault impedance
        }),
    }),
    "fleet": (REQUIRED, _fleet),
    "scenario": (REQUIRED, {
        "t_fault_s": (REQUIRED, _NONNEGATIVE),
        "t_clear_s": (None, _ANY),
        "fault_depth": (REQUIRED, (0.0, False, 1.0)),
        "t_end_s": (REQUIRED, _POSITIVE),
        "dt_s": (REQUIRED, _POSITIVE),
    }),
    "solver": ({}, {
        "tol_rel": (DEFAULT_TOL_REL, _POSITIVE),
        "max_iter": (SolverOptions().max_iter, 1),
    }),
    "stability": ({}, {
        "settle_tol_rad": (DEFAULT_SETTLE_TOL_RAD, _POSITIVE),
        "settle_window_s": (DEFAULT_SETTLE_WINDOW_S, _POSITIVE),
        "cct": (None, {
            "t_min_s": (REQUIRED, _POSITIVE),
            "t_max_s": (REQUIRED, _POSITIVE),
            "resolution_s": (REQUIRED, _POSITIVE),
            "audit_samples": (DEFAULT_AUDIT_SAMPLES, 2),
        }),
    }),
    "sweep": (None, {"axes": ({}, _axes)}),
}

# Solver keys of removed features, {key: (the one value that still loads,
# what was removed)}. Configs written before a removal give that value; it
# loads and hashes as if the key were omitted.
_RETIRED_SOLVER = {
    "lag_mode": (False, "the one-step-lag model"),
    "damping": (0.7, "the damped fixed-point solve"),
}


def _reject_duplicate_keys(root: yaml.Node) -> None:
    """Raise a YAML error at the second of two equal keys in one mapping."""
    seen, todo = set(), [root]
    while todo:
        node = todo.pop()
        if id(node) in seen:  # an alias repeats a node, possibly inside itself
            continue
        seen.add(id(node))
        if isinstance(node, yaml.MappingNode):
            keys = set()
            for key, value in node.value:
                if isinstance(key, yaml.ScalarNode):
                    if (key.tag, key.value) in keys:
                        raise yaml.MarkedYAMLError(
                            problem=f"duplicate key {key.value!r}", problem_mark=key.start_mark
                        )
                    keys.add((key.tag, key.value))
                todo.append(value)
        elif isinstance(node, yaml.SequenceNode):
            todo += node.value


def _read_yaml(path: Path) -> Any:
    """The one YAML document in path, with duplicate keys rejected."""
    loader = _YAML_LOADER(path.read_text(encoding="utf-8"))
    try:
        root = loader.get_single_node()
        if root is None:
            return None
        _reject_duplicate_keys(root)
        return loader.construct_document(root)
    finally:
        loader.dispose()


def _thevenin(echo: dict) -> TheveninEquivalent:
    z = echo["z_th_ohms"]
    return TheveninEquivalent(
        cmath.rect(echo["v_th_volts"], echo["v_th_angle_rad"]), complex(z["r"], z["x"])
    )


def load_config(path: str | Path, dt_override: float | None = None) -> RunConfig:
    """Parse and fully validate a YAML run configuration.

    Every downstream precondition is checked here with a field-addressed
    message. The section tables above are the schema: a key that they lack,
    a key given twice and a section that is not a mapping are errors.
    Defaults (i_max, trip holdoff, solver and stability settings) are
    resolved into the returned config and its provenance hash.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = _read_yaml(path)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a mapping of sections")
    raw_solver = raw.get("solver")
    for key, (kept, what) in _RETIRED_SOLVER.items():
        if isinstance(raw_solver, dict) and key in raw_solver:
            value = raw_solver.pop(key)
            if type(value) is not type(kept) or value != kept:
                raise ConfigError(
                    f"solver.{key}: {what} was removed; "
                    f"omit the key or set it to {json.dumps(kept)}"
                )
    resolved = _section(raw, _CONFIG, "")

    # Defaults that depend on other keys, and checks across keys.
    g = resolved["grid"]
    if g["v_nominal_volts"] is None:
        g["v_nominal_volts"] = g["v_th_volts"]
    gf = g["faulted"]
    if gf is not None:
        if gf["v_th_volts"] > g["v_th_volts"]:
            raise ConfigError(
                f"grid.faulted.v_th_volts: fault-on voltage {gf['v_th_volts']} "
                f"exceeds pre-fault {g['v_th_volts']}"
            )
        if gf["v_th_angle_rad"] is None:
            gf["v_th_angle_rad"] = g["v_th_angle_rad"]
        if gf["z_th_ohms"] is None:
            gf["z_th_ohms"] = dict(g["z_th_ohms"])
    z_load = g["z_load_ohms"]
    grid = GridModel(
        _thevenin(g), complex(z_load["r"], z_load["x"]), None if gf is None else _thevenin(gf)
    )

    fleet = []
    for k, unit in enumerate(resolved["fleet"]):
        if any(unit["name"] == cfg.name for cfg in fleet):
            raise ConfigError(f"fleet[{k}].name: duplicate inverter name {unit['name']!r}")
        if unit["i_max_a"] is None:
            unit["i_max_a"] = DEFAULT_I_MAX_HEADROOM * unit["s_rated_va"] / g["v_nominal_volts"]
        try:
            cfg = InverterConfig(
                name=unit["name"],
                s_rated=unit["s_rated_va"],
                z_line=line_impedance(
                    unit["line_resistance_ohm"], unit["line_inductance_uh"] * 1e-6,
                    g["frequency_hz"],
                ),
                r_virtual=unit["virtual_resistance_ohm"],
                kp=unit["kp"],
                ki=unit["ki"],
                i_max=unit["i_max_a"],
                pf_angle=unit["pf_angle_rad"],
                trip_holdoff=unit["trip_holdoff_s"],
            )
        except ValueError as exc:
            raise ConfigError(f"fleet[{k}]: {exc}") from exc
        unit["line_reactance_ohm"] = cfg.z_line.imag
        fleet.append(cfg)

    sc = resolved["scenario"]
    if dt_override is not None:
        if not math.isfinite(dt_override) or dt_override <= 0.0:
            raise ConfigError(
                f"scenario.dt_s: --dt override must be finite and > 0, got {dt_override}"
            )
        sc["dt_s"] = dt_override
    try:
        scenario = FaultScenario(
            sc["t_fault_s"], sc["t_clear_s"], sc["fault_depth"], sc["t_end_s"], sc["dt_s"]
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc

    so = resolved["solver"]
    solver = SolverOptions(
        tol=absolute_tol(so["tol_rel"], abs(grid.prefault.v_th)),
        max_iter=so["max_iter"],
    )

    st = resolved["stability"]
    cct = None
    if st["cct"] is not None:
        c = st["cct"]
        if c["t_min_s"] >= c["t_max_s"]:
            raise ConfigError("stability.cct: t_min_s must be strictly below t_max_s")
        if c["resolution_s"] < scenario.dt:
            raise ConfigError(
                f"stability.cct.resolution_s: must be >= scenario.dt_s = {scenario.dt}, "
                f"got {c['resolution_s']}"
            )
        cct = CctSettings(c["t_min_s"], c["t_max_s"], c["resolution_s"], c["audit_samples"])
        k_needed = (
            scenario.k_fault + whole_steps(cct.t_max, scenario.dt)
            + whole_steps(st["settle_window_s"], scenario.dt)
        )
        if scenario.k_end < k_needed:
            raise ConfigError(
                f"scenario.t_end_s: {scenario.t_end} does not cover "
                f"t_fault_s + cct.t_max_s + settle_window_s = {k_needed * scenario.dt:.6g}"
            )

    axes = resolved["sweep"]["axes"] if resolved["sweep"] is not None else {}
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return RunConfig(
        grid=grid,
        fleet=tuple(fleet),
        scenario=scenario,
        solver=solver,
        settle_tol=st["settle_tol_rad"],
        settle_window=st["settle_window_s"],
        cct=cct,
        sweep_axes={k: tuple(v) for k, v in axes.items()} or None,
        resolved=resolved,
        sha256=hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    )


def bundled_config_path(name: str = "table1.yaml") -> Path:
    """Filesystem path of a bundled reference configuration."""
    return Path(str(resources.files("gflswing").joinpath("data").joinpath(name)))


# ---------------------------------------------------------------------------
# output formatting


def _f9(x: float) -> str:
    return f"{x:.9g}"


def _b(x: bool) -> str:
    return "true" if x else "false"


def _canon(obj: Any) -> Any:
    """Round every float to 9 significant digits for stable serialization."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_canon(payload), sort_keys=True, indent=2)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


# One trajectory.csv row: time, the PCC voltage, then seven cells per unit.
_ROW_HEAD = "%.9e,%.9g,%.9g,%.9g"
_ROW_UNIT = ",%.9g,%.9g,%.9g,%.9g,%.9g,%s,%s"
_UNIT_COLUMNS = (
    "theta_cg_rad", "theta_cg_deg", "i_mag_A", "i_q_A", "v_gq_V", "limited", "tripped",
)
_BOOL_CELL = ("false", "true")


def _write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Write traj as CSV, one row as soon as it is formatted.

    The file is the only copy of the text: no row list or joined string
    is built, so memory does not grow with the number of steps.
    """
    header = ["t_s", "vpcc_mag_V", "vpcc_angle_rad", "vpcc_angle_deg"]
    for cfg in traj.fleet:
        header += [f"{cfg.name}.{column}" for column in _UNIT_COLUMNS]
    row = _ROW_HEAD + _ROW_UNIT * len(traj.fleet) + "\n"
    degrees = math.degrees
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for rec in traj.records:
            cells = [rec.t, rec.v_pcc_mag, rec.v_pcc_angle, degrees(rec.v_pcc_angle)]
            for th, i, i_q, v_gq, lim, trip in zip(
                rec.theta_cg, rec.i_mag, rec.i_q, rec.v_gq, rec.limited, rec.tripped
            ):
                cells += (th, degrees(th), i, i_q, v_gq, _BOOL_CELL[lim], _BOOL_CELL[trip])
            f.write(row % tuple(cells))


def _verdict_dict(v: StabilityVerdict) -> dict:
    return {
        "stable": v.stable,
        "first_unstable": v.first_unstable,
        "t_unstable_s": v.t_unstable,
        "t_settled_s": v.t_settled,
        "max_angle_excursion_rad": v.max_angle_excursion,
    }


def _cct_dict(r: CctResult) -> dict:
    return {
        "cct_s": r.cct,
        "bracket_lo_s": r.bracket_lo,
        "bracket_hi_s": r.bracket_hi,
        "evaluations": len(r.evaluation_log),
        "loss_order": list(r.loss_order),
        "evaluation_log": [
            {"clear_interval_s": tau, "stable": stable} for tau, stable in r.evaluation_log
        ],
        "audit": [
            {"clear_interval_s": tau, "stable": stable} for tau, stable in r.audit
        ],
        "monotonic": r.monotonic,
    }


def _provenance(config: RunConfig) -> dict[str, str]:
    return {"config_sha256": config.sha256, "tool_version": TOOL_VERSION}


# ---------------------------------------------------------------------------
# commands


def cmd_validate(config: RunConfig) -> int:
    print(
        f"config OK: {len(config.fleet)} inverters, "
        f"scenario {config.scenario.t_end:.6g} s at dt {config.scenario.dt:.3g} s, "
        f"sha256 {config.sha256[:16]}"
    )
    return 0


def cmd_simulate(config: RunConfig, out_dir: str | Path) -> int:
    """Run one scenario; write trajectory.csv and summary.json.

    Returns 0 when the verdict is stable and 2 when it is unstable.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj = simulate(config.fleet, config.grid, config.scenario, config.solver)
    verdict = classify(traj, config.settle_tol, config.settle_window)
    _write_trajectory_csv(out / "trajectory.csv", traj)
    summary = {
        "command": "simulate",
        "verdict": _verdict_dict(verdict),
        "scenario": config.resolved["scenario"],
        "fleet": config.resolved["fleet"],
        "solver_failure_t_s": traj.solver_failure_t,
        "outputs": {"trajectory_csv": "trajectory.csv"},
        "provenance": _provenance(config),
    }
    _write_json(out / "summary.json", summary)
    log.info("simulate: %s (wrote %s)", "stable" if verdict.stable else "unstable", out)
    return 0 if verdict.stable else 2


def _require_cct(config: RunConfig) -> CctSettings:
    if config.cct is None:
        raise ConfigError("stability.cct: section is required for this command")
    return config.cct


def cmd_cct(config: RunConfig, out_dir: str | Path) -> int:
    """Bisect the critical clearing time; write cct.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    settings = _require_cct(config)
    try:
        result = find_cct(
            config.fleet,
            config.grid,
            config.scenario,
            settings.t_min,
            settings.t_max,
            settings.resolution,
            config.settle_tol,
            config.settle_window,
            config.solver,
            settings.audit_samples,
        )
    except BracketInvalid as exc:
        payload = {
            "command": "cct",
            "error": str(exc),
            "bracket": {
                "t_min_s": settings.t_min,
                "t_min_stable": exc.lo_stable,
                "t_max_s": settings.t_max,
                "t_max_stable": exc.hi_stable,
            },
            "provenance": _provenance(config),
        }
        _write_json(out / "cct.json", payload)
        log.error("cct: %s", exc)
        return 1
    payload = {
        "command": "cct",
        **_cct_dict(result),
        "provenance": _provenance(config),
    }
    _write_json(out / "cct.json", payload)
    log.info("cct: %.6g s (wrote %s)", result.cct, out)
    return 0


def cmd_compare(config: RunConfig, out_dir: str | Path) -> int:
    """Uniform-vs-configured fleet CCT comparison with both trajectories."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    settings = _require_cct(config)
    comparison = compare_uniform(
        config.fleet,
        config.grid,
        config.scenario,
        settings.t_min,
        settings.t_max,
        settings.resolution,
        config.settle_tol,
        config.settle_window,
        config.solver,
        settings.audit_samples,
    )
    # Both fleets replayed at the configured fleet's last stable clearing step.
    scenario = replace(
        config.scenario,
        t_clear=config.scenario.t_fault + comparison.result_nonuniform.bracket_lo,
    )
    traj_nonuni = simulate(config.fleet, config.grid, scenario, config.solver)
    traj_uni = simulate(comparison.uniform_fleet, config.grid, scenario, config.solver)
    _write_trajectory_csv(out / "trajectory_nonuniform.csv", traj_nonuni)
    _write_trajectory_csv(out / "trajectory_uniform.csv", traj_uni)
    payload = {
        "command": "compare",
        "cct_nonuniform_s": comparison.cct_nonuniform,
        "cct_uniform_s": comparison.cct_uniform,
        "delta_s": comparison.delta,
        "uniform_fleet": [
            {
                "name": c.name,
                "s_rated_va": c.s_rated,
                "line_resistance_ohm": c.z_line.real,
                "line_reactance_ohm": c.z_line.imag,
                "virtual_resistance_ohm": c.r_virtual,
                "kp": c.kp,
                "ki": c.ki,
                "i_max_a": c.i_max,
                "pf_angle_rad": c.pf_angle,
                "trip_holdoff_s": c.trip_holdoff,
            }
            for c in comparison.uniform_fleet
        ],
        "nonuniform": _cct_dict(comparison.result_nonuniform),
        "uniform": _cct_dict(comparison.result_uniform),
        "outputs": {
            "trajectory_nonuniform_csv": "trajectory_nonuniform.csv",
            "trajectory_uniform_csv": "trajectory_uniform.csv",
        },
        "provenance": _provenance(config),
    }
    _write_json(out / "comparison.json", payload)
    log.info("compare: delta %.6g s (wrote %s)", comparison.delta, out)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _apply_cell(config: RunConfig, cell: dict[str, float]):
    fleet = config.fleet
    scenario = config.scenario
    if "s_scale" in cell:
        fleet = tuple(replace(c, s_rated=c.s_rated * cell["s_scale"]) for c in fleet)
    if "xr_scale" in cell:
        fleet = tuple(
            replace(c, z_line=complex(c.z_line.real, c.z_line.imag * cell["xr_scale"]))
            for c in fleet
        )
    if "fault_depth" in cell:
        scenario = replace(scenario, fault_depth=cell["fault_depth"])
    if "clear_interval_s" in cell:
        scenario = replace(scenario, t_clear=scenario.t_fault + cell["clear_interval_s"])
    return fleet, scenario


def _run_sweep_cell(args: tuple[RunConfig, dict[str, float], int]) -> dict[str, Any]:
    config, cell, index = args
    row: dict[str, Any] = {"cell": index}
    row.update(cell)
    try:
        fleet, scenario = _apply_cell(config, cell)
        if "clear_interval_s" in cell:
            traj = simulate(fleet, config.grid, scenario, config.solver)
            verdict = classify(traj, config.settle_tol, config.settle_window)
            row.update(
                status="ok",
                stable=verdict.stable,
                first_unstable=verdict.first_unstable or "",
                t_unstable_s=verdict.t_unstable,
                max_angle_excursion_rad=verdict.max_angle_excursion,
            )
        else:
            settings = _require_cct(config)
            result = find_cct(
                fleet,
                config.grid,
                scenario,
                settings.t_min,
                settings.t_max,
                settings.resolution,
                config.settle_tol,
                config.settle_window,
                config.solver,
                settings.audit_samples,
            )
            row.update(
                status="ok",
                cct_s=result.cct,
                bracket_lo_s=result.bracket_lo,
                bracket_hi_s=result.bracket_hi,
                monotonic=result.monotonic,
                loss_order=";".join(result.loss_order),
            )
    except Exception as exc:
        row.update(status="error", error=f"{type(exc).__name__}: {exc}")
    return row


def _sweep_workers(n_cells: int) -> int:
    cap = os.environ.get(THREADS_ENV)
    if cap is not None:
        try:
            limit = max(1, int(cap))
        except ValueError:
            raise ConfigError(f"{THREADS_ENV}: expected an integer, got {cap!r}")
    else:
        limit = os.cpu_count() or 1
    return max(1, min(limit, n_cells))


def cmd_sweep(
    config: RunConfig,
    sweep_axes: dict[str, tuple[float, ...]] | None,
    out_dir: str | Path,
) -> int:
    """Cartesian parameter sweep; one row per cell in sweep.csv.

    Cells with a clear_interval_s axis run a single simulation and report
    the verdict; otherwise each cell runs a CCT bisection. Failures are
    recorded as error strings and the sweep continues.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    axes = sweep_axes if sweep_axes is not None else (config.sweep_axes or {})
    axis_names = [name for name in SWEEP_AXES if name in axes]
    if axis_names:
        cells = [
            dict(zip(axis_names, combo))
            for combo in itertools.product(*(axes[name] for name in axis_names))
        ]
    else:
        cells = [{}]

    payloads = [(config, cell, k) for k, cell in enumerate(cells)]
    workers = _sweep_workers(len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_sweep_cell, payloads))
    else:
        rows = [_run_sweep_cell(p) for p in payloads]

    verdict_mode = "clear_interval_s" in axis_names
    if verdict_mode:
        result_cols = [
            "status", "stable", "first_unstable", "t_unstable_s",
            "max_angle_excursion_rad", "error",
        ]
    else:
        result_cols = [
            "status", "cct_s", "bracket_lo_s", "bracket_hi_s", "monotonic",
            "loss_order", "error",
        ]
    header = ["cell", *axis_names, *result_cols]

    def cell_value(row: dict, col: str) -> str:
        v = row.get(col)
        if v is None:
            return ""
        if isinstance(v, bool):
            return _b(v)
        if isinstance(v, float):
            return _f9(v)
        return str(v)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell_value(row, col) for col in header))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    n_err = sum(1 for r in rows if r.get("status") == "error")
    _write_json(
        out / "sweep.json",
        {
            "command": "sweep",
            "cells": len(rows),
            "errors": n_err,
            "axes": {k: list(axes[k]) for k in axis_names},
            "outputs": {"sweep_csv": "sweep.csv"},
            "provenance": _provenance(config),
        },
    )
    log.info("sweep: %d cells, %d errors, %d workers (wrote %s)",
             len(rows), n_err, workers, out)
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gflswing",
        description=(
            "Transient angular-stability simulator for parallel grid-following "
            "inverters behind a Thevenin-equivalent weak grid."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_out in (
        ("simulate", True),
        ("cct", True),
        ("compare", True),
        ("sweep", True),
        ("validate", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the YAML run configuration")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--dt", type=float, default=None, help="override scenario dt_s")
        p.add_argument("--log-level", default="WARNING",
                       choices=["DEBUG", "INFO", "WARNING", "ERROR"])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level))
    try:
        config = load_config(args.config, dt_override=args.dt)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "simulate":
            return cmd_simulate(config, args.out)
        if args.command == "cct":
            return cmd_cct(config, args.out)
        if args.command == "compare":
            return cmd_compare(config, args.out)
        if args.command == "sweep":
            return cmd_sweep(config, config.sweep_axes, args.out)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, InitializationFailure, BracketInvalid, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
