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
from collections.abc import Container
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
    v_nominal: float
    frequency: float
    resolved: dict[str, Any]
    sha256: str


# ---------------------------------------------------------------------------
# config parsing


def _expect_map(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _reject_unknown(section: dict, known: Container, path: str) -> None:
    """Reject the first key of section that is not in known (its echo's keys)."""
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key" if path else f"{key}: unknown key")


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


def _get_num(
    section: dict,
    key: str,
    path: str,
    default: float | None = None,
    required: bool = False,
    minimum: float | None = None,
    maximum: float | None = None,
    strict_min: bool = False,
) -> float | None:
    if key not in section or section[key] is None:
        if required:
            raise ConfigError(f"{path}.{key}: required field is missing")
        return default
    value = _finite(section[key], f"{path}.{key}")
    if minimum is not None:
        if strict_min and value <= minimum:
            raise ConfigError(f"{path}.{key}: must be > {minimum}, got {value}")
        if not strict_min and value < minimum:
            raise ConfigError(f"{path}.{key}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}.{key}: must be <= {maximum}, got {value}")
    return value


def _get_int(section: dict, key: str, path: str, default: int, minimum: int) -> int:
    value = _get_num(section, key, path, default=default, minimum=minimum)
    if value != int(value):
        raise ConfigError(f"{path}.{key}: must be a whole number, got {value}")
    return int(value)


def _get_impedance(section: dict, key: str, path: str, default: complex | None = None) -> complex:
    if key not in section or section[key] is None:
        if default is not None:
            return default
        raise ConfigError(f"{path}.{key}: required field is missing")
    m = _expect_map(section[key], f"{path}.{key}")
    r = _get_num(m, "r", f"{path}.{key}", required=True, minimum=0.0)
    x = _get_num(m, "x", f"{path}.{key}", required=True)
    z = complex(r, x)
    _reject_unknown(m, _impedance_echo(z), f"{path}.{key}")
    return z


def _impedance_echo(z: complex) -> dict:
    return {"r": z.real, "x": z.imag}


def _parse_grid(raw: dict) -> tuple[GridModel, float, float, dict]:
    g = _expect_map(raw.get("grid"), "grid") if raw.get("grid") is not None else None
    if g is None:
        raise ConfigError("grid: required section is missing")
    v_mag = _get_num(g, "v_th_volts", "grid", required=True, minimum=0.0)
    v_angle = _get_num(g, "v_th_angle_rad", "grid", default=0.0)
    z_th = _get_impedance(g, "z_th_ohms", "grid")
    z_load = _get_impedance(g, "z_load_ohms", "grid")
    frequency = _get_num(g, "frequency_hz", "grid", default=DEFAULT_FREQUENCY_HZ,
                         minimum=0.0, strict_min=True)
    v_nominal = _get_num(g, "v_nominal_volts", "grid", default=v_mag,
                         minimum=0.0, strict_min=True)

    prefault = TheveninEquivalent(cmath.rect(v_mag, v_angle), z_th)
    faulted = None
    faulted_resolved = None
    if g.get("faulted") is not None:
        f = _expect_map(g["faulted"], "grid.faulted")
        fv = _get_num(f, "v_th_volts", "grid.faulted", required=True, minimum=0.0)
        fa = _get_num(f, "v_th_angle_rad", "grid.faulted", default=v_angle)
        fz = _get_impedance(f, "z_th_ohms", "grid.faulted", default=z_th)
        if fv > v_mag:
            raise ConfigError(
                f"grid.faulted.v_th_volts: fault-on voltage {fv} exceeds pre-fault {v_mag}"
            )
        faulted = TheveninEquivalent(cmath.rect(fv, fa), fz)
        faulted_resolved = {
            "v_th_volts": fv,
            "v_th_angle_rad": fa,
            "z_th_ohms": _impedance_echo(fz),
        }
        _reject_unknown(f, faulted_resolved, "grid.faulted")

    model = GridModel(prefault, z_load, faulted)
    resolved = {
        "v_th_volts": v_mag,
        "v_th_angle_rad": v_angle,
        "z_th_ohms": _impedance_echo(z_th),
        "z_load_ohms": _impedance_echo(z_load),
        "frequency_hz": frequency,
        "v_nominal_volts": v_nominal,
        "faulted": faulted_resolved,
    }
    _reject_unknown(g, resolved, "grid")
    return model, v_nominal, frequency, resolved


def _parse_fleet(raw: dict, v_nominal: float, frequency: float) -> tuple[tuple[InverterConfig, ...], list[dict]]:
    entries = raw.get("fleet")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("fleet: required section must be a non-empty list")
    fleet = []
    resolved = []
    names = set()
    for k, entry in enumerate(entries):
        path = f"fleet[{k}]"
        e = _expect_map(entry, path)
        name = e.get("name")
        if not isinstance(name, str) or not name.strip():
            raise ConfigError(f"{path}.name: required non-empty string")
        if any(ch in name for ch in ",\n\r"):
            raise ConfigError(f"{path}.name: must not contain commas or newlines")
        if name in names:
            raise ConfigError(f"{path}.name: duplicate inverter name {name!r}")
        names.add(name)
        s_rated = _get_num(e, "s_rated_va", path, required=True, minimum=0.0, strict_min=True)
        r_line = _get_num(e, "line_resistance_ohm", path, required=True, minimum=0.0)
        l_uh = _get_num(e, "line_inductance_uh", path, required=True, minimum=0.0)
        r_virtual = _get_num(e, "virtual_resistance_ohm", path, required=True, minimum=0.0)
        kp = _get_num(e, "kp", path, required=True, minimum=0.0)
        ki = _get_num(e, "ki", path, required=True, minimum=0.0)
        i_max = _get_num(e, "i_max_a", path, default=None, minimum=0.0, strict_min=True)
        if i_max is None:
            i_max = DEFAULT_I_MAX_HEADROOM * s_rated / v_nominal
        pf_angle = _get_num(e, "pf_angle_rad", path, default=0.0)
        holdoff = _get_num(e, "trip_holdoff_s", path, default=DEFAULT_TRIP_HOLDOFF_S, minimum=0.0)
        try:
            cfg = InverterConfig(
                name=name,
                s_rated=s_rated,
                z_line=line_impedance(r_line, l_uh * 1e-6, frequency),
                r_virtual=r_virtual,
                kp=kp,
                ki=ki,
                i_max=i_max,
                pf_angle=pf_angle,
                trip_holdoff=holdoff,
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        echo = {
            "name": name,
            "s_rated_va": s_rated,
            "line_resistance_ohm": r_line,
            "line_inductance_uh": l_uh,
            "line_reactance_ohm": cfg.z_line.imag,
            "virtual_resistance_ohm": r_virtual,
            "kp": kp,
            "ki": ki,
            "i_max_a": i_max,
            "pf_angle_rad": pf_angle,
            "trip_holdoff_s": holdoff,
        }
        # The reactance is derived from the inductance: echoed, not read.
        _reject_unknown(e, echo.keys() - {"line_reactance_ohm"}, path)
        fleet.append(cfg)
        resolved.append(echo)
    return tuple(fleet), resolved


def _parse_scenario(raw: dict, dt_override: float | None) -> tuple[FaultScenario, dict]:
    s = raw.get("scenario")
    if s is None:
        raise ConfigError("scenario: required section is missing")
    s = _expect_map(s, "scenario")
    t_fault = _get_num(s, "t_fault_s", "scenario", required=True, minimum=0.0)
    t_clear = _get_num(s, "t_clear_s", "scenario", default=None)
    depth = _get_num(s, "fault_depth", "scenario", required=True, minimum=0.0, maximum=1.0)
    t_end = _get_num(s, "t_end_s", "scenario", required=True, minimum=0.0, strict_min=True)
    dt = _get_num(s, "dt_s", "scenario", required=True, minimum=0.0, strict_min=True)
    if dt_override is not None:
        if not math.isfinite(dt_override) or dt_override <= 0.0:
            raise ConfigError(
                f"scenario.dt_s: --dt override must be finite and > 0, got {dt_override}"
            )
        dt = dt_override
    try:
        scenario = FaultScenario(t_fault, t_clear, depth, t_end, dt)
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc
    resolved = {
        "t_fault_s": t_fault,
        "t_clear_s": t_clear,
        "fault_depth": depth,
        "t_end_s": t_end,
        "dt_s": dt,
    }
    _reject_unknown(s, resolved, "scenario")
    return scenario, resolved


def _parse_solver(raw: dict, v_th_mag: float) -> tuple[SolverOptions, dict]:
    s = _expect_map(raw.get("solver") or {}, "solver")
    defaults = SolverOptions()
    tol_rel = _get_num(s, "tol_rel", "solver", default=DEFAULT_TOL_REL, minimum=0.0, strict_min=True)
    max_iter = _get_int(s, "max_iter", "solver", default=defaults.max_iter, minimum=1)
    damping = _get_num(s, "damping", "solver", default=defaults.damping, minimum=0.0,
                       strict_min=True, maximum=1.0)
    if s.get("lag_mode", False) is not False:
        raise ConfigError(
            "solver.lag_mode: the one-step-lag model was removed; "
            "omit the key or set it to false"
        )
    opts = SolverOptions(
        tol=absolute_tol(tol_rel, v_th_mag),
        max_iter=max_iter,
        damping=damping,
    )
    resolved = {
        "tol_rel": tol_rel,
        "max_iter": max_iter,
        "damping": damping,
    }
    _reject_unknown(s, resolved.keys() | {"lag_mode"}, "solver")
    return opts, resolved


def _parse_stability(raw: dict) -> tuple[float, float, CctSettings | None, dict]:
    s = _expect_map(raw.get("stability") or {}, "stability")
    settle_tol = _get_num(s, "settle_tol_rad", "stability", default=DEFAULT_SETTLE_TOL_RAD,
                          minimum=0.0, strict_min=True)
    settle_window = _get_num(s, "settle_window_s", "stability", default=DEFAULT_SETTLE_WINDOW_S,
                             minimum=0.0, strict_min=True)
    cct = None
    cct_resolved = None
    if s.get("cct") is not None:
        c = _expect_map(s["cct"], "stability.cct")
        t_min = _get_num(c, "t_min_s", "stability.cct", required=True, minimum=0.0, strict_min=True)
        t_max = _get_num(c, "t_max_s", "stability.cct", required=True, minimum=0.0, strict_min=True)
        resolution = _get_num(c, "resolution_s", "stability.cct", required=True,
                              minimum=0.0, strict_min=True)
        samples = _get_int(c, "audit_samples", "stability.cct",
                           default=DEFAULT_AUDIT_SAMPLES, minimum=2)
        if t_min >= t_max:
            raise ConfigError("stability.cct: t_min_s must be strictly below t_max_s")
        cct = CctSettings(t_min, t_max, resolution, samples)
        cct_resolved = {
            "t_min_s": t_min,
            "t_max_s": t_max,
            "resolution_s": resolution,
            "audit_samples": samples,
        }
        _reject_unknown(c, cct_resolved, "stability.cct")
    resolved = {
        "settle_tol_rad": settle_tol,
        "settle_window_s": settle_window,
        "cct": cct_resolved,
    }
    _reject_unknown(s, resolved, "stability")
    return settle_tol, settle_window, cct, resolved


def _parse_sweep(raw: dict) -> tuple[dict[str, tuple[float, ...]] | None, dict | None]:
    if raw.get("sweep") is None:
        return None, None
    s = _expect_map(raw["sweep"], "sweep")
    axes_raw = _expect_map(s.get("axes") or {}, "sweep.axes")
    axes: dict[str, tuple[float, ...]] = {}
    for key, values in axes_raw.items():
        if key not in SWEEP_AXES:
            raise ConfigError(
                f"sweep.axes.{key}: unknown axis; expected one of {', '.join(SWEEP_AXES)}"
            )
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.axes.{key}: expected a non-empty list of numbers")
        axes[key] = tuple(_finite(v, f"sweep.axes.{key}[{j}]") for j, v in enumerate(values))
    resolved = {"axes": {k: list(v) for k, v in axes.items()}}
    _reject_unknown(s, resolved, "sweep")
    return (axes or None), resolved


def load_config(path: str | Path, dt_override: float | None = None) -> RunConfig:
    """Parse and fully validate a YAML run configuration.

    Every downstream precondition is checked here with a field-addressed
    message, and a key that its section's resolved echo lacks is rejected
    as unknown. Defaults (i_max, trip holdoff, solver and stability
    settings) are resolved into the returned config and its provenance hash.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a mapping of sections")

    grid, v_nominal, frequency, grid_resolved = _parse_grid(raw)
    fleet, fleet_resolved = _parse_fleet(raw, v_nominal, frequency)
    scenario, scenario_resolved = _parse_scenario(raw, dt_override)
    solver, solver_resolved = _parse_solver(raw, abs(grid.prefault.v_th))
    settle_tol, settle_window, cct, stability_resolved = _parse_stability(raw)
    sweep_axes, sweep_resolved = _parse_sweep(raw)

    if cct is not None:
        needed = scenario.t_fault + cct.t_max + settle_window
        if scenario.t_end < needed - 1e-12:
            raise ConfigError(
                f"scenario.t_end_s: {scenario.t_end} does not cover "
                f"t_fault_s + cct.t_max_s + settle_window_s = {needed:.6g}"
            )

    resolved = {
        "grid": grid_resolved,
        "fleet": fleet_resolved,
        "scenario": scenario_resolved,
        "solver": solver_resolved,
        "stability": stability_resolved,
        "sweep": sweep_resolved,
    }
    _reject_unknown(raw, resolved, "")
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    sha = hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    return RunConfig(
        grid=grid,
        fleet=fleet,
        scenario=scenario,
        solver=solver,
        settle_tol=settle_tol,
        settle_window=settle_window,
        cct=cct,
        sweep_axes=sweep_axes,
        v_nominal=v_nominal,
        frequency=frequency,
        resolved=resolved,
        sha256=sha,
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
    # Both fleets replayed at the configured fleet's critical clearing time.
    scenario = replace(
        config.scenario, t_clear=config.scenario.t_fault + comparison.cct_nonuniform
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
