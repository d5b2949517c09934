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

import cmath
import contextlib
import hashlib
import itertools
import json
import logging
import marshal
import math
import operator
import os
import sys
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence, TextIO

import yaml

if TYPE_CHECKING:
    import argparse

from gflswing.dynamics import (
    DEFAULT_TOL_REL,
    DEFAULT_TRIP_HOLDOFF_S,
    FaultScenario,
    InitializationFailure,
    InverterConfig,
    Runs,
    SolverOptions,
    TrajectoryRecord,
)
from gflswing.network import GridModel, line_impedance
from gflswing.stability import (
    DEFAULT_AUDIT_SAMPLES,
    DEFAULT_SETTLE_TOL_RAD,
    DEFAULT_SETTLE_WINDOW_S,
    BracketInvalid,
    CctResult,
    CctSettings,
    RunFold,
    StabilityVerdict,
    _cpu_split,
    _fork_piped,
    _settle_steps,
    classify,  # noqa: F401  perfbench/worker.py and tracer.py read cli.classify
    decide,
    find_cct,
    simulate,  # noqa: F401  perfbench/worker.py and tracer.py read cli.simulate
    uniform_fleet_of,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "bundled_config_path",
    "cmd_simulate",
    "cmd_cct",
    "cmd_compare",
    "cmd_sweep",
    "cmd_validate",
    "main",
]

from gflswing import __version__ as TOOL_VERSION

log = logging.getLogger("gflswing")

DEFAULT_I_MAX_HEADROOM = 1.2
DEFAULT_FREQUENCY_HZ = 60.0
# Each sweep axis, in sweep.csv's column order, and how a cell's value
# changes the cell's (fleet, scenario). clear_interval_s is None: it picks
# a run of the cell's Runs (see cmd_sweep) and does not change the Runs.
SWEEP_AXES = {
    "fault_depth": lambda fleet, scenario, v: (fleet, replace(scenario, fault_depth=v)),
    "clear_interval_s": None,
    "s_scale": lambda fleet, scenario, v: (
        tuple(replace(c, s_rated=c.s_rated * v) for c in fleet), scenario
    ),
    "xr_scale": lambda fleet, scenario, v: (
        tuple(replace(c, z_line=complex(c.z_line.real, c.z_line.imag * v)) for c in fleet),
        scenario,
    ),
}
THREADS_ENV = "GFLSWING_THREADS"

# libyaml's parser with PyYAML's safe constructor and resolver; the
# pure-Python parser when PyYAML was built without libyaml.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Configuration parse or validation failure with a field-addressed message."""


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
# A row whose default is RETIRED is a removed feature's key, with the rule
# (the one value that older configs give, what was removed): that value
# loads and hashes as if omitted, and any other, null included, is an error.
# _section checks one mapping against its table; what it returns is the
# resolved echo, and a key missing from the table is rejected as unknown.

REQUIRED = object()
RETIRED = object()

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
        if default is RETIRED:
            kept, what = rule
            if key in raw and (type(raw[key]) is not type(kept) or raw[key] != kept):
                raise ConfigError(
                    f"{where}: {what} was removed; omit the key or set it to {json.dumps(kept)}"
                )
            continue
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
    if any(ch in value for ch in ',;"\n\r'):
        raise ConfigError(
            f"{where}: must not contain commas, semicolons, double quotes or newlines"
        )
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


def _no_fault_override(value: Any, where: str) -> None:
    raise ConfigError(f"{where}: the fault-on override was removed; set scenario.fault_depth, "
                      "which scales the pre-fault source by 1 - fault_depth")


_CONFIG = {
    "grid": (REQUIRED, {
        "v_th_volts": (REQUIRED, _POSITIVE),
        "v_th_angle_rad": (0.0, _ANY),
        "z_th_ohms": (REQUIRED, _IMPEDANCE),
        "z_load_ohms": (REQUIRED, _IMPEDANCE),
        "frequency_hz": (DEFAULT_FREQUENCY_HZ, _POSITIVE),
        "v_nominal_volts": (None, _POSITIVE),  # None: v_th_volts
        "faulted": (None, _no_fault_override),  # null only; echoed, so hashes hold
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
        "lag_mode": (RETIRED, (False, "the one-step-lag model")),
        "damping": (RETIRED, (0.7, "the damped fixed-point solve")),
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


def load_config(path: str | Path, dt_override: float | None = None) -> RunConfig:
    """Parse and fully validate a YAML run configuration.

    Every downstream precondition is checked here with a field-addressed
    message. The section tables above are the schema: a key that they lack,
    a key given twice and a section that is not a mapping are errors.
    Defaults (i_max, trip holdoff, solver and stability settings) are
    resolved into the returned config and its provenance hash; the solver
    tolerance stays relative until a Runs resolves it (see dynamics.Runs).
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
    resolved = _section(raw, _CONFIG, "")

    # Defaults that depend on other keys, and checks across keys.
    g = resolved["grid"]
    if g["v_nominal_volts"] is None:
        g["v_nominal_volts"] = g["v_th_volts"]
    v_th = cmath.rect(g["v_th_volts"], g["v_th_angle_rad"])
    z_th, z_load = (complex(z["r"], z["x"]) for z in (g["z_th_ohms"], g["z_load_ohms"]))
    grid = GridModel(v_th, z_th, z_load)

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
        # FaultScenario's errors begin with the field, a time but for fault_depth.
        field = str(exc).split(" ", 1)[0]
        key = field if field == "fault_depth" else f"{field}_s"
        raise ConfigError(f"scenario.{key}: {exc}") from exc

    so = resolved["solver"]
    solver = SolverOptions(so["tol_rel"], so["max_iter"])

    st = resolved["stability"]
    cct = None
    if st["cct"] is not None:
        c = st["cct"]
        cct = CctSettings(c["t_min_s"], c["t_max_s"], c["resolution_s"], c["audit_samples"])
        try:
            cct.steps(scenario, st["settle_window_s"])
        except ValueError as exc:
            raise ConfigError(f"stability.cct: {exc}") from exc

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
    from importlib import resources

    return Path(str(resources.files("gflswing").joinpath("data").joinpath(name)))


# ---------------------------------------------------------------------------
# output formatting


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
_ROW_T = "%.9e"
_ROW_REST = ",%.9g,%.9g,%.9g"
_ROW_UNIT = ",%.9g,%.9g,%.9g,%.9g,%.9g,%s,%s"
_UNIT_COLUMNS = (
    "theta_cg_rad", "theta_cg_deg", "i_mag_A", "i_q_A", "v_gq_V", "limited", "tripped",
)
_BOOL_CELL = ("false", "true")
# The record fields a row is formatted from, in the order _frame_writer reads them.
_RECORD_FIELDS = operator.attrgetter(
    "v_pcc_mag", "v_pcc_angle", "theta_cg", "i_mag", "v_gq", "limited", "tripped",
)
# Records per frame handed to the frame writer (8 to 64 measured alike).
_FRAME_RECORDS = 16


def _trajectory_csv(
    path: Path, fleet: Sequence[InverterConfig], dt: float,
    records: Iterable[TrajectoryRecord], forked: bool,
) -> Iterator[TrajectoryRecord]:
    """Write records, record k at k * dt, as CSV to path, yielding each
    record as it is read; the file is complete when the records are
    exhausted.

    Records go to one frame writer (see _frame_writer) _FRAME_RECORDS at a
    time, each as its _RECORD_FIELDS tuple, or as None if it is the record
    before it, as the equilibrium record is at every step before the
    fault. The frame writer runs here, or with forked (the caller's
    _may_fork()) in a writer process (see _forked_writer); both paths write
    the same bytes. The file is opened before the first record is read. No
    row list or joined string is built, and no record is kept past its
    frame.
    """
    header = ["t_s", "vpcc_mag_V", "vpcc_angle_rad", "vpcc_angle_deg"]
    for cfg in fleet:
        header += [f"{cfg.name}.{column}" for column in _UNIT_COLUMNS]
    with path.open("w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        write = _frame_writer(f, len(fleet), dt)
        sink = _forked_writer(path, f, write) if forked else contextlib.nullcontext(write)
        with sink as send:
            last = None
            frame: list[tuple | None] = []
            try:
                for rec in records:
                    frame.append(None if rec is last else _RECORD_FIELDS(rec))
                    last = rec
                    if len(frame) == _FRAME_RECORDS:
                        send(frame)
                        frame.clear()
                    yield rec
            finally:
                # Every record read gets its row, also when the stream
                # raised; a writer process that has failed raises after it
                # is waited for.
                with contextlib.suppress(BrokenPipeError):
                    send(frame)


def _frame_writer(f: TextIO, units: int, dt: float) -> Callable[[list], None]:
    """The writer to f of one frame's rows, row k at k * dt, k and the row
    before's theta_cg carried across frames; a None in the frame reuses the
    row before's cells after t_s. A unit's i_q cell is its current in
    quadrature with the solved PCC voltage (leading positive): i_mag times
    the sine of the row before's theta_cg (row 0's own), the injection angle
    that flowed during the step, less the PCC voltage angle."""
    row = _ROW_REST + _ROW_UNIT * units + "\n"
    degrees, sin = math.degrees, math.sin
    k = 0
    cells = ""
    prev = None

    def write(frame: list) -> None:
        nonlocal k, cells, prev
        for fields in frame:
            if fields is not None:
                v_mag, v_angle, theta_cg, i_mag, v_gq, limited, tripped = fields
                values = [v_mag, v_angle, degrees(v_angle)]
                for th, i, flowed, vq, lim, trip in zip(theta_cg, i_mag, prev or theta_cg,
                                                        v_gq, limited, tripped):
                    values += (th, degrees(th), i, i * sin(flowed - v_angle), vq,
                               _BOOL_CELL[lim], _BOOL_CELL[trip])
                cells = row % tuple(values)
                prev = theta_cg
            f.write(_ROW_T % (k * dt) + cells)
            k += 1

    return write


@contextlib.contextmanager
def _forked_writer(
    path: Path, f: TextIO, write: Callable[[list], None],
) -> Iterator[Callable[[list], None]]:
    """Yield a sender of frames to a forked writer process, which hands
    each frame it reads to write, into f, the file both share; or write
    itself if a pipe or the fork fails (see stability._fork_piped).

    Frames go through a pipe in marshal, each after its 4-byte length. The
    writer is waited for before this returns or raises, so the file is
    complete when this returns; a writer that fails raises OSError naming
    path, and a frame sent after it failed raises BrokenPipeError. While
    the writer runs, the CPUs are split between the two (see
    stability._cpu_split).
    """
    f.flush()  # the header, written once, by this process
    with _cpu_split() as others:
        if (forked := _fork_piped(1)) is None:
            yield write  # no writer process: this one writes the frames
            return
        pid, ((read_fd, write_fd),) = forked
        if pid == 0:
            # The writer: every frame until the parent closes the pipe, then
            # exit, 0 once every row is flushed to f.
            code = 1
            try:
                os.close(write_fd)
                if others:
                    os.sched_setaffinity(0, others)
                source = open(read_fd, "rb")
                while head := source.read(4):
                    write(marshal.loads(source.read(int.from_bytes(head, "little"))))
                f.flush()
                code = 0
            except Exception as exc:
                os.write(2, f"error: writing {path}: {type(exc).__name__}: {exc}\n".encode())
            finally:
                os._exit(code)
        os.close(read_fd)

        def send(frame: list) -> None:
            data = marshal.dumps(frame)
            view = memoryview(len(data).to_bytes(4, "little") + data)
            while view:
                view = view[os.write(write_fd, view):]

        try:
            yield send
        except BrokenPipeError:
            pass  # the writer exits before the pipe is closed only when it fails
        finally:
            os.close(write_fd)
            status = os.waitpid(pid, 0)[1]
    if status:
        raise OSError(
            f"{path}: the trajectory writer process failed "
            f"(exit code {os.waitstatus_to_exitcode(status)})"
        )


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

    The run is streamed: each record is folded into the verdict as it is
    stepped, its row is written with its frame, and none is kept. Returns
    0 when the verdict is stable and 2 when it is unstable. A t_end short
    of the settle window (see stability._settle_steps) fails before any step,
    and a fleet with no pre-fault equilibrium or a bad THREADS_ENV before
    out_dir is made.
    """
    fork = _may_fork()  # a bad THREADS_ENV fails here, before any step
    scenario = config.scenario
    try:
        _settle_steps(scenario, config.settle_window, scenario.k_end)
    except ValueError as exc:
        raise ConfigError(f"scenario.t_end_s: {exc}") from exc
    run = Runs(config.fleet, config.grid, scenario, config.solver).stream(scenario.t_clear)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = _trajectory_csv(out / "trajectory.csv", run.fleet, scenario.dt, run, fork)
    fold = RunFold(rows, run.fleet, run.scenario, config.settle_tol)
    verdict = fold.verdict(config.settle_window)
    summary = {
        "command": "simulate",
        "verdict": _verdict_dict(verdict),
        "scenario": config.resolved["scenario"],
        "fleet": config.resolved["fleet"],
        "solver_failure_t_s": run.solver_failure_t,
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
    """Bisect the critical clearing time, deciding clearing steps in forked
    processes too where _may_fork(); write cct.json. Every config error, a
    fleet with no pre-fault equilibrium included, fails before out_dir is
    made."""
    fork = _may_fork()  # a bad THREADS_ENV fails here, before any step
    settings = _require_cct(config)
    runs = Runs(config.fleet, config.grid, config.scenario, config.solver)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = find_cct(runs, settings, config.settle_tol, config.settle_window, fork)
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
    """Uniform-vs-configured fleet CCT comparison with both trajectories;
    the searches fork as cmd_cct's does. Both fleets' Runs are built before
    out_dir is made and either search runs, so neither fleet's missing
    pre-fault equilibrium costs a search or leaves an empty out_dir."""
    fork = _may_fork()  # a bad THREADS_ENV fails here, not after both searches
    settings = _require_cct(config)
    if len(config.fleet) < 2:
        raise ConfigError("fleet: compare needs at least two inverters")
    runs = Runs(config.fleet, config.grid, config.scenario, config.solver)
    uniform_runs = Runs(uniform_fleet_of(config.fleet), config.grid, config.scenario,
                        config.solver)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    nonuniform = find_cct(runs, settings, config.settle_tol, config.settle_window, fork)
    uniform = find_cct(uniform_runs, settings, config.settle_tol, config.settle_window, fork)
    delta = uniform.cct - nonuniform.cct
    # Both fleets replayed, from their searches' runs, at the configured
    # fleet's last stable clearing step, and streamed to their files.
    t_clear = config.scenario.t_fault + nonuniform.bracket_lo
    dt = config.scenario.dt
    for name, fleet_runs in (("nonuniform", runs), ("uniform", uniform_runs)):
        run = fleet_runs.stream(t_clear)
        for _ in _trajectory_csv(out / f"trajectory_{name}.csv", run.fleet, dt, run, fork):
            pass
    payload = {
        "command": "compare",
        "cct_nonuniform_s": nonuniform.cct,
        "cct_uniform_s": uniform.cct,
        "delta_s": delta,
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
            for c in uniform_runs.fleet
        ],
        "nonuniform": _cct_dict(nonuniform),
        "uniform": _cct_dict(uniform),
        "outputs": {
            "trajectory_nonuniform_csv": "trajectory_nonuniform.csv",
            "trajectory_uniform_csv": "trajectory_uniform.csv",
        },
        "provenance": _provenance(config),
    }
    _write_json(out / "comparison.json", payload)
    log.info("compare: delta %.6g s (wrote %s)", delta, out)
    return 0


# ---------------------------------------------------------------------------
# sweep


def _run_sweep_cells(args: tuple[RunConfig, list[tuple[int, dict[str, float]]]]) -> list[dict]:
    """The rows of (index, cell) pairs that differ only in clear_interval_s,
    read from one Runs: the verdict of each clearing interval (see
    stability.decide), or else a CCT search. A failure is the cell's error
    row; a Runs that fails to build is built again for the next cell."""
    config, cells = args
    settle = config.settle_tol, config.settle_window
    rows = []
    runs = None
    for index, cell in cells:
        row: dict[str, Any] = {"cell": index, **cell}
        try:
            if runs is None:
                fleet, scenario = config.fleet, config.scenario
                for axis, value in cell.items():
                    if SWEEP_AXES[axis] is not None:
                        fleet, scenario = SWEEP_AXES[axis](fleet, scenario, value)
                runs = Runs(fleet, config.grid, scenario, config.solver)
            if "clear_interval_s" in cell:
                t_clear = runs.scenario.t_fault + cell["clear_interval_s"]
                row.update(_verdict_dict(decide(runs, t_clear, *settle)))
            else:
                row.update(_cct_dict(find_cct(runs, config.cct, *settle)))
            row["status"] = "ok"
        except Exception as exc:
            row.update(status="error", error=f"{type(exc).__name__}: {exc}")
        rows.append(row)
    return rows


def _worker_cap() -> int:
    """THREADS_ENV if set, else the CPUs this process may run on: its
    affinity set where the platform has one, not the host's CPU count. A
    THREADS_ENV that is not an integer of at least 1 is a ConfigError."""
    cap = os.environ.get(THREADS_ENV)
    if cap is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0)) or 1
        return os.cpu_count() or 1
    if not cap.strip().isdecimal() or int(cap) < 1:
        raise ConfigError(f"{THREADS_ENV}: expected an integer >= 1, got {cap!r}")
    return int(cap)


def _may_fork() -> bool:
    """Whether a command may fork a child process: _worker_cap() allows a
    second process (a bad THREADS_ENV raises here), os.fork exists and no
    other thread runs (a forked child would inherit its locks held)."""
    return _worker_cap() > 1 and hasattr(os, "fork") and threading.active_count() == 1


def cmd_sweep(config: RunConfig, out_dir: str | Path) -> int:
    """Cartesian parameter sweep over config.sweep_axes; one row per cell
    in sweep.csv.

    Cells with a clear_interval_s axis report the verdict of one run;
    otherwise each cell runs a CCT bisection. Cells that differ only in
    clear_interval_s share one Runs. With fewer such groups than workers,
    each group's cells are dealt round-robin into tasks that fill the
    workers, each with its own Runs. Failures are recorded as error
    strings and the sweep continues.
    """
    cap = _worker_cap()  # a bad THREADS_ENV fails here, before out exists
    axes = config.sweep_axes or {}
    if "clear_interval_s" not in axes:
        _require_cct(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    axis_names = [name for name in SWEEP_AXES if name in axes]
    # Cells in product order, grouped by their positions on the Runs' axes.
    groups: dict[tuple[int, ...], list[tuple[int, dict[str, float]]]] = {}
    positions = itertools.product(*(range(len(axes[name])) for name in axis_names))
    for k, position in enumerate(positions):
        key = tuple(j for name, j in zip(axis_names, position) if SWEEP_AXES[name])
        cell = {name: axes[name][j] for name, j in zip(axis_names, position)}
        groups.setdefault(key, []).append((k, cell))

    split = math.ceil(cap / len(groups))
    tasks = [(config, cells[j::split])
             for cells in groups.values() for j in range(min(split, len(cells)))]
    workers = min(cap, len(tasks))
    if workers > 1:
        # Imported here: the pool's modules (multiprocessing, pickle,
        # subprocess, ...) cost every other command's start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            task_rows = list(pool.map(_run_sweep_cells, tasks))
    else:
        task_rows = [_run_sweep_cells(task) for task in tasks]
    rows = sorted(itertools.chain.from_iterable(task_rows), key=lambda row: row["cell"])

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
            return _BOOL_CELL[v]
        if isinstance(v, float):
            return f"{v:.9g}"
        if isinstance(v, list):
            return ";".join(v)
        return str(v)

    import csv  # here, as the pool is: no other command pays its import

    with (out / "sweep.csv").open("w", encoding="utf-8", newline="") as f:
        # Quoted where a cell needs it: an error message may hold a comma.
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cell_value(row, col) for col in header] for row in rows)

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


# Each command and what it runs; every command but validate writes to --out.
_COMMANDS = {"simulate": cmd_simulate, "cct": cmd_cct, "compare": cmd_compare,
             "sweep": cmd_sweep, "validate": cmd_validate}


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="gflswing",
        description=(
            "Transient angular-stability simulator for parallel grid-following "
            "inverters behind a Thevenin-equivalent weak grid."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the YAML run configuration")
        if name != "validate":
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
        return _COMMANDS[args.command](config, args.out)
    except (ConfigError, InitializationFailure, BracketInvalid, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
