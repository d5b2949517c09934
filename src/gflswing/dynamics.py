"""Time-domain simulation of the inverter fleet across a fault event.

Each grid-following inverter tracks the network through a synchronous
reference frame PI loop driven by the q-axis component of its own
generation voltage (PCC voltage plus the drop across its line and virtual
impedance, projected into its own PLL frame). The simulation steps a fixed
dt through pre-fault, fault-on and post-fault intervals, applying current
limiting against each unit's dc-side ceiling and latching trips.

Angles are accumulated unwrapped in the synchronous frame, so loss of
synchronism shows up as unbounded drift instead of wrap-around.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Sequence

from gflswing.network import (
    GridModel,
    TheveninEquivalent,
    equivalent_impedance,
    faulted_grid,
)
from gflswing.pcc import (
    InjectionState,
    NonConvergence,
    ZeroVoltage,
    q_components,
    solve_vpcc,
)

__all__ = [
    "InverterConfig",
    "FaultScenario",
    "TrajectoryRecord",
    "Trajectory",
    "SimState",
    "SolverOptions",
    "InitializationFailure",
    "pll_step",
    "limited_current",
    "find_equilibrium",
    "step",
    "simulate",
    "DIVERGENCE_BOUND_RAD",
]

# Unwrapped injection-angle deviation from pre-fault beyond which a unit is
# declared out of synchronism and tripped.
DIVERGENCE_BOUND_RAD = math.pi

# Solver residual tolerance relative to max(|v_th|, 1 V) when none is given.
DEFAULT_TOL_REL = 1e-9
DEFAULT_TRIP_HOLDOFF_S = 5e-4


class InitializationFailure(RuntimeError):
    """No pre-fault equilibrium exists for the configured fleet and grid."""


@dataclass(frozen=True, slots=True)
class InverterConfig:
    """Static ratings and control gains of one inverter.

    kp and ki are the PI gains of the synchronization loop acting on a
    q-voltage error in volts (rad/s per volt and rad/s^2 per volt). i_max is
    the peak current ceiling imposed by the dc side; trip_holdoff is how
    long continuous limiting is tolerated before the unit shuts off.
    """

    name: str
    s_rated: float
    z_line: complex
    r_virtual: float
    kp: float
    ki: float
    i_max: float
    pf_angle: float = 0.0
    trip_holdoff: float = DEFAULT_TRIP_HOLDOFF_S

    def __post_init__(self) -> None:
        if self.s_rated <= 0.0:
            raise ValueError(f"{self.name}: s_rated must be positive, got {self.s_rated}")
        if self.i_max <= 0.0:
            raise ValueError(f"{self.name}: i_max must be positive, got {self.i_max}")
        if self.kp < 0.0 or self.ki < 0.0:
            raise ValueError(f"{self.name}: PLL gains must be non-negative")
        if self.r_virtual < 0.0:
            raise ValueError(f"{self.name}: r_virtual must be non-negative")
        if self.trip_holdoff < 0.0:
            raise ValueError(f"{self.name}: trip_holdoff must be non-negative")

    def z_total(self) -> complex:
        """Series line plus virtual impedance."""
        return self.z_line + self.r_virtual


@dataclass(frozen=True, slots=True)
class FaultScenario:
    """Fault timing: t_clear = None leaves the fault on until t_end."""

    t_fault: float
    t_clear: float | None
    fault_depth: float
    t_end: float
    dt: float

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 <= self.t_fault < self.t_end:
            raise ValueError(
                f"t_fault must satisfy 0 <= t_fault < t_end, got {self.t_fault}"
            )
        if self.t_clear is not None and not self.t_fault < self.t_clear <= self.t_end:
            raise ValueError(
                f"t_clear must satisfy t_fault < t_clear <= t_end, got {self.t_clear}"
            )
        if not 0.0 <= self.fault_depth <= 1.0:
            raise ValueError(f"fault_depth must lie in [0, 1], got {self.fault_depth}")


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """One sample: PCC phasor plus per-inverter tuples in fleet order.

    i_q is the current component in quadrature with the solved PCC voltage
    (leading positive); v_gq is the q-axis generation voltage seen by each
    unit's own PLL (0.0 once tripped). i_mag equals i_max exactly while a
    unit is limited and 0 after it trips.
    """

    t: float
    v_pcc_mag: float
    v_pcc_angle: float
    theta_cg: tuple[float, ...]
    i_mag: tuple[float, ...]
    i_q: tuple[float, ...]
    v_gq: tuple[float, ...]
    limited: tuple[bool, ...]
    tripped: tuple[bool, ...]


@dataclass(frozen=True, slots=True)
class Trajectory:
    records: tuple[TrajectoryRecord, ...]
    scenario: FaultScenario
    fleet: tuple[InverterConfig, ...]
    solver_failure_t: float | None = None

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("trajectory must contain at least one record")
        if self.records[0].t != 0.0:
            raise ValueError("trajectory must start at t = 0")


@dataclass(frozen=True, slots=True)
class SimState:
    """The last recorded sample plus what each unit carries between steps:
    its PLL angle (theta, constant at lock), PI integral and the time its
    current limiting began (None while unlimited)."""

    record: TrajectoryRecord
    theta: tuple[float, ...]
    integral: tuple[float, ...]
    limited_since: tuple[float | None, ...]


@dataclass(frozen=True, slots=True)
class SolverOptions:
    """Fixed-point solver settings; tol = None means absolute_tol(DEFAULT_TOL_REL, |v_th|).

    lag_mode replaces the implicit solve with an explicit update that uses
    the previous step's voltage magnitude in the current denominators.
    """

    tol: float | None = None
    max_iter: int = 100
    damping: float = 0.7
    lag_mode: bool = False

    def resolve_tol(self, v_th_mag: float) -> float:
        if self.tol is not None:
            return self.tol
        return absolute_tol(DEFAULT_TOL_REL, v_th_mag)


def absolute_tol(tol_rel: float, v_th_mag: float) -> float:
    """Residual tolerance in volts: tol_rel times max(|v_th|, 1 V)."""
    return tol_rel * max(v_th_mag, 1.0)


def pll_step(
    theta: float, integral: float, v_q: float, kp: float, ki: float, dt: float
) -> tuple[float, float, float]:
    """One PI update: integrate the q error, update omega, advance theta.

    Returns (theta, omega_dev, integral) after the step.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    integral = integral + v_q * dt
    omega_dev = kp * v_q + ki * integral
    return theta + omega_dev * dt, omega_dev, integral


def limited_current(s_ref: float, v_pcc_mag: float, i_max: float) -> tuple[float, bool]:
    """Clamp the commanded current s_ref / v_pcc_mag against i_max."""
    if v_pcc_mag <= 0.0:
        raise ValueError(f"v_pcc_mag must be positive, got {v_pcc_mag}")
    i_raw = s_ref / v_pcc_mag
    if i_raw > i_max:
        return i_max, True
    return i_raw, False


def _build_injections(
    fleet: Sequence[InverterConfig],
    theta_cg: Sequence[float],
    tripped: Sequence[bool],
    limited: Sequence[bool],
    lag_currents: Sequence[float] | None = None,
) -> InjectionState:
    """Injection state with tripped units at zero and limited units pinned.

    lag_currents pins every live unit to the given current (explicit-lag
    stepping); otherwise only limited units are pinned at i_max.
    """
    n = len(fleet)
    s = []
    fixed: list[float | None] = []
    for p in range(n):
        if tripped[p]:
            s.append(0.0)
            fixed.append(None)
        elif lag_currents is not None:
            s.append(fleet[p].s_rated)
            fixed.append(lag_currents[p])
        elif limited[p]:
            s.append(fleet[p].s_rated)
            fixed.append(fleet[p].i_max)
        else:
            s.append(fleet[p].s_rated)
            fixed.append(None)
    return InjectionState(tuple(s), tuple(theta_cg), tuple(fixed))


def _record(
    t: float,
    v: complex,
    theta_used: Sequence[float],
    theta_cg: Sequence[float],
    i_mag: Sequence[float],
    v_gq: Sequence[float],
    limited: Sequence[bool],
    tripped: Sequence[bool],
) -> TrajectoryRecord:
    """Sample one step; i_q follows the injection angles that actually
    flowed during the step (theta_used)."""
    v_angle = cmath.phase(v)
    return TrajectoryRecord(
        t=t,
        v_pcc_mag=abs(v),
        v_pcc_angle=v_angle,
        theta_cg=tuple(theta_cg),
        i_mag=tuple(i_mag),
        i_q=tuple(i * math.sin(th - v_angle) for i, th in zip(i_mag, theta_used)),
        v_gq=tuple(v_gq),
        limited=tuple(limited),
        tripped=tuple(tripped),
    )


def find_equilibrium(
    fleet: Sequence[InverterConfig],
    grid: TheveninEquivalent,
    zeq: Sequence[complex],
    opts: SolverOptions | None = None,
) -> SimState:
    """Pre-fault operating point with every PLL locked (v_gq = 0).

    Alternates the PCC voltage solve with per-inverter re-locking of the
    injection angle until both are self-consistent. At lock, v_gq = 0 in
    the unit's frame theta gives

        |v_pcc| sin(theta - angle(v_pcc)) = Im(z_series i e^{j pf_angle}).

    Fails when a unit would exceed its current ceiling at rest or no lock
    angle exists.
    """
    if not fleet:
        raise ValueError("fleet must be non-empty")
    opts = opts or SolverOptions()
    tol = opts.resolve_tol(abs(grid.v_th))
    n = len(fleet)

    theta = [cmath.phase(grid.v_th)] * n
    tripped = [False] * n
    limited = [False] * n

    v = grid.v_th
    for _ in range(500):
        inj = _build_injections(
            fleet, [theta[p] + fleet[p].pf_angle for p in range(n)], tripped, limited
        )
        try:
            sol = solve_vpcc(grid, zeq, inj, tol, opts.max_iter, opts.damping)
        except (NonConvergence, ZeroVoltage) as exc:
            raise InitializationFailure(f"no pre-fault voltage solution: {exc}") from exc
        v = sol.v_pcc
        v_mag = abs(v)
        v_angle = cmath.phase(v)
        max_delta = 0.0
        for p, cfg in enumerate(fleet):
            i_p = cfg.s_rated / v_mag
            if i_p > cfg.i_max:
                raise InitializationFailure(
                    f"{cfg.name}: rated current {i_p:.2f} A exceeds the "
                    f"{cfg.i_max:.2f} A ceiling at the pre-fault voltage"
                )
            drop = cfg.z_total() * i_p * cmath.exp(1j * cfg.pf_angle)
            b = drop.imag / v_mag
            if abs(b) > 1.0:
                raise InitializationFailure(
                    f"{cfg.name}: no locked injection angle exists (|{b:.3f}| > 1)"
                )
            new_theta = v_angle + math.asin(b)
            max_delta = max(max_delta, abs(new_theta - theta[p]))
            theta[p] = new_theta
        if max_delta < 1e-13:
            break
    else:
        raise InitializationFailure("pre-fault lock iteration did not converge")

    v_mag = abs(v)
    theta_cg = [theta[p] + fleet[p].pf_angle for p in range(n)]
    record = _record(
        0.0, v, theta_cg, theta_cg, [cfg.s_rated / v_mag for cfg in fleet],
        [0.0] * n, [False] * n, [False] * n,
    )
    return SimState(record, tuple(theta), (0.0,) * n, (None,) * n)


def step(
    state: SimState,
    fleet: Sequence[InverterConfig],
    grid_now: TheveninEquivalent,
    zeq_now: Sequence[complex],
    dt: float,
    opts: SolverOptions | None = None,
    theta_cg_ref: Sequence[float] | None = None,
) -> SimState:
    """Advance the fleet by one step under the given grid equivalent.

    Order per step: resolve limiter flags and solve the PCC voltage with the
    current injection angles, evaluate each live unit's q-axis generation
    voltage in its own PLL frame, update the PLLs, then latch trips (holdoff
    expiry or angle divergence past DIVERGENCE_BOUND_RAD from theta_cg_ref).
    Tripped units are frozen and inject nothing from the following step.
    """
    opts = opts or SolverOptions()
    tol = opts.resolve_tol(abs(grid_now.v_th))
    n = len(fleet)
    rec = state.record
    t_new = rec.t + dt

    tripped = rec.tripped
    theta_cg_old = rec.theta_cg

    if opts.lag_mode:
        v_prev_mag = rec.v_pcc_mag
        currents = []
        limited = []
        for p, cfg in enumerate(fleet):
            if tripped[p]:
                currents.append(0.0)
                limited.append(False)
            else:
                i_p, lim = limited_current(cfg.s_rated, v_prev_mag, cfg.i_max)
                currents.append(i_p)
                limited.append(lim)
        inj = _build_injections(fleet, theta_cg_old, tripped, limited, currents)
        sol = solve_vpcc(grid_now, zeq_now, inj, tol, opts.max_iter, opts.damping)
    else:
        limited = [lim and not trip for lim, trip in zip(rec.limited, tripped)]
        if grid_now.v_th == 0.0:
            # Collapsed source: every live unit saturates at once.
            limited = [not t for t in tripped]
        inj = _build_injections(fleet, theta_cg_old, tripped, limited)
        sol = solve_vpcc(grid_now, zeq_now, inj, tol, opts.max_iter, opts.damping)
        for _ in range(n + 1):
            v_mag = abs(sol.v_pcc)
            if v_mag == 0.0:
                raise ZeroVoltage("PCC voltage collapsed to zero during a step")
            want = [
                (not tripped[p]) and fleet[p].s_rated / v_mag > fleet[p].i_max
                for p in range(n)
            ]
            if want == limited:
                break
            limited = want
            inj = _build_injections(fleet, theta_cg_old, tripped, limited)
            sol = solve_vpcc(grid_now, zeq_now, inj, tol, opts.max_iter, opts.damping)

    v = sol.v_pcc
    v_mag = abs(v)
    if v_mag == 0.0:
        raise ZeroVoltage("PCC voltage collapsed to zero during a step")
    z_series = [cfg.z_total() for cfg in fleet]
    _, v_gq_all = q_components(grid_now, v, zeq_now, inj, z_series, state.theta)

    theta = list(state.theta)
    integral = list(state.integral)
    limited_since = list(state.limited_since)
    theta_cg = list(theta_cg_old)
    i_mag = [0.0] * n
    v_gq = [0.0] * n
    tripped_new = list(tripped)
    for p, cfg in enumerate(fleet):
        if tripped[p]:
            limited_since[p] = None
            continue

        i_mag[p] = cfg.i_max if limited[p] else cfg.s_rated / v_mag
        v_gq[p] = v_gq_all[p]
        theta[p], _, integral[p] = pll_step(
            theta[p], integral[p], v_gq[p], cfg.kp, cfg.ki, dt
        )
        theta_cg[p] = theta[p] + cfg.pf_angle

        if limited[p]:
            limited_since[p] = limited_since[p] if rec.limited[p] else t_new
        else:
            limited_since[p] = None

        if limited[p] and t_new - limited_since[p] >= cfg.trip_holdoff - 1e-12:
            tripped_new[p] = True
        if theta_cg_ref is not None and abs(theta_cg[p] - theta_cg_ref[p]) > DIVERGENCE_BOUND_RAD:
            tripped_new[p] = True

    record = _record(t_new, v, theta_cg_old, theta_cg, i_mag, v_gq, limited, tripped_new)
    return SimState(record, tuple(theta), tuple(integral), tuple(limited_since))


def simulate(
    fleet: Sequence[InverterConfig],
    grid: GridModel,
    scenario: FaultScenario,
    opts: SolverOptions | None = None,
    *,
    stop_at_first_trip: bool = False,
) -> Trajectory:
    """Run pre-fault, fault-on and post-fault intervals and record every step.

    Fault application and clearing snap to the nearest step boundary. A
    solver failure mid-run is recorded as instability onset: all remaining
    units are marked tripped at that step and the run stops there.

    stop_at_first_trip ends the run at the first record in which any unit
    is tripped; every record up to it is the one the full run records. A
    trip decides the stability verdict, so a caller that needs only the
    verdict can skip the rest of the cascade.
    """
    if not fleet:
        raise ValueError("fleet must be non-empty")
    opts = opts or SolverOptions()
    # One tolerance for the whole run, against the pre-fault source as in
    # find_equilibrium and the config loader.
    opts = replace(opts, tol=opts.resolve_tol(abs(grid.prefault.v_th)))
    fleet = tuple(fleet)

    zeq_pre = equivalent_impedance(fleet, grid.prefault, grid.z_load)
    fault_ten = faulted_grid(grid, scenario.fault_depth)
    zeq_fault = equivalent_impedance(fleet, fault_ten, grid.z_load)

    n_steps = round(scenario.t_end / scenario.dt)
    k_fault = round(scenario.t_fault / scenario.dt)
    k_clear = round(scenario.t_clear / scenario.dt) if scenario.t_clear is not None else None

    state = find_equilibrium(fleet, grid.prefault, zeq_pre, opts)
    theta_cg_ref = state.record.theta_cg

    records = [state.record]
    solver_failure_t: float | None = None

    for k in range(1, n_steps + 1):
        on_fault = k >= k_fault and (k_clear is None or k < k_clear)
        grid_now = fault_ten if on_fault else grid.prefault
        zeq_now = zeq_fault if on_fault else zeq_pre
        try:
            state = step(state, fleet, grid_now, zeq_now, scenario.dt, opts, theta_cg_ref)
        except (NonConvergence, ZeroVoltage):
            solver_failure_t = k * scenario.dt
            n = len(fleet)
            records.append(
                replace(
                    records[-1],
                    t=solver_failure_t,
                    i_mag=(0.0,) * n,
                    i_q=(0.0,) * n,
                    v_gq=(0.0,) * n,
                    limited=(False,) * n,
                    tripped=(True,) * n,
                )
            )
            break
        records.append(state.record)
        if stop_at_first_trip and True in state.record.tripped:
            break

    return Trajectory(tuple(records), scenario, fleet, solver_failure_t)
