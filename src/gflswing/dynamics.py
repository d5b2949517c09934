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
from typing import Iterator, Sequence

from gflswing.network import (
    GridModel,
    TheveninEquivalent,
    equivalent_impedance,
    faulted_grid,
)
from gflswing.pcc import NonConvergence, ZeroVoltage, q_components, solve_vpcc

__all__ = [
    "InverterConfig",
    "FaultScenario",
    "TrajectoryRecord",
    "Trajectory",
    "SimState",
    "SolverOptions",
    "InitializationFailure",
    "UnitTable",
    "GridPhase",
    "Runs",
    "whole_steps",
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


def whole_steps(seconds: float, dt: float) -> int:
    """seconds as the nearest whole number of steps of dt.

    The one time base: every event time, duration and clearing time is
    taken through here once, at the edge, and below it time is a step
    index k, at t = k * dt.
    """
    return round(seconds / dt)


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
        if not self.s_rated > 0.0:
            raise ValueError(f"{self.name}: s_rated must be positive, got {self.s_rated}")
        if not self.i_max > 0.0:
            raise ValueError(f"{self.name}: i_max must be positive, got {self.i_max}")
        if not (self.kp >= 0.0 and self.ki >= 0.0):
            raise ValueError(f"{self.name}: PLL gains must be non-negative")
        if not cmath.isfinite(self.z_line):
            raise ValueError(f"{self.name}: z_line must be finite, got {self.z_line}")
        if not self.r_virtual >= 0.0:
            raise ValueError(f"{self.name}: r_virtual must be non-negative")
        if not math.isfinite(self.pf_angle):
            raise ValueError(f"{self.name}: pf_angle must be finite, got {self.pf_angle}")
        if not self.trip_holdoff >= 0.0:
            raise ValueError(f"{self.name}: trip_holdoff must be non-negative")

    def z_total(self) -> complex:
        """Series line plus virtual impedance."""
        return self.z_line + self.r_virtual


@dataclass(frozen=True, slots=True)
class FaultScenario:
    """Fault timing: t_clear = None leaves the fault on until t_end.

    k_fault, k_clear and k_end are the steps of the three events (see
    whole_steps). The fault is applied at step k_fault and cleared
    t_clear - t_fault, in whole steps, later, so a fault of k steps lasts
    exactly k steps wherever t_fault falls.
    """

    t_fault: float
    t_clear: float | None
    fault_depth: float
    t_end: float
    dt: float

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
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

    @property
    def k_fault(self) -> int:
        return whole_steps(self.t_fault, self.dt)

    @property
    def k_clear(self) -> int | None:
        if self.t_clear is None:
            return None
        return self.k_fault + whole_steps(self.t_clear - self.t_fault, self.dt)

    @property
    def k_end(self) -> int:
        return whole_steps(self.t_end, self.dt)


@dataclass(slots=True)
class TrajectoryRecord:
    """One sample: PCC phasor plus per-inverter tuples in fleet order.

    i_q is the current component in quadrature with the solved PCC voltage
    (leading positive); v_gq is the q-axis generation voltage seen by each
    unit's own PLL (0.0 once tripped). i_mag equals i_max exactly while a
    unit is limited and 0 after it trips.

    Read-only by contract, as forked runs share earlier records; not
    frozen, since a frozen dataclass sets each field through
    object.__setattr__, a cost every step would pay.
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


@dataclass(slots=True)
class SimState:
    """The last recorded sample and its step index k, plus what each unit
    carries between steps: its PLL angle (theta, constant at lock), PI
    integral and the step at which its current limiting began (None while
    unlimited). Read-only and not frozen, like TrajectoryRecord: forked
    runs share kept states."""

    record: TrajectoryRecord
    k: int
    theta: tuple[float, ...]
    integral: tuple[float, ...]
    limited_since: tuple[int | None, ...]


@dataclass(frozen=True, slots=True)
class SolverOptions:
    """Voltage solver settings; tol = None means absolute_tol(DEFAULT_TOL_REL, |v_th|).

    Every solve is Newton within max_iter iterations (see pcc.solve_vpcc):
    step seeds it with the last voltage, find_equilibrium starts it at v_th."""

    tol: float | None = None
    max_iter: int = 100


def absolute_tol(tol_rel: float, v_th_mag: float) -> float:
    """Residual tolerance in volts: tol_rel times max(|v_th|, 1 V)."""
    return tol_rel * max(v_th_mag, 1.0)


class UnitTable:
    """The constants of each unit of fleet that step reads, in fleet order,
    and the step dt they are counted in.

    s_rated, i_max, kp, ki and pf_angle come from the configs. holdoff is
    trip_holdoff in whole steps of dt (see whole_steps): a unit trips when
    it has been limited for that many steps. series_q is
    Im(z_total e^{j pf_angle}), the q-axis drop per ampere across the
    unit's series impedance in its own PLL frame.

    UnitTable and GridPhase are plain slotted classes, not dataclasses: a
    dataclass takes about 1 ms to define, which every import would pay.
    """

    __slots__ = ("dt", "s_rated", "i_max", "kp", "ki", "pf_angle", "holdoff", "series_q")

    def __init__(self, fleet: Sequence[InverterConfig], dt: float) -> None:
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.dt = dt
        self.s_rated = tuple(cfg.s_rated for cfg in fleet)
        self.i_max = tuple(cfg.i_max for cfg in fleet)
        self.kp = tuple(cfg.kp for cfg in fleet)
        self.ki = tuple(cfg.ki for cfg in fleet)
        self.pf_angle = tuple(cfg.pf_angle for cfg in fleet)
        self.holdoff = tuple(whole_steps(cfg.trip_holdoff, dt) for cfg in fleet)
        self.series_q = tuple(
            (cfg.z_total() * cmath.exp(1j * cfg.pf_angle)).imag for cfg in fleet
        )

    def __len__(self) -> int:
        return len(self.s_rated)


class GridPhase:
    """One interval's Thevenin equivalent grid and each unit's equivalent
    impedance zeq under it, with the products zs = zeq * s_rated and
    zi = zeq * i_max that the aggregate (C, D) sums."""

    __slots__ = ("grid", "zeq", "zs", "zi")

    def __init__(
        self, units: UnitTable, grid: TheveninEquivalent, zeq: Sequence[complex]
    ) -> None:
        self.grid = grid
        self.zeq = tuple(zeq)
        self.zs = tuple(z * s for z, s in zip(self.zeq, units.s_rated))
        self.zi = tuple(z * i for z, i in zip(self.zeq, units.i_max))


def _aggregate(
    phase: GridPhase,
    e: Sequence[complex],
    tripped: Sequence[bool],
    limited: Sequence[bool],
) -> tuple[complex, complex]:
    """(C, D) of the fleet at injection phasors e: limited units enter D at
    i_max, other live units C at s_rated, tripped units neither."""
    c = d = 0j
    for zs, zi, e_p, trip, lim in zip(phase.zs, phase.zi, e, tripped, limited):
        if trip:
            continue
        if lim:
            d += zi * e_p
        else:
            c += zs * e_p
    return c, d


def find_equilibrium(
    fleet: Sequence[InverterConfig],
    units: UnitTable,
    prefault: GridPhase,
    opts: SolverOptions,
) -> SimState:
    """Pre-fault operating point with every PLL locked (v_gq = 0).

    units and prefault are the run's tables (see Runs), and opts.tol the
    tolerance resolved once for the run; fleet names the units in
    errors. Alternates the PCC voltage solve with per-inverter re-locking of
    the injection angle until both are self-consistent. At lock, v_gq = 0 in
    the unit's frame theta gives

        |v_pcc| sin(theta - angle(v_pcc)) = Im(z_series i e^{j pf_angle}).

    Fails when a unit would exceed its current ceiling at rest or no lock
    angle exists.
    """
    grid = prefault.grid
    n = len(units)
    flags_off = (False,) * n

    theta = [cmath.phase(grid.v_th)] * n

    v = grid.v_th
    for _ in range(500):
        theta_cg = [th + pf for th, pf in zip(theta, units.pf_angle)]
        e = [complex(math.cos(th), math.sin(th)) for th in theta_cg]
        agg = _aggregate(prefault, e, flags_off, flags_off)
        try:
            sol = solve_vpcc(grid, agg, opts.tol, opts.max_iter)
        except (NonConvergence, ZeroVoltage) as exc:
            raise InitializationFailure(f"no pre-fault voltage solution: {exc}") from exc
        v = sol.v_pcc
        v_mag = abs(v)
        v_angle = cmath.phase(v)
        max_delta = 0.0
        for p, cfg in enumerate(fleet):
            i_p = units.s_rated[p] / v_mag
            if i_p > units.i_max[p]:
                raise InitializationFailure(
                    f"{cfg.name}: rated current {i_p:.2f} A exceeds the "
                    f"{units.i_max[p]:.2f} A ceiling at the pre-fault voltage"
                )
            b = units.series_q[p] * i_p / v_mag
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
    v_angle = cmath.phase(v)
    theta_cg = tuple(theta[p] + units.pf_angle[p] for p in range(n))
    i_mag = tuple(s / v_mag for s in units.s_rated)
    record = TrajectoryRecord(
        0.0, v_mag, v_angle, theta_cg, i_mag,
        tuple(i * math.sin(th - v_angle) for i, th in zip(i_mag, theta_cg)),
        (0.0,) * n, flags_off, flags_off,
    )
    return SimState(record, 0, tuple(theta), (0.0,) * n, (None,) * n)


def step(
    state: SimState,
    fleet: UnitTable,
    phase: GridPhase,
    opts: SolverOptions,
    theta_cg_ref: Sequence[float],
) -> SimState:
    """Advance the fleet by one step of fleet.dt under the given grid phase.

    fleet and phase are per-run tables (see Runs), and opts.tol the
    tolerance resolved once for the run; an unresolved tol is a ValueError.
    The new record is step k = state.k + 1, at t = k * dt.
    Order per step: resolve limiter flags and solve the PCC voltage with the
    current injection angles, evaluate each live unit's q-axis generation
    voltage in its own PLL frame, update the PLLs, then latch trips (holdoff
    expiry, once a unit has been limited for fleet.holdoff steps, or angle
    divergence past DIVERGENCE_BOUND_RAD from theta_cg_ref).
    Tripped units are frozen and inject nothing from the following step.
    One cos and one sin of each injection angle serve every voltage solve
    of the step; the q projection takes them of each PLL angle. The first
    voltage solve is seeded with the previous record's PCC voltage and each
    limiter re-solve with the last solution.
    """
    tol = opts.tol
    if tol is None:
        raise ValueError("step needs a resolved tolerance; Runs resolves one")
    n = len(fleet)
    dt = fleet.dt
    rec = state.record
    k = state.k + 1
    grid = phase.grid
    s_rated = fleet.s_rated
    i_max = fleet.i_max

    tripped = rec.tripped
    theta_cg_old = rec.theta_cg
    cos_cg = list(map(math.cos, theta_cg_old))
    sin_cg = list(map(math.sin, theta_cg_old))
    e = list(map(complex, cos_cg, sin_cg))

    limited = [lim and not trip for lim, trip in zip(rec.limited, tripped)]
    if grid.v_th == 0.0:
        # Collapsed source: every live unit saturates at once.
        limited = [not t for t in tripped]
    agg = _aggregate(phase, e, tripped, limited)
    sol = solve_vpcc(
        grid, agg, tol, opts.max_iter,
        cmath.rect(rec.v_pcc_mag, rec.v_pcc_angle),
    )
    for _ in range(n + 1):
        v_mag = abs(sol.v_pcc)
        if v_mag == 0.0:
            raise ZeroVoltage("PCC voltage collapsed to zero during a step")
        want = [not t and s / v_mag > i for t, s, i in zip(tripped, s_rated, i_max)]
        if want == limited:
            break
        limited = want
        agg = _aggregate(phase, e, tripped, limited)
        sol = solve_vpcc(grid, agg, tol, opts.max_iter, sol.v_pcc)

    v = sol.v_pcc
    v_mag = abs(v)
    if v_mag == 0.0:
        raise ZeroVoltage("PCC voltage collapsed to zero during a step")
    i_mag = [
        0.0 if t else (i if lim else s / v_mag)
        for t, lim, s, i in zip(tripped, limited, s_rated, i_max)
    ]
    _, v_gq_all = q_components(
        grid, v, agg,
        list(map(math.cos, state.theta)), list(map(math.sin, state.theta)),
        fleet.series_q, i_mag,
    )

    theta = list(state.theta)
    integral = list(state.integral)
    limited_since = list(state.limited_since)
    theta_cg = list(theta_cg_old)
    v_gq = [0.0] * n
    tripped_new = list(tripped)
    kp, ki, pf_angle, holdoff = fleet.kp, fleet.ki, fleet.pf_angle, fleet.holdoff
    for p in range(n):
        if tripped[p]:
            limited_since[p] = None
            continue

        v_q = v_gq[p] = v_gq_all[p]
        integral[p] = integral_p = integral[p] + v_q * dt
        theta[p] += (kp[p] * v_q + ki[p] * integral_p) * dt
        theta_cg[p] = theta_cg_p = theta[p] + pf_angle[p]

        if limited[p]:
            since = limited_since[p] = limited_since[p] if rec.limited[p] else k
            if k - since >= holdoff[p]:
                tripped_new[p] = True
        else:
            limited_since[p] = None
        if abs(theta_cg_p - theta_cg_ref[p]) > DIVERGENCE_BOUND_RAD:
            tripped_new[p] = True

    # i_q follows the injection angles that flowed during the step.
    v_angle = cmath.phase(v)
    record = TrajectoryRecord(
        k * dt, v_mag, v_angle, tuple(theta_cg), tuple(i_mag),
        tuple([i * math.sin(th - v_angle) for i, th in zip(i_mag, theta_cg_old)]),
        tuple(v_gq), tuple(limited), tuple(tripped_new),
    )
    return SimState(record, k, tuple(theta), tuple(integral), tuple(limited_since))


class Runs:
    """The runs of one fleet on one grid through one fault, one per clearing
    time, each branching from one uncleared fault-on run.

    opts holds the tolerance resolved against the pre-fault source, as in
    the config loader, for the equilibrium and every step. units is the
    fleet's table of constants, prefault and fault the grid phases before
    and during the fault, and equilibrium the locked pre-fault state, whose
    injection angles are the reference of the divergence trip. run sets the
    clearing time of scenario.

    Step k is under the fault while k_fault <= k < k_clear, the scenario's
    event steps (see FaultScenario), so every run agrees with the fault-on
    run on each step before it clears; every record is at k * dt. run
    steps the fault-on run once, on demand, up to the step before the
    requested clearing step, keeping its states from step k_fault - 1 on (no
    run clears earlier), and continues from the state there. The fault-on
    run stops at its first trip or solver failure: a later clearing
    continues from its last state, which holds that trip, so a run that
    stops at its first trip makes no step (after a failure it repeats only
    the failed step). An uncleared run extends nothing: it continues from
    the furthest state kept and keeps none of its own.

    A Runs object grows as it is used and is not shared across threads.
    """

    def __init__(
        self,
        fleet: Sequence[InverterConfig],
        grid: GridModel,
        scenario: FaultScenario,
        opts: SolverOptions | None = None,
    ) -> None:
        if not fleet:
            raise ValueError("fleet must be non-empty")
        opts = opts or SolverOptions()
        if opts.tol is None:
            opts = replace(opts, tol=absolute_tol(DEFAULT_TOL_REL, abs(grid.prefault.v_th)))
        self.fleet = fleet = tuple(fleet)
        self.opts = opts
        self.units = units = UnitTable(fleet, scenario.dt)
        zeq_pre = equivalent_impedance(fleet, grid.prefault, grid.z_load)
        fault_ten = faulted_grid(grid, scenario.fault_depth)
        zeq_fault = equivalent_impedance(fleet, fault_ten, grid.z_load)
        self.prefault = GridPhase(units, grid.prefault, zeq_pre)
        self.fault = GridPhase(units, fault_ten, zeq_fault)
        self.equilibrium = find_equilibrium(fleet, units, self.prefault, opts)
        self._scenario = scenario
        self._k_fault = scenario.k_fault
        self._k_end = scenario.k_end
        # The fault-on run: its records from step 0 on and the state after
        # each step from _first_kept on.
        self._first_kept = max(self._k_fault - 1, 1)
        self._records = [self.equilibrium.record]
        self._states: list[SimState] = []

    def run(self, t_clear: float | None, *, stop_at_first_trip: bool = False) -> Trajectory:
        """The run that clears the fault at t_clear (None: never), stepped to
        the scenario's end or, with stop_at_first_trip, to the first record
        in which any unit is tripped.

        A solver failure ends the run as instability onset: the failed
        step's record marks every unit tripped and injecting nothing, and
        its time is the trajectory's solver_failure_t.
        """
        scenario = replace(self._scenario, t_clear=t_clear)
        k_clear = scenario.k_clear
        fault_on, states = self._records, self._states
        # The step to fork at: a clearing step of 0 never applies the fault.
        k = None if k_clear is None else max(k_clear, 1) - 1
        if k is not None and k >= len(fault_on):
            start = states[-1] if states else self.equilibrium
            for state in self._advance(None, fault_on, start, True):
                if len(fault_on) > self._first_kept:
                    states.append(state)
                if len(fault_on) > k:
                    break
        last = self._first_kept + len(states) - 1 if states else 0
        k = last if k is None else min(k, last)
        records = fault_on[:k + 1]
        state = states[k - self._first_kept] if k else self.equilibrium
        for state in self._advance(k_clear, records, state, stop_at_first_trip):
            pass
        # A failed step appends a record of no state.
        failure_t = None if records[-1] is state.record else records[-1].t
        return Trajectory(tuple(records), scenario, self.fleet, failure_t)

    def _advance(
        self,
        k_clear: int | None,
        records: list[TrajectoryRecord],
        state: SimState,
        stop_at_first_trip: bool,
    ) -> Iterator[SimState]:
        """Step on from state, the state after step len(records) - 1, to the
        scenario's last step, appending each step's record to records and
        yielding the state after it; k_clear is the clearing step.

        Stepping ends at a solver failure or, when stop_at_first_trip is
        set, at the first record in which any unit is tripped; if records
        already ends with such a record, no step is made. A failed step
        appends the failure record that run describes and yields nothing.
        """
        dt = self._scenario.dt
        theta_cg_ref = self.equilibrium.record.theta_cg
        for k in range(len(records), self._k_end + 1):
            if stop_at_first_trip and True in records[-1].tripped:
                return
            on_fault = k >= self._k_fault and (k_clear is None or k < k_clear)
            phase = self.fault if on_fault else self.prefault
            try:
                state = step(state, self.units, phase, self.opts, theta_cg_ref)
            except (NonConvergence, ZeroVoltage):
                n = len(self.fleet)
                records.append(replace(
                    records[-1], t=k * dt, i_mag=(0.0,) * n, i_q=(0.0,) * n,
                    v_gq=(0.0,) * n, limited=(False,) * n, tripped=(True,) * n,
                ))
                return
            records.append(state.record)
            yield state


def simulate(
    fleet: Sequence[InverterConfig],
    grid: GridModel,
    scenario: FaultScenario,
    opts: SolverOptions | None = None,
) -> Trajectory:
    """Run pre-fault, fault-on and post-fault intervals and record every step.

    The one run of a new Runs that clears at scenario.t_clear. A solver
    failure mid-run ends the run there, with every remaining unit marked
    tripped (see Runs.run).
    """
    return Runs(fleet, grid, scenario, opts).run(scenario.t_clear)
