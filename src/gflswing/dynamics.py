"""Time-domain simulation of the inverter fleet across a fault event.

Each grid-following inverter tracks the network through a synchronous
reference frame PI loop driven by the q-axis component of its own
generation voltage (PCC voltage plus the drop across its line and virtual
impedance, projected into its own PLL frame). The fleet rests at its
pre-fault equilibrium until the fault; from there the simulation steps a
fixed dt through the fault-on and post-fault intervals, applying current
limiting against each unit's dc-side ceiling and latching trips. Record k
of a trajectory is at t = k * dt.

Angles are accumulated unwrapped in the synchronous frame, so loss of
synchronism shows up as unbounded drift instead of wrap-around.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import repeat
from operator import add, gt, mul
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
    "RunStream",
    "whole_steps",
    "find_equilibrium",
    "step",
    "simulate",
    "DIVERGENCE_BOUND_RAD",
]

# Unwrapped injection-angle deviation from pre-fault beyond which a unit is
# declared out of synchronism and tripped.
DIVERGENCE_BOUND_RAD = math.pi

# Solver residual tolerance relative to max(|v_th pre-fault|, 1 V).
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
        for field in ("s_rated", "i_max"):
            value = getattr(self, field)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{self.name}: {field} must be finite and > 0, got {value}")
        for field in ("kp", "ki", "r_virtual", "trip_holdoff"):
            value = getattr(self, field)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{self.name}: {field} must be finite and >= 0, got {value}")
        if not cmath.isfinite(self.z_line):
            raise ValueError(f"{self.name}: z_line must be finite, got {self.z_line}")
        if not math.isfinite(self.pf_angle):
            raise ValueError(f"{self.name}: pf_angle must be finite, got {self.pf_angle}")

    def z_total(self) -> complex:
        """Series line plus virtual impedance."""
        return self.z_line + self.r_virtual


@dataclass(frozen=True, slots=True)
class FaultScenario:
    """Fault timing: t_clear = None leaves the fault on until t_end.

    k_fault, k_clear and k_end are the steps of the three events (see
    whole_steps). The fault is applied at step k_fault and cleared
    t_clear - t_fault, in whole steps, later, so a fault of k steps lasts
    exactly k steps wherever t_fault falls. A cleared fault lasts at least
    one step: t_clear - t_fault must be more than half a step, or the
    fault would last none and the run would report a faulted config as
    one that never saw the fault. A cleared fault starts after step 0,
    which no step makes, or it would act one step short.
    """

    t_fault: float
    t_clear: float | None
    fault_depth: float
    t_end: float
    dt: float

    def __post_init__(self) -> None:
        for name in ("t_fault", "t_clear", "t_end", "dt"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
        if self.t_clear is not None and whole_steps(self.t_clear - self.t_fault, self.dt) < 1:
            raise ValueError(
                f"t_clear must lie more than half a step (dt = {self.dt:.6g} s) after "
                f"t_fault, got t_clear - t_fault = {self.t_clear - self.t_fault:.6g} s: "
                "the fault would last no step"
            )
        if self.t_clear is not None and whole_steps(self.t_fault, self.dt) < 1:
            raise ValueError(
                f"t_fault must lie more than half a step (dt = {self.dt:.6g} s) after 0 when "
                f"the fault is cleared, got {self.t_fault:.6g} s: no step makes record 0"
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

    A record carries no time: record k of a trajectory is at
    k * scenario.dt.

    i_q is the current component in quadrature with the solved PCC voltage
    (leading positive); v_gq is the q-axis generation voltage seen by each
    unit's own PLL (0.0 once tripped). i_mag equals i_max exactly while a
    unit is limited and 0 after it trips.

    Read-only by contract, as forked runs share earlier records; not
    frozen, since a frozen dataclass sets each field through
    object.__setattr__, a cost every step would pay.
    """

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
    """A run with every record kept: what Runs.run and simulate return,
    the records of the run's stream (see Runs.stream)."""

    records: tuple[TrajectoryRecord, ...]
    scenario: FaultScenario
    fleet: tuple[InverterConfig, ...]
    solver_failure_t: float | None = None

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("trajectory must contain at least one record")


@dataclass(slots=True)
class SimState:
    """The last recorded sample and its step index k, plus what each unit
    carries between steps: its PLL angle (theta, constant at lock), PI
    integral and the step at which its current limiting began (None while
    unlimited). record.theta_cg is theta plus each unit's pf_angle, or
    theta itself when the fleet is aligned (see UnitTable). Read-only and
    not frozen, like TrajectoryRecord: forked runs share kept states."""

    record: TrajectoryRecord
    k: int
    theta: tuple[float, ...]
    integral: tuple[float, ...]
    limited_since: tuple[int | None, ...]


@dataclass(frozen=True, slots=True)
class SolverOptions:
    """The voltage solver settings, as the config's solver section gives them.

    tol_rel is the residual tolerance relative to the pre-fault |v_th|, at
    least 1 V; a Runs resolves it to volts once, for every solve of its runs
    (see Runs). Every solve is Newton within max_iter iterations (see
    pcc.solve_vpcc)."""

    tol_rel: float = DEFAULT_TOL_REL
    max_iter: int = 100

    def __post_init__(self) -> None:
        if not 0.0 < self.tol_rel < math.inf:
            raise ValueError(f"tol_rel must be positive and finite, got {self.tol_rel}")
        if not (isinstance(self.max_iter, int) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be a whole number >= 1, got {self.max_iter!r}")


class UnitTable:
    """The constants of each unit of fleet that step reads, in fleet order,
    the step dt they are counted in, and the run's voltage-solve settings.

    names, s_rated, i_max, kp, ki and pf_angle come from the configs.
    holdoff is trip_holdoff in whole steps of dt (see whole_steps): a unit
    trips when it has been limited for that many steps. series_q is
    Im(z_total e^{j pf_angle}), the q-axis drop per ampere across the
    unit's series impedance in its own PLL frame. aligned is True when every
    pf_angle is 0: each unit injects at its PLL angle, and a state's
    injection angles are its PLL angles, one tuple. Every voltage solve of
    the run stops at tol, the residual in volts that Runs resolves, within
    max_iter iterations.

    UnitTable and GridPhase are plain slotted classes, not dataclasses: a
    dataclass takes about 1 ms to define, which every import would pay.
    """

    __slots__ = (
        "names", "dt", "tol", "max_iter",
        "s_rated", "i_max", "kp", "ki", "pf_angle", "holdoff", "series_q", "aligned",
    )

    def __init__(
        self, fleet: Sequence[InverterConfig], dt: float, tol: float, max_iter: int
    ) -> None:
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.names = tuple(cfg.name for cfg in fleet)
        self.dt = dt
        self.tol = tol
        self.max_iter = max_iter
        self.s_rated = tuple(cfg.s_rated for cfg in fleet)
        self.i_max = tuple(cfg.i_max for cfg in fleet)
        self.kp = tuple(cfg.kp for cfg in fleet)
        self.ki = tuple(cfg.ki for cfg in fleet)
        self.pf_angle = tuple(cfg.pf_angle for cfg in fleet)
        self.holdoff = tuple(whole_steps(cfg.trip_holdoff, dt) for cfg in fleet)
        self.series_q = tuple(
            (cfg.z_total() * cmath.exp(1j * cfg.pf_angle)).imag for cfg in fleet
        )
        self.aligned = not any(self.pf_angle)

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
    if True not in limited and True not in tripped:
        return reduce(add, map(mul, phase.zs, e), 0j), 0j
    c = d = 0j
    for zs, zi, e_p, trip, lim in zip(phase.zs, phase.zi, e, tripped, limited):
        if trip:
            continue
        if lim:
            d += zi * e_p
        else:
            c += zs * e_p
    return c, d


def find_equilibrium(units: UnitTable, prefault: GridPhase) -> SimState:
    """Pre-fault operating point with every PLL locked (v_gq = 0).

    units and prefault are the run's tables (see Runs); units names the
    units in errors. Alternates the PCC voltage solve, started at v_th, with
    per-inverter re-locking of the injection angle until both are
    self-consistent. At lock, v_gq = 0 in the unit's frame theta gives

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
            sol = solve_vpcc(grid, agg, units.tol, units.max_iter)
        except (NonConvergence, ZeroVoltage) as exc:
            raise InitializationFailure(f"no pre-fault voltage solution: {exc}") from exc
        v = sol.v_pcc
        v_mag = abs(v)
        v_angle = cmath.phase(v)
        max_delta = 0.0
        for p, name in enumerate(units.names):
            i_p = units.s_rated[p] / v_mag
            if i_p > units.i_max[p]:
                raise InitializationFailure(
                    f"{name}: rated current {i_p:.2f} A exceeds the "
                    f"{units.i_max[p]:.2f} A ceiling at the pre-fault voltage"
                )
            b = units.series_q[p] * i_p / v_mag
            if abs(b) > 1.0:
                raise InitializationFailure(
                    f"{name}: no locked injection angle exists (|{b:.3f}| > 1)"
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
    theta = tuple(theta)
    theta_cg = theta if units.aligned else tuple(map(add, theta, units.pf_angle))
    i_mag = tuple(s / v_mag for s in units.s_rated)
    record = TrajectoryRecord(
        v_mag, v_angle, theta_cg, i_mag,
        tuple(i * math.sin(th - v_angle) for i, th in zip(i_mag, theta_cg)),
        (0.0,) * n, flags_off, flags_off,
    )
    return SimState(record, 0, theta, (0.0,) * n, (None,) * n)


def step(
    state: SimState,
    fleet: UnitTable,
    phase: GridPhase,
    theta_cg_ref: Sequence[float],
) -> SimState:
    """Advance the fleet by one step of fleet.dt under the given grid phase.

    fleet and phase are per-run tables (see Runs); every voltage solve
    stops at fleet.tol within fleet.max_iter iterations. The new record is
    record k = state.k + 1 of the run, at k * dt. Order per step: resolve
    limiter flags and solve the PCC voltage with the current injection
    angles, evaluate each live unit's q-axis generation voltage in its own
    PLL frame, update the PLLs, then latch trips (holdoff expiry, once a
    unit has been limited for fleet.holdoff steps, or angle divergence past
    DIVERGENCE_BOUND_RAD from theta_cg_ref). Tripped units are frozen and
    inject nothing from the following step. The first voltage solve is
    seeded with the previous record's PCC voltage and each limiter re-solve
    with the last solution.

    Trig per step, n units: one cos and one sin of each injection angle
    serve every voltage solve and, when fleet.aligned (each PLL frame is its
    injection angle), the q projection too; otherwise the projection takes
    one cos and one sin of each PLL angle. One sin of each injection angle
    less the PCC voltage angle gives the quadrature currents: 3n calls when
    aligned, 5n otherwise. Each rated current s / |v| is divided once per
    voltage solve. The aggregate sums the fleet in one pass while no unit
    is limited or tripped, and the limiter and trip flags are built unit by
    unit only while some unit is limited or past the divergence bound.
    """
    n = len(fleet)
    dt = fleet.dt
    rec = state.record
    k = state.k + 1
    grid = phase.grid
    i_max = fleet.i_max

    tripped = rec.tripped
    any_tripped = True in tripped
    # A tripped unit's rated current reads 0, so it never limits and
    # injects nothing.
    s_rated = fleet.s_rated
    if any_tripped:
        s_rated = tuple([0.0 if t else s for t, s in zip(tripped, s_rated)])
    theta_cg_old = rec.theta_cg
    cos_cg = list(map(math.cos, theta_cg_old))
    sin_cg = list(map(math.sin, theta_cg_old))
    e = list(map(complex, cos_cg, sin_cg))

    if grid.v_th == 0.0:
        # Collapsed source: every live unit saturates at once.
        limited = tuple([not t for t in tripped])
    elif any_tripped:
        limited = tuple([lim and not t for lim, t in zip(rec.limited, tripped)])
    else:
        limited = rec.limited
    agg = _aggregate(phase, e, tripped, limited)
    sol = solve_vpcc(
        grid, agg, fleet.tol, fleet.max_iter,
        cmath.rect(rec.v_pcc_mag, rec.v_pcc_angle),
    )
    # Up to n + 1 limiter re-solves; the last solution's flags are not checked.
    for resolves in range(n + 2):
        v_mag = abs(sol.v_pcc)
        if v_mag == 0.0:
            raise ZeroVoltage("PCC voltage collapsed to zero during a step")
        i_rated = tuple([s / v_mag for s in s_rated])
        want = tuple(map(gt, i_rated, i_max))
        if want == limited or resolves > n:
            break
        limited = want
        agg = _aggregate(phase, e, tripped, limited)
        sol = solve_vpcc(grid, agg, fleet.tol, fleet.max_iter, sol.v_pcc)

    v = sol.v_pcc
    any_limited = True in limited
    if any_limited:
        i_mag = tuple([m if lim else i for lim, i, m in zip(limited, i_rated, i_max)])
    else:
        i_mag = i_rated
    if fleet.aligned:
        cos_th, sin_th = cos_cg, sin_cg
    else:
        cos_th = list(map(math.cos, state.theta))
        sin_th = list(map(math.sin, state.theta))
    _, v_gq = q_components(grid, v, agg, cos_th, sin_th, fleet.series_q, i_mag)

    # One pass over the units: the PI update of each PLL with its divergence
    # check, and the quadrature current, which follows the injection angle
    # that flowed during the step. A tripped unit's PLL entries are then put
    # back; its trip needs no check, so its flag may raise diverged in vain.
    v_angle = cmath.phase(v)
    theta, integral, i_q = [], [], []
    diverged = False
    for th, ig, q, a, b, pf, ref, th_cg, i in zip(
        state.theta, state.integral, v_gq, fleet.kp, fleet.ki, fleet.pf_angle,
        theta_cg_ref, theta_cg_old, i_mag,
    ):
        ig += q * dt
        th += (a * q + b * ig) * dt
        integral.append(ig)
        theta.append(th)
        if abs(th + pf - ref) > DIVERGENCE_BOUND_RAD:
            diverged = True
        i_q.append(i * math.sin(th_cg - v_angle))
    if any_tripped:
        v_gq = list(v_gq)
        for p, t in enumerate(tripped):
            if t:
                v_gq[p] = 0.0
                integral[p] = state.integral[p]
                theta[p] = state.theta[p]
        v_gq = tuple(v_gq)
    theta = tuple(theta)
    theta_cg = theta if fleet.aligned else tuple(map(add, theta, fleet.pf_angle))

    if diverged or any_limited:
        limited_since = tuple([
            (since if old else k) if lim else None
            for lim, old, since in zip(limited, rec.limited, state.limited_since)
        ])
        tripped = tuple([
            t or (lim and k - since >= hold) or abs(th - ref) > DIVERGENCE_BOUND_RAD
            for t, lim, since, hold, th, ref in zip(
                tripped, limited, limited_since, fleet.holdoff, theta_cg, theta_cg_ref
            )
        ])
    else:
        limited_since = (None,) * n

    record = TrajectoryRecord(
        v_mag, v_angle, theta_cg, i_mag, tuple(i_q), v_gq, limited, tripped,
    )
    return SimState(record, k, theta, tuple(integral), limited_since)


class RunStream:
    """One run of a Runs as a stream of its records (see Runs.stream).

    Iterating it steps the run and yields records 0 to the last in order,
    once; the stream keeps none of them, and makes no step past the record
    its reader stopped at. The first iter() hands the records to its
    reader, and a later one yields none. So the stream holds no reference
    to the iterator, which holds one to the stream, and a reader that stops
    early frees the run's last state as it drops the iterator, not at the
    next cyclic garbage collection. scenario is the Runs' scenario with the
    run's clearing time, and fleet the Runs' fleet. solver_failure_t is
    None until the stream is exhausted; then it is the time of the run's
    failure record, if a step failed (see Runs.stream).
    """

    __slots__ = ("scenario", "fleet", "solver_failure_t", "_records")

    def __init__(self, scenario: FaultScenario, fleet: tuple[InverterConfig, ...]) -> None:
        self.scenario = scenario
        self.fleet = fleet
        self.solver_failure_t: float | None = None
        self._records: Iterator[TrajectoryRecord] = iter(())

    def __iter__(self) -> Iterator[TrajectoryRecord]:
        records, self._records = self._records, iter(())
        return records


class Runs:
    """The runs of one fleet on one grid through one fault, one per clearing
    time, each branching from one uncleared fault-on run.

    fleet, grid, scenario and opts are as given (opts None: SolverOptions());
    scenario's t_clear is not used, as stream and run set the clearing
    time. units is the fleet's table of constants and of the run's solve
    settings, for the equilibrium and every step: its tol is opts.tol_rel
    times max(|v_th|, 1 V) of the pre-fault source, the one place the
    tolerance is resolved. prefault and fault are the grid phases before
    and during the fault, and equilibrium the locked pre-fault state, whose
    injection angles are the reference of the divergence trip.

    Step k is under the fault while k_fault <= k < k_clear, the scenario's
    event steps (see FaultScenario), so every run agrees with the fault-on
    run on each step before it clears. Before the fault the fleet rests at
    its equilibrium: no unit is limited (find_equilibrium raises
    otherwise), none can trip, and v_gq = 0 leaves each PLL's integral and
    angle as they are. So records 0 to k_fault - 1 are one object, the
    equilibrium record, and no step, voltage solve or q projection is made
    before the fault.
    The fault-on run is kept as its states from step k_fault - 1 (step 0
    if the fault is at step 0), beginning with the equilibrium there, and
    grows only as runs are read. A cleared run reads its kept states up to
    the step before its clearing step, stepping and keeping each one that
    is not kept yet, and steps its own states from there, keeping none. So
    each fault-on step is made once, and only when a run reads past it: a
    reader that stops at a record makes no later step. An uncleared run
    reads the kept states and steps on from the last, keeping none of its
    own. A failed step is not kept, so a later run repeats it.

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
        self.fleet = fleet = tuple(fleet)
        self.grid = grid
        self.scenario = scenario
        self.opts = opts = opts or SolverOptions()
        tol = opts.tol_rel * max(abs(grid.prefault.v_th), 1.0)
        self.units = units = UnitTable(fleet, scenario.dt, tol, opts.max_iter)
        zeq_pre = equivalent_impedance(fleet, grid.prefault, grid.z_load)
        fault_ten = faulted_grid(grid, scenario.fault_depth)
        zeq_fault = equivalent_impedance(fleet, fault_ten, grid.z_load)
        self.prefault = GridPhase(units, grid.prefault, zeq_pre)
        self.fault = GridPhase(units, fault_ten, zeq_fault)
        self.equilibrium = find_equilibrium(units, self.prefault)
        # The fault-on run's state after each step from _first_kept on,
        # beginning with the equilibrium there; its records before are the
        # equilibrium's.
        self._first_kept = first = max(scenario.k_fault - 1, 0)
        eq = self.equilibrium
        self._states = [SimState(eq.record, first, eq.theta, eq.integral, eq.limited_since)]

    def stream(self, t_clear: float | None) -> RunStream:
        """The run that clears the fault at t_clear (None: never), as a
        stream of its records, stepped as they are read: records 0 to
        k_fault - 1 are the shared equilibrium record, then come the shared
        fault-on records up to the step before clearing, then the record of
        each step to the scenario's end. A reader may stop at any record;
        nothing past it is stepped.

        A solver failure ends the run as instability onset: the failed
        step's record, the stream's last, marks every unit tripped and
        injecting nothing, and its index times dt is the stream's
        solver_failure_t.
        """
        run = RunStream(replace(self.scenario, t_clear=t_clear), self.fleet)
        run._records = self._records(run)
        return run

    def run(self, t_clear: float | None) -> Trajectory:
        """The stream of t_clear's run (see stream) with every record kept."""
        run = self.stream(t_clear)
        records = tuple(run)
        return Trajectory(records, run.scenario, self.fleet, run.solver_failure_t)

    def _records(self, run: RunStream) -> Iterator[TrajectoryRecord]:
        k_clear = run.scenario.k_clear
        k_end = self.scenario.k_end
        states, first = self._states, self._first_kept
        theta_cg_ref = self.equilibrium.record.theta_cg
        yield from repeat(self.equilibrium.record, first)
        state = states[0]
        yield state.record
        try:
            while state.k < k_end:
                k = state.k + 1
                if k_clear is not None and k >= k_clear:
                    state = step(state, self.units, self.prefault, theta_cg_ref)
                elif k - first < len(states):
                    state = states[k - first]
                else:
                    state = step(state, self.units, self.fault, theta_cg_ref)
                    if k_clear is not None:
                        states.append(state)
                yield state.record
        except (NonConvergence, ZeroVoltage):
            run.solver_failure_t = (state.k + 1) * run.scenario.dt
            n = len(self.fleet)
            yield replace(
                state.record, i_mag=(0.0,) * n, i_q=(0.0,) * n,
                v_gq=(0.0,) * n, limited=(False,) * n, tripped=(True,) * n,
            )


def simulate(
    fleet: Sequence[InverterConfig],
    grid: GridModel,
    scenario: FaultScenario,
    opts: SolverOptions | None = None,
) -> Trajectory:
    """Run scenario and record every step index from 0 to its last.

    The one run of a new Runs that clears at scenario.t_clear, with every
    record kept: the records before the fault are the equilibrium's, and
    stepping begins at the fault (see Runs). A solver failure mid-run ends
    the run there, with every remaining unit marked tripped (see
    Runs.stream).
    """
    return Runs(fleet, grid, scenario, opts).run(scenario.t_clear)
