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
from operator import add, gt, mul, sub
from typing import Iterator, Sequence

from gflswing.network import GridModel, equivalent_impedance
from gflswing.pcc import NonConvergence, ZeroVoltage, q_components, solve_vpcc

__all__ = [
    "InverterConfig",
    "FaultScenario",
    "TrajectoryRecord",
    "SolverOptions",
    "InitializationFailure",
    "UnitTable",
    "Runs",
    "RunStream",
    "whole_steps",
    "find_equilibrium",
    "step",
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
    """One sample: PCC phasor plus per-inverter tuples in fleet order, and
    what each unit carries to the next step.

    A record carries no time: record k of a trajectory is at
    k * scenario.dt.

    v_gq is the q-axis generation voltage seen by each unit's own PLL (0.0
    once tripped). i_mag equals i_max exactly while a unit is limited and 0
    after it trips. theta is each unit's PLL angle (constant at lock) and
    theta_cg its injection angle, theta plus its pf_angle, or theta itself
    when the fleet is aligned (see UnitTable). integral is each PLL's PI
    integral, and limited_steps the steps since each unit's limiting began:
    0 on its first limited record, and while it is unlimited. excursion is
    the largest |theta_cg - theta_cg_ref| over the units, the deviation of
    each injection angle from the run's equilibrium (see step): 0.0 in the
    equilibrium record, and a NaN angle counts for nothing.

    Read-only by contract, as forked runs share earlier records; not
    frozen, since a frozen dataclass sets each field through
    object.__setattr__, a cost every step would pay.
    """

    v_pcc_mag: float
    v_pcc_angle: float
    theta_cg: tuple[float, ...]
    i_mag: tuple[float, ...]
    v_gq: tuple[float, ...]
    limited: tuple[bool, ...]
    tripped: tuple[bool, ...]
    theta: tuple[float, ...]
    integral: tuple[float, ...]
    limited_steps: tuple[int, ...]
    excursion: float


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
    unit's series impedance in its own PLL frame. zs and zi are the products
    zeq * s_rated and zeq * i_max that the aggregate (C, D) sums, with zeq
    each unit's equivalent impedance on grid (see equivalent_impedance):
    one table for every step of the run, as the fault scales only the
    source (see Runs). aligned is True when every pf_angle is 0:
    each unit injects at its PLL angle, and a record's injection angles
    are its PLL angles, one tuple. Every voltage solve of the run stops at
    tol, the residual in volts that Runs resolves, within max_iter
    iterations.

    UnitTable is a plain slotted class, not a dataclass: a dataclass takes
    about 1 ms to define, which every import would pay.
    """

    __slots__ = (
        "names", "dt", "tol", "max_iter", "s_rated", "i_max", "kp", "ki", "pf_angle",
        "holdoff", "series_q", "zs", "zi", "aligned",
    )

    def __init__(
        self, fleet: Sequence[InverterConfig], grid: GridModel, dt: float, tol: float, max_iter: int
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
        zeq = equivalent_impedance(fleet, grid)
        self.zs = tuple(map(mul, zeq, self.s_rated))
        self.zi = tuple(map(mul, zeq, self.i_max))
        self.aligned = not any(self.pf_angle)

    def __len__(self) -> int:
        return len(self.s_rated)


def _aggregate(
    units: UnitTable,
    e: Sequence[complex],
    tripped: Sequence[bool],
    limited: Sequence[bool],
) -> tuple[complex, complex]:
    """(C, D) of the fleet at injection phasors e: limited units enter D at
    i_max, other live units C at s_rated, tripped units neither."""
    if True not in limited and True not in tripped:
        return reduce(add, map(mul, units.zs, e), 0j), 0j
    c = d = 0j
    for zs, zi, e_p, trip, lim in zip(units.zs, units.zi, e, tripped, limited):
        if trip:
            continue
        if lim:
            d += zi * e_p
        else:
            c += zs * e_p
    return c, d


def find_equilibrium(units: UnitTable, v_th: complex) -> TrajectoryRecord:
    """Pre-fault operating point with every PLL locked (v_gq = 0).

    units is the run's table and v_th its pre-fault source voltage (see
    Runs); units names the units in errors. Alternates the PCC voltage
    solve, started at v_th, with a re-lock of each unit's injection angle
    until both are self-consistent. At lock, v_gq = 0 in frame theta gives

        |v_pcc| sin(theta - angle(v_pcc)) = Im(z_series i e^{j pf_angle}).

    Fails when a unit would exceed its current ceiling at rest or no lock
    angle exists.
    """
    n = len(units)
    flags_off = (False,) * n

    theta = [cmath.phase(v_th)] * n

    v = v_th
    for _ in range(500):
        theta_cg = [th + pf for th, pf in zip(theta, units.pf_angle)]
        e = [complex(math.cos(th), math.sin(th)) for th in theta_cg]
        agg = _aggregate(units, e, flags_off, flags_off)
        try:
            sol = solve_vpcc(v_th, agg, units.tol, units.max_iter)
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
    zeros = (0.0,) * n
    return TrajectoryRecord(
        v_mag, v_angle, theta_cg, i_mag, zeros, flags_off, flags_off, theta, zeros, (0,) * n,
        0.0,
    )


def step(
    rec: TrajectoryRecord,
    fleet: UnitTable,
    v_th: complex,
    theta_cg_ref: Sequence[float],
) -> TrajectoryRecord:
    """The record after rec: the fleet advanced by one step of fleet.dt
    behind the source voltage v_th.

    fleet is the run's table and v_th the source voltage of the step's phase
    (see Runs); every voltage solve stops at fleet.tol within fleet.max_iter
    iterations. rec carries all a step reads besides them, so a step needs
    no step index. Order per step: resolve limiter flags and solve the PCC
    voltage with the current injection angles, evaluate each live unit's
    q-axis generation voltage in its own PLL frame, update the PLLs, then
    latch trips (holdoff expiry, once a unit's limited_steps reach
    fleet.holdoff, or angle divergence past DIVERGENCE_BOUND_RAD from
    theta_cg_ref). Tripped units are frozen and inject nothing from the
    following step. The record's excursion is the largest deviation from
    theta_cg_ref that the PLL update takes, or, with a unit tripped, that
    of the record's own angles, as a tripped unit's update is in vain. The
    first voltage solve is seeded with the previous record's PCC voltage
    and each limiter re-solve with the last solution.

    Trig per step, n units: one cos and one sin of each injection angle
    serve every voltage solve and, when fleet.aligned (each PLL frame is its
    injection angle), the q projection too; otherwise the projection takes
    one cos and one sin of each PLL angle: 2n calls when aligned, 4n
    otherwise. Each rated current s / |v| is divided once per voltage
    solve. The aggregate sums the fleet in one pass while no unit is
    limited or tripped, and the limiter and trip flags are built unit by
    unit only while some unit is limited or the excursion is past the
    divergence bound. Under a collapsed source (v_th 0) every live unit is
    limited and stays so. That is a modelling choice, not a limit of the
    equation, which has a root behind 0 V too (see pcc.NonConvergence).
    """
    n = len(fleet)
    dt = fleet.dt
    i_max = fleet.i_max

    tripped = rec.tripped
    any_tripped = True in tripped
    # A tripped unit's rated current reads 0, so it never limits and
    # injects nothing.
    s_rated = fleet.s_rated
    if any_tripped:
        s_rated = tuple([0.0 if t else s for t, s in zip(tripped, s_rated)])
    cos_cg = list(map(math.cos, rec.theta_cg))
    sin_cg = list(map(math.sin, rec.theta_cg))
    e = list(map(complex, cos_cg, sin_cg))

    if v_th == 0.0:
        # Collapsed source: every live unit saturates at once.
        limited = tuple([not t for t in tripped])
    elif any_tripped:
        limited = tuple([lim and not t for lim, t in zip(rec.limited, tripped)])
    else:
        limited = rec.limited
    agg = _aggregate(fleet, e, tripped, limited)
    sol = solve_vpcc(
        v_th, agg, fleet.tol, fleet.max_iter,
        cmath.rect(rec.v_pcc_mag, rec.v_pcc_angle),
    )
    # Up to n + 1 limiter re-solves; the last solution's flags are not checked.
    for resolves in range(n + 2):
        v_mag = abs(sol.v_pcc)
        if v_mag == 0.0:
            raise ZeroVoltage("PCC voltage collapsed to zero during a step")
        i_rated = tuple([s / v_mag for s in s_rated])
        want = tuple(map(gt, i_rated, i_max))
        if want == limited or resolves > n or v_th == 0.0:
            break
        limited = want
        agg = _aggregate(fleet, e, tripped, limited)
        sol = solve_vpcc(v_th, agg, fleet.tol, fleet.max_iter, sol.v_pcc)

    v = sol.v_pcc
    any_limited = True in limited
    if any_limited:
        i_mag = tuple([m if lim else i for lim, i, m in zip(limited, i_rated, i_max)])
    else:
        i_mag = i_rated
    if fleet.aligned:
        cos_th, sin_th = cos_cg, sin_cg
    else:
        cos_th = list(map(math.cos, rec.theta))
        sin_th = list(map(math.sin, rec.theta))
    _, v_gq = q_components(v_th, v, agg, cos_th, sin_th, fleet.series_q, i_mag)

    # One pass over the units: the PI update of each PLL with its deviation
    # from theta_cg_ref. A tripped unit's PLL entries are then put back, and
    # the excursion is taken again over the angles kept.
    theta, integral = [], []
    excursion = 0.0
    for th, ig, q, a, b, pf, ref in zip(
        rec.theta, rec.integral, v_gq, fleet.kp, fleet.ki, fleet.pf_angle, theta_cg_ref,
    ):
        ig += q * dt
        th += (a * q + b * ig) * dt
        integral.append(ig)
        theta.append(th)
        if (dev := abs(th + pf - ref)) > excursion:
            excursion = dev
    if any_tripped:
        v_gq = list(v_gq)
        for p, t in enumerate(tripped):
            if t:
                v_gq[p] = 0.0
                integral[p] = rec.integral[p]
                theta[p] = rec.theta[p]
        v_gq = tuple(v_gq)
    theta = tuple(theta)
    theta_cg = theta if fleet.aligned else tuple(map(add, theta, fleet.pf_angle))
    if any_tripped:
        # max from 0.0 skips a NaN deviation, as the loop above does.
        excursion = max(0.0, *map(abs, map(sub, theta_cg, theta_cg_ref)))

    if excursion > DIVERGENCE_BOUND_RAD or any_limited:
        limited_steps = tuple([
            steps + 1 if lim and old else 0
            for lim, old, steps in zip(limited, rec.limited, rec.limited_steps)
        ])
        tripped = tuple([
            t or (lim and steps >= hold) or abs(th - ref) > DIVERGENCE_BOUND_RAD
            for t, lim, steps, hold, th, ref in zip(
                tripped, limited, limited_steps, fleet.holdoff, theta_cg, theta_cg_ref
            )
        ])
    else:
        # All 0: rec's own while it limited no unit, so records share one.
        limited_steps = (0,) * n if True in rec.limited else rec.limited_steps

    return TrajectoryRecord(
        v_mag, cmath.phase(v), theta_cg, i_mag, v_gq, limited, tripped,
        theta, tuple(integral), limited_steps, excursion,
    )


class RunStream:
    """One run of a Runs as a stream of its records (see Runs.stream).

    Iterating it steps the run and yields records 0 to the last in order,
    once; the stream keeps none of them, and makes no step past the record
    its reader stopped at. The first iter() hands the records to its
    reader, and a later one yields none. So the stream holds no reference
    to the iterator, which holds one to the stream, and a reader that stops
    early frees the run's last record as it drops the iterator, not at the
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

    fleet and scenario are as given; scenario's t_clear is not used, as
    stream sets the clearing time. units is the fleet's table of constants
    and of the run's solve settings (opts None: SolverOptions()), for the
    equilibrium and every step: its tol is opts.tol_rel times
    max(|grid.v_th|, 1 V), the one place the tolerance is resolved.
    prefault is grid's source voltage v_th and fault the fault-on one,
    (1 - fault_depth) v_th behind the same z_th, so one table serves
    every step. equilibrium is the locked pre-fault record, whose
    injection angles are the reference of the divergence trip.

    Step k is under the fault while k_fault <= k < k_clear, the scenario's
    event steps (see FaultScenario), so every run agrees with the fault-on
    run on each step before it clears. Before the fault the fleet rests at
    its equilibrium: no unit is limited (find_equilibrium raises
    otherwise), none can trip, and v_gq = 0 leaves each PLL's integral and
    angle as they are. So records 0 to k_fault - 1 are one object, the
    equilibrium record, and no step, voltage solve or q projection is made
    before the fault.
    The fault-on run is kept as its records from step k_fault - 1 (step 0
    if the fault is at step 0), beginning with the equilibrium there, and
    grows only as runs are read. A cleared run reads its kept records up
    to the step before its clearing step, stepping and keeping each one
    that is not kept yet, and steps its own records from there, keeping
    none. So each fault-on step is made once, and only when a run reads
    past it: a reader that stops at a record makes no later step. An
    uncleared run reads the kept records and steps on from the last,
    keeping none of its own. A failed step is not kept, so a later run
    repeats it. A record carries no step index: the run counts k as it
    reads and steps (see step).

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
        self.scenario = scenario
        opts = opts or SolverOptions()
        tol = opts.tol_rel * max(abs(grid.v_th), 1.0)
        self.units = units = UnitTable(fleet, grid, scenario.dt, tol, opts.max_iter)
        self.prefault = grid.v_th
        self.fault = (1.0 - scenario.fault_depth) * grid.v_th
        self.equilibrium = find_equilibrium(units, self.prefault)
        # The fault-on run's record of each step from _first_kept on,
        # beginning with the equilibrium there; its records before are the
        # equilibrium too.
        self._first_kept = max(scenario.k_fault - 1, 0)
        self._states = [self.equilibrium]

    def stream(self, t_clear: float | None) -> RunStream:
        """The run that clears the fault at t_clear (None: never), as a
        stream of its records, stepped as they are read: records 0 to
        k_fault - 1 are the shared equilibrium record, then come the shared
        fault-on records up to the step before clearing, then the record of
        each step to the scenario's end. A reader may stop at any record;
        nothing past it is stepped.

        A solver failure ends the run as instability onset: the failed
        step's record, the stream's last, marks every unit tripped and
        injecting nothing, with the angles and excursion of the record
        before, and its index times dt is the stream's solver_failure_t.
        """
        run = RunStream(replace(self.scenario, t_clear=t_clear), self.fleet)
        run._records = self._records(run)
        return run

    def _records(self, run: RunStream) -> Iterator[TrajectoryRecord]:
        k_clear = run.scenario.k_clear
        k_end = self.scenario.k_end
        states, first = self._states, self._first_kept
        rec = self.equilibrium
        theta_cg_ref = rec.theta_cg
        yield from repeat(rec, first + 1)
        try:
            for k in range(first + 1, k_end + 1):
                if k_clear is not None and k >= k_clear:
                    rec = step(rec, self.units, self.prefault, theta_cg_ref)
                elif k - first < len(states):
                    rec = states[k - first]
                else:
                    rec = step(rec, self.units, self.fault, theta_cg_ref)
                    if k_clear is not None:
                        states.append(rec)
                yield rec
        except (NonConvergence, ZeroVoltage):
            run.solver_failure_t = k * run.scenario.dt
            n = len(self.fleet)
            yield replace(
                rec, i_mag=(0.0,) * n, v_gq=(0.0,) * n, limited=(False,) * n,
                tripped=(True,) * n, limited_steps=(0,) * n,
            )
