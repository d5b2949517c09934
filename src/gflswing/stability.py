"""Trajectory classification, loss-of-synchronism ordering and CCT search.

A run is stable when nothing tripped and every injection angle sits within
a settle tolerance of its pre-fault value throughout the final observation
window. The critical clearing time is bracketed by bisection on the
clearing interval, assuming (and auditing) that stability is monotone in
clearing time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from statistics import fmean
from typing import Sequence

from gflswing.dynamics import (
    FaultScenario,
    InverterConfig,
    SolverOptions,
    Trajectory,
    advance,
    prepare_run,
    simulate,  # noqa: F401  perfbench/tracer.py wraps stability.simulate
)
from gflswing.network import GridModel

__all__ = [
    "StabilityVerdict",
    "CctResult",
    "FleetComparison",
    "BracketInvalid",
    "EmptyOrder",
    "classify",
    "sync_loss_order",
    "find_cct",
    "compare_uniform",
    "uniform_fleet_of",
]

DEFAULT_SETTLE_TOL_RAD = 0.02
DEFAULT_SETTLE_WINDOW_S = 1e-3
DEFAULT_AUDIT_SAMPLES = 5


class BracketInvalid(RuntimeError):
    """The CCT bracket endpoints do not straddle the stability boundary."""

    def __init__(self, lo_stable: bool, hi_stable: bool) -> None:
        super().__init__(
            "invalid CCT bracket: clearing at t_min is "
            f"{'stable' if lo_stable else 'unstable'} and at t_max is "
            f"{'stable' if hi_stable else 'unstable'}"
        )
        self.lo_stable = lo_stable
        self.hi_stable = hi_stable


class EmptyOrder(RuntimeError):
    """No inverter lost synchronism in the trajectory."""


@dataclass(frozen=True, slots=True)
class StabilityVerdict:
    stable: bool
    first_unstable: str | None
    t_unstable: float | None
    t_settled: float | None
    max_angle_excursion: float


@dataclass(frozen=True, slots=True)
class CctResult:
    """Bisection outcome with its evaluation log (one entry per decided
    clearing step) and monotonicity audit."""

    cct: float
    bracket_lo: float
    bracket_hi: float
    loss_order: tuple[str, ...]
    evaluation_log: tuple[tuple[float, bool], ...]
    audit: tuple[tuple[float, bool], ...]
    monotonic: bool


@dataclass(frozen=True, slots=True)
class FleetComparison:
    cct_nonuniform: float
    cct_uniform: float
    delta: float
    uniform_fleet: tuple[InverterConfig, ...]
    result_nonuniform: CctResult
    result_uniform: CctResult


def _first_trips(traj: Trajectory) -> list[tuple[int, float]]:
    """(unit index, first trip time) of every unit that tripped, earliest
    first; ties go to the larger apparent power rating."""
    trip_time: dict[int, float] = {}
    for rec in traj.records:
        for p, tripped in enumerate(rec.tripped):
            if tripped and p not in trip_time:
                trip_time[p] = rec.t
    return sorted(trip_time.items(), key=lambda pt: (pt[1], -traj.fleet[pt[0]].s_rated))


def classify(
    traj: Trajectory,
    settle_tol: float = DEFAULT_SETTLE_TOL_RAD,
    settle_window: float = DEFAULT_SETTLE_WINDOW_S,
) -> StabilityVerdict:
    """Stable iff nothing tripped and all angles hold near pre-fault values
    for the final settle_window of the run.

    Trajectories with a clearing time must extend past
    t_clear + settle_window unless a trip already decided the verdict.
    """
    if settle_tol <= 0.0 or settle_window <= 0.0:
        raise ValueError("settle_tol and settle_window must be positive")
    records = traj.records
    theta0 = records[0].theta_cg
    n = len(theta0)
    names = [cfg.name for cfg in traj.fleet]
    s_rated = [cfg.s_rated for cfg in traj.fleet]

    dt = traj.scenario.dt
    max_exc = 0.0
    # Last instant each inverter violated the tolerance, if any, and the
    # start of its final run of violations.
    last_violation: list[float | None] = [None] * n
    first_of_final_streak: list[float | None] = [None] * n
    for rec in records:
        for p in range(n):
            dev = abs(rec.theta_cg[p] - theta0[p])
            if dev > max_exc:
                max_exc = dev
            if dev > settle_tol:
                if last_violation[p] is None or rec.t > last_violation[p] + 1.5 * dt:
                    first_of_final_streak[p] = rec.t
                last_violation[p] = rec.t

    # Trip events decide the verdict outright.
    trips = _first_trips(traj)
    if trips:
        first, t_first = trips[0]
        return StabilityVerdict(
            stable=False,
            first_unstable=names[first],
            t_unstable=t_first,
            t_settled=None,
            max_angle_excursion=max_exc,
        )

    t_last = records[-1].t
    t_clear = traj.scenario.t_clear
    if t_clear is not None and t_last < t_clear + settle_window - 1e-12:
        raise ValueError(
            f"trajectory ends at {t_last:.6g} s, before t_clear + settle_window "
            f"= {t_clear + settle_window:.6g} s; cannot classify"
        )
    if t_last < settle_window - 1e-12:
        raise ValueError("trajectory shorter than the settle window")

    window_start = t_last - settle_window
    unsettled = [
        p
        for p in range(n)
        if last_violation[p] is not None and last_violation[p] >= window_start - 1e-12
    ]
    if unsettled:
        first = min(
            unsettled,
            key=lambda p: (first_of_final_streak[p], -s_rated[p]),
        )
        return StabilityVerdict(
            stable=False,
            first_unstable=names[first],
            t_unstable=first_of_final_streak[first],
            t_settled=None,
            max_angle_excursion=max_exc,
        )

    settled_at = max(
        (lv + dt for lv in last_violation if lv is not None),
        default=0.0,
    )
    return StabilityVerdict(
        stable=True,
        first_unstable=None,
        t_unstable=None,
        t_settled=settled_at,
        max_angle_excursion=max_exc,
    )


def sync_loss_order(traj: Trajectory) -> list[tuple[str, float]]:
    """Inverters ordered by divergence (trip) time, earliest first.

    Ties are broken by the larger apparent power rating first. Raises
    EmptyOrder for a trajectory without any trip event.
    """
    trips = _first_trips(traj)
    if not trips:
        raise EmptyOrder("no inverter lost synchronism in this trajectory")
    return [(traj.fleet[p].name, t) for p, t in trips]


def find_cct(
    fleet: Sequence[InverterConfig],
    grid: GridModel,
    base_scenario: FaultScenario,
    t_min: float,
    t_max: float,
    resolution: float,
    settle_tol: float = DEFAULT_SETTLE_TOL_RAD,
    settle_window: float = DEFAULT_SETTLE_WINDOW_S,
    opts: SolverOptions | None = None,
    audit_samples: int = DEFAULT_AUDIT_SAMPLES,
) -> CctResult:
    """Bisect the clearing interval until the stable/unstable bracket is
    narrower than resolution.

    Requires a stable verdict at t_min and an unstable one at t_max
    (BracketInvalid otherwise). Clearing snaps to the step grid, so each
    clearing step is decided once and every interval on it reuses that
    verdict; the deterministic simulator needs no confirmation runs.

    Every run shares its steps before its clearing step with the uncleared
    fault-on run, which is stepped once, from the one equilibrium, until its
    first trip or solver failure or up to the step before the latest
    clearing step t_max can ask for. Its states are the checkpoints: the
    run for clearing step k continues from the state after step k - 1. A
    trip decides a verdict, so these runs stop at their first trip. A
    clearing step after the fault-on run's first trip continues from its
    last state, which holds that trip, so its decision takes the fault-on
    run's records, identical up to that step, without stepping (after a
    solver failure it repeats only the failed step). The loss order needs
    the whole cascade: bracket_hi's run continues from its checkpoint to
    t_end for it. audit_samples evenly spaced clearing intervals audit the
    monotonicity assumption; a non-monotone verdict sequence is reported
    through the result, not raised.
    """
    if resolution <= 0.0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    if not 0.0 < t_min < t_max:
        raise ValueError(f"need 0 < t_min < t_max, got {t_min}, {t_max}")
    needed = base_scenario.t_fault + t_max + settle_window
    if base_scenario.t_end < needed - 1e-12:
        raise ValueError(
            f"t_end = {base_scenario.t_end:.6g} s does not cover "
            f"t_fault + t_max + settle_window = {needed:.6g} s"
        )

    def scenario_at(interval: float) -> FaultScenario:
        return replace(base_scenario, t_clear=base_scenario.t_fault + interval)

    setup = prepare_run(fleet, grid, base_scenario.fault_depth, opts)
    dt = base_scenario.dt
    k_last = round(scenario_at(t_max).t_clear / dt)
    fault_on = replace(base_scenario, t_clear=None)
    fault_on_records = [setup.equilibrium.record]
    checkpoints = [setup.equilibrium]
    advance(
        setup, fault_on, fault_on_records, setup.equilibrium, k_last - 1,
        stop_at_first_trip=True, checkpoints=checkpoints,
    )

    def fork(scenario: FaultScenario, stop_at_first_trip: bool) -> Trajectory:
        # From the step before clearing, or the fault-on run's last state if
        # it ended earlier: after its first trip, a decision makes no step. A
        # clearing step of 0 never applies the fault.
        k = min(max(round(scenario.t_clear / dt), 1), len(checkpoints)) - 1
        records = fault_on_records[: k + 1]
        failure_t = advance(
            setup, scenario, records, checkpoints[k], stop_at_first_trip=stop_at_first_trip
        )
        return Trajectory(tuple(records), scenario, setup.fleet, failure_t)

    log: list[tuple[float, bool]] = []
    cache: dict[int, bool] = {}  # clearing step -> stable

    def run(interval: float) -> bool:
        scenario = scenario_at(interval)
        k_clear = round(scenario.t_clear / dt)
        if k_clear not in cache:
            traj = fork(scenario, stop_at_first_trip=True)
            stable = classify(traj, settle_tol, settle_window).stable
            log.append((interval, stable))
            cache[k_clear] = stable
        return cache[k_clear]

    lo_stable, hi_stable = run(t_min), run(t_max)
    if not lo_stable or hi_stable:
        raise BracketInvalid(lo_stable, hi_stable)

    lo, hi = t_min, t_max
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if run(mid):
            lo = mid
        else:
            hi = mid

    cascade = fork(scenario_at(hi), stop_at_first_trip=False)
    try:
        loss = tuple(name for name, _ in sync_loss_order(cascade))
    except EmptyOrder:
        loss = (classify(cascade, settle_tol, settle_window).first_unstable,)

    audit: list[tuple[float, bool]] = []
    k = max(2, audit_samples)
    for j in range(k):
        tau = t_max if j == k - 1 else t_min + (t_max - t_min) * j / (k - 1)
        audit.append((tau, run(tau)))
    transitions = sum(
        1 for a, b in zip(audit, audit[1:]) if a[1] != b[1]
    )
    monotonic = transitions <= 1

    return CctResult(
        cct=0.5 * (lo + hi),
        bracket_lo=lo,
        bracket_hi=hi,
        loss_order=loss,
        evaluation_log=tuple(log),
        audit=tuple(audit),
        monotonic=monotonic,
    )


def uniform_fleet_of(fleet: Sequence[InverterConfig]) -> tuple[InverterConfig, ...]:
    """Same-size fleet of identical units built from arithmetic means.

    Means preserve the totals of apparent power, resistance and reactance;
    gains, virtual resistance, current ceiling, power factor angle and trip
    holdoff are averaged the same way.
    """
    n = len(fleet)
    if n == 0:
        raise ValueError("fleet must be non-empty")
    mean = InverterConfig(
        name="Uni",
        s_rated=fmean(c.s_rated for c in fleet),
        z_line=complex(
            fmean(c.z_line.real for c in fleet), fmean(c.z_line.imag for c in fleet)
        ),
        r_virtual=fmean(c.r_virtual for c in fleet),
        kp=fmean(c.kp for c in fleet),
        ki=fmean(c.ki for c in fleet),
        i_max=fmean(c.i_max for c in fleet),
        pf_angle=fmean(c.pf_angle for c in fleet),
        trip_holdoff=fmean(c.trip_holdoff for c in fleet),
    )
    return tuple(replace(mean, name=f"Uni {p + 1}") for p in range(n))


def compare_uniform(
    fleet: Sequence[InverterConfig],
    grid: GridModel,
    base_scenario: FaultScenario,
    t_min: float,
    t_max: float,
    resolution: float,
    settle_tol: float = DEFAULT_SETTLE_TOL_RAD,
    settle_window: float = DEFAULT_SETTLE_WINDOW_S,
    opts: SolverOptions | None = None,
    audit_samples: int = DEFAULT_AUDIT_SAMPLES,
) -> FleetComparison:
    """CCT of the fleet against its mean-built uniform counterpart."""
    if len(fleet) < 2:
        raise ValueError("compare_uniform needs a fleet of at least two inverters")
    uniform = uniform_fleet_of(fleet)
    res_nonuni = find_cct(
        fleet, grid, base_scenario, t_min, t_max, resolution,
        settle_tol, settle_window, opts, audit_samples,
    )
    res_uni = find_cct(
        uniform, grid, base_scenario, t_min, t_max, resolution,
        settle_tol, settle_window, opts, audit_samples,
    )
    return FleetComparison(
        cct_nonuniform=res_nonuni.cct,
        cct_uniform=res_uni.cct,
        delta=res_uni.cct - res_nonuni.cct,
        uniform_fleet=uniform,
        result_nonuniform=res_nonuni,
        result_uniform=res_uni,
    )
