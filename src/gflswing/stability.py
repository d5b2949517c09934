"""Trajectory classification, loss-of-synchronism ordering and CCT search.

A run is stable when nothing tripped and every injection angle sits within
a settle tolerance of its pre-fault value throughout the final observation
window. The critical clearing time is bracketed by bisection on the
clearing interval in whole steps, assuming (and auditing) that stability is
monotone in clearing time.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from statistics import fmean
from typing import Sequence

from gflswing.dynamics import (
    FaultScenario,
    InverterConfig,
    Runs,
    Trajectory,
    simulate,  # noqa: F401  perfbench/tracer.py wraps stability.simulate
    whole_steps,
)

__all__ = [
    "StabilityVerdict",
    "CctSettings",
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
class CctSettings:
    """A CCT search's clearing-interval bracket, the width to stop at and
    the number of audit samples."""

    t_min: float
    t_max: float
    resolution: float
    audit_samples: int = DEFAULT_AUDIT_SAMPLES

    def steps(self, scenario: FaultScenario, settle_window: float) -> tuple[int, int]:
        """The bracket in whole steps of scenario.dt, (k_min, k_max): the
        one bracket rule, which load_config and find_cct apply.

        No bracket is narrower than one step, so resolution must be at least
        dt. t_min and t_max, with 0 < t_min < t_max <= t_end, are taken to
        the nearest steps (see dynamics.whole_steps), which need
        0 < k_min < k_max, and t_end must cover t_fault + t_max +
        settle_window. A bracket that breaks the rule is a ValueError.
        """
        dt = scenario.dt
        if not self.resolution >= dt:
            raise ValueError(
                f"resolution must be at least dt = {dt:.6g} s, got {self.resolution}: "
                "a bracket cannot be narrower than one step"
            )
        if not 0.0 < self.t_min < self.t_max <= scenario.t_end:
            raise ValueError(
                f"need 0 < t_min < t_max <= t_end, got {self.t_min}, {self.t_max}"
            )
        k_min, k_max = whole_steps(self.t_min, dt), whole_steps(self.t_max, dt)
        if not 0 < k_min < k_max:
            raise ValueError(f"need 0 < k_min < k_max, got steps {k_min} and {k_max} of dt")
        k_needed = scenario.k_fault + k_max + whole_steps(settle_window, dt)
        if scenario.k_end < k_needed:
            raise ValueError(
                f"t_end = {scenario.t_end:.6g} s does not cover "
                f"t_fault + t_max + settle_window = {k_needed * dt:.6g} s"
            )
        return k_min, k_max


@dataclass(frozen=True, slots=True)
class CctResult:
    """Bisection outcome with its evaluation log and monotonicity audit.

    Every interval is a whole number of steps times dt. evaluation_log
    holds one (interval, stable) entry per decided clearing step, in the
    order decided; bracket_lo and bracket_hi are two of its intervals, the
    last decided stable and unstable, and cct is their midpoint.
    """

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
    uniform: Runs
    result_nonuniform: CctResult
    result_uniform: CctResult


def _first_trips(traj: Trajectory) -> list[tuple[int, float]]:
    """(unit index, first trip time) of every unit that tripped, earliest
    first; ties go to the larger apparent power rating.

    A trip latches: a step only ever sets a unit's tripped flag, and a
    solver failure's record trips every unit. So the last record names
    every unit that tripped, and each one's flag is false up to its first
    trip and true after it, which a bisection finds; record k is at k * dt.
    """
    records = traj.records
    dt = traj.scenario.dt
    trip_time = [
        (p, bisect_left(records, True, key=lambda rec: rec.tripped[p]) * dt)
        for p, tripped in enumerate(records[-1].tripped)
        if tripped
    ]
    return sorted(trip_time, key=lambda pt: (pt[1], -traj.fleet[pt[0]].s_rated))


def classify(
    traj: Trajectory,
    settle_tol: float = DEFAULT_SETTLE_TOL_RAD,
    settle_window: float = DEFAULT_SETTLE_WINDOW_S,
) -> StabilityVerdict:
    """Stable iff nothing tripped and all angles hold near pre-fault values
    for the final settle_window of the run.

    Works on record indices, record k being step k: settle_window is a
    whole number of steps (see dynamics.whole_steps), and a run of
    violations is a run of consecutive records. Trajectories with a clearing
    time must extend a settle window past the clearing step unless a trip
    already decided the verdict.
    """
    if not (settle_tol > 0.0 and settle_window > 0.0):
        raise ValueError("settle_tol and settle_window must be positive")
    records = traj.records
    theta0 = records[0].theta_cg
    n = len(theta0)
    names = [cfg.name for cfg in traj.fleet]
    s_rated = [cfg.s_rated for cfg in traj.fleet]

    dt = traj.scenario.dt
    max_exc = 0.0
    # Last record in which each inverter violated the tolerance, if any, and
    # the first of its final run of violations.
    last_violation: list[int | None] = [None] * n
    first_of_final_streak: list[int | None] = [None] * n
    for k, rec in enumerate(records):
        for p in range(n):
            dev = abs(rec.theta_cg[p] - theta0[p])
            if dev > max_exc:
                max_exc = dev
            if dev > settle_tol:
                if last_violation[p] != k - 1:
                    first_of_final_streak[p] = k
                last_violation[p] = k

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

    k_last = len(records) - 1
    window = whole_steps(settle_window, dt)
    k_clear = traj.scenario.k_clear
    if k_clear is not None and k_last < k_clear + window:
        raise ValueError(
            f"trajectory ends at {k_last * dt:.6g} s, before t_clear + settle_window "
            f"= {(k_clear + window) * dt:.6g} s; cannot classify"
        )
    if k_last < window:
        raise ValueError("trajectory shorter than the settle window")

    window_start = k_last - window
    unsettled = [
        p
        for p in range(n)
        if last_violation[p] is not None and last_violation[p] >= window_start
    ]
    if unsettled:
        first = min(
            unsettled,
            key=lambda p: (first_of_final_streak[p], -s_rated[p]),
        )
        return StabilityVerdict(
            stable=False,
            first_unstable=names[first],
            t_unstable=first_of_final_streak[first] * dt,
            t_settled=None,
            max_angle_excursion=max_exc,
        )

    settled_at = max(
        ((lv + 1) * dt for lv in last_violation if lv is not None),
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
    runs: Runs,
    cct: CctSettings,
    settle_tol: float = DEFAULT_SETTLE_TOL_RAD,
    settle_window: float = DEFAULT_SETTLE_WINDOW_S,
) -> CctResult:
    """Bisect the clearing interval of runs, in whole steps, until the
    stable/unstable bracket is no wider than cct.resolution.

    Every run of the search is one of runs' (see dynamics.Runs), so the
    caller can replay any clearing time from runs afterwards. cct.steps
    gives the bracket's steps k_min and k_max (or raises ValueError).
    Requires a stable verdict at k_min and an unstable one at k_max
    (BracketInvalid otherwise). The midpoint of a bracket [lo, hi] is
    (lo + hi + 1) // 2, strictly inside it while hi - lo >= 2. Each
    clearing interval is decided once, and the deterministic simulator
    needs no confirmation runs.

    A trip decides a verdict, so each verdict run stops at its first trip.
    The loss order needs the whole cascade: bracket_hi's run is stepped to
    t_end for it. cct.audit_samples clearing intervals
    k_min + round((k_max - k_min) j / (audit_samples - 1)) audit the
    monotonicity assumption; a non-monotone verdict sequence is reported
    through the result, not raised.
    """
    k_min, k_max = cct.steps(runs.scenario, settle_window)
    dt = runs.scenario.dt
    t_fault = runs.scenario.t_fault
    # Clearing interval in steps -> stable; in insertion order, the log.
    verdicts: dict[int, bool] = {}

    def stable(k: int) -> bool:
        if k not in verdicts:
            traj = runs.run(t_fault + k * dt, stop_at_first_trip=True)
            verdicts[k] = classify(traj, settle_tol, settle_window).stable
        return verdicts[k]

    lo_stable, hi_stable = stable(k_min), stable(k_max)
    if not lo_stable or hi_stable:
        raise BracketInvalid(lo_stable, hi_stable)

    lo, hi = k_min, k_max
    while (hi - lo) * dt > cct.resolution:
        mid = (lo + hi + 1) // 2
        if stable(mid):
            lo = mid
        else:
            hi = mid

    cascade = runs.run(t_fault + hi * dt)
    try:
        loss = tuple(name for name, _ in sync_loss_order(cascade))
    except EmptyOrder:
        loss = (classify(cascade, settle_tol, settle_window).first_unstable,)

    samples = max(2, cct.audit_samples)
    audit = [
        (k * dt, stable(k))
        for k in (
            k_min + round((k_max - k_min) * j / (samples - 1)) for j in range(samples)
        )
    ]
    transitions = sum(
        1 for a, b in zip(audit, audit[1:]) if a[1] != b[1]
    )
    monotonic = transitions <= 1

    return CctResult(
        cct=(lo + hi) * dt / 2,
        bracket_lo=lo * dt,
        bracket_hi=hi * dt,
        loss_order=loss,
        evaluation_log=tuple((k * dt, v) for k, v in verdicts.items()),
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
    runs: Runs,
    cct: CctSettings,
    settle_tol: float = DEFAULT_SETTLE_TOL_RAD,
    settle_window: float = DEFAULT_SETTLE_WINDOW_S,
) -> FleetComparison:
    """CCT of runs' fleet against its mean-built uniform counterpart, whose
    Runs, the result's uniform, shares runs' grid, scenario and solver
    settings; either fleet replays from its Runs afterwards."""
    if len(runs.fleet) < 2:
        raise ValueError("compare_uniform needs a fleet of at least two inverters")
    res_nonuni = find_cct(runs, cct, settle_tol, settle_window)
    uniform = Runs(uniform_fleet_of(runs.fleet), runs.grid, runs.scenario, runs.opts)
    res_uni = find_cct(uniform, cct, settle_tol, settle_window)
    return FleetComparison(
        cct_nonuniform=res_nonuni.cct,
        cct_uniform=res_uni.cct,
        delta=res_uni.cct - res_nonuni.cct,
        uniform=uniform,
        result_nonuniform=res_nonuni,
        result_uniform=res_uni,
    )
