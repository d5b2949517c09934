"""Trajectory classification, loss-of-synchronism ordering and CCT search.

A run is stable when nothing tripped and every injection angle sits within
a settle tolerance of its pre-fault value throughout the final observation
window. The critical clearing time is bracketed by bisection on the
clearing interval in whole steps, assuming (and auditing) that stability is
monotone in clearing time.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, replace
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from gflswing.dynamics import (
    FaultScenario,
    InverterConfig,
    Runs,
    Trajectory,
    TrajectoryRecord,
    simulate,  # noqa: F401  perfbench/tracer.py wraps stability.simulate
    whole_steps,
)

__all__ = [
    "StabilityVerdict",
    "CctSettings",
    "CctResult",
    "FleetComparison",
    "BracketInvalid",
    "RunFold",
    "classify",
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

    def steps(self, scenario: FaultScenario, settle_window: float) -> tuple[int, int, int]:
        """The bracket and the width to stop at in whole steps of
        scenario.dt, (k_min, k_max, k_resolution): the one bracket rule,
        which load_config and find_cct apply.

        No bracket is narrower than one step, so resolution must be at least
        dt; it must be finite, and so must the positive settle_window.
        k_resolution is the most whole steps that resolution spans: a
        resolution that is n dt within rounding gives n, and one between
        whole steps gives the step below it, never a wider bracket. t_min
        and t_max, with 0 < t_min < t_max <= t_end, are taken to the nearest
        steps (see dynamics.whole_steps), which need 0 < k_min < k_max, and
        t_end must cover t_fault + t_max + settle_window. A bracket that
        breaks the rule is a ValueError.
        """
        dt = scenario.dt
        if not self.resolution >= dt:
            raise ValueError(
                f"resolution must be at least dt = {dt:.6g} s, got {self.resolution}: "
                "a bracket cannot be narrower than one step"
            )
        if self.resolution == math.inf:
            raise ValueError("resolution must be finite, got inf")
        if not 0.0 < settle_window < math.inf:
            raise ValueError(f"settle_window must be positive and finite, got {settle_window}")
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
        return k_min, k_max, math.floor(self.resolution / dt * (1 + 1e-9))


@dataclass(frozen=True, slots=True)
class CctResult:
    """Bisection outcome with its evaluation log and monotonicity audit.

    Every interval is a whole number of steps times dt. evaluation_log
    holds one (interval, stable) entry per decided clearing step, in
    asking order with k_min's moved first; bracket_lo and bracket_hi, two
    of its intervals, end the bisection, and cct is their midpoint.
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


class RunFold:
    """What a verdict and a loss order read of one run, taken in one pass
    over its records: each record is read as it arrives and none is kept,
    so records may be a stream (see dynamics.Runs.stream).

    records are the run's, record k being step k, at k * scenario.dt;
    fleet names and rates its units in order, and scenario.k_clear is the
    run's clearing step. Per unit the pass keeps the largest angle
    excursion from record 0, the last record in which the excursion exceeds
    settle_tol and the first of that final run of such records, and the
    first record in which the unit is tripped. A settle_tol of math.inf
    counts no excursion, for a pass that reads trips only.
    """

    __slots__ = (
        "fleet", "scenario", "k_last", "max_excursion",
        "last_violation", "streak_start", "first_trip",
    )

    def __init__(
        self,
        records: Iterable[TrajectoryRecord],
        fleet: Sequence[InverterConfig],
        scenario: FaultScenario,
        settle_tol: float,
    ) -> None:
        if not settle_tol > 0.0:
            raise ValueError(f"settle_tol must be positive, got {settle_tol}")
        self.fleet = fleet
        self.scenario = scenario
        records = iter(records)
        first = next(records, None)
        if first is None:
            raise ValueError("no records: a run has at least one, and a stream is read once")
        theta0 = first.theta_cg
        n = len(theta0)
        max_exc = 0.0
        last_violation: list[int | None] = [None] * n
        streak_start: list[int | None] = [None] * n
        first_trip: list[int | None] = [None] * n
        untripped = n
        calm = None
        for k, rec in enumerate(chain((first,), records)):
            if rec is calm:
                # The record before, again, with no unit past settle_tol (a
                # run repeats its equilibrium record up to the fault): it
                # changes nothing.
                continue
            calm = rec
            theta = rec.theta_cg
            for p in range(n):
                dev = abs(theta[p] - theta0[p])
                if dev > max_exc:
                    max_exc = dev
                if dev > settle_tol:
                    calm = None
                    if last_violation[p] != k - 1:
                        streak_start[p] = k
                    last_violation[p] = k
            if untripped and True in rec.tripped:
                for p, tripped in enumerate(rec.tripped):
                    if tripped and first_trip[p] is None:
                        first_trip[p] = k
                        untripped -= 1
        self.k_last = k
        self.max_excursion = max_exc
        self.last_violation = last_violation
        self.streak_start = streak_start
        self.first_trip = first_trip

    def loss_order(self) -> list[tuple[str, float]]:
        """(name, first trip time) of every unit that tripped, earliest
        first; ties go to the larger apparent power rating."""
        fleet, dt = self.fleet, self.scenario.dt
        order = sorted(
            ((k, -fleet[p].s_rated, p) for p, k in enumerate(self.first_trip) if k is not None)
        )
        return [(fleet[p].name, k * dt) for k, _, p in order]

    def verdict(self, settle_window: float) -> StabilityVerdict:
        """Stable iff nothing tripped and no angle left settle_tol of its
        pre-fault value in the run's final settle_window.

        settle_window is a whole number of steps (see dynamics.whole_steps),
        and a run of violations is a run of consecutive records. A run with
        a clearing time must extend a settle window past the clearing step
        unless a trip already decided the verdict.
        """
        if not 0.0 < settle_window < math.inf:
            raise ValueError(f"settle_window must be positive and finite, got {settle_window}")
        trips = self.loss_order()
        if trips:
            name, t_first = trips[0]
            return StabilityVerdict(
                stable=False,
                first_unstable=name,
                t_unstable=t_first,
                t_settled=None,
                max_angle_excursion=self.max_excursion,
            )

        dt = self.scenario.dt
        k_last = self.k_last
        window = whole_steps(settle_window, dt)
        k_clear = self.scenario.k_clear
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
            for p, lv in enumerate(self.last_violation)
            if lv is not None and lv >= window_start
        ]
        if unsettled:
            first = min(
                unsettled,
                key=lambda p: (self.streak_start[p], -self.fleet[p].s_rated),
            )
            return StabilityVerdict(
                stable=False,
                first_unstable=self.fleet[first].name,
                t_unstable=self.streak_start[first] * dt,
                t_settled=None,
                max_angle_excursion=self.max_excursion,
            )

        settled_at = max(
            ((lv + 1) * dt for lv in self.last_violation if lv is not None),
            default=0.0,
        )
        return StabilityVerdict(
            stable=True,
            first_unstable=None,
            t_unstable=None,
            t_settled=settled_at,
            max_angle_excursion=self.max_excursion,
        )


def classify(
    traj: Trajectory,
    settle_tol: float = DEFAULT_SETTLE_TOL_RAD,
    settle_window: float = DEFAULT_SETTLE_WINDOW_S,
) -> StabilityVerdict:
    """Stable iff nothing tripped and all angles hold near pre-fault values
    for the final settle_window of the run: RunFold's verdict of traj."""
    return RunFold(traj.records, traj.fleet, traj.scenario, settle_tol).verdict(settle_window)


def _to_first_trip(records: Iterable[TrajectoryRecord]) -> Iterator[TrajectoryRecord]:
    """records up to and including the first in which any unit is tripped;
    records past it are not read, so a stream makes no step past it."""
    for rec in records:
        yield rec
        if True in rec.tripped:
            return


@contextlib.contextmanager
def _cpu_split() -> Iterator[list[int]]:
    """Keep this process to the lowest CPU of its affinity set for the
    block, restoring the set after it, and yield the others, for forked
    children: left to the scheduler, parent and child were seen to share
    one CPU while the other idled."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if cpus[1:]:
        os.sched_setaffinity(0, cpus[:1])
    try:
        yield cpus[1:]
    finally:
        if cpus[1:]:
            os.sched_setaffinity(0, cpus)


def _fork_piped(count: int) -> tuple[int, list[tuple[int, int]]] | None:
    """(os.fork(), count new pipes), or None, closing them, if either fails."""
    pipes: list[tuple[int, int]] = []
    try:
        for _ in range(count):
            pipes.append(os.pipe())
        return os.fork(), pipes
    except OSError:
        for fd in chain.from_iterable(pipes):
            os.close(fd)
        return None


class _Decisions:
    """One search's verdicts, each clearing step decided once: here by
    decide, or by the search's one forked decider, which reads steps from
    a pipe, decides them in order from this process's state at its fork
    (copy-on-write), keeping to the CPUs in others, and writes one byte per
    verdict to another. A step whose byte does not come is decided here, so
    its exception is raised here. With others None nothing is assigned.
    verdicts is in the order stable was first asked for each step."""

    def __init__(self, decide: Callable[[int], bool], others: list[int] | None) -> None:
        self.decide, self.others = decide, others
        self.verdicts: dict[int, bool] = {}
        self.replies: dict[int, bool] = {}  # read before their steps were asked for
        self.unanswered: list[int] = []  # steps sent to the decider, in order
        self.decider: tuple[int, int, int] | None = None  # pid, request fd, reply fd

    def stable(self, k: int) -> bool:
        if k not in self.verdicts:
            while k in self.unanswered:
                if byte := os.read(self.decider[2], 1):
                    self.replies[self.unanswered.pop(0)] = byte == b"\x01"
                else:  # the decider failed: its steps are decided here
                    self.close()
            self.verdicts[k] = self.replies.pop(k) if k in self.replies else self.decide(k)
        return self.verdicts[k]

    def assign(self, steps: Iterable[int]) -> None:
        """Send the steps not decided or assigned yet, in order, to the
        decider, forked at the first."""
        sent = self.replies.keys() | self.unanswered
        steps = [k for k in dict.fromkeys(steps) if k not in self.verdicts and k not in sent]
        if self.others is None or not steps:
            return
        if self.decider is None:
            if not (forked := _fork_piped(2)):
                return
            pid, ((requests, request_fd), (reply_fd, replies)) = forked
            if pid == 0:
                try:
                    os.close(request_fd)  # so that a decider whose parent died reads EOF
                    if self.others:
                        os.sched_setaffinity(0, self.others)
                    for line in open(requests, "rb"):
                        os.write(replies, b"\x01" if self.decide(int(line)) else b"\x00")
                finally:
                    os._exit(0)
            os.close(requests)
            os.close(replies)
            self.decider = (pid, request_fd, reply_fd)
        request = memoryview("".join(f"{k}\n" for k in steps).encode())
        with contextlib.suppress(BrokenPipeError):  # a failed decider: stable reads EOF
            while request:  # os.write may write part of it
                request = request[os.write(self.decider[1], request):]
        self.unanswered += steps

    def close(self) -> None:
        """Kill and reap the decider, if any; no step waits for it after."""
        if self.decider:
            import signal  # here, on the fork path only: it costs start-up

            pid, request_fd, reply_fd = self.decider
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(request_fd)
            os.close(reply_fd)
        self.decider, self.unanswered = None, []


def find_cct(
    runs: Runs,
    cct: CctSettings,
    settle_tol: float = DEFAULT_SETTLE_TOL_RAD,
    settle_window: float = DEFAULT_SETTLE_WINDOW_S,
    fork: bool = False,
) -> CctResult:
    """Bisect the clearing interval of runs, in whole steps, until the
    stable/unstable bracket is no wider than cct.resolution.

    Every run of the search is one of runs' streams (see dynamics.Runs),
    folded as it is stepped (see RunFold), so the search holds no
    trajectory and the caller can replay any clearing time from runs
    afterwards. cct.steps gives the bracket's steps k_min and k_max and the
    width to stop at, in whole steps (or raises ValueError). Verdicts are
    asked for in one order: k_max, the bisection's midpoints, k_min, the
    audit samples; each clearing interval is decided once, and an exception
    reaches the caller from the first asked step whose verdict raises. The
    midpoint of a bracket [lo, hi] is (lo + hi + 1) // 2, strictly inside it
    while hi - lo >= 2. A stable k_min and an unstable k_max are required:
    BracketInvalid follows the bisection that k_max's verdict allowed.

    A trip decides a verdict, so each verdict reads its stream up to its
    first tripped record, and no step past it is made. The loss order
    needs the whole cascade: bracket_hi's run is read to t_end for it, and
    if nothing trips there it is the unit that did not settle, from the
    same pass. cct.audit_samples clearing intervals
    k_min + round((k_max - k_min) j / (audit_samples - 1)) audit the
    monotonicity assumption; a non-monotone verdict sequence is reported
    through the result, not raised. The audit sees only its samples: an
    unstable island narrower than their spacing, between two stable
    samples, leaves monotonic True.

    With fork, a decider forked once k_max is decided (see _Decisions and
    _cpu_split) inherits the fault-on run stepped so far. It decides k_min
    while this process bisects; at each level whose midpoint m this process
    decides, (m + hi + 1) // 2, the next midpoint if m is stable (unread if
    not); and, while the cascade is read, the undecided audit samples. Which
    steps it gets depends on verdicts only. Fork changes which process
    decides a step, so the result and any exception are as without it.
    """
    k_min, k_max, k_resolution = cct.steps(runs.scenario, settle_window)
    dt, t_fault = runs.scenario.dt, runs.scenario.t_fault
    n = max(2, cct.audit_samples)
    audit_steps = [k_min + round((k_max - k_min) * j / (n - 1)) for j in range(n)]

    def decide(k: int) -> bool:
        run = runs.stream(t_fault + k * dt)
        fold = RunFold(_to_first_trip(run), runs.fleet, run.scenario, settle_tol)
        return fold.verdict(settle_window).stable

    with (_cpu_split() if fork else contextlib.nullcontext()) as others, \
            contextlib.closing(_Decisions(decide, others)) as decisions:
        stable, verdicts = decisions.stable, decisions.verdicts
        hi_stable = stable(k_max)
        decisions.assign([k_min])
        lo, hi = k_min, k_max
        while not hi_stable and hi - lo > k_resolution:
            mid = (lo + hi + 1) // 2
            if mid not in decisions.unanswered and hi - mid > k_resolution:
                decisions.assign([(mid + hi + 1) // 2])
            if stable(mid):
                lo = mid
            else:
                hi = mid
        if not (lo_stable := stable(k_min)) or hi_stable:
            raise BracketInvalid(lo_stable, hi_stable)

        decisions.assign(audit_steps)
        run = runs.stream(t_fault + hi * dt)
        cascade = RunFold(run, runs.fleet, run.scenario, settle_tol)
        loss = tuple(name for name, _ in cascade.loss_order())
        if not loss:
            loss = (cascade.verdict(settle_window).first_unstable,)
        audit = [(k * dt, stable(k)) for k in audit_steps]

    # k_min first, as decided before the two modes shared one order: cct.json stays as it was.
    log = [k_min, *(k for k in verdicts if k != k_min)]

    return CctResult(
        cct=(lo + hi) * dt / 2,
        bracket_lo=lo * dt,
        bracket_hi=hi * dt,
        loss_order=loss,
        evaluation_log=tuple((k * dt, verdicts[k]) for k in log),
        audit=tuple(audit),
        monotonic=sum(a[1] != b[1] for a, b in zip(audit, audit[1:])) <= 1,
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

    def mean_of(values) -> float:
        # Exactly statistics.fmean, without importing statistics.
        return math.fsum(values) / n

    mean = InverterConfig(
        name="Uni",
        s_rated=mean_of(c.s_rated for c in fleet),
        z_line=complex(
            mean_of(c.z_line.real for c in fleet), mean_of(c.z_line.imag for c in fleet)
        ),
        r_virtual=mean_of(c.r_virtual for c in fleet),
        kp=mean_of(c.kp for c in fleet),
        ki=mean_of(c.ki for c in fleet),
        i_max=mean_of(c.i_max for c in fleet),
        pf_angle=mean_of(c.pf_angle for c in fleet),
        trip_holdoff=mean_of(c.trip_holdoff for c in fleet),
    )
    return tuple(replace(mean, name=f"Uni {p + 1}") for p in range(n))


def compare_uniform(
    runs: Runs,
    cct: CctSettings,
    settle_tol: float = DEFAULT_SETTLE_TOL_RAD,
    settle_window: float = DEFAULT_SETTLE_WINDOW_S,
    fork: bool = False,
) -> FleetComparison:
    """CCT of runs' fleet against its mean-built uniform counterpart, whose
    Runs, the result's uniform, shares runs' grid, scenario and solver
    settings; either fleet replays from its Runs afterwards. Each search
    forks as find_cct does with fork."""
    if len(runs.fleet) < 2:
        raise ValueError("compare_uniform needs a fleet of at least two inverters")
    res_nonuni = find_cct(runs, cct, settle_tol, settle_window, fork)
    uniform = Runs(uniform_fleet_of(runs.fleet), runs.grid, runs.scenario, runs.opts)
    res_uni = find_cct(uniform, cct, settle_tol, settle_window, fork)
    return FleetComparison(
        cct_nonuniform=res_nonuni.cct,
        cct_uniform=res_uni.cct,
        delta=res_uni.cct - res_nonuni.cct,
        uniform=uniform,
        result_nonuniform=res_nonuni,
        result_uniform=res_uni,
    )
