"""Independent oracles used by the test suite.

Everything here re-derives expected values from the defining equations with
code paths separate from the package: exact rational complex arithmetic,
finite-difference Newton and grid-search refinement. The per-unit step and
fold at the end share the package's voltage solve, q projection and record
types, and differ from it only in doing each unit's work one unit at a time.
records_of and loss_order read the package's own runs, for tests that look
at every record or at the trips of a run, KeptStream keeps the records a
stream yields, decided reads stability.decide's verdict with the records it
read, and quadrature_currents gives the i_q that trajectory.csv writes for
consecutive records.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from gflswing.dynamics import DIVERGENCE_BOUND_RAD, Runs, TrajectoryRecord
from gflswing.pcc import ZeroVoltage, q_components, solve_vpcc
from gflswing.stability import RunFold, decide


# -- exact rational complex arithmetic (pairs of Fractions) -----------------

def fc(re, im=0) -> tuple[Fraction, Fraction]:
    return (Fraction(re), Fraction(im))


def fc_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def fc_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def fc_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def fc_parallel(a, b):
    return fc_div(fc_mul(a, b), fc_add(a, b))


def fc_to_complex(a) -> complex:
    return complex(float(a[0]), float(a[1]))


# -- PCC voltage equation, written out fresh --------------------------------

def pcc_rhs(v: complex, v_th: complex, z_eq: list[complex], s: list[float],
            theta: list[float]) -> complex:
    """Right-hand side of the implicit PCC voltage superposition."""
    total = v_th
    r = abs(v)
    for k in range(len(z_eq)):
        total += z_eq[k] * (s[k] / r) * cmath.exp(1j * theta[k])
    return total


def pcc_residual(v: complex, v_th: complex, z_eq, s, theta) -> float:
    return abs(v - pcc_rhs(v, v_th, z_eq, s, theta))


def newton_fd_vpcc(v_th: complex, z_eq, s, theta, tol: float = 1e-10,
                   max_iter: int = 200) -> complex:
    """Damped 2-D Newton on the residual with a finite-difference Jacobian."""
    scale = max(abs(v_th), 1.0)
    v = v_th
    h = 1e-6 * scale

    def f(v):
        r = v - pcc_rhs(v, v_th, z_eq, s, theta)
        return np.array([r.real, r.imag])

    for _ in range(max_iter):
        r0 = f(v)
        if np.hypot(*r0) <= tol * scale:
            return v
        rx = (f(v + h) - f(v - h)) / (2 * h)
        ry = (f(v + 1j * h) - f(v - 1j * h)) / (2 * h)
        jac = np.column_stack([rx, ry])
        try:
            delta = np.linalg.solve(jac, r0)
        except np.linalg.LinAlgError:
            break
        step = complex(delta[0], delta[1])
        alpha = 1.0
        for _ in range(8):
            v_new = v - alpha * step
            if abs(v_new) > 1e-9 * scale and np.hypot(*f(v_new)) < np.hypot(*r0):
                break
            alpha *= 0.5
        else:
            v_new = v - alpha * step
        v = v_new
    raise AssertionError(
        f"oracle Newton failed to converge (residual {pcc_residual(v, v_th, z_eq, s, theta):.3e})"
    )


def grid_zoom_vpcc(v_th: complex, z_eq, s, theta, zooms: int = 12,
                   points: int = 81) -> complex:
    """Dense magnitude-angle grid search with repeated zoom refinement.

    Minimizes the residual of the implicit voltage equation over a polar
    grid centered on the source voltage, shrinking the search box around
    the best cell each pass.
    """
    v0 = abs(v_th)
    a0 = cmath.phase(v_th)
    r_lo, r_hi = 0.05 * v0, 2.5 * v0
    a_lo, a_hi = a0 - 1.2, a0 + 1.2
    best = (math.inf, v0, a0)
    for _ in range(zooms):
        rs = np.linspace(r_lo, r_hi, points)
        angs = np.linspace(a_lo, a_hi, points)
        for r in rs:
            if r <= 0:
                continue
            for a in angs:
                v = r * cmath.exp(1j * a)
                res = pcc_residual(v, v_th, z_eq, s, theta)
                if res < best[0]:
                    best = (res, r, a)
        _, rb, ab = best
        r_span = (r_hi - r_lo) / (points - 1) * 4
        a_span = (a_hi - a_lo) / (points - 1) * 4
        r_lo, r_hi = max(rb - r_span, 1e-12), rb + r_span
        a_lo, a_hi = ab - a_span, ab + a_span
    return best[1] * cmath.exp(1j * best[2])



# -- aggregate injection sum, written out fresh -----------------------------

def aggregate_cd(zeq, s, theta, i_fixed=None) -> tuple[complex, complex]:
    """(C, D) of rhs(v) = v_th + D + C / |v| for the injections at angles theta.

    C = sum z s e^{j theta} over the constant-power units and
    D = sum z i e^{j theta} over the units pinned to a fixed current i (an
    entry of i_fixed that is not None).
    """
    assert len(zeq) == len(s) == len(theta)
    c = 0.0 + 0.0j
    d = 0.0 + 0.0j
    for k in range(len(zeq)):
        unit = complex(math.cos(theta[k]), math.sin(theta[k]))
        if i_fixed is not None and i_fixed[k] is not None:
            d += zeq[k] * i_fixed[k] * unit
        else:
            c += zeq[k] * s[k] * unit
    return c, d


# -- the per-unit step and fold, written one unit at a time -----------------
#
# dynamics.step and stability.RunFold do each unit's arithmetic once per step
# or record, with shared trig and whole-fleet passes. These references do the
# same arithmetic one unit at a time, branching on every flag, with the
# injection and PLL frames each taking their own cos and sin; their outputs
# must equal the package's bit for bit.

def _reference_aggregate(fleet, e, tripped, limited) -> tuple[complex, complex]:
    c = d = 0j
    for zs, zi, e_p, trip, lim in zip(fleet.zs, fleet.zi, e, tripped, limited):
        if trip:
            continue
        if lim:
            d += zi * e_p
        else:
            c += zs * e_p
    return c, d


def reference_step(rec, fleet, v_th, tol, max_iter, theta_cg_ref):
    """dynamics.step, one unit at a time (see dynamics.step for the order),
    behind the source voltage v_th, each voltage solve stopping at tol
    within max_iter iterations."""
    n = len(fleet)
    dt = fleet.dt
    s_rated = fleet.s_rated
    i_max = fleet.i_max

    tripped = rec.tripped
    theta_cg_old = rec.theta_cg
    cos_cg = list(map(math.cos, theta_cg_old))
    sin_cg = list(map(math.sin, theta_cg_old))
    e = list(map(complex, cos_cg, sin_cg))

    limited = [lim and not trip for lim, trip in zip(rec.limited, tripped)]
    if v_th == 0.0:
        limited = [not t for t in tripped]
    agg = _reference_aggregate(fleet, e, tripped, limited)
    sol = solve_vpcc(
        v_th, agg, tol, max_iter,
        cmath.rect(rec.v_pcc_mag, rec.v_pcc_angle),
    )
    for _ in range(n + 1):
        v_mag = abs(sol.v_pcc)
        if v_mag == 0.0:
            raise ZeroVoltage("PCC voltage collapsed to zero during a step")
        want = [not t and s / v_mag > i for t, s, i in zip(tripped, s_rated, i_max)]
        if want == limited or v_th == 0.0:
            break
        limited = want
        agg = _reference_aggregate(fleet, e, tripped, limited)
        sol = solve_vpcc(v_th, agg, tol, max_iter, sol.v_pcc)

    v = sol.v_pcc
    v_mag = abs(v)
    if v_mag == 0.0:
        raise ZeroVoltage("PCC voltage collapsed to zero during a step")
    i_mag = [
        0.0 if t else (i if lim else s / v_mag)
        for t, lim, s, i in zip(tripped, limited, s_rated, i_max)
    ]
    _, v_gq_all = q_components(
        v_th, v, agg,
        list(map(math.cos, rec.theta)), list(map(math.sin, rec.theta)),
        fleet.series_q, i_mag,
    )

    theta = list(rec.theta)
    integral = list(rec.integral)
    limited_steps = list(rec.limited_steps)
    theta_cg = list(theta_cg_old)
    v_gq = [0.0] * n
    tripped_new = list(tripped)
    kp, ki, pf_angle, holdoff = fleet.kp, fleet.ki, fleet.pf_angle, fleet.holdoff
    for p in range(n):
        if tripped[p]:
            limited_steps[p] = 0
            continue

        v_q = v_gq[p] = v_gq_all[p]
        integral[p] = integral_p = integral[p] + v_q * dt
        theta[p] += (kp[p] * v_q + ki[p] * integral_p) * dt
        theta_cg[p] = theta_cg_p = theta[p] + pf_angle[p]

        if limited[p]:
            steps = limited_steps[p] = limited_steps[p] + 1 if rec.limited[p] else 0
            if steps >= holdoff[p]:
                tripped_new[p] = True
        else:
            limited_steps[p] = 0
        if abs(theta_cg_p - theta_cg_ref[p]) > DIVERGENCE_BOUND_RAD:
            tripped_new[p] = True

    # Each unit's deviation from theta_cg_ref, a tripped unit's at the angle
    # it keeps; a NaN deviation is never the largest.
    excursion = 0.0
    for p in range(n):
        dev = abs(theta_cg[p] - theta_cg_ref[p])
        if dev > excursion:
            excursion = dev

    return TrajectoryRecord(
        v_mag, cmath.phase(v), tuple(theta_cg), tuple(i_mag),
        tuple(v_gq), tuple(limited), tuple(tripped_new),
        tuple(theta), tuple(integral), tuple(limited_steps), excursion,
    )


def reference_fold(records, settle_tol):
    """stability.RunFold's pass, one unit of one record at a time:
    (k_last, max_excursion, last_violation, streak_start, first_trip)."""
    records = list(records)
    theta0 = records[0].theta_cg
    n = len(theta0)
    max_exc = 0.0
    last_violation = [None] * n
    streak_start = [None] * n
    first_trip = [None] * n
    for k, rec in enumerate(records):
        for p in range(n):
            dev = abs(rec.theta_cg[p] - theta0[p])
            if dev > max_exc:
                max_exc = dev
            if dev > settle_tol:
                if last_violation[p] != k - 1:
                    streak_start[p] = k
                last_violation[p] = k
            if rec.tripped[p] and first_trip[p] is None:
                first_trip[p] = k
    return k, max_exc, last_violation, streak_start, first_trip


def records_of(fleet, grid, scenario, opts=None) -> tuple[TrajectoryRecord, ...]:
    """Every record of scenario's run, kept: a new Runs' stream that clears
    at scenario.t_clear, read to its end."""
    return tuple(Runs(fleet, grid, scenario, opts).stream(scenario.t_clear))


def quadrature_currents(records):
    """Each record's i_q tuple as trajectory.csv writes it: each unit's
    i_mag times the sine of the record before's theta_cg (record 0's own),
    the injection angle that flowed during the step, less the record's PCC
    voltage angle. A record that is the record before, as one object,
    repeats its i_q, as the writer repeats its row."""
    currents = []
    last = None
    for rec in records:
        if rec is not last:
            flowed = (last or rec).theta_cg
            i_q = tuple(i * math.sin(th - rec.v_pcc_angle) for i, th in zip(rec.i_mag, flowed))
        currents.append(i_q)
        last = rec
    return currents


def loss_order(run):
    """(name, first trip time) of every unit that tripped in run, a stream
    (see Runs.stream), earliest first: RunFold's loss order, reading trips
    only."""
    return RunFold(run, run.fleet, run.scenario, math.inf).loss_order()


class KeptStream:
    """A run stream that appends each record it yields to kept."""

    def __init__(self, run, kept):
        self.run, self.scenario, self.kept = run, run.scenario, kept

    def __iter__(self):
        for rec in self.run:
            self.kept.append(rec)
            yield rec


def decided(runs, t_clear, settle_tol, settle_window):
    """(verdict, records): stability.decide's verdict of runs' run that
    clears at t_clear and the records it read, in order, through a stand-in
    for runs whose streams keep each record they yield."""
    read = []
    reader = SimpleNamespace(fleet=runs.fleet, stream=lambda t: KeptStream(runs.stream(t), read))
    return decide(reader, t_clear, settle_tol, settle_window), tuple(read)
