"""Acceptance gate for the simulator.

Each test implements one acceptance criterion at its stated tolerance and
runtime budget and prints one PASS/FAIL line. Exact algebraic checks run
against independent oracles; scenario-level checks run on the bundled
reference configuration (absolute event times depend on configuration
inputs that have no published values, so those checks assert shape, order,
sign and band membership rather than exact instants).
"""

import cmath
import functools
import math
import random
import time
from dataclasses import replace

import pytest

from gflswing.cli import cmd_sweep
from gflswing.dynamics import InverterConfig, Runs, UnitTable, simulate
from gflswing.network import (
    TheveninEquivalent,
    equivalent_impedance,
    faulted_grid,
    line_impedance,
)
from gflswing.pcc import q_components, solve_vpcc
from gflswing.stability import classify, compare_uniform, find_cct, sync_loss_order
from helpers_oracles import aggregate_cd, newton_fd_vpcc

XR_TABLE = [
    (0.15, 40.0, 0.1005),
    (0.30, 45.0, 0.0565),
    (0.25, 50.0, 0.0754),
    (0.35, 60.0, 0.0646),
    (0.30, 65.0, 0.0817),
]

CCT_BAND = (1.1e-3, 4.25e-3)


def criterion(number, description, budget_s):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - t0
                print(f"[acceptance] criterion {number:2d} FAIL "
                      f"({elapsed:6.2f} s): {description}")
                raise
            elapsed = time.perf_counter() - t0
            within = elapsed < budget_s
            status = "PASS" if within else "FAIL (runtime budget)"
            print(f"[acceptance] criterion {number:2d} {status} "
                  f"({elapsed:6.2f} s, budget {budget_s:g} s): {description}")
            assert within, (
                f"criterion {number} ran {elapsed:.2f} s, budget {budget_s:g} s"
            )
        return wrapper
    return deco


@criterion(1, "line impedance reproduces every reference X/R entry at 60 Hz", 1.0)
def test_criterion_01_line_impedance_table():
    for r, l_uh, xr in XR_TABLE:
        z = line_impedance(r, l_uh * 1e-6, 60.0)
        assert z.imag / z.real == pytest.approx(xr, rel=5e-3)


@criterion(2, "fixed-point solves match an independent Newton oracle", 10.0)
def test_criterion_02_fixed_point_correctness():
    rng = random.Random(20240601)
    for case in range(100):
        n = rng.randint(1, 3)
        v_mag = rng.uniform(110, 400)
        grid = TheveninEquivalent(
            cmath.rect(v_mag, rng.uniform(-0.2, 0.2)), complex(0.1, 0.05)
        )
        zc, s, th = [], [], []
        budget = 0.15 * v_mag * v_mag
        for _ in range(n):
            z = complex(rng.uniform(0.02, 0.3), rng.uniform(0.0, 0.15))
            zc.append(z)
            s.append(rng.uniform(0.05, 0.9) * budget / (n * abs(z)))
            th.append(rng.uniform(-0.6, 0.6))
        zeq = tuple(zc)
        sol = solve_vpcc(grid, aggregate_cd(zeq, s, th), tol=1e-10 * v_mag, max_iter=100)
        got = sol.v_pcc
        v_th = grid.v_th
        assert abs(got - v_th) < 0.2 * v_mag  # perturbation regime guard
        oracle = newton_fd_vpcc(v_th, zc, s, th)
        assert abs(got - oracle) <= 1e-6 * abs(oracle), f"case {case}"

        zero = solve_vpcc(grid, aggregate_cd(zeq, (0.0,) * n, th),
                          tol=1e-10 * v_mag, max_iter=100)
        assert abs(zero.v_pcc - v_th) <= 1e-12 * v_mag


@criterion(3, "each unit's q components equal the complex projection in its frame", 5.0)
def test_criterion_03_termwise_complex_agreement():
    rng = random.Random(777)
    for _ in range(1000):
        n = rng.randint(1, 5)
        v_th = cmath.rect(rng.uniform(50, 400), rng.uniform(-math.pi, math.pi))
        grid = TheveninEquivalent(v_th, complex(0.1, 0.1))
        zc = [complex(rng.uniform(0.01, 0.5), rng.uniform(-0.2, 0.5)) for _ in range(n)]
        zeq = tuple(zc)
        s = tuple(rng.uniform(0, 2e4) for _ in range(n))
        th = tuple(rng.uniform(-math.pi, math.pi) for _ in range(n))
        fleet = [
            InverterConfig(
                f"u{p}", s[p],
                complex(rng.uniform(0.01, 0.3), rng.uniform(0.0, 0.3)),
                rng.uniform(0.0, 0.3), 1.0, 1.0, 1.0,
                pf_angle=rng.uniform(-math.pi / 2, math.pi / 2),
            )
            for p in range(n)
        ]
        z_series = [cfg.z_line + cfg.r_virtual for cfg in fleet]
        # Each unit's PLL frame lags its injection angle by pf_angle.
        refs = tuple(th[p] - fleet[p].pf_angle for p in range(n))
        v_pcc = cmath.rect(rng.uniform(40, 400), rng.uniform(-math.pi, math.pi))
        v_mag = abs(v_pcc)
        q, v_gq = q_components(
            grid, v_pcc, aggregate_cd(zeq, s, th),
            [math.cos(ref) for ref in refs],
            [math.sin(ref) for ref in refs],
            UnitTable(fleet, 1e-5, 230e-9, 100).series_q,
            [s_p / v_mag for s_p in s],
        )

        total = v_th
        for k in range(n):
            total += zc[k] * (s[k] / v_mag) * cmath.exp(1j * th[k])
        scale = max(abs(total), abs(v_th))
        for p in range(n):
            rot = cmath.exp(-1j * refs[p])
            assert abs(q[p] - (total * rot).imag) <= 1e-9 * scale
            full = total + z_series[p] * (s[p] / v_mag) * cmath.exp(1j * th[p])
            assert abs(v_gq[p] - (full * rot).imag) <= 1e-9 * max(abs(full), scale)


@criterion(4, "no-fault run holds every angle within 1e-6 rad for 20 ms", 2.0)
def test_criterion_04_equilibrium_stationarity(nofault_config):
    cfg = nofault_config
    assert cfg.scenario.t_end == pytest.approx(20e-3)
    assert cfg.scenario.dt == pytest.approx(1e-5)
    traj = simulate(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    first = traj.records[0]
    worst = max(
        abs(rec.theta_cg[p] - first.theta_cg[p])
        for rec in traj.records
        for p in range(len(cfg.fleet))
    )
    assert worst < 1e-6


@criterion(5, "loss-of-synchronism order follows apparent power ratings", 5.0)
def test_criterion_05_loss_order(table_config):
    cfg = table_config
    deep = replace(cfg.scenario, fault_depth=0.6, t_clear=None)

    equalized = tuple(
        replace(c, z_line=complex(c.z_line.real, c.z_line.real * 0.08))
        for c in cfg.fleet
    )
    order = sync_loss_order(simulate(equalized, cfg.grid, deep, cfg.solver))
    assert [name for name, _ in order] == ["Inv 4", "Inv 5", "Inv 2", "Inv 3", "Inv 1"]

    order_full = sync_loss_order(simulate(cfg.fleet, cfg.grid, deep, cfg.solver))
    assert order_full[0][0] == "Inv 4"


@pytest.mark.parametrize("equalized", [True, False], ids=["equalized", "configured"])
def test_criterion_05_first_four_trips_share_one_step(table_config, equalized):
    # At depth 0.6 uncleared, Inv 4, 5, 2 and 3 trip at step 450 (4.5 ms) in
    # criterion 5's equalized fleet and in the configured one alike, so
    # their order is the loss order's tie-break by rating; Inv 1 trips alone
    # at step 601 (6.01 ms).
    cfg = table_config
    deep = replace(cfg.scenario, fault_depth=0.6, t_clear=None)
    fleet = cfg.fleet
    if equalized:
        fleet = tuple(replace(c, z_line=complex(c.z_line.real, c.z_line.real * 0.08))
                      for c in fleet)
    order = sync_loss_order(simulate(fleet, cfg.grid, deep, cfg.solver))
    assert [(name, round(t / deep.dt)) for name, t in order] == [
        ("Inv 4", 450), ("Inv 5", 450), ("Inv 2", 450), ("Inv 3", 450), ("Inv 1", 601),
    ]
    rating = {c.name: c.s_rated for c in fleet}
    assert [rating[name] for name, _ in order[:4]] == [12000.0, 10000.0, 9000.0, 8000.0]


@criterion(6, "limited units plateau at their ceiling with rising reactive current", 5.0)
def test_criterion_06_current_plateau(table_config):
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.5, t_clear=None)
    # Stage one delayed engagement: the third unit's ceiling sits just above
    # its fault-inception current, so the sagging voltage crosses it mid-run.
    fleet = list(cfg.fleet)
    fleet[2] = replace(fleet[2], i_max=50.77)
    traj = simulate(fleet, cfg.grid, scen, cfg.solver)

    k_fault = round(scen.t_fault / scen.dt)
    saw_limited = 0
    for rec in traj.records:
        for p, cfg_p in enumerate(fleet):
            if rec.limited[p] and not rec.tripped[p]:
                saw_limited += 1
                assert rec.i_mag[p] == cfg_p.i_max  # exact plateau
    assert saw_limited > 0

    engage_idx = {}
    for idx, rec in enumerate(traj.records):
        for p in range(len(fleet)):
            if rec.limited[p] and p not in engage_idx:
                engage_idx[p] = idx
    # the staged unit engages strictly after fault inception
    assert engage_idx[2] > k_fault + 10
    for p, idx in engage_idx.items():
        window = [rec.i_q[p] for rec in traj.records[k_fault:idx + 1]]
        assert all(b >= a - 1e-12 for a, b in zip(window, window[1:])), (
            f"unit {p} reactive current dipped before its limit engaged"
        )


@criterion(7, "bisection agrees with a 0.05 ms linear scan at three depths", 60.0)
def test_criterion_07_bisection_soundness(table_config):
    cfg = table_config
    settings = cfg.cct
    for depth in (0.3, 0.5, 0.7):
        base = replace(cfg.scenario, fault_depth=depth)
        res = find_cct(Runs(cfg.fleet, cfg.grid, base, cfg.solver), settings,
                       cfg.settle_tol, cfg.settle_window)
        assert res.monotonic, f"depth {depth}: audit saw multiple transitions"
        assert res.bracket_hi - res.bracket_lo <= settings.resolution + 1e-12
        assert res.bracket_lo < res.cct <= res.bracket_hi
        log = dict(res.evaluation_log)
        assert log[res.bracket_lo] is True and log[res.bracket_hi] is False

        # independent linear scan at 0.05 ms spacing across the boundary
        step_s = 5e-5
        lo = max(settings.t_min, res.cct - 12 * step_s)
        taus, verdicts = [], []
        for k in range(25):
            tau = lo + k * step_s
            if tau > settings.t_max:
                break
            scen = replace(base, t_clear=base.t_fault + tau)
            verdict = classify(simulate(cfg.fleet, cfg.grid, scen, cfg.solver),
                               cfg.settle_tol, cfg.settle_window)
            taus.append(tau)
            verdicts.append(verdict.stable)
        transitions = [k for k in range(1, len(verdicts)) if verdicts[k] != verdicts[k - 1]]
        assert len(transitions) == 1, f"depth {depth}: scan verdicts {verdicts}"
        k = transitions[0]
        last_stable, first_unstable = taus[k - 1], taus[k]
        assert last_stable - 1e-12 <= res.cct <= first_unstable + settings.resolution, (
            f"depth {depth}: bisection {res.cct} outside scan bracket "
            f"[{last_stable}, {first_unstable}]"
        )


@criterion(8, "uniform fleets clear later; reference CCT lands in the 1.1-4.25 ms band", 120.0)
def test_criterion_08_nonuniformity_penalty(table_config):
    cfg = table_config
    settings = cfg.cct
    for depth in (0.30, 0.35, 0.40):
        base = replace(cfg.scenario, fault_depth=depth)
        comp = compare_uniform(Runs(cfg.fleet, cfg.grid, base, cfg.solver), settings,
                               cfg.settle_tol, cfg.settle_window)
        assert comp.delta > 0.0, (
            f"depth {depth}: uniform CCT {comp.cct_uniform} not above "
            f"non-uniform {comp.cct_nonuniform}"
        )

    res = find_cct(Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver), settings,
                   cfg.settle_tol, cfg.settle_window)
    assert CCT_BAND[0] <= res.cct <= CCT_BAND[1]


@criterion(9, "clearing just inside/outside the CCT splits stable/unstable", 30.0)
def test_criterion_09_dichotomy(table_config):
    cfg = table_config
    settings = cfg.cct
    res = find_cct(Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver), settings,
                   cfg.settle_tol, cfg.settle_window)

    def run(tau):
        scen = replace(cfg.scenario, t_clear=cfg.scenario.t_fault + tau)
        traj = simulate(cfg.fleet, cfg.grid, scen, cfg.solver)
        return traj, classify(traj, cfg.settle_tol, cfg.settle_window)

    traj_s, verdict_s = run(res.cct - 2 * settings.resolution)
    assert verdict_s.stable
    dt = cfg.scenario.dt
    first = traj_s.records[0]
    window_start = (len(traj_s.records) - 1) * dt - cfg.settle_window
    for k, rec in enumerate(traj_s.records):
        if k * dt >= window_start:
            for p in range(len(cfg.fleet)):
                assert abs(rec.theta_cg[p] - first.theta_cg[p]) <= cfg.settle_tol

    traj_u, verdict_u = run(res.cct + 2 * settings.resolution)
    assert not verdict_u.stable
    tripped_somewhere = any(any(rec.tripped) for rec in traj_u.records)
    first_u = traj_u.records[0]
    late_violation = any(
        abs(rec.theta_cg[p] - first_u.theta_cg[p]) > cfg.settle_tol
        for k, rec in enumerate(traj_u.records)
        if k * dt >= (len(traj_u.records) - 1) * dt - cfg.settle_window
        for p in range(len(cfg.fleet))
    )
    assert tripped_somewhere or late_violation


@criterion(10, "removing one unit's power depresses the node and raises all currents", 1.0)
def test_criterion_10_trip_cascade(table_config):
    cfg = table_config
    scenario = replace(cfg.scenario, fault_depth=0.4)
    runs = Runs(cfg.fleet, cfg.grid, scenario, cfg.solver)
    theta = runs.equilibrium.record.theta_cg
    fault = faulted_grid(cfg.grid, 0.4)
    zeq_f = equivalent_impedance(cfg.fleet, fault, cfg.grid.z_load)
    s_all = tuple(c.s_rated for c in cfg.fleet)
    tol = runs.units.tol

    with_all = solve_vpcc(fault, aggregate_cd(zeq_f, s_all, theta), tol, 100)
    without_first = solve_vpcc(
        fault, aggregate_cd(zeq_f, (0.0,) + s_all[1:], theta), tol, 100
    )
    v_a = abs(with_all.v_pcc)
    v_b = abs(without_first.v_pcc)
    assert v_b < v_a
    for s in s_all[1:]:
        assert s / v_b > s / v_a


@criterion(11, "a reference run beats 1 s and a 100-cell sweep beats 60 s", 75.0)
def test_criterion_11_performance(nofault_config, table_config, tmp_path, monkeypatch):
    cfg = nofault_config
    t0 = time.perf_counter()
    traj = simulate(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    single = time.perf_counter() - t0
    assert len(traj.records) == 2001
    assert single < 1.0, f"single 20 ms run took {single:.3f} s"

    monkeypatch.delenv("GFLSWING_THREADS", raising=False)
    depths = tuple(0.25 + 0.05 * k for k in range(10))
    intervals = tuple(4e-4 * (k + 1) for k in range(10))
    t0 = time.perf_counter()
    code = cmd_sweep(
        replace(table_config, sweep_axes={"fault_depth": depths, "clear_interval_s": intervals}),
        tmp_path / "sweep",
    )
    sweep_elapsed = time.perf_counter() - t0
    assert code == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 101
    assert sweep_elapsed < 60.0, f"100-cell sweep took {sweep_elapsed:.1f} s"
