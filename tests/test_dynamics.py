import cmath
import math
from dataclasses import replace

import pytest

from gflswing import dynamics, pcc
from gflswing.dynamics import (
    FaultScenario,
    InverterConfig,
    SolverOptions,
    Trajectory,
    advance,
    find_equilibrium,
    limited_current,
    pll_step,
    prepare_run,
    simulate,
    step,
)
from gflswing.network import (
    GridModel,
    TheveninEquivalent,
    equivalent_impedance,
    faulted_grid,
)
from gflswing.pcc import InjectionState, solve_vpcc


def _small_fleet():
    return (
        InverterConfig("A", 6000.0, complex(0.15, 0.015), 0.16, 4.31e-3, 260.0, 55.0,
                       trip_holdoff=8e-4),
        InverterConfig("B", 12000.0, complex(0.35, 0.023), 0.0, 4.76e-3, 265.0, 55.0,
                       trip_holdoff=8e-4),
    )


def _small_grid():
    pre = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.20, 0.10))
    return GridModel(pre, complex(0.10, 0.05))


def test_pll_step_locked_equilibrium_is_fixed():
    out = pll_step(0.3, 0.0, 0.0, 4.31e-3, 260.0, 1e-5)
    assert out == (0.3, 0.0, 0.0)


def test_pll_step_constant_error_accelerates():
    theta, integral = 0.0, 0.0
    thetas = []
    for _ in range(10):
        theta, _, integral = pll_step(theta, integral, 1.0, 4.31e-3, 260.0, 1e-5)
        thetas.append(theta)
    diffs = [b - a for a, b in zip(thetas, thetas[1:])]
    assert all(d > 0 for d in diffs)
    second = [b - a for a, b in zip(diffs, diffs[1:])]
    assert all(d > 0 for d in second)


def test_pll_step_single_update_hand_values():
    theta, omega_dev, integral = pll_step(0.0, 0.0, 1.0, 4.31e-3, 260.0, 1e-5)
    assert integral == pytest.approx(1e-5, rel=1e-14)
    assert omega_dev == pytest.approx(6.91e-3, rel=1e-12)
    assert theta == pytest.approx(6.91e-8, rel=1e-12)


def test_pll_step_rejects_bad_dt():
    with pytest.raises(ValueError):
        pll_step(0.0, 0.0, 0.0, 1.0, 1.0, 0.0)


def test_limited_current_unconstrained():
    i, lim = limited_current(6000.0, 230.0, 40.0)
    assert i == pytest.approx(26.086956521739129)
    assert lim is False


def test_limited_current_clamped():
    i, lim = limited_current(6000.0, 100.0, 40.0)
    assert i == 40.0
    assert lim is True


def test_limited_current_zero_power():
    assert limited_current(0.0, 230.0, 40.0) == (0.0, False)


def test_limited_current_rejects_zero_voltage():
    with pytest.raises(ValueError):
        limited_current(6000.0, 0.0, 40.0)


def test_limiter_flag_monotone_as_voltage_sags():
    s_ref, i_max = 6000.0, 40.0
    flags = [limited_current(s_ref, v, i_max)[1] for v in (300, 250, 200, 160, 150, 120, 80, 40)]
    # once active it stays active as the voltage keeps dropping
    assert flags == sorted(flags)


def test_inverter_config_validation():
    with pytest.raises(ValueError):
        InverterConfig("X", 0.0, complex(0.1, 0.0), 0.0, 1e-3, 100.0, 10.0)
    with pytest.raises(ValueError):
        InverterConfig("X", 100.0, complex(0.1, 0.0), 0.0, -1e-3, 100.0, 10.0)
    with pytest.raises(ValueError):
        InverterConfig("X", 100.0, complex(0.1, 0.0), 0.0, 1e-3, 100.0, 0.0)


def test_fault_scenario_validation():
    with pytest.raises(ValueError):
        FaultScenario(0.0, None, 0.5, 1e-2, 0.0)
    with pytest.raises(ValueError):
        FaultScenario(2e-2, None, 0.5, 1e-2, 1e-5)
    with pytest.raises(ValueError):
        FaultScenario(1e-3, 0.5e-3, 0.5, 1e-2, 1e-5)
    with pytest.raises(ValueError):
        FaultScenario(1e-3, None, 1.5, 1e-2, 1e-5)


def test_equilibrium_is_a_fixed_point_of_step():
    fleet = _small_fleet()
    grid = _small_grid()
    zeq = equivalent_impedance(fleet, grid.prefault, grid.z_load)
    state = find_equilibrium(fleet, grid.prefault, zeq)
    assert all(v_gq == 0.0 for v_gq in state.record.v_gq)
    nxt = step(state, fleet, grid.prefault, zeq, 1e-5)
    before, after = state.record, nxt.record
    for p, cfg in enumerate(fleet):
        assert after.theta_cg[p] == pytest.approx(before.theta_cg[p], abs=1e-9)
        omega_dev = cfg.kp * after.v_gq[p] + cfg.ki * nxt.integral[p]
        assert abs(omega_dev) < 1e-6
        assert not after.limited[p] and not after.tripped[p]
    assert after.v_pcc_mag == pytest.approx(before.v_pcc_mag, rel=1e-9)


def test_fault_step_depresses_voltage():
    fleet = _small_fleet()
    grid = _small_grid()
    zeq = equivalent_impedance(fleet, grid.prefault, grid.z_load)
    state = find_equilibrium(fleet, grid.prefault, zeq)
    fault = faulted_grid(grid, 0.5)
    zeq_f = equivalent_impedance(fleet, fault, grid.z_load)
    nxt = step(state, fleet, fault, zeq_f, 1e-5)
    assert nxt.record.v_pcc_mag < state.record.v_pcc_mag


def test_removing_one_injection_lowers_voltage_and_raises_currents():
    # Paired voltage solves under the fault-on equivalent: dropping the first
    # unit's power must depress the node and push up everyone else's current.
    fleet = _small_fleet()
    grid = _small_grid()
    fault = faulted_grid(grid, 0.4)
    zeq = equivalent_impedance(fleet, fault, grid.z_load)
    theta = (0.03, 0.04)
    with_all = solve_vpcc(fault, zeq, InjectionState((6000.0, 12000.0), theta),
                          tol=1e-9, max_iter=100)
    without_first = solve_vpcc(fault, zeq, InjectionState((0.0, 12000.0), theta),
                               tol=1e-9, max_iter=100)
    v_a = abs(with_all.v_pcc)
    v_b = abs(without_first.v_pcc)
    assert v_b < v_a
    assert 12000.0 / v_b > 12000.0 / v_a


def test_simulate_without_disturbance_holds_angles(nofault_config):
    cfg = nofault_config
    traj = simulate(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    first = traj.records[0]
    worst = max(
        abs(rec.theta_cg[p] - first.theta_cg[p])
        for rec in traj.records
        for p in range(len(cfg.fleet))
    )
    assert worst < 1e-6


def test_records_are_uniformly_spaced(nofault_config):
    cfg = nofault_config
    scen = replace(cfg.scenario, t_fault=0.5e-3, t_end=2e-3)
    traj = simulate(cfg.fleet, cfg.grid, scen, cfg.solver)
    times = [r.t for r in traj.records]
    assert times[0] == 0.0
    for a, b in zip(times, times[1:]):
        assert b - a == pytest.approx(scen.dt, rel=1e-9)


def test_step_projects_q_once_for_the_whole_fleet(table_config, monkeypatch):
    # The q projection serves every unit from one call, so a step costs
    # O(n) rather than one O(n) projection per unit.
    calls = 0
    original = dynamics.q_components

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(dynamics, "q_components", counting)
    cfg = table_config
    traj = simulate(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    assert calls == len(traj.records) - 1


def test_default_tolerance_resolves_against_the_prefault_source(table_config):
    # SolverOptions() and the loaded table1 solver both mean tol_rel 1e-9 of
    # the pre-fault |v_th|, fault-on steps included.
    cfg = table_config
    default = simulate(cfg.fleet, cfg.grid, cfg.scenario, SolverOptions())
    loaded = simulate(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    assert default.records == loaded.records


def test_uncleared_deep_fault_trips_whole_fleet(table_config):
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=None)
    traj = simulate(cfg.fleet, cfg.grid, scen, cfg.solver)
    last = traj.records[-1]
    assert all(last.tripped)
    # largest unit goes first
    first_trip = {}
    for rec in traj.records:
        for p in range(5):
            if rec.tripped[p] and p not in first_trip:
                first_trip[p] = rec.t
    inv4 = 3  # 12 kVA unit
    assert all(first_trip[inv4] <= first_trip[p] for p in first_trip)


def _decision_run(cfg, scenario, checkpoints_to):
    """The run of scenario, stopped at its first trip, continued from the
    state after step checkpoints_to of the uncleared fault-on run."""
    run = prepare_run(cfg.fleet, cfg.grid, scenario.fault_depth, cfg.solver)
    records = [run.equilibrium.record]
    checkpoints = [run.equilibrium]
    fault_on = replace(scenario, t_clear=None)
    assert advance(
        run, fault_on, records, run.equilibrium, checkpoints_to, checkpoints=checkpoints
    ) is None
    failure_t = advance(run, scenario, records, checkpoints[-1], stop_at_first_trip=True)
    return Trajectory(tuple(records), scenario, run.fleet, failure_t)


def test_stop_at_first_trip_ends_the_full_run_at_its_first_trip(table_config):
    # Cleared 2 ms after a depth-0.6 fault, after Inv 4's 1.5 ms holdoff.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=cfg.scenario.t_fault + 2e-3)
    full = simulate(cfg.fleet, cfg.grid, scen, cfg.solver).records
    cut = _decision_run(cfg, scen, round(scen.t_fault / scen.dt)).records
    k_trip = next(k for k, rec in enumerate(full) if True in rec.tripped)
    assert k_trip < len(full) - 1
    assert cut == full[:k_trip + 1]


def test_stop_at_first_trip_leaves_a_run_without_trips_whole(table_config):
    # table1 clears 1 ms after the fault; the run forks from the fault-on
    # run's state one step before clearing.
    cfg = table_config
    k_clear = round(cfg.scenario.t_clear / cfg.scenario.dt)
    cut = _decision_run(cfg, cfg.scenario, k_clear - 1)
    assert cut == simulate(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)


def test_stop_at_first_trip_makes_no_step_after_a_tripped_record(table_config, monkeypatch):
    # A run continued from a state that already holds a trip is decided.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=cfg.scenario.t_fault + 2e-3)
    cut = _decision_run(cfg, scen, round(scen.t_fault / scen.dt)).records
    run = prepare_run(cfg.fleet, cfg.grid, scen.fault_depth, cfg.solver)

    def no_step(*args, **kwargs):
        raise AssertionError("stepped on from a tripped record")

    monkeypatch.setattr(dynamics, "step", no_step)
    records = list(cut)
    assert advance(run, scen, records, run.equilibrium, stop_at_first_trip=True) is None
    assert records == list(cut)


def test_step_builds_the_aggregate_once_per_voltage_solve(table_config, monkeypatch):
    # q_components takes the (C, D) aggregate that solve_vpcc converged with
    # instead of building it again from the same injections.
    counts = {"aggregate": 0, "solve": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(pcc, "aggregate", counting("aggregate", pcc.aggregate))
    monkeypatch.setattr(dynamics, "solve_vpcc", counting("solve", dynamics.solve_vpcc))
    cfg = table_config
    simulate(cfg.fleet, cfg.grid, replace(cfg.scenario, t_end=6e-3), cfg.solver)
    assert counts["aggregate"] == counts["solve"] > 600


def test_trip_follows_first_limit_by_exactly_the_holdoff(table_config):
    # limited_since carries across steps: each unit trips exactly
    # trip_holdoff after its limiting began, including Inv 1, which starts
    # limiting only after the others have tripped.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=None)
    records = simulate(cfg.fleet, cfg.grid, scen, cfg.solver).records
    for p, unit in enumerate(cfg.fleet):
        k_limit = next(k for k, rec in enumerate(records) if rec.limited[p])
        k_trip = next(k for k, rec in enumerate(records) if rec.tripped[p])
        assert k_trip - k_limit == round(unit.trip_holdoff / scen.dt)
        assert all(rec.limited[p] for rec in records[k_limit:k_trip + 1])


def test_cleared_early_returns_to_prefault(table_config):
    cfg = table_config  # clears 1 ms after inception, well under the CCT
    traj = simulate(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    first = traj.records[0]
    last = traj.records[-1]
    assert not any(last.tripped)
    for p in range(5):
        assert abs(last.theta_cg[p] - first.theta_cg[p]) < cfg.settle_tol


def test_limited_units_record_exact_ceiling(table_config):
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.5, t_clear=None, t_end=8e-3)
    traj = simulate(cfg.fleet, cfg.grid, scen, cfg.solver)
    saw_limited = False
    for rec in traj.records:
        for p, cfg_p in enumerate(cfg.fleet):
            if rec.limited[p] and not rec.tripped[p]:
                saw_limited = True
                assert rec.i_mag[p] == cfg_p.i_max
    assert saw_limited


def test_higher_xr_ratio_gives_steeper_reactive_current_rise():
    # Equal ratings, equal series impedance magnitude, different X/R.
    mag = 0.3
    lo_ratio, hi_ratio = 0.1, 0.4
    r_lo = mag / math.hypot(1.0, lo_ratio)
    r_hi = mag / math.hypot(1.0, hi_ratio)
    fleet = (
        InverterConfig("lo", 8000.0, complex(r_lo, r_lo * lo_ratio), 0.0,
                       4.5e-3, 260.0, 1000.0, trip_holdoff=1.0),
        InverterConfig("hi", 8000.0, complex(r_hi, r_hi * hi_ratio), 0.0,
                       4.5e-3, 260.0, 1000.0, trip_holdoff=1.0),
    )
    assert abs(fleet[0].z_total()) == pytest.approx(abs(fleet[1].z_total()))
    grid = _small_grid()
    scen = FaultScenario(t_fault=1e-3, t_clear=None, fault_depth=0.4, t_end=3e-3, dt=1e-5)
    traj = simulate(fleet, grid, scen, SolverOptions())
    k0 = round(scen.t_fault / scen.dt)
    k1 = round(2e-3 / scen.dt)
    slope = [
        (traj.records[k1].i_q[p] - traj.records[k0].i_q[p]) / (traj.records[k1].t - traj.records[k0].t)
        for p in range(2)
    ]
    assert slope[1] > slope[0] > 0.0


def test_bolted_fault_saturates_everyone_then_trips(table_config):
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=1.0, t_clear=None)
    traj = simulate(cfg.fleet, cfg.grid, scen, cfg.solver)
    k = round(scen.t_fault / scen.dt)
    assert all(traj.records[k].limited)
    assert all(traj.records[-1].tripped)
    # once every unit has tripped the source-less node collapses and the run
    # is truncated as instability onset
    assert traj.solver_failure_t is not None


def test_lag_mode_equilibrium_and_fault_run(table_config):
    cfg = table_config
    lag = SolverOptions(tol=cfg.solver.tol, max_iter=cfg.solver.max_iter,
                        damping=cfg.solver.damping, lag_mode=True)
    scen = replace(cfg.scenario, t_end=6e-3)
    traj = simulate(cfg.fleet, cfg.grid, scen, lag)
    first = traj.records[0]
    pre_fault_records = [r for r in traj.records if r.t < scen.t_fault]
    worst = max(
        abs(rec.theta_cg[p] - first.theta_cg[p])
        for rec in pre_fault_records
        for p in range(5)
    )
    assert worst < 1e-6
    k = round(scen.t_fault / scen.dt)
    assert traj.records[k + 1].v_pcc_mag < first.v_pcc_mag


def test_trip_latches_and_zeroes_injection():
    fleet = _small_fleet()
    grid = _small_grid()
    scen = FaultScenario(1e-3, None, 0.6, 6e-3, 1e-5)
    traj = simulate(fleet, grid, scen, SolverOptions())
    trip_idx = next(i for i, r in enumerate(traj.records) if r.tripped[1])
    for rec in traj.records[trip_idx + 1:]:
        assert rec.tripped[1]
        assert rec.i_mag[1] == 0.0


def test_overloaded_fleet_fails_initialization():
    fleet = (
        InverterConfig("A", 6000.0, complex(0.15, 0.015), 0.0, 4e-3, 260.0, 5.0),
    )
    grid = _small_grid()
    from gflswing.dynamics import InitializationFailure

    with pytest.raises(InitializationFailure):
        simulate(fleet, grid, FaultScenario(1e-3, None, 0.3, 5e-3, 1e-5))
