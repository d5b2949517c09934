import cmath
import math
from dataclasses import replace

import pytest

from gflswing import dynamics
from gflswing.cli import bundled_config_path, load_config
from gflswing.dynamics import (
    FaultScenario,
    InverterConfig,
    SolverOptions,
    Runs,
    UnitTable,
    simulate,
    step,
)
from gflswing.network import (
    GridModel,
    TheveninEquivalent,
    equivalent_impedance,
    faulted_grid,
)
from gflswing.pcc import solve_vpcc
from gflswing.stability import classify
from helpers_oracles import aggregate_cd


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


def _runs(fleet, grid, opts=None):
    return Runs(fleet, grid, FaultScenario(1e-3, None, 0.5, 8e-3, 1e-5), opts)


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


def _assert_fixed_point(fleet, grid):
    run = _runs(fleet, grid)
    state = run.equilibrium
    assert all(v_gq == 0.0 for v_gq in state.record.v_gq)
    nxt = step(state, run.units, run.prefault, run.opts, state.record.theta_cg)
    before, after = state.record, nxt.record
    for p, cfg in enumerate(fleet):
        assert after.theta_cg[p] == pytest.approx(before.theta_cg[p], abs=1e-9)
        omega_dev = cfg.kp * after.v_gq[p] + cfg.ki * nxt.integral[p]
        assert abs(omega_dev) < 1e-6
        assert not after.limited[p] and not after.tripped[p]
    assert after.v_pcc_mag == pytest.approx(before.v_pcc_mag, rel=1e-9)


def test_equilibrium_is_a_fixed_point_of_step():
    _assert_fixed_point(_small_fleet(), _small_grid())


def test_table1_nofault_holds_its_equilibrium_to_round_off(nofault_config):
    # find_equilibrium and step solve the PCC voltage the same way, so with
    # no fault every angle holds its pre-fault value to round-off.
    cfg = nofault_config
    traj = simulate(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    assert classify(traj).max_angle_excursion <= 1e-12
    assert classify(traj, settle_tol=1e-12).stable


def _pf_fleet():
    return tuple(
        replace(cfg, pf_angle=pf) for cfg, pf in zip(_small_fleet(), (0.2, -0.2))
    )


def test_pf_angle_equilibrium_is_a_fixed_point_of_step():
    _assert_fixed_point(_pf_fleet(), _small_grid())


def test_pf_angle_fault_step_matches_the_termwise_projection():
    # v_gq = Im((v_pcc + z_s i e^{j theta_cg}) e^{-j theta}) in each unit's
    # PLL frame theta = theta_cg - pf_angle, within criterion 3's bound, for
    # an unlimited unit (A) and a limited one (B). The tight tolerance keeps
    # the solve residual far below that bound.
    fleet = _pf_fleet()
    run = _runs(fleet, _small_grid(), SolverOptions(tol=1e-11))
    state = run.equilibrium
    nxt = step(state, run.units, run.fault, run.opts, state.record.theta_cg)
    rec = nxt.record
    assert rec.limited == (False, True) and not any(rec.tripped)
    v_pcc = cmath.rect(rec.v_pcc_mag, rec.v_pcc_angle)
    scale = max(abs(v_pcc), abs(run.fault.grid.v_th))
    for p, cfg in enumerate(fleet):
        full = v_pcc + cfg.z_total() * rec.i_mag[p] * cmath.exp(1j * state.record.theta_cg[p])
        oracle = (full * cmath.exp(-1j * state.theta[p])).imag
        assert abs(rec.v_gq[p] - oracle) <= 1e-9 * max(abs(full), scale)
        assert abs(oracle) > 1e-3  # the fault moved every unit off lock
        # The PLLs take the PI update from that v_gq, bit for bit.
        integral = state.integral[p] + rec.v_gq[p] * 1e-5
        theta = state.theta[p] + (cfg.kp * rec.v_gq[p] + cfg.ki * integral) * 1e-5
        assert (nxt.theta[p], nxt.integral[p]) == (theta, integral)
        assert rec.theta_cg[p] == theta + cfg.pf_angle


def test_direct_fault_on_step_equals_the_step_a_run_makes():
    # step solves to the run's tolerance, resolved once against the
    # pre-fault source; it resolves none of its own.
    fleet = _small_fleet()
    dt = 1e-5
    scenario = FaultScenario(0.0, None, 0.5, 10 * dt, dt)
    run = Runs(fleet, _small_grid(), scenario, SolverOptions())
    direct = step(
        run.equilibrium, run.units, run.fault, run.opts, run.equilibrium.record.theta_cg,
    )
    traj = run.run(None)
    assert traj.solver_failure_t is None
    assert traj.records[1] == direct.record
    with pytest.raises(ValueError):
        step(
            run.equilibrium, run.units, run.fault, SolverOptions(),
            run.equilibrium.record.theta_cg,
        )


@pytest.mark.parametrize("dt", [0.0, -1e-5])
def test_unit_table_rejects_a_non_positive_dt(dt):
    # step takes its dt from the unit table, which counts holdoffs in it.
    with pytest.raises(ValueError, match="dt must be positive"):
        UnitTable(_small_fleet(), dt)


def test_fault_step_depresses_voltage():
    run = _runs(_small_fleet(), _small_grid())
    state = run.equilibrium
    nxt = step(state, run.units, run.fault, run.opts, state.record.theta_cg)
    assert nxt.record.v_pcc_mag < state.record.v_pcc_mag


def test_removing_one_injection_lowers_voltage_and_raises_currents():
    # Paired voltage solves under the fault-on equivalent: dropping the first
    # unit's power must depress the node and push up everyone else's current.
    fleet = _small_fleet()
    grid = _small_grid()
    fault = faulted_grid(grid, 0.4)
    zeq = equivalent_impedance(fleet, fault, grid.z_load)
    theta = (0.03, 0.04)
    with_all = solve_vpcc(fault, aggregate_cd(zeq, (6000.0, 12000.0), theta),
                          tol=1e-9, max_iter=100)
    without_first = solve_vpcc(fault, aggregate_cd(zeq, (0.0, 12000.0), theta),
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


@pytest.mark.parametrize("name", ["table1.yaml", "table1_uncleared.yaml"])
def test_every_record_is_at_its_step_index_times_dt(name):
    # Record k is at exactly k * dt: times come from the step index, not
    # from adding dt k times.
    cfg = load_config(bundled_config_path(name))
    dt = cfg.scenario.dt
    records = simulate(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver).records
    assert [rec.t for rec in records] == [k * dt for k in range(len(records))]


def test_table1_is_first_order_in_dt(table_config):
    # Halving dt halves the largest theta_cg difference at common records:
    # 1.009e-5 rad between dt and dt/2, 5.05e-6 rad between dt/2 and dt/4.
    cfg = table_config
    runs = [
        simulate(cfg.fleet, cfg.grid, replace(cfg.scenario, dt=cfg.scenario.dt / m), cfg.solver)
        for m in (1, 2, 4)
    ]

    def largest_difference(coarse, fine):
        return max(
            abs(a - b)
            for k, rec in enumerate(coarse.records)
            for a, b in zip(rec.theta_cg, fine.records[2 * k].theta_cg)
        )

    d_half = largest_difference(runs[0], runs[1])
    d_quarter = largest_difference(runs[1], runs[2])
    assert 1.9 <= d_half / d_quarter <= 2.1
    assert d_half < 2e-5


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


@pytest.mark.parametrize("name", ["table1.yaml", "table1_uncleared.yaml"])
@pytest.mark.parametrize(
    "depth, cleared_after, stable, failure_step, n_records",
    [
        (0.5, None, False, None, 2201),
        (0.5, 1e-3, True, None, 2201),
        (0.9, None, False, None, 2201),
        (0.9, 1e-3, True, None, 2201),
        # Every unit has tripped by 4.5 ms; the source-less node fails to
        # solve at step 451 (4.51 ms) and the run ends there.
        (1.0, None, False, 451, 452),
        (1.0, 1e-3, True, None, 2201),
    ],
)
def test_deep_fault_verdicts_and_solver_failures_are_pinned(
    name, depth, cleared_after, stable, failure_step, n_records
):
    cfg = load_config(bundled_config_path(name))
    t_clear = None if cleared_after is None else cfg.scenario.t_fault + cleared_after
    scen = replace(cfg.scenario, fault_depth=depth, t_clear=t_clear)
    traj = simulate(cfg.fleet, cfg.grid, scen, cfg.solver)
    assert classify(traj, cfg.settle_tol, cfg.settle_window).stable is stable
    if failure_step is None:
        assert traj.solver_failure_t is None
    else:
        assert traj.solver_failure_t == failure_step * scen.dt
    assert len(traj.records) == n_records


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


def _decision_run(cfg, scenario):
    """The run of scenario, stopped at its first trip, continued from the
    uncleared fault-on run."""
    runs = Runs(cfg.fleet, cfg.grid, scenario, cfg.solver)
    return runs.run(scenario.t_clear, stop_at_first_trip=True)


def test_stop_at_first_trip_ends_the_full_run_at_its_first_trip(table_config):
    # Cleared 2 ms after a depth-0.6 fault, after Inv 4's 1.5 ms holdoff.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=cfg.scenario.t_fault + 2e-3)
    full = simulate(cfg.fleet, cfg.grid, scen, cfg.solver).records
    cut = _decision_run(cfg, scen).records
    k_trip = next(k for k, rec in enumerate(full) if True in rec.tripped)
    assert k_trip < len(full) - 1
    assert cut == full[:k_trip + 1]


def test_stop_at_first_trip_leaves_a_run_without_trips_whole(table_config):
    # table1 clears 1 ms after the fault; the run forks from the fault-on
    # run's state one step before clearing.
    cfg = table_config
    cut = _decision_run(cfg, cfg.scenario)
    assert cut == simulate(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)


def test_stop_at_first_trip_makes_no_step_after_a_tripped_record(table_config, monkeypatch):
    # A run continued from a state that already holds a trip is decided.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=cfg.scenario.t_fault + 2e-3)
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)
    cut = runs.run(scen.t_clear, stop_at_first_trip=True)

    def no_step(*args, **kwargs):
        raise AssertionError("stepped on from a tripped record")

    monkeypatch.setattr(dynamics, "step", no_step)
    again = runs.run(scen.t_clear, stop_at_first_trip=True)
    assert again.solver_failure_t is None
    assert again.records == cut.records


@pytest.mark.parametrize("depth", [0.3, 0.6, 1.0])
def test_runs_in_any_order_equal_simulate(table_config, depth):
    # The fault-on run is stepped on demand, so the order of requests must
    # not matter: t_max's clearing first, then t_min's, then none, then
    # table1's own. At each depth the fault-on run trips at step 450,
    # between t_min's clearing step and t_max's; at depth 1.0 the uncleared
    # run then fails to solve at step 451 (see the pinned deep-fault verdicts).
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=depth)
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)
    for t_clear in (
        scen.t_fault + cfg.cct.t_max, scen.t_fault + cfg.cct.t_min, None, scen.t_clear
    ):
        full = simulate(cfg.fleet, cfg.grid, replace(scen, t_clear=t_clear), cfg.solver)
        assert runs.run(t_clear) == full
        cut = runs.run(t_clear, stop_at_first_trip=True).records
        k_trip = next(
            (k for k, rec in enumerate(full.records) if True in rec.tripped),
            len(full.records) - 1,
        )
        assert cut == full.records[:k_trip + 1]


def _count_steps(monkeypatch):
    calls = [0]
    original = dynamics.step

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(dynamics, "step", counting)
    return calls


def test_cleared_runs_of_one_runs_step_their_shared_prefix_once(table_config, monkeypatch):
    # A run clearing at step k shares steps 1 .. k - 1 with the fault-on
    # run; once another run has stepped them, it steps only the rest.
    cfg = table_config
    scen = cfg.scenario
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)
    calls = _count_steps(monkeypatch)
    first = runs.run(scen.t_clear)
    assert calls[0] == len(first.records) - 1
    k_first = round(scen.t_clear / scen.dt)
    for t_clear in (scen.t_fault + cfg.cct.t_max, scen.t_fault + cfg.cct.t_min):
        before = calls[0]
        traj = runs.run(t_clear)
        k_shared = min(k_first, round(t_clear / scen.dt)) - 1
        assert calls[0] - before == len(traj.records) - 1 - k_shared


def test_an_uncleared_run_keeps_no_states(table_config, monkeypatch):
    # The uncleared run steps from the equilibrium and keeps nothing, so a
    # cleared run made after it steps its own fault-on prefix.
    cfg = table_config
    scen = cfg.scenario
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)
    calls = _count_steps(monkeypatch)
    uncleared = runs.run(None)
    assert calls[0] == len(uncleared.records) - 1
    before = calls[0]
    cleared = runs.run(scen.t_clear)
    assert calls[0] - before == len(cleared.records) - 1
    assert cleared == simulate(cfg.fleet, cfg.grid, scen, cfg.solver)


def test_step_hands_every_voltage_solve_an_aggregate(table_config, monkeypatch):
    # step sums (C, D) from its per-run table and hands it to solve_vpcc;
    # q_components takes the aggregate of the step's last solve. Limiter
    # re-solves (Inv 4 limits from 3 ms) are included.
    cfg = table_config
    scenario = replace(cfg.scenario, fault_depth=0.6, t_end=6e-3)
    run = Runs(cfg.fleet, cfg.grid, scenario, cfg.solver)
    solved = []
    projected = []

    def solving(grid, agg, *args):
        c, d = agg
        assert isinstance(c, complex) and isinstance(d, complex)
        solved.append(agg)
        return solve_vpcc(grid, agg, *args)

    def projecting(grid, v_pcc, agg, *args):
        projected.append(agg is solved[-1])
        return q_components(grid, v_pcc, agg, *args)

    q_components = dynamics.q_components
    monkeypatch.setattr(dynamics, "solve_vpcc", solving)
    monkeypatch.setattr(dynamics, "q_components", projecting)
    records = run.run(scenario.t_clear).records
    assert len(projected) == len(records) - 1 == 600
    assert all(projected)
    assert len(solved) > len(projected)


@pytest.mark.parametrize("dt", [1e-5, 7e-5])
def test_trip_follows_first_limit_by_exactly_the_holdoff(table_config, dt):
    # limited_since carries across steps: each unit trips exactly
    # trip_holdoff, in whole steps, after its limiting began, including
    # Inv 1, which starts limiting only after the others have tripped. At
    # 7e-5 s the 1.5 ms holdoff is 21.43 steps, so the nearest, 21.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=None, dt=dt)
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
