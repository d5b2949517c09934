import cmath
import math
from dataclasses import replace
from types import SimpleNamespace

import pytest

from gflswing import dynamics, stability
from gflswing.dynamics import (
    FaultScenario,
    InverterConfig,
    Trajectory,
    TrajectoryRecord,
    Runs,
    UnitTable,
    simulate,
    step,
)
from gflswing.network import GridModel, TheveninEquivalent, line_impedance
from gflswing.pcc import solve_vpcc
from gflswing.stability import (
    BracketInvalid,
    EmptyOrder,
    classify,
    compare_uniform,
    find_cct,
    sync_loss_order,
    uniform_fleet_of,
)


def _fleet2():
    return (
        InverterConfig("A", 6000.0, complex(0.15, 0.015), 0.16, 4.31e-3, 260.0, 55.0,
                       trip_holdoff=8e-4),
        InverterConfig("B", 12000.0, complex(0.35, 0.023), 0.0, 4.76e-3, 265.0, 55.0,
                       trip_holdoff=8e-4),
    )


def _grid2():
    pre = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.20, 0.10))
    return GridModel(pre, complex(0.10, 0.05))


def _base_scenario():
    return FaultScenario(t_fault=1e-3, t_clear=None, fault_depth=0.5, t_end=8e-3, dt=2e-5)


def _synthetic(fleet, rows, t_clear, dt=1e-3):
    """Build a trajectory from (t, theta_cg tuple, tripped tuple) rows."""
    n = len(fleet)
    records = tuple(
        TrajectoryRecord(
            t=t,
            v_pcc_mag=230.0,
            v_pcc_angle=0.0,
            theta_cg=theta,
            i_mag=(0.0,) * n,
            i_q=(0.0,) * n,
            v_gq=(0.0,) * n,
            limited=(False,) * n,
            tripped=tripped,
        )
        for t, theta, tripped in rows
    )
    t_end = rows[-1][0] if rows[-1][0] > 0 else dt
    scenario = FaultScenario(t_fault=dt, t_clear=t_clear, fault_depth=0.5,
                             t_end=t_end, dt=dt)
    return Trajectory(records, scenario, tuple(fleet))


def test_constant_trajectory_is_stable():
    fleet = _fleet2()
    rows = [(k * 1e-3, (0.1, 0.2), (False, False)) for k in range(9)]
    traj = _synthetic(fleet, rows, t_clear=2e-3)
    verdict = classify(traj, settle_tol=0.02, settle_window=2e-3)
    assert verdict.stable
    assert verdict.first_unstable is None
    assert verdict.t_settled == 0.0
    assert verdict.max_angle_excursion == 0.0


def test_angle_past_pi_reads_unstable():
    fleet = _fleet2()
    rows = []
    for k in range(9):
        t = k * 1e-3
        drift = 0.0 if k < 4 else (k - 3) * 1.1
        rows.append((t, (0.1, 0.2 + drift), (False, drift > math.pi)))
    traj = _synthetic(fleet, rows, t_clear=2e-3)
    verdict = classify(traj, settle_tol=0.02, settle_window=2e-3)
    assert not verdict.stable
    assert verdict.first_unstable == "B"
    assert verdict.t_unstable == pytest.approx(6e-3)
    assert verdict.max_angle_excursion > math.pi


def test_non_settling_angle_reads_unstable_without_trip():
    fleet = _fleet2()
    rows = [(k * 1e-3, (0.1, 0.2 + (0.05 if k >= 5 else 0.0)), (False, False))
            for k in range(9)]
    traj = _synthetic(fleet, rows, t_clear=2e-3)
    verdict = classify(traj, settle_tol=0.02, settle_window=2e-3)
    assert not verdict.stable
    assert verdict.first_unstable == "B"
    assert verdict.t_unstable == pytest.approx(5e-3)


def test_classify_rejects_short_trajectory():
    fleet = _fleet2()
    rows = [(k * 1e-3, (0.1, 0.2), (False, False)) for k in range(3)]
    traj = _synthetic(fleet, rows, t_clear=1.5e-3)
    with pytest.raises(ValueError):
        classify(traj, settle_tol=0.02, settle_window=5e-3)


def test_classify_validates_parameters():
    fleet = _fleet2()
    rows = [(k * 1e-3, (0.1, 0.2), (False, False)) for k in range(9)]
    traj = _synthetic(fleet, rows, t_clear=2e-3)
    with pytest.raises(ValueError):
        classify(traj, settle_tol=0.0, settle_window=1e-3)
    with pytest.raises(ValueError):
        classify(traj, settle_tol=0.02, settle_window=0.0)


def test_sync_loss_order_single_unit():
    fleet = _fleet2()[:1]
    rows = [(k * 1e-3, (0.1,), (k >= 3,)) for k in range(6)]
    traj = _synthetic(fleet, rows, t_clear=None)
    assert sync_loss_order(traj) == [("A", pytest.approx(3e-3))]


def test_sync_loss_order_breaks_ties_by_rating():
    fleet = _fleet2()
    rows = [(k * 1e-3, (0.1, 0.2), (k >= 3, k >= 3)) for k in range(6)]
    traj = _synthetic(fleet, rows, t_clear=None)
    order = sync_loss_order(traj)
    assert [name for name, _ in order] == ["B", "A"]


def test_sync_loss_order_empty_on_stable_run():
    fleet = _fleet2()
    rows = [(k * 1e-3, (0.1, 0.2), (False, False)) for k in range(6)]
    traj = _synthetic(fleet, rows, t_clear=None)
    with pytest.raises(EmptyOrder):
        sync_loss_order(traj)


def test_find_cct_brackets_the_trip_boundary():
    fleet = _fleet2()
    res = find_cct(fleet, _grid2(), _base_scenario(), t_min=2e-4, t_max=2e-3,
                   resolution=1e-4, settle_tol=0.02, settle_window=2e-3)
    assert res.bracket_hi - res.bracket_lo <= 1e-4 + 1e-12
    assert res.bracket_lo < res.cct <= res.bracket_hi
    # holdoff of 0.8 ms sets the boundary: clearing inside it stays stable
    assert res.cct == pytest.approx(8e-4, abs=1.5e-4)
    assert res.loss_order[0] == "B"
    assert res.monotonic
    assert len(res.evaluation_log) >= len(res.audit)
    assert dict(res.evaluation_log)  # non-empty log of (interval, verdict)


def _counting_find_cct(monkeypatch, fleet, grid, scenario, *args, **kwargs):
    """find_cct with its decisions and its loss-order run recorded: (result,
    calls), where calls.decided holds every trajectory it classifies, in
    order, calls.ordered every trajectory it takes the loss order from, and
    calls.steps counts dynamics.step calls, calls.solves the voltage solves
    and calls.iterations the iterations they took."""
    calls = SimpleNamespace(decided=[], ordered=[], steps=0, solves=0, iterations=0)
    step = dynamics.step
    solve_vpcc = dynamics.solve_vpcc

    def classifying(traj, *a, **kw):
        calls.decided.append(traj)
        return classify(traj, *a, **kw)

    def ordering(traj):
        calls.ordered.append(traj)
        return sync_loss_order(traj)

    def stepping(*a, **kw):
        calls.steps += 1
        return step(*a, **kw)

    def solving(*a, **kw):
        sol = solve_vpcc(*a, **kw)
        calls.solves += 1
        calls.iterations += sol.iterations
        return sol

    monkeypatch.setattr(stability, "classify", classifying)
    monkeypatch.setattr(stability, "sync_loss_order", ordering)
    monkeypatch.setattr(dynamics, "step", stepping)
    monkeypatch.setattr(dynamics, "solve_vpcc", solving)
    return find_cct(fleet, grid, scenario, *args, **kwargs), calls


def _clearing_steps(trajectories):
    """Clearing step of every trajectory, in order."""
    return [traj.scenario.k_clear for traj in trajectories]


def _step_of(scenario, interval):
    return replace(scenario, t_clear=scenario.t_fault + interval).k_clear


def _reference_cct(monkeypatch, cfg, scenario):
    c = cfg.cct
    return _counting_find_cct(
        monkeypatch, cfg.fleet, cfg.grid, scenario, c.t_min, c.t_max, c.resolution,
        cfg.settle_tol, cfg.settle_window, cfg.solver, c.audit_samples,
    )


def test_find_cct_simulates_each_clearing_step_once(table_config, monkeypatch):
    # 2 bracket + 7 bisection decisions, and the audit adds only 3.42 ms:
    # its 1.28 ms and 2.35 ms intervals are bisection steps, and 0.2 ms and
    # 4.5 ms are the bracket itself. One further run, to t_end, of
    # bracket_hi's clearing step gives the loss order.
    res, calls = _reference_cct(monkeypatch, table_config, table_config.scenario)
    steps = _clearing_steps(calls.decided)
    assert len(steps) == 10
    assert len(res.evaluation_log) == len(steps) == len(set(steps))
    assert len(res.audit) == 5
    log = dict(res.evaluation_log)
    assert log[res.bracket_lo] is True and log[res.bracket_hi] is False
    assert _clearing_steps(calls.ordered) == [_step_of(table_config.scenario, res.bracket_hi)]


def test_find_cct_decision_runs_stop_at_their_first_trip(table_config, monkeypatch):
    # The fault-on run stops at step 450, where Inv 4 trips the 1.5 ms
    # holdoff after the 3 ms fault. The 4 stable decisions (clearing steps
    # 320, 428, 442 and 449) continue from its state before their clearing
    # step to step 2,200; the 6 unstable ones (750, 535, 482, 455, 452 and
    # 642) clear after step 450 and step nothing. The loss-order run
    # continues from step 450 to 2,200:
    # 450 + 1,881 + 1,773 + 1,759 + 1,752 + 1,750 steps.
    _, calls = _reference_cct(monkeypatch, table_config, table_config.scenario)
    for traj in calls.decided:
        assert not any(True in rec.tripped for rec in traj.records[:-1])
    assert _clearing_steps(calls.decided) == [
        320, 750, 535, 428, 482, 455, 442, 449, 452, 642,
    ]
    assert calls.steps == 9_365


def test_find_cct_voltage_solves_start_from_the_last_voltage(table_config, monkeypatch):
    # step seeds each voltage solve with the previous step's PCC voltage and
    # starts Newton there: the reference search takes 18,512 iterations
    # over its 9,384 solves, where solves started from v_th took 131,255.
    _, calls = _reference_cct(monkeypatch, table_config, table_config.scenario)
    assert calls.solves == 9_384
    assert calls.iterations <= 19_000


def test_find_cct_decisions_equal_full_runs_cut_at_their_first_trip(
    table_config, monkeypatch
):
    # Every trajectory find_cct classifies is the full run of its clearing
    # step cut at its first trip, every logged verdict (those taken from the
    # fault-on run included) is the full run's, and the loss-order run is
    # the full run of bracket_hi's clearing step.
    cfg = table_config
    res, calls = _reference_cct(monkeypatch, cfg, cfg.scenario)
    for traj in calls.decided:
        full = simulate(cfg.fleet, cfg.grid, traj.scenario, cfg.solver)
        k_trip = next(
            (k for k, rec in enumerate(full.records) if True in rec.tripped),
            len(full.records) - 1,
        )
        assert traj.records == full.records[:k_trip + 1]
    for interval, stable in res.evaluation_log:
        at = replace(cfg.scenario, t_clear=cfg.scenario.t_fault + interval)
        full = simulate(cfg.fleet, cfg.grid, at, cfg.solver)
        assert stable == classify(full, cfg.settle_tol, cfg.settle_window).stable
    at_hi = replace(cfg.scenario, t_clear=cfg.scenario.t_fault + res.bracket_hi)
    assert calls.ordered == [simulate(cfg.fleet, cfg.grid, at_hi, cfg.solver)]


def test_find_cct_loss_order_is_that_of_bracket_hi(table_config, monkeypatch):
    # At depth 0.7 clearing at t_max trips a fifth unit that clearing at
    # bracket_hi does not, so the order must come from the bracket_hi run.
    cfg = table_config
    scenario = replace(cfg.scenario, fault_depth=0.7)
    res, calls = _reference_cct(monkeypatch, cfg, scenario)
    assert _clearing_steps(calls.ordered) == [_step_of(scenario, res.bracket_hi)]
    at_hi = replace(scenario, t_clear=scenario.t_fault + res.bracket_hi)
    order = sync_loss_order(simulate(cfg.fleet, cfg.grid, at_hi, cfg.solver))
    assert res.loss_order == tuple(name for name, _ in order)
    at_max = replace(scenario, t_clear=scenario.t_fault + cfg.cct.t_max)
    assert len(sync_loss_order(simulate(cfg.fleet, cfg.grid, at_max, cfg.solver))) > len(order)


def test_find_cct_rejects_a_resolution_below_dt():
    # No bracket is narrower than one step; at dt itself it is one step.
    scenario = _base_scenario()
    with pytest.raises(ValueError, match="resolution must be at least dt"):
        find_cct(_fleet2(), _grid2(), scenario, t_min=2e-4, t_max=2e-3,
                 resolution=scenario.dt / 4, settle_tol=0.02, settle_window=2e-3)
    res = find_cct(_fleet2(), _grid2(), scenario, t_min=2e-4, t_max=2e-3,
                   resolution=scenario.dt, settle_tol=0.02, settle_window=2e-3)
    assert round((res.bracket_hi - res.bracket_lo) / scenario.dt) == 1
    log = dict(res.evaluation_log)
    assert log[res.bracket_lo] is True and log[res.bracket_hi] is False


def test_find_cct_rejects_depthless_fault():
    fleet = _fleet2()
    scenario = replace(_base_scenario(), fault_depth=0.0)
    with pytest.raises(BracketInvalid) as err:
        find_cct(fleet, _grid2(), scenario, t_min=2e-4, t_max=2e-3,
                 resolution=1e-4, settle_tol=0.02, settle_window=2e-3)
    assert err.value.lo_stable and err.value.hi_stable


def test_find_cct_validates_bracket_and_coverage():
    fleet = _fleet2()
    with pytest.raises(ValueError):
        find_cct(fleet, _grid2(), _base_scenario(), t_min=2e-3, t_max=2e-4,
                 resolution=1e-4)
    with pytest.raises(ValueError):
        find_cct(fleet, _grid2(), _base_scenario(), t_min=2e-4, t_max=2e-3,
                 resolution=-1.0)
    short = replace(_base_scenario(), t_end=3e-3)
    with pytest.raises(ValueError):
        find_cct(fleet, _grid2(), short, t_min=2e-4, t_max=2e-3,
                 resolution=1e-4, settle_window=2e-3)
    # t_min and t_max are taken to steps: they must round to distinct
    # non-zero steps, and an infinite t_max has no step.
    for t_min, t_max in ((5e-6, 2e-3), (2e-4, 2.05e-4), (2e-4, math.inf)):
        with pytest.raises(ValueError):
            find_cct(fleet, _grid2(), _base_scenario(), t_min=t_min, t_max=t_max,
                     resolution=1e-4, settle_window=2e-3)


def _steady_trajectory():
    rows = [(k * 1e-3, (0.1, 0.2), (False, False)) for k in range(9)]
    return _synthetic(_fleet2(), rows, t_clear=2e-3)


def _step_by(dt):
    run = Runs(_fleet2(), _grid2(), _base_scenario())
    return step(
        run.equilibrium, UnitTable(_fleet2(), dt), run.prefault, run.opts,
        run.equilibrium.record.theta_cg,
    )


NAN = math.nan


# A check written as x <= 0 lets NaN through: every comparison with NaN is
# false. Each of these calls must raise rather than run on a NaN.
@pytest.mark.parametrize("call", [
    lambda: find_cct(_fleet2(), _grid2(), _base_scenario(), t_min=2e-4, t_max=2e-3,
                     resolution=NAN),
    lambda: classify(_steady_trajectory(), settle_tol=NAN, settle_window=2e-3),
    lambda: classify(_steady_trajectory(), settle_tol=0.02, settle_window=NAN),
    lambda: FaultScenario(1e-3, None, 0.5, 8e-3, NAN),
    lambda: _step_by(NAN),
    lambda: InverterConfig("X", NAN, complex(0.1, 0.0), 0.0, 1e-3, 100.0, 10.0),
    lambda: InverterConfig("X", 100.0, complex(0.1, 0.0), NAN, 1e-3, 100.0, 10.0),
    lambda: InverterConfig("X", 100.0, complex(0.1, 0.0), 0.0, NAN, 100.0, 10.0),
    lambda: InverterConfig("X", 100.0, complex(0.1, 0.0), 0.0, 1e-3, NAN, 10.0),
    lambda: InverterConfig("X", 100.0, complex(0.1, 0.0), 0.0, 1e-3, 100.0, NAN),
    lambda: InverterConfig("X", 100.0, complex(0.1, 0.0), 0.0, 1e-3, 100.0, 10.0,
                           trip_holdoff=NAN),
    lambda: line_impedance(NAN, 1e-6, 50.0),
    lambda: line_impedance(0.1, NAN, 50.0),
    lambda: line_impedance(0.1, 1e-6, NAN),
    lambda: TheveninEquivalent(230.0, complex(NAN, 0.1)),
    lambda: solve_vpcc(_grid2().prefault, (1000.0 + 0j, 0j), NAN, 10),
    lambda: InverterConfig("X", 100.0, complex(NAN, 0.0), 0.0, 1e-3, 100.0, 10.0),
    lambda: InverterConfig("X", 100.0, complex(0.1, NAN), 0.0, 1e-3, 100.0, 10.0),
    lambda: InverterConfig("X", 100.0, complex(0.1, 0.0), 0.0, 1e-3, 100.0, 10.0,
                           pf_angle=NAN),
    lambda: TheveninEquivalent(NAN, complex(0.2, 0.1)),
    lambda: TheveninEquivalent(230.0, complex(0.2, NAN)),
    lambda: GridModel(_grid2().prefault, complex(NAN, 0.05)),
], ids=["find_cct_resolution", "classify_settle_tol", "classify_settle_window",
        "scenario_dt", "step_dt", "s_rated", "r_virtual", "kp", "ki", "i_max",
        "trip_holdoff", "line_resistance", "line_inductance", "frequency",
        "thevenin_resistance", "solve_vpcc_tol", "z_line_resistance",
        "z_line_reactance", "pf_angle", "thevenin_voltage", "thevenin_reactance",
        "load_impedance"])
def test_range_checks_reject_nan(call):
    with pytest.raises(ValueError):
        call()


def test_uniform_fleet_preserves_totals():
    fleet = (
        InverterConfig("A", 6000.0, complex(0.2, 0.02), 0.1, 4e-3, 250.0, 40.0),
        InverterConfig("B", 12000.0, complex(0.2, 0.02), 0.1, 5e-3, 270.0, 60.0),
    )
    uni = uniform_fleet_of(fleet)
    assert len(uni) == 2
    assert all(c.s_rated == 9000.0 for c in uni)
    assert sum(c.s_rated for c in uni) == sum(c.s_rated for c in fleet)
    assert all(c.z_line == complex(0.2, 0.02) for c in uni)
    assert all(c.kp == pytest.approx(4.5e-3) for c in uni)
    assert all(c.i_max == pytest.approx(50.0) for c in uni)
    assert len({c.name for c in uni}) == 2


def test_self_comparison_has_zero_delta():
    fleet = uniform_fleet_of(_fleet2())
    comp = compare_uniform(fleet, _grid2(), _base_scenario(), t_min=2e-4,
                           t_max=2e-3, resolution=1e-4, settle_tol=0.02,
                           settle_window=2e-3)
    assert comp.delta == 0.0
    assert comp.cct_uniform == comp.cct_nonuniform


def test_compare_uniform_requires_two_units():
    with pytest.raises(ValueError):
        compare_uniform(_fleet2()[:1], _grid2(), _base_scenario(), 2e-4, 2e-3, 1e-4)


def test_nonuniform_fleet_spreads_divergence_times(table_config):
    # Under the same sustained fault, identical units leave synchronism
    # together while the mixed fleet staggers.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=None)
    traj_mixed = simulate(cfg.fleet, cfg.grid, scen, cfg.solver)
    traj_uni = simulate(uniform_fleet_of(cfg.fleet), cfg.grid, scen, cfg.solver)
    times_mixed = [t for _, t in sync_loss_order(traj_mixed)]
    times_uni = [t for _, t in sync_loss_order(traj_uni)]
    spread_mixed = max(times_mixed) - min(times_mixed)
    spread_uni = max(times_uni) - min(times_uni)
    assert spread_mixed > spread_uni
