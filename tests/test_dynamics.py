import cmath
import math
from dataclasses import fields, replace
from itertools import islice

import pytest

from gflswing import dynamics
from gflswing.cli import bundled_config_path, cmd_simulate, load_config
from gflswing.dynamics import (
    FaultScenario,
    InitializationFailure,
    InverterConfig,
    SolverOptions,
    Runs,
    TrajectoryRecord,
    UnitTable,
    step,
)
from gflswing.network import GridModel, equivalent_impedance
from gflswing.pcc import NonConvergence, solve_vpcc
from gflswing.stability import DEFAULT_SETTLE_WINDOW_S, RunFold
from helpers_oracles import aggregate_cd, decided, quadrature_currents, records_of


def _small_fleet():
    return (
        InverterConfig("A", 6000.0, complex(0.15, 0.015), 0.16, 4.31e-3, 260.0, 55.0,
                       trip_holdoff=8e-4),
        InverterConfig("B", 12000.0, complex(0.35, 0.023), 0.0, 4.76e-3, 265.0, 55.0,
                       trip_holdoff=8e-4),
    )


def _small_grid():
    return GridModel(cmath.rect(230.0, 0.0), complex(0.20, 0.10), complex(0.10, 0.05))


def _runs(fleet, grid, opts=None):
    return Runs(fleet, grid, FaultScenario(1e-3, None, 0.5, 8e-3, 1e-5), opts)


def test_inverter_config_validation():
    with pytest.raises(ValueError):
        InverterConfig("X", 0.0, complex(0.1, 0.0), 0.0, 1e-3, 100.0, 10.0)
    with pytest.raises(ValueError):
        InverterConfig("X", 100.0, complex(0.1, 0.0), 0.0, -1e-3, 100.0, 10.0)
    with pytest.raises(ValueError):
        InverterConfig("X", 100.0, complex(0.1, 0.0), 0.0, 1e-3, 100.0, 0.0)


def test_runs_reject_an_empty_fleet():
    # A Runs of no unit has no equilibrium and no PCC current to solve for.
    for fleet in ((), []):
        with pytest.raises(ValueError, match="^fleet must be non-empty$"):
            _runs(fleet, _small_grid())


def test_fault_scenario_validation():
    with pytest.raises(ValueError):
        FaultScenario(0.0, None, 0.5, 1e-2, 0.0)
    with pytest.raises(ValueError):
        FaultScenario(2e-2, None, 0.5, 1e-2, 1e-5)
    with pytest.raises(ValueError):
        FaultScenario(1e-3, 0.5e-3, 0.5, 1e-2, 1e-5)
    with pytest.raises(ValueError):
        FaultScenario(1e-3, None, 1.5, 1e-2, 1e-5)


def test_a_fault_of_half_a_step_or_less_is_rejected(table_config):
    # t_clear - t_fault rounds to 0 steps: the fault would last no step, and
    # the run would read as one that never saw it (0.4 dt gave a largest
    # excursion of 7.8e-15 rad). 0.6 dt rounds to one step under the fault.
    cfg = table_config
    scen = cfg.scenario
    for short in (0.4, 0.5):
        with pytest.raises(ValueError, match="more than half a step"):
            replace(scen, t_clear=scen.t_fault + short * scen.dt)
    once = replace(scen, t_clear=scen.t_fault + 0.6 * scen.dt)
    assert once.k_clear == once.k_fault + 1
    records = records_of(cfg.fleet, cfg.grid, once, cfg.solver)
    k = once.k_fault
    eq = records[0]
    assert records[k].v_pcc_mag < 0.8 * eq.v_pcc_mag
    assert records[k + 1].v_pcc_mag > 0.9 * eq.v_pcc_mag
    assert RunFold(records, cfg.fleet, once, math.inf).max_excursion > 1e-6


def test_a_cleared_fault_at_step_0_is_rejected(table_config):
    # Record 0 is the equilibrium and no step makes it, so a cleared fault at
    # step 0 would act one step short: a one-step fault at t_fault = 0 left
    # the lowest PCC voltage at 259.06 V, against 136.49 V at t_fault = dt.
    scen = replace(table_config.scenario, fault_depth=0.6, t_clear=None)
    dt = scen.dt
    for t_fault in (0.0, 0.5 * dt):
        with pytest.raises(ValueError, match=r"^t_fault must lie more than half a step"):
            replace(scen, t_fault=t_fault, t_clear=t_fault + dt)
        assert replace(scen, t_fault=t_fault).k_fault == 0  # uncleared stays valid
    once = replace(scen, t_fault=dt, t_clear=2 * dt)
    records = records_of(table_config.fleet, table_config.grid, once, table_config.solver)
    assert min(rec.v_pcc_mag for rec in records) < 0.6 * records[0].v_pcc_mag


def _assert_fixed_point(fleet, grid):
    run = _runs(fleet, grid)
    before = run.equilibrium
    assert all(v_gq == 0.0 for v_gq in before.v_gq)
    after = step(before, run.units, run.prefault, before.theta_cg)
    for p, cfg in enumerate(fleet):
        assert after.theta_cg[p] == pytest.approx(before.theta_cg[p], abs=1e-9)
        omega_dev = cfg.kp * after.v_gq[p] + cfg.ki * after.integral[p]
        assert abs(omega_dev) < 1e-6
        assert not after.limited[p] and not after.tripped[p]
    assert after.v_pcc_mag == pytest.approx(before.v_pcc_mag, rel=1e-9)


def test_equilibrium_is_a_fixed_point_of_step():
    _assert_fixed_point(_small_fleet(), _small_grid())


def test_table1_nofault_holds_its_equilibrium_to_round_off(nofault_config):
    # find_equilibrium and step solve the PCC voltage the same way, so with
    # no fault every angle holds its pre-fault value to round-off.
    cfg = nofault_config
    fold = RunFold(
        Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver).stream(cfg.scenario.t_clear),
        cfg.fleet, cfg.scenario, 1e-12,
    )
    assert fold.max_excursion <= 1e-12
    assert fold.verdict(DEFAULT_SETTLE_WINDOW_S).stable


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
    run = _runs(fleet, _small_grid(), SolverOptions(tol_rel=1e-11 / 230.0))
    eq = run.equilibrium
    rec = step(eq, run.units, run.fault, eq.theta_cg)
    assert rec.limited == (False, True) and not any(rec.tripped)
    v_pcc = cmath.rect(rec.v_pcc_mag, rec.v_pcc_angle)
    scale = max(abs(v_pcc), abs(run.fault))
    for p, cfg in enumerate(fleet):
        full = v_pcc + cfg.z_total() * rec.i_mag[p] * cmath.exp(1j * eq.theta_cg[p])
        oracle = (full * cmath.exp(-1j * eq.theta[p])).imag
        assert abs(rec.v_gq[p] - oracle) <= 1e-9 * max(abs(full), scale)
        assert abs(oracle) > 1e-3  # the fault moved every unit off lock
        # The PLLs take the PI update from that v_gq, bit for bit.
        integral = eq.integral[p] + rec.v_gq[p] * 1e-5
        theta = eq.theta[p] + (cfg.kp * rec.v_gq[p] + cfg.ki * integral) * 1e-5
        assert (rec.theta[p], rec.integral[p]) == (theta, integral)
        assert rec.theta_cg[p] == theta + cfg.pf_angle


def test_direct_fault_on_step_equals_the_step_a_run_makes():
    # step solves to the tolerance in the run's unit table, resolved once
    # against the pre-fault source; it resolves none of its own.
    fleet = _small_fleet()
    dt = 1e-5
    scenario = FaultScenario(0.0, None, 0.5, 10 * dt, dt)
    run = Runs(fleet, _small_grid(), scenario, SolverOptions())
    direct = step(run.equilibrium, run.units, run.fault, run.equilibrium.theta_cg)
    stream = run.stream(None)
    records = tuple(stream)
    assert stream.solver_failure_t is None
    assert records[1] == direct


@pytest.mark.parametrize("dt", [0.0, -1e-5])
def test_unit_table_rejects_a_non_positive_dt(dt):
    # step takes its dt from the unit table, which counts holdoffs in it.
    with pytest.raises(ValueError, match="dt must be positive"):
        UnitTable(_small_fleet(), _small_grid(), dt, 230e-9, 100)


def test_fault_step_depresses_voltage():
    run = _runs(_small_fleet(), _small_grid())
    eq = run.equilibrium
    assert step(eq, run.units, run.fault, eq.theta_cg).v_pcc_mag < eq.v_pcc_mag


def test_removing_one_injection_lowers_voltage_and_raises_currents():
    # Paired voltage solves under the fault-on equivalent: dropping the first
    # unit's power must depress the node and push up everyone else's current.
    fleet = _small_fleet()
    grid = _small_grid()
    fault = (1.0 - 0.4) * grid.v_th
    zeq = equivalent_impedance(fleet, grid)
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
    records = records_of(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    first = records[0]
    worst = max(
        abs(rec.theta_cg[p] - first.theta_cg[p])
        for rec in records
        for p in range(len(cfg.fleet))
    )
    assert worst < 1e-6


def test_trajectory_record_fields_are_pinned():
    # A record carries no time: record k is at k * dt. It carries what the
    # next step reads, and no step index, and the excursion that its own
    # step measured for the divergence trip, which RunFold reads instead of
    # taking every unit's deviation again; i_q, which no step reads, is
    # derived by the trajectory writer.
    assert [f.name for f in fields(TrajectoryRecord)] == [
        "v_pcc_mag", "v_pcc_angle", "theta_cg", "i_mag", "v_gq", "limited", "tripped",
        "theta", "integral", "limited_steps", "excursion",
    ]


@pytest.mark.parametrize("name", ["table1.yaml", "table1_uncleared.yaml"])
def test_every_record_is_at_its_step_index_times_dt(name, tmp_path):
    # Row k of trajectory.csv is at exactly k * dt: times come from the
    # step index, not from adding dt k times.
    cfg = load_config(bundled_config_path(name))
    dt = cfg.scenario.dt
    cmd_simulate(cfg, tmp_path)
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == cfg.scenario.k_end + 1
    times = [row.split(",", 1)[0] for row in rows]
    assert times == ["%.9e" % (k * dt) for k in range(len(rows))]


def test_table1_is_first_order_in_dt(table_config):
    # Halving dt halves the largest theta_cg difference at common records:
    # 1.009e-5 rad between dt and dt/2, 5.05e-6 rad between dt/2 and dt/4.
    cfg = table_config
    runs = [
        records_of(cfg.fleet, cfg.grid, replace(cfg.scenario, dt=cfg.scenario.dt / m), cfg.solver)
        for m in (1, 2, 4)
    ]

    def largest_difference(coarse, fine):
        return max(
            abs(a - b)
            for k, rec in enumerate(coarse)
            for a, b in zip(rec.theta_cg, fine[2 * k].theta_cg)
        )

    d_half = largest_difference(runs[0], runs[1])
    d_quarter = largest_difference(runs[1], runs[2])
    assert 1.9 <= d_half / d_quarter <= 2.1
    assert d_half < 2e-5


def test_step_projects_q_once_for_the_whole_fleet(table_config, monkeypatch):
    # The q projection serves every unit from one call, so a step costs
    # O(n) rather than one O(n) projection per unit. Only steps from the
    # fault on are made: steps 300 to 2,200.
    calls = 0
    original = dynamics.q_components

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(dynamics, "q_components", counting)
    cfg = table_config
    records = records_of(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    assert calls == len(records) - cfg.scenario.k_fault == 1_901


def test_a_run_takes_one_impedance_table(table_config, monkeypatch):
    # The fault scales only the source, behind the pre-fault z_th, so one
    # table of equivalent impedances serves the run before, during and
    # after the fault.
    calls = 0
    original = dynamics.equivalent_impedance

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(dynamics, "equivalent_impedance", counting)
    cfg = table_config
    runs = Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    assert calls == 1
    assert runs.prefault == cfg.grid.v_th
    assert runs.fault == (1.0 - cfg.scenario.fault_depth) * runs.prefault


def test_default_tolerance_resolves_against_the_prefault_source(table_config):
    # SolverOptions() and the loaded table1 solver both mean tol_rel 1e-9 of
    # the pre-fault |v_th|, fault-on steps included.
    cfg = table_config
    default = records_of(cfg.fleet, cfg.grid, cfg.scenario, SolverOptions())
    loaded = records_of(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    assert default == loaded


def test_runs_alone_resolves_the_tolerance(table_config):
    # The loader keeps the solver section as given, and a Runs resolves it
    # once: tol_rel 1e-9 of table1's 230 V pre-fault source.
    cfg = table_config
    assert cfg.solver == SolverOptions()
    for opts in (cfg.solver, SolverOptions()):
        units = Runs(cfg.fleet, cfg.grid, cfg.scenario, opts).units
        assert (units.tol, units.max_iter) == (1e-9 * 230.0, 100)


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
    run = Runs(cfg.fleet, cfg.grid, scen, cfg.solver).stream(scen.t_clear)
    records = tuple(run)
    assert RunFold(records, cfg.fleet, scen, cfg.settle_tol).verdict(
        cfg.settle_window).stable is stable
    if failure_step is None:
        assert run.solver_failure_t is None
    else:
        assert run.solver_failure_t == failure_step * scen.dt
    assert len(records) == n_records


def test_uncleared_deep_fault_trips_whole_fleet(table_config):
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=None)
    records = records_of(cfg.fleet, cfg.grid, scen, cfg.solver)
    last = records[-1]
    assert all(last.tripped)
    # largest unit goes first
    first_trip = {}
    for k, rec in enumerate(records):
        for p in range(5):
            if rec.tripped[p] and p not in first_trip:
                first_trip[p] = k * scen.dt
    inv4 = 3  # 12 kVA unit
    assert all(first_trip[inv4] <= first_trip[p] for p in first_trip)


def _decision_run(cfg, scenario, runs=None):
    """The records stability.decide reads of scenario's run, of runs or of a
    new Runs: continued from the uncleared fault-on run, to its first trip."""
    if runs is None:
        runs = Runs(cfg.fleet, cfg.grid, scenario, cfg.solver)
    return decided(runs, scenario.t_clear, cfg.settle_tol, cfg.settle_window)[1]


def _cut_at_first_trip(records):
    k_trip = next((k for k, rec in enumerate(records) if True in rec.tripped), len(records) - 1)
    return records[:k_trip + 1]


def _read_whole(run):
    """A stream read to its end: its records, scenario, fleet and failure
    time (set once the stream ends)."""
    records = tuple(run)
    return records, run.scenario, run.fleet, run.solver_failure_t


def test_stop_at_first_trip_ends_the_full_run_at_its_first_trip(table_config):
    # Cleared 2 ms after a depth-0.6 fault, after Inv 4's 1.5 ms holdoff.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=cfg.scenario.t_fault + 2e-3)
    full = records_of(cfg.fleet, cfg.grid, scen, cfg.solver)
    cut = _decision_run(cfg, scen)
    assert len(cut) < len(full)
    assert cut == _cut_at_first_trip(full)


def test_stop_at_first_trip_leaves_a_run_without_trips_whole(table_config):
    # table1 clears 1 ms after the fault; the run forks from the fault-on
    # run's state one step before clearing.
    cfg = table_config
    cut = _decision_run(cfg, cfg.scenario)
    assert cut == records_of(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)


def test_stop_at_first_trip_makes_no_step_after_a_tripped_record(table_config, monkeypatch):
    # A reader that stops at the first trip, step 450, leaves the fault-on
    # run kept to it, since the run clears at step 500; a second stream of
    # that clearing time read to the same record makes no step.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=cfg.scenario.t_fault + 2e-3)
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)
    cut = _decision_run(cfg, scen, runs)
    assert len(cut) - 1 == 450 < scen.k_clear

    def no_step(*args, **kwargs):
        raise AssertionError("stepped past the record a reader stopped at")

    monkeypatch.setattr(dynamics, "step", no_step)
    again = runs.stream(scen.t_clear)
    assert tuple(islice(again, len(cut))) == cut


@pytest.mark.parametrize("depth", [0.3, 0.6, 1.0])
def test_runs_in_any_order_equal_simulate(table_config, depth):
    # The fault-on run is stepped as it is read, so the order of requests
    # must not matter: t_max's clearing first, then t_min's, then none, then
    # table1's own. At each depth the fault-on run trips at step 450,
    # between t_min's clearing step and t_max's; at depth 1.0 the uncleared
    # run and t_max's then fail to solve at step 451 (see the pinned
    # deep-fault verdicts), in a shared Runs as in a new one.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=depth)
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)
    failures = []
    for t_clear in (
        scen.t_fault + cfg.cct.t_max, scen.t_fault + cfg.cct.t_min, None, scen.t_clear
    ):
        full = _read_whole(Runs(cfg.fleet, cfg.grid, scen, cfg.solver).stream(t_clear))
        assert _read_whole(runs.stream(t_clear)) == full
        assert full[1] == replace(scen, t_clear=t_clear)
        failures.append(full[3])
        cut = _decision_run(cfg, replace(scen, t_clear=t_clear), runs)
        assert cut == _cut_at_first_trip(full[0])
    failed = 451 * scen.dt if depth == 1.0 else None
    assert failures == [failed, None, failed, None]


def _count_steps(monkeypatch):
    calls = [0]
    original = dynamics.step

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(dynamics, "step", counting)
    return calls


def test_cleared_runs_of_one_runs_step_their_shared_prefix_once(table_config, monkeypatch):
    # A run clearing at step k shares steps k_fault .. k - 1 with the
    # fault-on run (the steps before k_fault are the equilibrium's); once
    # another run has stepped them, it steps only the rest.
    cfg = table_config
    scen = cfg.scenario
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)
    calls = _count_steps(monkeypatch)
    first = tuple(runs.stream(scen.t_clear))
    assert calls[0] == len(first) - scen.k_fault
    k_first = round(scen.t_clear / scen.dt)
    for t_clear in (scen.t_fault + cfg.cct.t_max, scen.t_fault + cfg.cct.t_min):
        before = calls[0]
        records = tuple(runs.stream(t_clear))
        k_shared = min(k_first, round(t_clear / scen.dt)) - 1
        assert calls[0] - before == len(records) - 1 - k_shared


@pytest.mark.parametrize("k_fault", [0, 1, 2, 300])
def test_records_before_the_fault_are_the_equilibrium(table_config, k_fault):
    # Before the fault the fleet rests at its locked operating point: each
    # record is the equilibrium record itself, with v_gq exactly 0.0. The
    # first step is the fault's, made from that record.
    cfg = table_config
    dt = cfg.scenario.dt
    scen = replace(cfg.scenario, t_fault=k_fault * dt, t_clear=None)
    assert scen.k_fault == k_fault
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)
    records = tuple(runs.stream(None))
    eq = runs.equilibrium
    for rec in records[:max(k_fault, 1)]:
        assert rec is eq
    assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in eq.v_gq)
    k0 = max(k_fault - 1, 0)
    assert records[k0] is eq
    assert records[k0 + 1] == step(eq, runs.units, runs.fault, eq.theta_cg)
    assert records[k0 + 1].v_pcc_mag < eq.v_pcc_mag


def test_an_uncleared_simulate_steps_only_from_the_fault_on(uncleared_config, monkeypatch):
    # Steps k_fault to k_end: 300 to 2,200.
    cfg = uncleared_config
    scen = cfg.scenario
    calls = _count_steps(monkeypatch)
    records = records_of(cfg.fleet, cfg.grid, scen, cfg.solver)
    assert len(records) == scen.k_end + 1
    assert calls[0] == scen.k_end - scen.k_fault + 1 == 1_901


def test_an_uncleared_run_keeps_no_states(table_config, monkeypatch):
    # The uncleared run steps from the equilibrium at step k_fault - 1 and
    # keeps nothing, so a cleared run made after it steps its own fault-on
    # prefix.
    cfg = table_config
    scen = cfg.scenario
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)
    calls = _count_steps(monkeypatch)
    uncleared = tuple(runs.stream(None))
    assert calls[0] == len(uncleared) - scen.k_fault
    before = calls[0]
    cleared = _read_whole(runs.stream(scen.t_clear))
    assert calls[0] - before == len(cleared[0]) - scen.k_fault
    assert cleared == _read_whole(Runs(cfg.fleet, cfg.grid, scen, cfg.solver).stream(scen.t_clear))


def test_step_hands_every_voltage_solve_an_aggregate(table_config, monkeypatch):
    # step sums (C, D) from its per-run table and hands it to solve_vpcc;
    # q_components takes the aggregate of the step's last solve. Limiter
    # re-solves (Inv 4 limits from 3 ms) are included. Steps 300 to 600 are
    # made; the records before the fault are the equilibrium's.
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
    records = tuple(run.stream(scenario.t_clear))
    assert len(projected) == len(records) - scenario.k_fault == 301
    assert all(projected)
    assert len(solved) > len(projected)


@pytest.mark.parametrize("dt", [1e-5, 7e-5])
def test_trip_follows_first_limit_by_exactly_the_holdoff(table_config, dt):
    # Each record's limited_steps counts on from the one before it, so each
    # unit trips exactly trip_holdoff, in whole steps, after its limiting
    # began, including Inv 1, which starts limiting only after the others
    # have tripped. At 7e-5 s the 1.5 ms holdoff is 21.43 steps, so the
    # nearest, 21.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=None, dt=dt)
    records = records_of(cfg.fleet, cfg.grid, scen, cfg.solver)
    for p, unit in enumerate(cfg.fleet):
        k_limit = next(k for k, rec in enumerate(records) if rec.limited[p])
        k_trip = next(k for k, rec in enumerate(records) if rec.tripped[p])
        assert k_trip - k_limit == round(unit.trip_holdoff / scen.dt)
        assert all(rec.limited[p] for rec in records[k_limit:k_trip + 1])
        assert [rec.limited_steps[p] for rec in records[k_limit - 1:k_trip + 2]] == [
            0, *range(k_trip - k_limit + 1), 0]


def test_cleared_early_returns_to_prefault(table_config):
    cfg = table_config  # clears 1 ms after inception, well under the CCT
    records = records_of(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    first = records[0]
    last = records[-1]
    assert not any(last.tripped)
    for p in range(5):
        assert abs(last.theta_cg[p] - first.theta_cg[p]) < cfg.settle_tol


def test_limited_units_record_exact_ceiling(table_config):
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.5, t_clear=None, t_end=8e-3)
    records = records_of(cfg.fleet, cfg.grid, scen, cfg.solver)
    saw_limited = False
    for rec in records:
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
    i_q = quadrature_currents(records_of(fleet, grid, scen, SolverOptions()))
    k0 = round(scen.t_fault / scen.dt)
    k1 = round(2e-3 / scen.dt)
    slope = [
        (i_q[k1][p] - i_q[k0][p]) / (k1 * scen.dt - k0 * scen.dt)
        for p in range(2)
    ]
    assert slope[1] > slope[0] > 0.0


def test_bolted_fault_saturates_everyone_then_trips(table_config):
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=1.0, t_clear=None)
    run = Runs(cfg.fleet, cfg.grid, scen, cfg.solver).stream(None)
    records = tuple(run)
    k = round(scen.t_fault / scen.dt)
    assert all(records[k].limited)
    assert all(records[-1].tripped)
    # once every unit has tripped the source-less node collapses and the run
    # is truncated as instability onset
    assert run.solver_failure_t is not None


def test_trip_latches_and_zeroes_injection():
    fleet = _small_fleet()
    grid = _small_grid()
    scen = FaultScenario(1e-3, None, 0.6, 6e-3, 1e-5)
    records = records_of(fleet, grid, scen, SolverOptions())
    trip_idx = next(i for i, r in enumerate(records) if r.tripped[1])
    for rec in records[trip_idx + 1:]:
        assert rec.tripped[1]
        assert rec.i_mag[1] == 0.0


def test_a_failed_prefault_voltage_solve_fails_initialization():
    # One Newton iteration cannot reach the tolerance from v_th.
    with pytest.raises(InitializationFailure, match=r"^no pre-fault voltage solution: pcc "
                       r"voltage iteration did not converge: .* after 1 iterations$") as err:
        Runs(_small_fleet()[:1], _small_grid(), FaultScenario(1e-3, None, 0.3, 5e-3, 1e-5),
             SolverOptions(max_iter=1))
    assert isinstance(err.value.__cause__, NonConvergence)


def test_a_unit_with_no_lock_angle_fails_initialization():
    # A 10 ohm line reactance drops more q-axis voltage at the rated current
    # than the PCC voltage can supply: |sin(theta - angle(v_pcc))| would
    # exceed 1.
    fleet = (InverterConfig("A", 6000.0, complex(0.15, 10.0), 0.0, 4.31e-3, 260.0, 1000.0),)
    with pytest.raises(InitializationFailure,
                       match=r"^A: no locked injection angle exists \(\|1\.065\| > 1\)$"):
        Runs(fleet, _small_grid(), FaultScenario(1e-3, None, 0.3, 5e-3, 1e-5))


def test_overloaded_fleet_fails_initialization():
    fleet = (
        InverterConfig("A", 6000.0, complex(0.15, 0.015), 0.0, 4e-3, 260.0, 5.0),
    )
    grid = _small_grid()
    from gflswing.dynamics import InitializationFailure

    with pytest.raises(InitializationFailure):
        Runs(fleet, grid, FaultScenario(1e-3, None, 0.3, 5e-3, 1e-5))
