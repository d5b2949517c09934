import cmath
import math
import random
import statistics
from dataclasses import replace
from types import SimpleNamespace

import pytest

from gflswing import dynamics, stability
from gflswing.cli import bundled_config_path, load_config
from gflswing.dynamics import (
    FaultScenario,
    InverterConfig,
    SolverOptions,
    TrajectoryRecord,
    Runs,
    UnitTable,
    step,
)
from gflswing.network import GridModel, line_impedance
from gflswing.pcc import q_components, solve_vpcc
from gflswing.stability import (
    BracketInvalid,
    CctSettings,
    RunFold,
    find_cct,
    uniform_fleet_of,
)
from helpers_oracles import KeptStream, decided, loss_order, records_of


def _fleet2():
    return (
        InverterConfig("A", 6000.0, complex(0.15, 0.015), 0.16, 4.31e-3, 260.0, 55.0,
                       trip_holdoff=8e-4),
        InverterConfig("B", 12000.0, complex(0.35, 0.023), 0.0, 4.76e-3, 265.0, 55.0,
                       trip_holdoff=8e-4),
    )


def _grid2():
    return GridModel(cmath.rect(230.0, 0.0), complex(0.20, 0.10), complex(0.10, 0.05))


def _base_scenario():
    return FaultScenario(t_fault=1e-3, t_clear=None, fault_depth=0.5, t_end=8e-3, dt=2e-5)


def _runs2(scenario=None):
    return Runs(_fleet2(), _grid2(), scenario or _base_scenario())


def _synthetic(fleet, rows, t_clear, settle_tol=math.inf, dt=1e-3):
    """The fold under settle_tol (math.inf: trips only) of a run built from
    (theta_cg tuple, tripped tuple) rows, row k at k * dt, each record with
    its excursion from row 0's angles."""
    n = len(fleet)
    theta0 = rows[0][0]
    records = tuple(
        TrajectoryRecord(
            v_pcc_mag=230.0,
            v_pcc_angle=0.0,
            theta_cg=theta,
            i_mag=(0.0,) * n,
            v_gq=(0.0,) * n,
            limited=(False,) * n,
            tripped=tripped,
            theta=theta,
            integral=(0.0,) * n,
            limited_steps=(0,) * n,
            excursion=max(abs(th - th0) for th, th0 in zip(theta, theta0)),
        )
        for theta, tripped in rows
    )
    t_end = (len(rows) - 1) * dt or dt
    scenario = FaultScenario(t_fault=dt, t_clear=t_clear, fault_depth=0.5,
                             t_end=t_end, dt=dt)
    return RunFold(records, fleet, scenario, settle_tol)


def test_constant_trajectory_is_stable():
    fleet = _fleet2()
    rows = [((0.1, 0.2), (False, False))] * 9
    verdict = _synthetic(fleet, rows, t_clear=2e-3, settle_tol=0.02).verdict(2e-3)
    assert verdict.stable
    assert verdict.first_unstable is None
    assert verdict.t_settled == 0.0
    assert verdict.max_angle_excursion == 0.0


def test_angle_past_pi_reads_unstable():
    fleet = _fleet2()
    rows = []
    for k in range(9):
        drift = 0.0 if k < 4 else (k - 3) * 1.1
        rows.append(((0.1, 0.2 + drift), (False, drift > math.pi)))
    verdict = _synthetic(fleet, rows, t_clear=2e-3, settle_tol=0.02).verdict(2e-3)
    assert not verdict.stable
    assert verdict.first_unstable == "B"
    assert verdict.t_unstable == pytest.approx(6e-3)
    assert verdict.max_angle_excursion > math.pi


def test_non_settling_angle_reads_unstable_without_trip():
    fleet = _fleet2()
    rows = [((0.1, 0.2 + (0.05 if k >= 5 else 0.0)), (False, False))
            for k in range(9)]
    verdict = _synthetic(fleet, rows, t_clear=2e-3, settle_tol=0.02).verdict(2e-3)
    assert not verdict.stable
    assert verdict.first_unstable == "B"
    assert verdict.t_unstable == pytest.approx(5e-3)


def test_classify_rejects_short_trajectory():
    fleet = _fleet2()
    rows = [((0.1, 0.2), (False, False))] * 3
    fold = _synthetic(fleet, rows, t_clear=2e-3, settle_tol=0.02)
    with pytest.raises(ValueError, match=r"^trajectory ends at 0\.002 s, before "
                       r"t_clear \+ settle_window = 0\.007 s; cannot classify$"):
        fold.verdict(5e-3)


def test_classify_rejects_an_uncleared_stream_shorter_than_the_settle_window():
    # Depth 0 trips nothing, so only the horizon can decide: the 8 ms run
    # cannot hold a 10 ms settle window.
    run = _runs2(replace(_base_scenario(), fault_depth=0.0)).stream(None)
    fold = RunFold(run, run.fleet, run.scenario, 0.02)
    assert fold.k_last == run.scenario.k_end and fold.loss_order() == []
    with pytest.raises(ValueError, match=r"^trajectory ends at 0\.008 s, before "
                       r"settle_window = 0\.01 s; cannot classify$"):
        fold.verdict(1e-2)
    assert fold.verdict(8e-3).stable


def test_classify_validates_parameters():
    fleet = _fleet2()
    rows = [((0.1, 0.2), (False, False))] * 9
    with pytest.raises(ValueError):
        _synthetic(fleet, rows, t_clear=2e-3, settle_tol=0.0)
    with pytest.raises(ValueError):
        _synthetic(fleet, rows, t_clear=2e-3, settle_tol=0.02).verdict(0.0)


def test_sync_loss_order_single_unit():
    fleet = _fleet2()[:1]
    rows = [((0.1,), (k >= 3,)) for k in range(6)]
    assert _synthetic(fleet, rows, t_clear=None).loss_order() == [("A", pytest.approx(3e-3))]


def test_sync_loss_order_breaks_ties_by_rating():
    fleet = _fleet2()
    rows = [((0.1, 0.2), (k >= 3, k >= 3)) for k in range(6)]
    order = _synthetic(fleet, rows, t_clear=None).loss_order()
    assert [name for name, _ in order] == ["B", "A"]


def test_sync_loss_order_takes_a_trip_first_set_in_the_last_record():
    # As in a solver failure's record, which trips every unit.
    fleet = _fleet2()
    rows = [((0.1, 0.2), (k >= 3, k == 5)) for k in range(6)]
    assert _synthetic(fleet, rows, t_clear=None).loss_order() == [
        ("A", pytest.approx(3e-3)), ("B", pytest.approx(5e-3)),
    ]


def test_sync_loss_order_empty_on_stable_run():
    fleet = _fleet2()
    rows = [((0.1, 0.2), (False, False))] * 6
    assert _synthetic(fleet, rows, t_clear=None).loss_order() == []


def _first_trips_by_scan(records, fleet, dt):
    """Every record's every flag, scanned for each unit's first trip."""
    trip_time = {}
    for k, rec in enumerate(records):
        for p, tripped in enumerate(rec.tripped):
            if tripped and p not in trip_time:
                trip_time[p] = k * dt
    order = sorted(trip_time.items(), key=lambda pt: (pt[1], -fleet[pt[0]].s_rated))
    return [(fleet[p].name, t) for p, t in order]


@pytest.mark.parametrize("depth, cleared_after, trips", [
    (None, None, 1),  # table1_uncleared as bundled: Inv 4 at 4.5 ms
    (0.6, 2e-3, 4),  # a cascade: four units at 4.5 ms, after clearing
    (0.6, None, 5),  # four units at 4.5 ms, Inv 1 at 6.01 ms
    (1.0, None, 5),  # ends in a solver failure at 4.51 ms
    (None, 1e-3, 0),  # table1's clearing: nothing trips
])
def test_loss_order_of_the_fold_equals_the_full_scan(
    uncleared_config, depth, cleared_after, trips
):
    cfg = uncleared_config
    scen = cfg.scenario
    scen = replace(
        scen,
        fault_depth=scen.fault_depth if depth is None else depth,
        t_clear=None if cleared_after is None else scen.t_fault + cleared_after,
    )
    records = records_of(cfg.fleet, cfg.grid, scen, cfg.solver)
    found = RunFold(records, cfg.fleet, scen, cfg.settle_tol).loss_order()
    assert len(found) == trips
    assert found == _first_trips_by_scan(records, cfg.fleet, scen.dt)


def test_a_stream_is_folded_once(table_config):
    cfg = table_config
    run = Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver).stream(cfg.scenario.t_clear)
    verdict = RunFold(run, run.fleet, run.scenario, cfg.settle_tol).verdict(cfg.settle_window)
    records = records_of(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    assert verdict == RunFold(records, cfg.fleet, cfg.scenario, cfg.settle_tol).verdict(
        cfg.settle_window)
    with pytest.raises(ValueError, match="a stream is read once"):
        RunFold(run, run.fleet, run.scenario, cfg.settle_tol)


def test_find_cct_brackets_the_trip_boundary():
    res = find_cct(_runs2(), CctSettings(t_min=2e-4, t_max=2e-3, resolution=1e-4),
                   settle_tol=0.02, settle_window=2e-3)
    assert res.bracket_hi - res.bracket_lo <= 1e-4 + 1e-12
    assert res.bracket_lo < res.cct <= res.bracket_hi
    # holdoff of 0.8 ms sets the boundary: clearing inside it stays stable
    assert res.cct == pytest.approx(8e-4, abs=1.5e-4)
    assert res.loss_order[0] == "B"
    assert res.monotonic
    assert len(res.evaluation_log) >= len(res.audit)
    assert dict(res.evaluation_log)  # non-empty log of (interval, verdict)


def _counting_find_cct(monkeypatch, fleet, grid, scenario, opts, *args, **kwargs):
    """find_cct on a new Runs of fleet, grid, scenario and opts, with the
    runs it streams recorded: (result, calls), where calls.decided holds,
    in order, the records read, the scenario and the failure time of every
    run it reads to decide a verdict (through stability.decide, so to its
    first trip), calls.ordered those of every run it reads otherwise, to
    its end, for the loss order, and
    calls.steps counts dynamics.step calls, calls.solves the voltage
    solves (the equilibrium's among them) and calls.iterations the
    iterations they took."""
    calls = SimpleNamespace(decided=[], ordered=[], steps=0, solves=0, iterations=0)
    step = dynamics.step
    solve_vpcc = dynamics.solve_vpcc
    decide = stability.decide
    deciding = []  # holds one entry while decide runs

    def stepping(*a, **kw):
        calls.steps += 1
        return step(*a, **kw)

    def solving(*a, **kw):
        sol = solve_vpcc(*a, **kw)
        calls.solves += 1
        calls.iterations += sol.iterations
        return sol

    def counted_decide(*a, **kw):
        deciding.append(True)
        try:
            return decide(*a, **kw)
        finally:
            deciding.pop()

    monkeypatch.setattr(dynamics, "step", stepping)
    monkeypatch.setattr(dynamics, "solve_vpcc", solving)
    monkeypatch.setattr(stability, "decide", counted_decide)
    # Built after the patches, so that the equilibrium's solves count.
    runs = Runs(fleet, grid, scenario, opts)
    streamed = []
    stream = runs.stream

    def recording(t_clear):
        recorded = KeptStream(stream(t_clear), [])
        recorded.decided = bool(deciding)  # read to decide a verdict
        streamed.append(recorded)
        return recorded

    monkeypatch.setattr(runs, "stream", recording)
    result = find_cct(runs, *args, **kwargs)
    for recorded in streamed:
        read = SimpleNamespace(records=tuple(recorded.kept), scenario=recorded.scenario,
                               solver_failure_t=recorded.run.solver_failure_t)
        (calls.decided if recorded.decided else calls.ordered).append(read)
    return result, calls


def _clearing_steps(runs):
    """Clearing step of every recorded run, in order."""
    return [run.scenario.k_clear for run in runs]


def _step_of(scenario, interval):
    return replace(scenario, t_clear=scenario.t_fault + interval).k_clear


def _reference_cct(monkeypatch, cfg, scenario):
    return _counting_find_cct(
        monkeypatch, cfg.fleet, cfg.grid, scenario, cfg.solver, cfg.cct,
        cfg.settle_tol, cfg.settle_window,
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
    # The fault-on run is stepped from the equilibrium at step 299 as the
    # decisions read it, and none reads it past step 450, where Inv 4 trips
    # the 1.5 ms holdoff after the 3 ms fault: k_max's decision (750) reads
    # it all, first. The 4 stable decisions (clearing steps 428, 442, 449
    # and k_min's 320, asked for after the bisection) continue from its
    # state before their clearing step to step 2,200; the 6 unstable ones
    # (750, 535, 482, 455, 452 and 642) clear after step 450 and step
    # nothing more. The loss-order run continues from step 450 to 2,200:
    # 151 + 1,773 + 1,759 + 1,752 + 1,881 + 1,750 steps.
    _, calls = _reference_cct(monkeypatch, table_config, table_config.scenario)
    for read in calls.decided:
        assert not any(True in rec.tripped for rec in read.records[:-1])
    assert _clearing_steps(calls.decided) == [
        750, 535, 428, 482, 455, 442, 449, 452, 320, 642,
    ]
    assert calls.steps == 9_066


def test_find_cct_voltage_solves_start_from_the_last_voltage(table_config, monkeypatch):
    # step seeds each voltage solve with the previous step's PCC voltage and
    # starts Newton there: the reference search takes 18,213 iterations
    # over its 9,085 solves, where solves started from v_th took 131,255.
    _, calls = _reference_cct(monkeypatch, table_config, table_config.scenario)
    assert calls.solves == 9_085
    assert calls.iterations <= 19_000


def test_find_cct_decisions_equal_full_runs_cut_at_their_first_trip(
    table_config, monkeypatch
):
    # Every run find_cct folds for a verdict is the full run of its clearing
    # step cut at its first trip, every logged verdict (those taken from the
    # fault-on run included) is the full run's, and the loss-order run is
    # the full run of bracket_hi's clearing step.
    cfg = table_config
    res, calls = _reference_cct(monkeypatch, cfg, cfg.scenario)
    for read in calls.decided:
        full = records_of(cfg.fleet, cfg.grid, read.scenario, cfg.solver)
        k_trip = next(
            (k for k, rec in enumerate(full) if True in rec.tripped), len(full) - 1
        )
        assert read.records == full[:k_trip + 1]
    for interval, stable in res.evaluation_log:
        at = replace(cfg.scenario, t_clear=cfg.scenario.t_fault + interval)
        full = records_of(cfg.fleet, cfg.grid, at, cfg.solver)
        fold = RunFold(full, cfg.fleet, at, cfg.settle_tol)
        assert stable == fold.verdict(cfg.settle_window).stable
    at_hi = replace(cfg.scenario, t_clear=cfg.scenario.t_fault + res.bracket_hi)
    fresh = Runs(cfg.fleet, cfg.grid, at_hi, cfg.solver).stream(at_hi.t_clear)
    full = SimpleNamespace(records=tuple(fresh), scenario=fresh.scenario,
                           solver_failure_t=fresh.solver_failure_t)
    assert calls.ordered == [full]


# (records the decisions of each bundled config's CCT search read, records
# of their full runs).
DECIDED_RECORDS = {"table1.yaml": [11_510, 22_010], "table1_sync.yaml": [41_533, 60_010]}


@pytest.mark.parametrize("name", sorted(DECIDED_RECORDS))
def test_every_find_cct_decision_is_decides_verdict_read_to_its_first_trip(name, monkeypatch):
    # decide, on a Runs of its own, gives every verdict the search logs, and
    # reads what the search read: the full run of the clearing step cut at
    # its first tripped record (or whole where none trips), no record past
    # it. Counted in DECIDED_RECORDS.
    cfg = load_config(bundled_config_path(name))
    res, calls = _reference_cct(monkeypatch, cfg, cfg.scenario)
    runs = Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    searched = {read.scenario.k_clear: read for read in calls.decided}
    assert len(searched) == len(calls.decided) == len(res.evaluation_log)
    counts = [0, 0]
    for interval, stable in res.evaluation_log:
        verdict, read = decided(runs, cfg.scenario.t_fault + interval, cfg.settle_tol,
                                cfg.settle_window)
        at = searched.pop(_step_of(cfg.scenario, interval))
        full = records_of(cfg.fleet, cfg.grid, at.scenario, cfg.solver)
        k_trip = next((k for k, rec in enumerate(full) if True in rec.tripped), len(full) - 1)
        assert read == at.records == full[:k_trip + 1]
        assert verdict.stable is stable
        counts[0] += len(read)
        counts[1] += len(full)
    assert counts == DECIDED_RECORDS[name]


def test_find_cct_loss_order_is_that_of_bracket_hi(table_config, monkeypatch):
    # At depth 0.7 clearing at t_max trips a fifth unit that clearing at
    # bracket_hi does not, so the order must come from the bracket_hi run.
    cfg = table_config
    scenario = replace(cfg.scenario, fault_depth=0.7)
    res, calls = _reference_cct(monkeypatch, cfg, scenario)
    assert _clearing_steps(calls.ordered) == [_step_of(scenario, res.bracket_hi)]
    runs = Runs(cfg.fleet, cfg.grid, scenario, cfg.solver)
    order = loss_order(runs.stream(scenario.t_fault + res.bracket_hi))
    assert res.loss_order == tuple(name for name, _ in order)
    assert len(loss_order(runs.stream(scenario.t_fault + cfg.cct.t_max))) > len(order)


def test_find_cct_loss_order_without_a_trip_names_the_unit_that_did_not_settle(
    table_config,
):
    # With ceilings no unit reaches and a 10 s holdoff nothing trips; under
    # a 0.01 rad settle tolerance clearing after 1 ms leaves the fleet
    # swinging through table1's 13 ms settle window. bracket_hi's run is
    # unstable only because it does not settle, so its loss order is the
    # unit its verdict names.
    cfg = table_config
    fleet = tuple(replace(c, i_max=1000.0, trip_holdoff=10.0) for c in cfg.fleet)
    res = find_cct(Runs(fleet, cfg.grid, cfg.scenario, cfg.solver), cfg.cct,
                   settle_tol=0.01, settle_window=cfg.settle_window)
    at_hi = replace(cfg.scenario, t_clear=cfg.scenario.t_fault + res.bracket_hi)
    full = records_of(fleet, cfg.grid, at_hi, cfg.solver)
    fold = RunFold(full, fleet, at_hi, 0.01)
    assert fold.loss_order() == []
    verdict = fold.verdict(cfg.settle_window)
    assert not verdict.stable
    assert res.loss_order == (verdict.first_unstable,) == ("Inv 4",)


def test_find_cct_rejects_a_resolution_below_dt():
    # No bracket is narrower than one step; at dt itself it is one step.
    scenario = _base_scenario()
    with pytest.raises(ValueError, match="resolution must be at least dt"):
        find_cct(_runs2(), CctSettings(2e-4, 2e-3, resolution=scenario.dt / 4),
                 settle_tol=0.02, settle_window=2e-3)
    res = find_cct(_runs2(), CctSettings(2e-4, 2e-3, resolution=scenario.dt),
                   settle_tol=0.02, settle_window=2e-3)
    assert round((res.bracket_hi - res.bracket_lo) / scenario.dt) == 1
    log = dict(res.evaluation_log)
    assert log[res.bracket_lo] is True and log[res.bracket_hi] is False


@pytest.mark.parametrize("resolution, k_resolution", [
    (3e-5, 3), (3.5e-5, 3), (5e-5, 5),
])
def test_cct_resolution_is_the_whole_steps_it_spans(table_config, resolution, k_resolution):
    # 3 * 1e-5 > 3e-5 in floating point, yet 3e-5 spans three steps of
    # 1e-5; a resolution between whole steps takes the step below it.
    cfg = table_config
    settings = replace(cfg.cct, resolution=resolution)
    assert settings.steps(cfg.scenario, cfg.settle_window)[2] == k_resolution


@pytest.mark.parametrize("dt, resolution, lo, hi, decisions", [
    (1e-5, 3e-5, 149, 152, 10), (1e-4, 3e-4, 13, 16, 7),
])
def test_find_cct_stops_at_a_bracket_of_three_whole_steps(
    table_config, dt, resolution, lo, hi, decisions
):
    # A resolution of three steps stops the bisection at a bracket three
    # steps wide, not after one more decision.
    cfg = table_config
    scenario = replace(cfg.scenario, dt=dt)
    res = find_cct(Runs(cfg.fleet, cfg.grid, scenario, cfg.solver),
                   replace(cfg.cct, resolution=resolution), cfg.settle_tol, cfg.settle_window)
    assert (round(res.bracket_lo / dt), round(res.bracket_hi / dt)) == (lo, hi)
    assert len(res.evaluation_log) == decisions


def test_find_cct_rejects_depthless_fault():
    scenario = replace(_base_scenario(), fault_depth=0.0)
    with pytest.raises(BracketInvalid) as err:
        find_cct(_runs2(scenario), CctSettings(2e-4, 2e-3, 1e-4),
                 settle_tol=0.02, settle_window=2e-3)
    assert err.value.lo_stable and err.value.hi_stable


def test_find_cct_reports_an_invalid_bracket_after_the_bisection_it_allowed(
    table_config, monkeypatch
):
    # On [2, 4.5] ms both ends are past table1's 1.505 ms CCT. The unstable
    # t_max lets the search bisect down to the resolution (325, 263, 232,
    # 216, 208, 204) before t_min's unstable verdict is read: 8 verdicts.
    # Every one of them clears after Inv 4 trips at step 450 and reads the
    # fault-on run's tripped states, so the search makes its 151 steps only.
    cfg = table_config
    steps, verdicts = [0], []
    step, verdict = dynamics.step, RunFold.verdict

    def stepping(*args):
        steps[0] += 1
        return step(*args)

    def deciding(self, settle_window):
        verdicts.append(self.scenario.k_clear - cfg.scenario.k_fault)
        return verdict(self, settle_window)

    monkeypatch.setattr(dynamics, "step", stepping)
    monkeypatch.setattr(RunFold, "verdict", deciding)
    runs = Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    with pytest.raises(BracketInvalid) as err:
        find_cct(runs, replace(cfg.cct, t_min=2e-3), cfg.settle_tol, cfg.settle_window)
    assert (err.value.lo_stable, err.value.hi_stable) == (False, False)
    assert verdicts == [450, 325, 263, 232, 216, 208, 204, 200]
    assert steps[0] == 151


def test_find_cct_validates_bracket_and_coverage():
    runs = _runs2()
    with pytest.raises(ValueError):
        find_cct(runs, CctSettings(t_min=2e-3, t_max=2e-4, resolution=1e-4))
    with pytest.raises(ValueError):
        find_cct(runs, CctSettings(t_min=2e-4, t_max=2e-3, resolution=-1.0))
    short = replace(_base_scenario(), t_end=3e-3)
    with pytest.raises(ValueError):
        find_cct(_runs2(short), CctSettings(t_min=2e-4, t_max=2e-3, resolution=1e-4),
                 settle_window=2e-3)
    # t_min and t_max are taken to steps: they must round to distinct
    # non-zero steps, and an infinite t_max has no step.
    for t_min, t_max in ((5e-6, 2e-3), (2e-4, 2.05e-4), (2e-4, math.inf)):
        with pytest.raises(ValueError):
            find_cct(runs, CctSettings(t_min=t_min, t_max=t_max, resolution=1e-4),
                     settle_window=2e-3)


def _steady_fold(settle_tol):
    rows = [((0.1, 0.2), (False, False))] * 9
    return _synthetic(_fleet2(), rows, t_clear=2e-3, settle_tol=settle_tol)


def _step_by(dt):
    run = Runs(_fleet2(), _grid2(), _base_scenario())
    return step(
        run.equilibrium, UnitTable(_fleet2(), _grid2(), dt, run.units.tol, run.units.max_iter),
        run.prefault, run.equilibrium.theta_cg,
    )


NAN = math.nan
INF = math.inf
_UNIT_X = dict(name="X", s_rated=100.0, z_line=complex(0.1, 0.0), r_virtual=0.0,
               kp=1e-3, ki=100.0, i_max=10.0)
# The InverterConfig fields bounded only from below, where a check written
# as x > 0 or x >= 0 would let +inf through.
_BOUNDED_BELOW = ("s_rated", "r_virtual", "kp", "ki", "i_max", "trip_holdoff")


def _unit_with(field, value):
    return lambda: InverterConfig(**{**_UNIT_X, field: value})


def _table1():
    return load_config(bundled_config_path())


# A check written as x <= 0 lets NaN through: every comparison with NaN is
# false. Each of these calls must raise rather than run on a NaN, and on
# +-inf where a check written as x > 0 would let it through.
@pytest.mark.parametrize("call", [
    lambda: find_cct(_runs2(), CctSettings(t_min=2e-4, t_max=2e-3, resolution=NAN)),
    lambda: _steady_fold(NAN).verdict(2e-3),
    lambda: _steady_fold(0.02).verdict(NAN),
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
    lambda: GridModel(230.0, complex(NAN, 0.1), 0j),
    lambda: solve_vpcc(_grid2().v_th, (1000.0 + 0j, 0j), NAN, 10),
    lambda: InverterConfig("X", 100.0, complex(NAN, 0.0), 0.0, 1e-3, 100.0, 10.0),
    lambda: InverterConfig("X", 100.0, complex(0.1, NAN), 0.0, 1e-3, 100.0, 10.0),
    lambda: InverterConfig("X", 100.0, complex(0.1, 0.0), 0.0, 1e-3, 100.0, 10.0,
                           pf_angle=NAN),
    lambda: GridModel(NAN, complex(0.2, 0.1), 0j),
    lambda: GridModel(230.0, complex(0.2, NAN), 0j),
    lambda: GridModel(230.0, complex(0.2, 0.1), complex(NAN, 0.05)),
    *(_unit_with(field, sign * INF) for field in _BOUNDED_BELOW for sign in (1, -1)),
    lambda: _steady_fold(0.02).verdict(INF),
    lambda: _table1().cct.steps(_table1().scenario, INF),
    lambda: CctSettings(2e-4, 4.5e-3, INF).steps(_table1().scenario, 1e-3),
    lambda: SolverOptions(tol_rel=NAN),
    lambda: SolverOptions(tol_rel=INF),
    lambda: SolverOptions(tol_rel=0.0),
    lambda: SolverOptions(max_iter=0),
    lambda: SolverOptions(max_iter=2.5),
    lambda: solve_vpcc(_grid2().v_th, (1000.0 + 0j, 0j), INF, 10),
    lambda: solve_vpcc(complex(NAN, 0.0), (0j, 0j), 1e-9, 10),
    lambda: solve_vpcc(complex(INF, 0.0), (1000.0 + 0j, 0j), 1e-9, 10),
    lambda: q_components(complex(0.0, NAN), 230.0 + 0j, (0j, 0j), (1.0,), (0.0,), (0.1,), (1.0,)),
], ids=["find_cct_resolution", "classify_settle_tol", "classify_settle_window",
        "scenario_dt", "step_dt", "s_rated", "r_virtual", "kp", "ki", "i_max",
        "trip_holdoff", "line_resistance", "line_inductance", "frequency",
        "thevenin_resistance", "solve_vpcc_tol", "z_line_resistance",
        "z_line_reactance", "pf_angle", "thevenin_voltage", "thevenin_reactance",
        "load_impedance",
        *(f"{field}_{sign}inf" for field in _BOUNDED_BELOW for sign in "+-"),
        "classify_settle_window_inf", "cct_steps_settle_window_inf",
        "cct_steps_resolution_inf", "solver_tol_rel", "solver_tol_rel_inf",
        "solver_tol_rel_zero", "solver_max_iter_zero",
        "solver_max_iter_fraction", "solve_vpcc_tol_inf", "solve_vpcc_v_th_nan",
        "solve_vpcc_v_th_inf", "q_components_v_th_nan"])
def test_range_checks_reject_nan(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("field", _BOUNDED_BELOW)
@pytest.mark.parametrize("value", [INF, -INF, NAN])
def test_inverter_config_names_the_field_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"^X: {field} must be"):
        _unit_with(field, value)()


# An infinite time would ask for an unbounded number of steps, or for none.
@pytest.mark.parametrize("field", ["t_fault", "t_clear", "t_end", "dt"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, NAN])
def test_fault_scenario_rejects_non_finite_times(field, value):
    times = {"t_fault": 1e-3, "t_clear": 2e-3, "t_end": 8e-3, "dt": 1e-5, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        FaultScenario(fault_depth=0.5, **times)


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


def _random_fleet(seed, n):
    rng = random.Random(seed)
    return tuple(
        InverterConfig(
            f"R{p}", rng.uniform(1e3, 5e4), complex(rng.uniform(0.01, 1.0), rng.uniform(1e-3, 0.5)),
            rng.uniform(0.0, 0.3), rng.uniform(1e-3, 1e-2), rng.uniform(100.0, 400.0),
            rng.uniform(10.0, 200.0), pf_angle=rng.uniform(-0.5, 0.5),
            trip_holdoff=rng.uniform(1e-4, 1e-2),
        )
        for p in range(n)
    )


def _averaged_fields(c):
    return (c.s_rated, c.z_line.real, c.z_line.imag, c.r_virtual, c.kp, c.ki, c.i_max,
            c.pf_angle, c.trip_holdoff)


@pytest.mark.parametrize("fleet_name", ["table1", "random"])
def test_uniform_fleet_means_equal_statistics_fmean(fleet_name, table_config):
    # statistics is the oracle only: the package computes the means itself.
    fleet = table_config.fleet if fleet_name == "table1" else _random_fleet(2020, 17)
    expected = [statistics.fmean(column).hex() for column in zip(*map(_averaged_fields, fleet))]
    uni = uniform_fleet_of(fleet)
    assert len(uni) == len(fleet)
    assert all([v.hex() for v in _averaged_fields(c)] == expected for c in uni)


def test_uniform_fleet_of_no_units_is_an_error():
    # A mean of no units would divide by zero.
    with pytest.raises(ValueError, match="^fleet must be non-empty$"):
        uniform_fleet_of(())


def test_self_comparison_has_zero_delta():
    # A uniform fleet is its own uniform counterpart: both searches agree.
    fleet = uniform_fleet_of(_fleet2())
    settings = CctSettings(t_min=2e-4, t_max=2e-3, resolution=1e-4)
    nonuniform, uniform = (
        find_cct(Runs(f, _grid2(), _base_scenario()), settings, settle_tol=0.02,
                 settle_window=2e-3)
        for f in (fleet, uniform_fleet_of(fleet))
    )
    assert uniform.cct - nonuniform.cct == 0.0
    assert uniform.cct == nonuniform.cct


def test_nonuniform_fleet_spreads_divergence_times(table_config):
    # Under the same sustained fault, identical units leave synchronism
    # together while the mixed fleet staggers.
    cfg = table_config
    scen = replace(cfg.scenario, fault_depth=0.6, t_clear=None)
    mixed = Runs(cfg.fleet, cfg.grid, scen, cfg.solver).stream(None)
    uni = Runs(uniform_fleet_of(cfg.fleet), cfg.grid, scen, cfg.solver).stream(None)
    times_mixed = [t for _, t in loss_order(mixed)]
    times_uni = [t for _, t in loss_order(uni)]
    spread_mixed = max(times_mixed) - min(times_mixed)
    spread_uni = max(times_uni) - min(times_uni)
    assert spread_mixed > spread_uni


# table1_sync's verdicts on a 0.1 ms grid of clearing intervals from 38.0 to
# 42.9 ms (S stable, U unstable): the first unstable interval is 40.1 ms,
# and 40.3-40.7 and 41.0-41.7 ms are stable islands above it.
SYNC_VERDICTS = "SSSSSSSSSSSSSSSSSSSSSUUSSSSSUUSSSSSSSSUUUUUUUUUUUU"


def test_table1_sync_verdicts_near_the_boundary_are_pinned(sync_config):
    # Every unstable run of the grid is decided by a trip of Inv 5 past the
    # divergence bound, at 173.8 to 301.3 ms, well before the runs' 600 ms
    # end: the 10 s holdoff cannot expire in the run, so no verdict
    # here rests on the holdoff timer or on where the run stops.
    cfg = sync_config
    scen = cfg.scenario
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)
    assert min(runs.units.holdoff) > scen.k_end
    theta_ref = runs.equilibrium.theta_cg
    verdicts, trip_times = "", []
    for k in range(380, 430):
        tripping = []

        def watched(run):
            for rec in run:
                if not tripping and True in rec.tripped:
                    tripping.append(rec)
                yield rec

        run = runs.stream(scen.t_fault + k * scen.dt)
        fold = RunFold(watched(run), run.fleet, run.scenario, cfg.settle_tol)
        verdict = fold.verdict(cfg.settle_window)
        verdicts += "S" if verdict.stable else "U"
        if not verdict.stable:
            (name, t_trip), *_ = fold.loss_order()
            assert name == verdict.first_unstable == "Inv 5"
            p = [c.name for c in cfg.fleet].index(name)
            assert abs(tripping[0].theta_cg[p] - theta_ref[p]) > dynamics.DIVERGENCE_BOUND_RAD
            trip_times.append(t_trip)
    assert verdicts == SYNC_VERDICTS
    assert len(trip_times) == 16
    assert 0.1737 < min(trip_times) and max(trip_times) < 0.3014
    assert scen.t_end - max(trip_times) > 0.29


def test_table1_sync_cct_search_is_pinned(sync_config):
    # The bisection on [30, 57] ms at 0.25 ms meets the transition at the
    # first unstable interval, 40.1 ms, and its five audit samples, 6.75 ms
    # apart, cannot see the islands above it.
    cfg = sync_config
    dt = cfg.scenario.dt
    res = find_cct(Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver), cfg.cct,
                   cfg.settle_tol, cfg.settle_window)
    assert (round(res.bracket_lo / dt), round(res.bracket_hi / dt)) == (400, 402)
    assert res.loss_order == ("Inv 5",)
    assert res.monotonic


# Halving dt and doubling t_end keep table1_sync's transition near 40.1 ms:
# on the 0.1 ms grid, 39.5 to 39.9 ms stay stable and the first unstable
# point from 39.5 ms is within one grid point of 40.1 ms. Measured once on
# the whole grid from 38.0 to 43.0 ms, the first unstable point is 40.1 ms
# at dt 50 us (one more unstable point, 41.6 ms, above it) and at t_end
# 1.2 s (the same verdicts as at 600 ms). Each stable run here is 12,000
# steps, so the tests scan 39.5 to 40.2 ms only, about 2 s each: an unstable
# point below 39.5 ms would not show here.
@pytest.mark.parametrize("change", [{"dt": 5e-5}, {"t_end": 1.2}], ids=["dt_50us", "t_end_1.2s"])
def test_table1_sync_first_unstable_interval_holds_at_half_dt_and_double_t_end(
    sync_config, change
):
    cfg = sync_config
    scen = replace(cfg.scenario, **change)
    runs = Runs(cfg.fleet, cfg.grid, scen, cfg.solver)

    def stable(tenths):
        run = runs.stream(scen.t_fault + tenths * 1e-4)
        fold = RunFold(run, run.fleet, run.scenario, cfg.settle_tol)
        return fold.verdict(cfg.settle_window).stable

    first = next((tenths for tenths in range(395, 403) if not stable(tenths)), None)
    assert first in (400, 401, 402), first  # in tenths of a ms


# table1_sync's uniform fleet with its total rating split into m identical
# units: (pre-fault |v_pcc| in V, CCT bracket in steps of 100 us, None for a
# bracket stable at both ends). Each unit's z_eq = z_total || z_grid, so the
# grid's share of the feeder grows with m and the split is not invariant.
RATING_SPLITS = {
    1: (240.77, None),
    2: (247.81, None),
    5: (259.03, (520, 521)),
    10: (266.38, (293, 294)),
}


@pytest.mark.parametrize("m", sorted(RATING_SPLITS))
def test_the_cct_depends_on_how_a_rating_is_split_into_units(sync_config, m):
    cfg = sync_config
    dt = cfg.scenario.dt
    mean = uniform_fleet_of(cfg.fleet)[0]
    scale = len(cfg.fleet) / m
    fleet = tuple(
        replace(mean, name=f"U{p + 1}", s_rated=mean.s_rated * scale, i_max=mean.i_max * scale,
                z_line=mean.z_line / scale, r_virtual=mean.r_virtual / scale)
        for p in range(m)
    )
    v_pcc, bracket = RATING_SPLITS[m]
    runs = Runs(fleet, cfg.grid, cfg.scenario, cfg.solver)
    assert runs.equilibrium.v_pcc_mag == pytest.approx(v_pcc, abs=5e-3)
    settings = CctSettings(20e-3, 300e-3, 1e-4, cfg.cct.audit_samples)
    if bracket is None:
        with pytest.raises(BracketInvalid) as err:
            find_cct(runs, settings, cfg.settle_tol, cfg.settle_window)
        assert (err.value.lo_stable, err.value.hi_stable) == (True, True)
    else:
        res = find_cct(runs, settings, cfg.settle_tol, cfg.settle_window)
        assert (round(res.bracket_lo / dt), round(res.bracket_hi / dt)) == bracket
