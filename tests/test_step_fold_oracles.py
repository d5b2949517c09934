"""dynamics.step and stability.RunFold against their one-unit-at-a-time
references in helpers_oracles: every record a step makes, its excursion
included, and every fold's state are equal bit for bit, on the bundled
runs and on seeded fleets through every branch of the step (power-factor
angles, limiter entry and exit, holdoff and divergence trips, tripped
units, a collapsed source) and on synthetic records."""

import math
import random
from dataclasses import fields, replace

import pytest

from gflswing import dynamics
from gflswing.cli import bundled_config_path, load_config
from gflswing.dynamics import (
    DIVERGENCE_BOUND_RAD,
    Runs,
    TrajectoryRecord,
    UnitTable,
    step,
)
from gflswing.pcc import NonConvergence, ZeroVoltage
from gflswing.stability import RunFold

from helpers_oracles import reference_fold, reference_step


def _bits(value):
    """value with every float as its hex string: -0.0 and 0.0 differ, and
    NaN equals NaN."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _record_bits(rec: TrajectoryRecord):
    return tuple(_bits(getattr(rec, f.name)) for f in fields(TrajectoryRecord))


def _jittered(fleet, seed, share=0.1, pf=0.0):
    """fleet with ratings, impedances and gains each within share of their
    own, and a power-factor angle within +-pf, drawn from seed."""
    rng = random.Random(seed)

    def jit(x):
        return x * rng.uniform(1 - share, 1 + share)

    return tuple(
        replace(u, s_rated=jit(u.s_rated), z_line=complex(jit(u.z_line.real), jit(u.z_line.imag)),
                r_virtual=jit(u.r_virtual), kp=jit(u.kp), ki=jit(u.ki),
                pf_angle=rng.uniform(-pf, pf))
        for u in fleet
    )


class _Walk:
    """Every record of one run from step k0 on, each made by step and
    checked against reference_step from the same record, with what the run
    went through."""

    def __init__(self, runs: Runs, t_clear, monkeypatch):
        solves = [0]
        solve = dynamics.solve_vpcc

        def counting(*args):
            solves[0] += 1
            return solve(*args)

        monkeypatch.setattr(dynamics, "solve_vpcc", counting)
        scenario = replace(runs.scenario, t_clear=t_clear)
        k_clear = scenario.k_clear
        rec = runs.equilibrium
        ref = rec.theta_cg
        self.k0 = max(scenario.k_fault - 1, 0)
        self.records, self.failure = [rec], None
        for k in range(self.k0 + 1, scenario.k_end + 1):
            phase = runs.prefault if k_clear is not None and k >= k_clear else runs.fault
            try:
                expected = reference_step(rec, runs.units, phase, runs.units.tol, runs.units.max_iter, ref)
            except (NonConvergence, ZeroVoltage) as exc:
                with pytest.raises(type(exc)):
                    step(rec, runs.units, phase, ref)
                self.failure = k
                break
            rec = step(rec, runs.units, phase, ref)
            assert _record_bits(rec) == _record_bits(expected), f"step {k}"
            self.records.append(rec)
        monkeypatch.undo()
        records = self.records
        self.steps = len(records) - 1
        self.solves = solves[0]
        self.limit_entries = sum(
            1 for a, b in zip(records, records[1:])
            for was, now in zip(a.limited, b.limited) if now and not was
        )
        self.limit_exits = sum(
            1 for a, b in zip(records, records[1:])
            for was, now, trip in zip(a.limited, b.limited, b.tripped)
            if was and not now and not trip
        )
        # Units that trip in each step, by cause: over the divergence bound
        # or not (holdoff expiry).
        self.divergence_trips = self.holdoff_trips = 0
        for a, b in zip(records, records[1:]):
            for p, (was, now) in enumerate(zip(a.tripped, b.tripped)):
                if now and not was:
                    if abs(b.theta_cg[p] - ref[p]) > DIVERGENCE_BOUND_RAD:
                        self.divergence_trips += 1
                    else:
                        self.holdoff_trips += 1
        # Steps made from a record with a tripped unit and a live one.
        self.steps_with_tripped = sum(
            1 for r in records[:-1] if True in r.tripped and False in r.tripped
        )


def _runs(cfg, fleet=None, **scenario):
    return Runs(fleet or cfg.fleet, cfg.grid, replace(cfg.scenario, **scenario), cfg.solver)


def _assert_folds_match(records, fleet, scenario):
    for tol in (1e-3, 0.02, math.inf):
        fold = RunFold(records, fleet, scenario, tol)
        k_last, max_exc, last_violation, streak_start, first_trip = reference_fold(records, tol)
        assert (fold.k_last, _bits(fold.max_excursion), fold.last_violation,
                fold.streak_start, fold.first_trip) == (
            k_last, _bits(max_exc), last_violation, streak_start, first_trip)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_fleets_with_power_factor_angles_limit_and_recover(table_config, seed, monkeypatch):
    # A 1 ms fault at depth 0.6 limits units, which leave the limit when it
    # clears, each change of flags taking a re-solve; no unit trips. Each
    # unit's pf_angle puts its PLL frame off its injection angle.
    cfg = table_config
    fleet = _jittered(cfg.fleet, seed, pf=0.3)
    runs = _runs(cfg, fleet, fault_depth=0.6)
    assert not runs.units.aligned
    walk = _Walk(runs, cfg.scenario.t_clear, monkeypatch)
    assert walk.failure is None and walk.steps == 1_901
    assert walk.limit_entries and walk.limit_exits
    assert walk.solves > walk.steps
    assert not walk.holdoff_trips and not walk.divergence_trips
    _assert_folds_match(tuple(runs.stream(cfg.scenario.t_clear)), fleet, runs.scenario)


@pytest.mark.parametrize("seed", [4, 5])
def test_seeded_fleets_trip_on_holdoff_and_step_on_with_tripped_units(
    table_config, seed, monkeypatch
):
    # Uncleared at depth 0.6, limited units trip when their holdoff expires,
    # and the others step on beside them.
    cfg = table_config
    fleet = _jittered(cfg.fleet, seed)
    runs = _runs(cfg, fleet, fault_depth=0.6, t_clear=None)
    assert runs.units.aligned
    walk = _Walk(runs, None, monkeypatch)
    assert walk.failure is None
    assert walk.holdoff_trips and not walk.divergence_trips
    assert walk.steps_with_tripped
    _assert_folds_match(tuple(runs.stream(None)), fleet, runs.scenario)


@pytest.mark.parametrize("pf, k_trip, tripped", [
    (0.0, 463, (False, False, False, True, True)),
    (0.2, 285, (False, False, False, True, False)),
])
def test_a_divergence_trip_and_the_units_after_it(table_config, pf, k_trip, tripped, monkeypatch):
    # With a 1 kA ceiling, which no unit reaches, and a 10 s holdoff, an
    # uncleared fault at depth 0.9 drives the PLLs apart until units trip
    # past the divergence bound; the others step on and trip after them.
    # The angles run upward, so a check that left out a positive pf_angle
    # would trip late.
    cfg = table_config
    fleet = tuple(
        replace(u, i_max=1000.0, trip_holdoff=10.0, pf_angle=pf) for u in cfg.fleet
    )
    runs = _runs(cfg, fleet, fault_depth=0.9, t_clear=None, dt=1e-4, t_end=0.1)
    assert runs.units.aligned is (pf == 0.0)
    walk = _Walk(runs, None, monkeypatch)
    assert walk.failure is None
    assert walk.divergence_trips and not walk.holdoff_trips and not walk.limit_entries
    assert walk.steps_with_tripped
    i, first = next((i, r) for i, r in enumerate(walk.records) if True in r.tripped)
    assert (walk.k0 + i, first.tripped) == (k_trip, tripped)
    _assert_folds_match(tuple(runs.stream(None)), fleet, runs.scenario)


@pytest.mark.parametrize("name, interval, divergence_trips", [
    ("table1.yaml", 1e-3, 0),
    ("table1_sync.yaml", 48e-3, 1),
])
def test_the_bundled_runs_carry_the_excursion_of_their_angles(
    name, interval, divergence_trips, monkeypatch
):
    # Each record's excursion is the one reference_step takes from its
    # angles: 0.0 at the equilibrium, and past the fold's smallest
    # settle_tol in some records, so the fold reads those unit by unit.
    # table1 at its own clearing interval settles; table1_sync cleared
    # after 48 ms loses Inv 5 past the divergence bound, and the others
    # step on beside it.
    cfg = load_config(bundled_config_path(name))
    runs = _runs(cfg)
    t_clear = cfg.scenario.t_fault + interval
    walk = _Walk(runs, t_clear, monkeypatch)
    assert walk.failure is None and walk.records[0].excursion == 0.0
    assert max(rec.excursion for rec in walk.records) > 1e-3
    assert (walk.divergence_trips, walk.holdoff_trips) == (divergence_trips, 0)
    _assert_folds_match(tuple(runs.stream(t_clear)), cfg.fleet, runs.scenario)


def test_a_collapsed_source_limits_every_live_unit(table_config, monkeypatch):
    # At depth 1.0 the faulted source is 0 V: every live unit is limited at
    # once, limited units trip on holdoff at step 450, and the step after
    # fails to solve in both steps alike.
    cfg = table_config
    runs = _runs(cfg, fault_depth=1.0, t_clear=None)
    assert runs.fault == 0.0
    walk = _Walk(runs, None, monkeypatch)
    assert walk.failure == 451
    assert all(walk.records[1].limited)
    assert walk.holdoff_trips == 5


def test_a_collapsed_source_keeps_units_limited_below_their_ceiling(table_config, monkeypatch):
    # At 0.3 times their ratings the units' rated currents fall under their
    # ceilings at the fault-on voltage, which would un-limit them; a
    # constant-power unit behind a 0 V source has no solution, so every live
    # unit stays limited until the fault clears, and the run recovers.
    cfg = table_config
    fleet = tuple(replace(u, s_rated=0.3 * u.s_rated) for u in cfg.fleet)
    runs = _runs(cfg, fleet, fault_depth=1.0)
    walk = _Walk(runs, cfg.scenario.t_clear, monkeypatch)
    assert walk.failure is None
    k_fault, k_clear = runs.scenario.k_fault, runs.scenario.k_clear
    under_fault = walk.records[k_fault - walk.k0:k_clear - walk.k0]
    assert under_fault and all(all(rec.limited) for rec in under_fault)
    assert any(
        s / rec.v_pcc_mag < i
        for rec in under_fault for s, i in zip(runs.units.s_rated, runs.units.i_max)
    )
    assert not walk.holdoff_trips and not walk.divergence_trips


def test_step_from_a_state_with_a_tripped_unit_and_a_limited_one(table_config):
    # A hand-made record: Inv 2 tripped 3 rad off its equilibrium angle,
    # with an integral that would move it past the divergence bound, and
    # Inv 4 limited since two steps ago, under the fault and after it. The
    # tripped unit's move is put back, so it counts for nothing in the
    # excursion, which is Inv 2's kept 3 rad.
    cfg = table_config
    runs = _runs(cfg, fault_depth=0.6)
    eq = runs.equilibrium
    theta = tuple(th + 3.0 if p == 1 else th for p, th in enumerate(eq.theta))
    rec = replace(eq, tripped=(False, True, False, False, False),
                  limited=(False, True, False, True, False), limited_steps=(0, 0, 0, 2, 0),
                  theta=theta, theta_cg=theta, integral=(0.0, 1e3, 0.0, 0.0, 0.0),
                  excursion=abs(theta[1] - eq.theta[1]))
    assert 3.0 + runs.units.ki[1] * 1e3 * runs.units.dt > DIVERGENCE_BOUND_RAD
    for phase in (runs.fault, runs.prefault):
        got = step(rec, runs.units, phase, eq.theta_cg)
        expected = reference_step(
            rec, runs.units, phase, runs.units.tol, runs.units.max_iter, eq.theta_cg
        )
        assert _record_bits(got) == _record_bits(expected)
        assert got.tripped[1] and got.i_mag[1] == 0.0
        assert got.theta_cg[1] == theta[1] and got.excursion == rec.excursion


def test_aligned_is_every_pf_angle_zero(table_config):
    fleet, grid = table_config.fleet, table_config.grid
    assert UnitTable(fleet, grid, 1e-5, 230e-9, 100).aligned
    assert UnitTable(
        fleet[:-1] + (replace(fleet[-1], pf_angle=-0.0),), grid, 1e-5, 230e-9, 100
    ).aligned
    assert not UnitTable(
        fleet[:-1] + (replace(fleet[-1], pf_angle=1e-12),), grid, 1e-5, 230e-9, 100
    ).aligned


def _record(theta, tripped=None, excursion=None):
    """A record at angles theta, with its excursion from angles of 0, the
    first record's below, unless one is given."""
    n = len(theta)
    zeros = (0.0,) * n
    if excursion is None:
        excursion = 0.0
        for th in theta:
            if abs(th) > excursion:
                excursion = abs(th)
    return TrajectoryRecord(230.0, 0.0, tuple(theta), zeros, zeros,
                            (False,) * n, tuple(tripped or (False,) * n),
                            tuple(theta), zeros, (0,) * n, excursion)


def test_synthetic_records_fold_as_one_unit_at_a_time(table_config):
    # Three units. Unit 0 has a violation streak that ends and ones that
    # start again; NaN angles stand in the first unit's place (record 7),
    # in the others' (8 and 9) and in every place (11); unit 2 trips. A calm
    # record and a violating one each come twice in a row as one object, as
    # a run repeats its equilibrium record.
    cfg = table_config
    nan = math.nan
    calm = _record((0.0, 0.0, 0.0))
    past = _record((0.5, 0.01, 0.0))
    records = [
        calm, calm, calm,
        _record((0.03, 0.001, -0.002)),
        past, past,
        _record((0.01, 0.0, 0.004)),
        _record((nan, 0.2, 0.1)),
        _record((0.2, nan, 0.03)),
        _record((-0.04, 0.0, nan), tripped=(False, False, True)),
        _record((0.0, 0.0, 0.0), tripped=(False, False, True)),
        _record((nan, nan, nan), tripped=(False, False, True)),
        _record((0.025, -0.3, 0.0)),
    ]
    fleet = cfg.fleet[:3]
    scenario = replace(cfg.scenario, t_clear=None)
    _assert_folds_match(records, fleet, scenario)
    # The NaN in the first unit's place does not hide the 0.2 rad beside it.
    assert RunFold([calm, records[7]], fleet, scenario, 1.0).max_excursion == 0.2
    # The record repeated past settle_tol extends its streak; unit 0's last
    # streak is record 12 alone.
    fold = RunFold(records[:6], fleet, scenario, 0.02)
    assert (fold.streak_start[0], fold.last_violation[0]) == (3, 5)
    fold = RunFold(records, fleet, scenario, 0.02)
    assert (fold.streak_start[0], fold.last_violation[0]) == (12, 12)
    assert fold.first_trip == [None, None, 9]


def test_the_fold_reads_the_excursion_each_record_carries(table_config):
    # A hand-made stream whose excursions disagree with its angles: the
    # fold's max_excursion is the field's maximum, and a unit past
    # settle_tol is marked only in a record whose excursion exceeds it.
    cfg = table_config
    fleet = cfg.fleet[:2]
    scenario = replace(cfg.scenario, t_clear=None)
    records = [
        _record((0.0, 0.0)),
        _record((0.5, 0.0), excursion=0.01),
        _record((0.0, 0.0), excursion=0.7),
        _record((0.0, 0.3), excursion=0.3),
    ]
    fold = RunFold(records, fleet, scenario, 0.02)
    assert fold.max_excursion == 0.7
    assert fold.last_violation == [None, 3] and fold.streak_start == [None, 3]
