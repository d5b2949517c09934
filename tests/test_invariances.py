"""Changes to a config that must not change its physics.

Each test runs table1 and table1_sync through Runs.stream, RunFold and
find_cct, at the config's own clearing time, and compares the run with
that of the changed config:

- a doubled voltage base (v_th x2, s_rated x4, i_max x2, kp and ki /2)
  leaves every impedance as it is, so every voltage and current is exactly
  twice the base run's and every angle, flag and count is bit-identical;
- an event shift (t_fault and t_end 7 steps later) moves every record 7
  steps and changes no bit of it;
- a permuted fleet sums the units in another order, so its bits may
  differ, but not its verdicts.
"""

import functools
from dataclasses import replace

import pytest

from gflswing.cli import bundled_config_path, load_config
from gflswing.dynamics import Runs, whole_steps
from gflswing.stability import RunFold, decide, find_cct

CONFIGS = ("table1.yaml", "table1_sync.yaml")
# Record fields in volts or amperes, and the rest that a step carries on.
SCALED_FIELDS = ("v_pcc_mag", "i_mag", "v_gq", "integral")
KEPT_FIELDS = ("v_pcc_angle", "theta_cg", "theta", "limited", "tripped", "limited_steps")
SHIFT = 7
# The clearing intervals whose every step's verdict a permuted fleet must
# repeat: table1's around its one stable/unstable transition, at 1.5 ms,
# and table1_sync's non-monotone stretch around its first unstable
# interval. table1's whole bracket, 431 steps, would take about 6 s.
VERDICT_SPANS = {"table1.yaml": (1.25e-3, 1.75e-3), "table1_sync.yaml": (40.0e-3, 41.0e-3)}


def _bits(value, scale=1.0):
    """value, a number or a tuple of them, as exact bits, each times scale."""
    values = value if isinstance(value, tuple) else (value,)
    return tuple(float.hex(scale * v) if isinstance(v, float) else v for v in values)


def _outcome(cfg):
    """(records, fold, CCT result) of cfg's run, at cfg's own clearing
    time, and of its CCT search, all from one Runs."""
    runs = Runs(cfg.fleet, cfg.grid, cfg.scenario, cfg.solver)
    run = runs.stream(cfg.scenario.t_clear)
    records = tuple(run)
    fold = RunFold(records, run.fleet, run.scenario, cfg.settle_tol)
    return records, fold, find_cct(runs, cfg.cct, cfg.settle_tol, cfg.settle_window)


@functools.cache
def _base(name):
    cfg = load_config(bundled_config_path(name))
    return cfg, _outcome(cfg)


def _verdicts(cfg, span):
    """'S' or 'U' for each clearing interval of span, a step apart, in
    order."""
    scenario = cfg.scenario
    dt = scenario.dt
    lo, hi = span
    runs = Runs(cfg.fleet, cfg.grid, scenario, cfg.solver)
    verdicts = []
    for k in range(whole_steps(lo, dt), whole_steps(hi, dt) + 1):
        verdict = decide(runs, scenario.t_fault + k * dt, cfg.settle_tol, cfg.settle_window)
        verdicts.append("S" if verdict.stable else "U")
    return "".join(verdicts)


@pytest.mark.parametrize("name", CONFIGS)
def test_a_doubled_voltage_base_doubles_every_voltage_and_current(name):
    cfg, (records, fold, result) = _base(name)
    doubled = replace(
        cfg,
        grid=replace(cfg.grid, v_th=2.0 * cfg.grid.v_th),
        fleet=tuple(
            replace(unit, s_rated=4.0 * unit.s_rated, i_max=2.0 * unit.i_max,
                    kp=unit.kp / 2.0, ki=unit.ki / 2.0)
            for unit in cfg.fleet
        ),
    )
    got_records, got_fold, got_result = _outcome(doubled)
    assert len(got_records) == len(records)
    for k, (got, rec) in enumerate(zip(got_records, records)):
        for field in SCALED_FIELDS:
            assert _bits(getattr(got, field)) == _bits(getattr(rec, field), 2.0), (k, field)
        for field in KEPT_FIELDS:
            assert _bits(getattr(got, field)) == _bits(getattr(rec, field)), (k, field)
    assert got_fold.verdict(cfg.settle_window) == fold.verdict(cfg.settle_window)
    assert got_result == result


@pytest.mark.parametrize("name", CONFIGS)
def test_a_shift_of_whole_steps_shifts_every_record(name):
    cfg, (records, fold, result) = _base(name)
    scenario = cfg.scenario
    later = SHIFT * scenario.dt
    shifted = replace(cfg, scenario=replace(
        scenario, t_fault=scenario.t_fault + later, t_clear=scenario.t_clear + later,
        t_end=scenario.t_end + later,
    ))
    assert shifted.scenario.k_fault == scenario.k_fault + SHIFT
    assert shifted.scenario.k_clear == scenario.k_clear + SHIFT
    assert shifted.scenario.k_end == scenario.k_end + SHIFT
    got_records, got_fold, got_result = _outcome(shifted)
    assert len(got_records) == len(records) + SHIFT
    assert all(rec is got_records[0] for rec in got_records[:SHIFT + 1])
    for k, (got, rec) in enumerate(zip(got_records[SHIFT:], records)):
        for field in SCALED_FIELDS + KEPT_FIELDS:
            assert _bits(getattr(got, field)) == _bits(getattr(rec, field)), (k, field)

    def moved(steps):
        return [None if k is None else k + SHIFT for k in steps]

    assert got_fold.k_last == fold.k_last + SHIFT
    assert got_fold.max_excursion == fold.max_excursion
    assert got_fold.first_trip == moved(fold.first_trip)
    assert got_fold.last_violation == moved(fold.last_violation)
    assert got_fold.streak_start == moved(fold.streak_start)
    verdict = fold.verdict(cfg.settle_window)
    got_verdict = got_fold.verdict(cfg.settle_window)
    assert (got_verdict.stable, got_verdict.first_unstable) == (
        verdict.stable, verdict.first_unstable
    )
    assert got_result == result


@pytest.mark.parametrize("name", CONFIGS)
def test_a_permuted_fleet_gives_the_same_verdicts(name):
    cfg, (_, fold, result) = _base(name)
    order = (3, 0, 4, 1, 2)
    assert sorted(order) == list(range(len(cfg.fleet)))
    permuted = replace(cfg, fleet=tuple(cfg.fleet[p] for p in order))
    _, got_fold, got_result = _outcome(permuted)
    assert got_fold.verdict(cfg.settle_window).stable == fold.verdict(cfg.settle_window).stable
    assert got_result == result
    span = VERDICT_SPANS[name]
    verdicts = _verdicts(cfg, span)
    assert "S" in verdicts and "U" in verdicts
    assert _verdicts(permuted, span) == verdicts
