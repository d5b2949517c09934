"""find_cct with fork: clearing steps decided by forked deciders give the
result, the exception and the parent's work of the search without fork, and
no decider outlives the search."""

import errno
import os
import signal
from contextlib import contextmanager
from dataclasses import replace
from itertools import chain

import pytest

from gflswing import dynamics, stability
from gflswing.cli import bundled_config_path, load_config
from gflswing.dynamics import Runs
from gflswing.stability import (
    BracketInvalid, RunFold, _fork_piped, find_cct, uniform_fleet_of,
)
from test_cli import SMALL_CONFIG, _assert_no_child_left


def _search(cfg, fork, fleet=None, scenario=None, cct=None):
    runs = Runs(fleet or cfg.fleet, cfg.grid, scenario or cfg.scenario, cfg.solver)
    return find_cct(runs, cct or cfg.cct, cfg.settle_tol, cfg.settle_window, fork)


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_CONFIG, encoding="utf-8")
    return load_config(path)


@contextmanager
def _one_spare_cpu():
    """Keep this process to two CPUs of its affinity set, so that a search
    has one spare CPU; the set is restored after."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs and CPU affinity")
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, sorted(before)[:2])
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


@contextmanager
def _failing_after(seconds):
    """Raise TimeoutError in this process if the block runs longer, and
    again every 5 s after, rather than hang: a search that waits in its
    exception handler for a reply that cannot come is ended too."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, 5)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the children os.fork starts, in order."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


@pytest.mark.parametrize("name", ["table1.yaml", "table1_sync.yaml"])
def test_forked_search_of_a_bundled_config_equals_the_sequential_one(name, forks):
    # One decider per search, on any number of CPUs.
    cfg = load_config(bundled_config_path(name))
    assert _search(cfg, True) == _search(cfg, False)
    assert len(forks) == 1
    _assert_no_child_left()


def test_forked_search_of_the_small_config_equals_the_sequential_one(small_config, forks):
    assert _search(small_config, True) == _search(small_config, False)
    assert forks
    _assert_no_child_left()


def test_forked_search_of_the_uniform_fleet_equals_the_sequential_one(table_config, forks):
    fleet = uniform_fleet_of(table_config.fleet)
    assert _search(table_config, True, fleet) == _search(table_config, False, fleet)
    assert forks
    _assert_no_child_left()


@pytest.mark.parametrize("depth", [0.35, 0.65])
def test_forked_search_at_another_fault_depth_equals_the_sequential_one(
    table_config, depth, forks
):
    scenario = replace(table_config.scenario, fault_depth=depth)
    assert (_search(table_config, True, scenario=scenario)
            == _search(table_config, False, scenario=scenario))
    assert forks
    _assert_no_child_left()


@pytest.mark.parametrize("depth, t_min, lo_stable, hi_stable", [
    # No fault: stable at both ends. t_max is stable, so nothing is
    # bisected, and the decider decides t_min.
    (0.0, 2e-4, True, True),
    # Both ends past table1's 1.505 ms CCT: the unstable t_max lets the
    # search bisect before t_min's unstable verdict is read.
    (0.5, 2e-3, False, False),
])
def test_forked_search_raises_the_sequential_invalid_bracket(
    table_config, depth, t_min, lo_stable, hi_stable, forks
):
    scenario = replace(table_config.scenario, fault_depth=depth)
    cct = replace(table_config.cct, t_min=t_min)
    raised = []
    for fork in (False, True):
        with pytest.raises(BracketInvalid) as err:
            _search(table_config, fork, scenario=scenario, cct=cct)
        raised.append((err.value.lo_stable, err.value.hi_stable, str(err.value)))
        _assert_no_child_left()
    assert raised[0] == raised[1]
    assert raised[0][:2] == (lo_stable, hi_stable)
    assert forks


@pytest.mark.parametrize("name, t_min", [
    ("table1.yaml", None), ("table1_sync.yaml", None), ("small", None), ("table1.yaml", 2e-3),
], ids=["table1", "table1_sync", "small", "invalid bracket"])
def test_both_modes_ask_for_the_same_steps_in_the_same_order(
    name, t_min, small_config, monkeypatch
):
    # k_max, the bisection's midpoints, k_min, then the audit samples: fork
    # changes which process decides a step, not the order of the asking.
    cfg = small_config if name == "small" else load_config(bundled_config_path(name))
    cct = replace(cfg.cct, t_min=t_min) if t_min else None
    asked = []
    stable = stability._Decisions.stable

    def recording(self, k):
        asked[-1].append(k)
        return stable(self, k)

    monkeypatch.setattr(stability._Decisions, "stable", recording)
    for fork in (False, True):
        asked.append([])
        try:
            _search(cfg, fork, cct=cct)
        except BracketInvalid:
            assert t_min
        _assert_no_child_left()
    assert asked[0] == asked[1]
    k_min, k_max, _ = (cct or cfg.cct).steps(cfg.scenario, cfg.settle_window)
    assert asked[0][0] == k_max and k_min in asked[0]


def test_a_verdict_that_fails_in_a_child_is_decided_by_the_parent(
    table_config, monkeypatch, forks
):
    # Every child fails on its first step and writes no byte: the parent
    # decides each of their steps itself.
    expected = _search(table_config, False)
    parent = os.getpid()
    verdict = RunFold.verdict

    def failing_in_a_child(self, settle_window):
        if os.getpid() != parent:
            raise RuntimeError("a child failed")
        return verdict(self, settle_window)

    monkeypatch.setattr(RunFold, "verdict", failing_in_a_child)
    assert _search(table_config, True) == expected
    assert forks
    _assert_no_child_left()


@pytest.mark.parametrize("k_clear", [20, 182, 450], ids=["k_min", "speculated", "k_max"])
def test_a_failing_decision_raises_as_in_the_sequential_search(
    table_config, monkeypatch, k_clear, forks
):
    # table1's search asks for clearing steps 450 (k_max, in the parent),
    # 235, 128, 182 (in the decider, speculating that 128 is stable), 155,
    # 142, 149, 152 and 20 (k_min, in the decider). A verdict of one step
    # that raises in every process reaches the caller from the parent, as
    # it does without fork; the decider is forked only once k_max is
    # decided, so none is forked when k_max's verdict raises.
    k_fault = table_config.scenario.k_fault
    verdict = RunFold.verdict

    def failing_at_one_step(self, settle_window):
        if self.scenario.k_clear == k_fault + k_clear:
            raise RuntimeError(f"no verdict at step {k_clear}")
        return verdict(self, settle_window)

    monkeypatch.setattr(RunFold, "verdict", failing_at_one_step)
    for fork in (False, True):
        with pytest.raises(RuntimeError, match=f"no verdict at step {k_clear}$"):
            _search(table_config, fork)
        _assert_no_child_left()
    assert bool(forks) == (k_clear != 450)


def test_a_failing_midpoint_of_an_invalid_bracket_raises_in_both_modes(
    table_config, monkeypatch, forks
):
    # On [2, 4.5] ms both ends are unstable, but t_min's verdict is asked
    # for after the bisection that t_max's allows: with and without fork
    # the first midpoint, step 325, raises before the bracket is found
    # invalid.
    cct = replace(table_config.cct, t_min=2e-3)
    k_fault = table_config.scenario.k_fault
    verdict = RunFold.verdict

    def failing_at_the_midpoint(self, settle_window):
        if self.scenario.k_clear == k_fault + 325:
            raise RuntimeError("no verdict at step 325")
        return verdict(self, settle_window)

    monkeypatch.setattr(RunFold, "verdict", failing_at_the_midpoint)
    raised = []
    for fork in (False, True):
        with pytest.raises(RuntimeError) as err:
            _search(table_config, fork, cct=cct)
        raised.append((type(err.value), str(err.value)))
        _assert_no_child_left()
    assert raised == [(RuntimeError, "no verdict at step 325")] * 2
    assert forks


def test_the_parent_of_a_forked_search_makes_a_pinned_number_of_steps(
    table_config, monkeypatch, forks
):
    # Which steps go to the decider depends on verdicts only, so the parent's
    # share of table1's 9,066 steps repeats: 5,433. The decider decides k_min
    # (20), the speculated midpoints 182 and 149 and the audit's one new
    # sample, 342, and also the speculations on 343 and 169, above an
    # unstable midpoint, which the parent never asks for.
    steps = [0]
    step = dynamics.step

    def counting(*args):
        steps[0] += 1
        return step(*args)

    monkeypatch.setattr(dynamics, "step", counting)
    counts = []
    for _ in range(2):
        steps[0] = 0
        _search(table_config, True)
        counts.append(steps[0])
    assert counts == [5_433, 5_433]
    _assert_no_child_left()


def test_a_forked_search_makes_the_sequential_number_of_steps_in_all(
    table_config, monkeypatch
):
    # The decider is forked once k_max's run has stepped the fault-on run
    # to Inv 4's trip at step 450 and inherits it, so the steps of the
    # parent and the decider add up to the 9,066 of the sequential search.
    # Each step, in either process, writes one byte to a pipe.
    read_fd, write_fd = os.pipe()
    step = dynamics.step

    def counting(*args):
        os.write(write_fd, b"x")
        return step(*args)

    monkeypatch.setattr(dynamics, "step", counting)
    try:
        _search(table_config, True)
    finally:
        os.close(write_fd)
    with os.fdopen(read_fd, "rb") as steps:
        _assert_no_child_left()  # so that no decider holds the pipe open
        assert len(steps.read()) == 9_066


def test_the_cpu_split_is_restored_after_a_forked_search(table_config):
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no CPU affinity on this platform")
    before = os.sched_getaffinity(0)
    _search(table_config, True)
    assert os.sched_getaffinity(0) == before


def test_a_search_with_one_spare_cpu_forks_one_decider(table_config, forks):
    # Six step lists are handed out (k_min, 343, 182, 169, 149 and the audit
    # sample 342), all to one long-lived decider.
    with _one_spare_cpu():
        assert _search(table_config, True) == _search(table_config, False)
    assert len(forks) == 1
    _assert_no_child_left()


def test_a_decider_that_fails_with_steps_queued_leaves_the_sequential_result(
    table_config, monkeypatch, forks
):
    # The decider fails at k_min (20) only once the parent decides 128,
    # and so after the speculations on 343 and 182 are queued behind k_min.
    # Its unanswered steps go back to the parent, which decides 182 itself
    # and forks a second decider for the speculation on 169: no reply is
    # awaited that cannot come.
    expected = _search(table_config, False)
    parent, k_fault = os.getpid(), table_config.scenario.k_fault
    gate_r, gate_w = os.pipe()
    verdict = RunFold.verdict

    def failing_at_k_min_in_a_decider(self, settle_window):
        if self.scenario.k_clear == k_fault + 128 and os.getpid() == parent:
            os.write(gate_w, b"x")
        if self.scenario.k_clear == k_fault + 20 and os.getpid() != parent:
            os.read(gate_r, 1)
            raise RuntimeError("a decider failed at k_min")
        return verdict(self, settle_window)

    monkeypatch.setattr(RunFold, "verdict", failing_at_k_min_in_a_decider)
    try:
        with _one_spare_cpu(), _failing_after(60):
            assert _search(table_config, True) == expected
    finally:
        os.close(gate_r)
        os.close(gate_w)
    assert len(forks) == 2
    _assert_no_child_left()


def test_a_request_written_a_byte_at_a_time_leaves_the_sequential_result(
    table_config, monkeypatch
):
    # os.write may write only part of what it is given; the rest of a step
    # list must still reach the decider (the audit's list is the longest).
    cct = replace(table_config.cct, audit_samples=40)
    expected = _search(table_config, False, cct=cct)
    write = os.write
    monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:1])))
    with _failing_after(20):
        assert _search(table_config, True, cct=cct) == expected
    _assert_no_child_left()


@pytest.mark.parametrize("failing", ["fork", "second pipe"])
def test_a_fork_that_cannot_be_made_leaves_no_pipe_open(monkeypatch, failing):
    opened = []
    pipe = os.pipe

    def recording_pipe():
        if failing == "second pipe" and opened:
            raise OSError(errno.EMFILE, "Too many open files")
        opened.append(pipe())
        return opened[-1]

    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _fork_piped(2) is None
    assert opened
    for fd in chain.from_iterable(opened):
        with pytest.raises(OSError):
            os.fstat(fd)
