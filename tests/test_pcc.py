import cmath
import math
import random

import pytest

from gflswing.dynamics import InverterConfig
from gflswing.network import TheveninEquivalent
from gflswing.pcc import NonConvergence, ZeroVoltage, q_components, solve_vpcc
from helpers_oracles import (
    aggregate_cd,
    grid_zoom_vpcc,
    newton_fd_vpcc,
    pcc_residual,
)


def _zeq(*pairs) -> tuple[complex, ...]:
    return tuple(complex(r, x) for r, x in pairs)


def _grid(mag=230.0, ang=0.0, z=(0.2, 0.1)) -> TheveninEquivalent:
    return TheveninEquivalent(cmath.rect(mag, ang), complex(*z))


def test_zero_injection_returns_source_voltage_exactly():
    grid = _grid()
    zeq = _zeq((0.1, 0.05), (0.2, 0.1))
    sol = solve_vpcc(grid, aggregate_cd(zeq, (0.0, 0.0), (0.0, 0.0)), tol=1e-9, max_iter=100)
    assert sol.v_pcc.real == grid.v_th.real
    assert sol.v_pcc.imag == grid.v_th.imag
    assert sol.iterations == 1
    assert sol.residual == 0.0


def test_single_inverter_matches_grid_search_oracle():
    grid = _grid(z=(0.05, 0.02))
    zeq = _zeq((0.1, 0.05))
    sol = solve_vpcc(grid, aggregate_cd(zeq, (6000.0,), (0.0,)), tol=1e-10, max_iter=100)
    oracle = grid_zoom_vpcc(230 + 0j, [0.1 + 0.05j], [6000.0], [0.0])
    got = sol.v_pcc
    assert abs(got - oracle) <= 1e-6 * abs(oracle)
    # residual re-checked against a fresh evaluation of the equation
    assert pcc_residual(got, 230 + 0j, [0.1 + 0.05j], [6000.0], [0.0]) <= 1e-10


def test_two_inverter_case_matches_newton_oracle():
    # Fleet rows 1 and 2 of the reference design against a 1.0 + j0.5 feeder
    z1 = complex(0.15 + 0.16, 2 * math.pi * 60 * 40e-6)
    z2 = complex(0.30 + 0.12, 2 * math.pi * 60 * 45e-6)
    z_grid = 1.0 + 0.5j
    zc = [
        (z1 * z_grid) / (z1 + z_grid),
        (z2 * z_grid) / (z2 + z_grid),
    ]
    zeq = tuple(zc)
    grid = _grid()
    agg = aggregate_cd(zeq, (6000.0, 9000.0), (0.05, 0.03))
    sol = solve_vpcc(grid, agg, tol=1e-10, max_iter=100)
    oracle = newton_fd_vpcc(230 + 0j, zc, [6000.0, 9000.0], [0.05, 0.03])
    assert abs(sol.v_pcc - oracle) <= 1e-8 * abs(oracle)


def test_randomized_small_fleets_match_newton_oracle():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(1, 3)
        v_mag = rng.uniform(110, 400)
        grid = _grid(v_mag, rng.uniform(-0.2, 0.2))
        zc, s, th = [], [], []
        budget = 0.15 * v_mag * v_mag  # keeps the voltage perturbation under ~15%
        for _ in range(n):
            z = complex(rng.uniform(0.02, 0.3), rng.uniform(0.0, 0.15))
            zc.append(z)
            s.append(rng.uniform(0.05, 0.9) * budget / (n * abs(z)))
            th.append(rng.uniform(-0.6, 0.6))
        zeq = tuple(zc)
        sol = solve_vpcc(grid, aggregate_cd(zeq, s, th), tol=1e-10 * v_mag, max_iter=100)
        oracle = newton_fd_vpcc(grid.v_th, zc, s, th)
        assert abs(sol.v_pcc - oracle) <= 1e-6 * abs(oracle)


def test_solver_residual_meets_tolerance():
    grid = _grid()
    zeq = _zeq((0.15, 0.07), (0.1, 0.02))
    s, th = (8000.0, 12000.0), (0.1, -0.2)
    tol = 1e-9 * 230
    sol = solve_vpcc(grid, aggregate_cd(zeq, s, th), tol=tol, max_iter=100)
    zc = list(zeq)
    assert pcc_residual(sol.v_pcc, 230 + 0j, zc, list(s), list(th)) <= tol


def _fault_on_case(theta):
    """The two-unit reference fleet at injection angles theta, behind a
    feeder whose source has sagged to half its 230 V: (grid, z_eq,
    aggregate)."""
    z1 = complex(0.15 + 0.16, 2 * math.pi * 60 * 40e-6)
    z2 = complex(0.30 + 0.12, 2 * math.pi * 60 * 45e-6)
    z_grid = 1.0 + 0.5j
    zeq = tuple((z * z_grid) / (z + z_grid) for z in (z1, z2))
    grid = _grid(115.0, 0.0, z=(0.7, 0.35))
    return grid, zeq, aggregate_cd(zeq, (6000.0, 9000.0), theta)


def test_seeded_solve_from_its_own_solution_returns_at_once():
    grid, _, agg = _fault_on_case((0.06, 0.045))
    tol = 1e-9 * 230
    cold = solve_vpcc(grid, agg, tol=tol, max_iter=100)
    warm = solve_vpcc(grid, agg, tol=tol, max_iter=100, seed=cold.v_pcc)
    assert warm.iterations == 1
    assert warm.v_pcc == cold.v_pcc


def test_seeded_solve_from_a_neighbouring_state_agrees_with_the_cold_solve():
    # Seeded with the solution of the injection angles one step earlier, as
    # step seeds it, the solve lands within tol of the cold solve in fewer
    # iterations, and its residual meets tol.
    s, theta = (6000.0, 9000.0), (0.06, 0.045)
    grid, zeq, agg = _fault_on_case(theta)
    tol = 1e-9 * 230
    before = solve_vpcc(grid, _fault_on_case((0.05, 0.03))[2], tol=tol, max_iter=100)
    cold = solve_vpcc(grid, agg, tol=tol, max_iter=100)
    warm = solve_vpcc(grid, agg, tol=tol, max_iter=100, seed=before.v_pcc)
    assert abs(warm.v_pcc - cold.v_pcc) <= tol
    assert warm.iterations < cold.iterations
    assert pcc_residual(warm.v_pcc, grid.v_th, list(zeq), list(s), list(theta)) <= tol


@pytest.mark.parametrize("seed", [0j, 1e-5 + 0j])
def test_seed_below_the_zero_voltage_floor_raises(seed):
    # The floor is ZERO_VOLTAGE_FRACTION of |v_th| = 115 V, 1.15e-4 V.
    grid, _, agg = _fault_on_case((0.06, 0.045))
    with pytest.raises(ZeroVoltage):
        solve_vpcc(grid, agg, tol=1e-9 * 230, max_iter=100, seed=seed)


def test_solver_reports_nonconvergence_when_budget_exhausted():
    grid = _grid()
    zeq = _zeq((0.1, 0.05))
    with pytest.raises(NonConvergence) as err:
        solve_vpcc(grid, aggregate_cd(zeq, (6000.0,), (0.0,)), tol=1e-15, max_iter=2)
    assert err.value.iterations == 2
    assert err.value.residual > 1e-15


def test_solver_zero_voltage_guard():
    # A pinned current cancelling the source exactly collapses the node.
    grid = _grid(230.0, 0.0, z=(0.0, 0.0))
    zeq = _zeq((1.0, 0.0))
    agg = aggregate_cd(zeq, (0.0,), (math.pi,), i_fixed=(230.0,))
    with pytest.raises(ZeroVoltage):
        solve_vpcc(grid, agg, tol=1e-9, max_iter=50)


def test_solver_validates_arguments():
    grid = _grid()
    zeq = _zeq((0.1, 0.05))
    agg = aggregate_cd(zeq, (6000.0,), (0.0,))
    with pytest.raises(ValueError):
        solve_vpcc(grid, agg, tol=0.0, max_iter=10)
    with pytest.raises(ValueError):
        solve_vpcc(grid, agg, tol=1e-9, max_iter=0)
    with pytest.raises(ValueError):
        solve_vpcc(_grid(0.0), agg, tol=1e-9, max_iter=10)


def test_fixed_current_entries_bypass_the_power_division():
    grid = _grid()
    zeq = _zeq((0.1, 0.05))
    agg = aggregate_cd(zeq, (123456.0,), (0.3,), i_fixed=(40.0,))
    sol = solve_vpcc(grid, agg, tol=1e-9, max_iter=100)
    expected = 230 + (0.1 + 0.05j) * 40.0 * cmath.exp(0.3j)
    assert sol.v_pcc == pytest.approx(expected, rel=1e-12)
    assert sol.iterations == 1


def test_solver_solves_the_aggregate_it_is_given():
    # Explicit (fixed currents only) and iterated solves alike: the solution
    # meets v = v_th + D + C / |v| for the (C, D) handed in.
    grid = _grid()
    zeq = _zeq((0.1, 0.05), (0.2, 0.1))
    theta = (0.3, -0.2)
    for s, i_fixed in (
        ((0.0, 0.0), (40.0, 20.0)),
        ((6000.0, 9000.0), (None, 20.0)),
    ):
        c, d = agg = aggregate_cd(zeq, s, theta, i_fixed)
        sol = solve_vpcc(grid, agg, tol=1e-9, max_iter=100)
        v = sol.v_pcc
        assert abs(v - (grid.v_th + d + c / abs(v))) <= 1e-9
        oracle = grid.v_th
        for k, th in enumerate(theta):
            i_k = i_fixed[k] if i_fixed[k] is not None else s[k] / abs(v)
            oracle += zeq[k] * i_k * cmath.exp(1j * th)
        assert abs(v - oracle) <= 1e-9 * abs(oracle)


def _frames(s, theta, z_series, refs, v_mag):
    """q_components' per-unit arguments for the injections s at angles theta
    seen from the frames refs: cos and sin of each frame,
    Im(z_series e^{j (theta - ref)}) and the currents s / |v_pcc|."""
    return (
        [math.cos(ref) for ref in refs],
        [math.sin(ref) for ref in refs],
        [(z * cmath.exp(1j * (th - ref))).imag
         for z, th, ref in zip(z_series, theta, refs)],
        [s_k / v_mag for s_k in s],
    )


def test_q_components_zero_injection_gives_source_projection():
    grid = _grid(230.0, 0.12)
    zeq = _zeq((0.1, 0.05), (0.2, 0.02))
    s, th = (0.0, 0.0), (0.0, 0.0)
    z_series = [complex(0.3, 0.01), complex(0.4, 0.02)]
    refs = (0.05, -0.3)
    q, v_gq = q_components(
        grid, cmath.rect(230.0, 0.12), aggregate_cd(zeq, s, th),
        *_frames(s, th, z_series, refs, 230.0),
    )
    expected = tuple(230.0 * math.sin(0.12 - ref) for ref in refs)
    assert q == pytest.approx(expected, rel=1e-12)
    assert v_gq == pytest.approx(expected, rel=1e-12)


def test_q_components_aligned_terms_vanish():
    grid = _grid(230.0, 0.0)
    zeq = _zeq((0.1, 0.0), (0.2, 0.0))  # gamma = 0
    s, th = (5000.0, 7000.0), (0.0, 0.0)  # theta + gamma = 0
    z_series = [complex(0.3, 0.0), complex(0.4, 0.0)]
    q, v_gq = q_components(
        grid, cmath.rect(240.0, 0.0), aggregate_cd(zeq, s, th),
        *_frames(s, th, z_series, (0.0, 0.0), 240.0),
    )
    assert q == pytest.approx((0.0, 0.0), abs=1e-12)
    assert v_gq == pytest.approx((0.0, 0.0), abs=1e-12)


def test_q_components_termwise_equals_complex_projection():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randint(1, 5)
        v_th = cmath.rect(rng.uniform(50, 400), rng.uniform(-math.pi, math.pi))
        grid = TheveninEquivalent(v_th, complex(0.1, 0.1))
        zc = [complex(rng.uniform(0.01, 0.5), rng.uniform(-0.2, 0.5)) for _ in range(n)]
        zeq = tuple(zc)
        s = tuple(rng.uniform(0, 2e4) for _ in range(n))
        th = tuple(rng.uniform(-math.pi, math.pi) for _ in range(n))
        z_series = [
            complex(rng.uniform(0.01, 0.6), rng.uniform(0.0, 0.3)) for _ in range(n)
        ]
        v_pcc = cmath.rect(rng.uniform(40, 400), rng.uniform(-math.pi, math.pi))
        refs = tuple(rng.uniform(-math.pi, math.pi) for _ in range(n))
        q, v_gq = q_components(
            grid, v_pcc, aggregate_cd(zeq, s, th), *_frames(s, th, z_series, refs, abs(v_pcc))
        )

        v_mag = abs(v_pcc)
        total = v_th
        for k in range(n):
            total += zc[k] * (s[k] / v_mag) * cmath.exp(1j * th[k])
        scale = max(abs(total), abs(v_th))
        for p in range(n):
            rot = cmath.exp(-1j * refs[p])
            assert abs(q[p] - (total * rot).imag) <= 1e-9 * scale
            full = total + z_series[p] * (s[p] / v_mag) * cmath.exp(1j * th[p])
            assert abs(v_gq[p] - (full * rot).imag) <= 1e-9 * max(abs(full), scale)


def test_increasing_lagging_injection_weakly_depresses_q():
    # All injection terms point into the lower half-plane of the reference
    # frame, so growing any s must not raise the solved q component.
    grid = _grid(230.0, 0.0, z=(0.1, 0.05))
    zeq = _zeq((0.12, 0.04), (0.18, 0.06), (0.09, 0.02))
    z_series = [complex(0.3, 0.01)] * 3
    theta = (-0.9, -1.1, -0.7)
    base_s = [5000.0, 7000.0, 6000.0]

    def solved_q(s):
        agg = aggregate_cd(zeq, s, theta)
        sol = solve_vpcc(grid, agg, tol=1e-10, max_iter=100)
        q, _ = q_components(
            grid, sol.v_pcc, agg, *_frames(s, theta, z_series, (0.0,) * 3, abs(sol.v_pcc))
        )
        return q[0]

    q0 = solved_q(base_s)
    for k in range(3):
        bumped = list(base_s)
        bumped[k] *= 1.05
        assert solved_q(bumped) <= q0 + 1e-9


def test_operating_points_bundle_the_per_inverter_view():
    # At a solved PCC voltage, each unit's v_gq equals the q projection of
    # its generation voltage v_g = v_pcc + i z e^{j theta} onto its own frame.
    fleet = (
        InverterConfig("A", 6000.0, complex(0.15, 0.015), 0.16, 4.31e-3, 260.0, 100.0),
        InverterConfig("B", 9000.0, complex(0.30, 0.017), 0.12, 4.45e-3, 259.0, 100.0),
    )
    z_series = [cfg.z_total() for cfg in fleet]
    grid = _grid()
    zeq = _zeq((0.12, 0.03), (0.15, 0.04))
    s, th = (6000.0, 9000.0), (0.02, 0.05)
    agg = aggregate_cd(zeq, s, th)
    sol = solve_vpcc(grid, agg, tol=1e-10, max_iter=100)
    v = sol.v_pcc
    refs = (0.01, 0.04)
    _, v_gq = q_components(grid, v, agg, *_frames(s, th, z_series, refs, abs(v)))
    for p, ref in enumerate(refs):
        i_p = s[p] / abs(v)
        v_g = v + i_p * z_series[p] * cmath.exp(1j * th[p])
        projected = (v_g * cmath.exp(-1j * ref)).imag
        assert v_gq[p] == pytest.approx(projected, abs=5e-9 * abs(v))

