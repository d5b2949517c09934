"""Point-of-common-coupling voltage solver and q-axis voltage components.

The PCC voltage obeys an implicit superposition: every inverter injects a
current of magnitude s_i / |v_pcc| at its injection angle through its
equivalent impedance, on top of the Thevenin source voltage. The solver
treats the current-magnitude denominator and the solved voltage as the same
quantity (zero measurement lag); a current-limited unit injects a fixed
current instead.

Injections enter with the literal magnitude form |s| / |v| times a unit
phasor at the injection angle. This is not the conjugate constant-power
injection of conventional load flow (S* / V*); the two coincide only for
angle-aligned cases, and the conjugate variant is intentionally not
implemented.

Both solve_vpcc and q_components work on the aggregate (C, D) of the
injections, rhs(v) = v_th + D + C / |v|: the caller sums it once per set of
injections (dynamics sums it from its per-run table), and q_components
rotates that one complex sum into every unit's frame, so one call serves
the whole fleet.

Every solve is damped Newton from a seed: the voltage of the previous
time step, from which it converges in one or two iterations, or v_th when
no seed is given.

Voltages and impedances are Python ``complex`` numbers in volts and ohms;
the equivalent impedances come from network.equivalent_impedance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from gflswing.network import TheveninEquivalent

__all__ = [
    "PccSolution",
    "NonConvergence",
    "ZeroVoltage",
    "solve_vpcc",
    "q_components",
]

# |v| below this fraction of |v_th| aborts the iteration as a collapsed node.
ZERO_VOLTAGE_FRACTION = 1e-6


class NonConvergence(RuntimeError):
    """Residual stayed above tolerance after the iteration budget.

    Signals an operating point with no reachable voltage equilibrium, e.g. a
    fault so deep the constant-power injections cannot be supported.
    """

    def __init__(self, residual: float, iterations: int) -> None:
        super().__init__(
            f"pcc voltage iteration did not converge: residual {residual:.3e} V "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


class ZeroVoltage(RuntimeError):
    """The iterated voltage magnitude collapsed toward zero."""


@dataclass(slots=True)
class PccSolution:
    """The solved PCC voltage, its residual and the iterations it took.
    Read-only and not frozen, like dynamics.TrajectoryRecord."""

    v_pcc: complex
    residual: float
    iterations: int


def solve_vpcc(
    grid: TheveninEquivalent,
    agg: tuple[complex, complex],
    tol: float,
    max_iter: int,
    seed: complex | None = None,
) -> PccSolution:
    """Solve v = v_th + D + C / |v| for the aggregate (C, D).

    C = sum_i z_eq_i s_i e^{j theta_i} over the constant-power injections
    and D = sum_i z_eq_i i_i e^{j theta_i} over the fixed-current ones.
    Newton's method on the residual with its closed-form 2-D Jacobian,
    halving each step that would raise the residual, from seed, or from
    v_th when no seed is given. The halving test's residual of an accepted
    trial is the next iteration's residual; it is recomputed only after six
    halvings all fail and the smallest step is taken anyway. Raises
    NonConvergence if the residual stays above tol within max_iter
    iterations and ZeroVoltage if |v| (the seed's included) falls below
    ZERO_VOLTAGE_FRACTION * |v_th|.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")

    v_th = grid.v_th
    v_th_mag = abs(v_th)
    c, d = agg

    if v_th_mag == 0.0 and abs(c) > 0.0:
        raise ValueError(
            "zero source voltage is only solvable with zero constant-power injections"
        )

    if c == 0.0:
        # No constant-power injections: the equation is explicit.
        v = v_th + d
        if v_th_mag > 0.0 and abs(v) < ZERO_VOLTAGE_FRACTION * v_th_mag:
            raise ZeroVoltage(
                f"explicit solution magnitude {abs(v):.3e} V is numerically zero"
            )
        return PccSolution(v, 0.0, 1)

    w = v_th + d
    floor = ZERO_VOLTAGE_FRACTION * v_th_mag

    # Newton on F(v) = v - w - C/|v| with its closed-form Jacobian. An
    # accepted trial carries its |v|, F and residual into the next iteration.
    v = v_th if seed is None else seed
    trial = None
    for iterations in range(1, max_iter + 1):
        if trial is not None:
            r, f, residual = trial
        else:
            r = abs(v)
            if r < floor:
                raise ZeroVoltage(
                    f"voltage magnitude {r:.3e} V collapsed below {floor:.3e} V"
                )
            f = v - w - c / r
            residual = abs(f)
        if residual <= tol:
            return PccSolution(v, residual, iterations)
        x, y = v.real, v.imag
        r3 = r * r * r
        j11 = 1.0 + c.real * x / r3
        j12 = c.real * y / r3
        j21 = c.imag * x / r3
        j22 = 1.0 + c.imag * y / r3
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-300:
            break
        dx = (f.real * j22 - f.imag * j12) / det
        dy = (f.imag * j11 - f.real * j21) / det
        step = complex(dx, dy)
        # Halve the step while it would increase the residual.
        alpha = 1.0
        for _ in range(6):
            v_new = v - alpha * step
            r_new = abs(v_new)
            if r_new >= floor:
                f_new = v_new - w - c / r_new
                res_new = abs(f_new)
                if res_new < residual:
                    v, trial = v_new, (r_new, f_new, res_new)
                    break
            alpha *= 0.5
        else:
            v, trial = v - alpha * step, None

    raise NonConvergence(residual, iterations)


def q_components(
    grid: TheveninEquivalent,
    v_pcc: complex,
    agg: tuple[complex, complex],
    cos_ref: Sequence[float],
    sin_ref: Sequence[float],
    series_q: Sequence[float],
    i_mag: Sequence[float],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """q-axis components of the PCC and generation voltages, one per unit frame.

    agg is the aggregate (C, D) of the injections at v_pcc. The PCC
    right-hand side total = v_th + D + C / |v_pcc| is rotated into each
    unit's frame ref_p, given by cos_ref and sin_ref:

        v_pcc_q[p] = Im(total e^{-j ref_p})
        v_gq[p]    = v_pcc_q[p] + series_q[p] i_mag[p]

    where series_q[p] = Im(z_series_p e^{j (theta_p - ref_p)}) is the q-axis
    drop per ampere of unit p's series impedance at its injection angle
    theta_p, and i_mag[p] its current. The cost is O(n) for the whole fleet.
    """
    v_mag = abs(v_pcc)
    if v_mag <= 0.0:
        raise ValueError("q_components requires |v_pcc| > 0")
    n = len(cos_ref)
    if len(sin_ref) != n or len(series_q) != n or len(i_mag) != n:
        raise ValueError("cos_ref, sin_ref, series_q and i_mag must match the fleet size")

    c, d = agg
    total = grid.v_th + d + c / v_mag
    re, im = total.real, total.imag
    v_pcc_q = tuple([im * cr - re * sr for cr, sr in zip(cos_ref, sin_ref)])
    v_gq = tuple([q + b * i for q, b, i in zip(v_pcc_q, series_q, i_mag)])
    return v_pcc_q, v_gq
