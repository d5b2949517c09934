"""Point-of-common-coupling voltage solver and q-axis voltage components.

The PCC voltage obeys an implicit superposition: every inverter injects a
current of magnitude s_i / |v_pcc| at its injection angle through its
equivalent impedance, on top of the Thevenin source voltage. The solver
treats the current-magnitude denominator and the solved voltage as the same
quantity (zero measurement lag); an explicit one-step lag is available
through fixed-current injections, see dynamics.SolverOptions.lag_mode.

Injections enter with the literal magnitude form |s| / |v| times a unit
phasor at the injection angle. This is not the conjugate constant-power
injection of conventional load flow (S* / V*); the two coincide only for
angle-aligned cases, and the conjugate variant is intentionally not
implemented.

The q-axis components each PLL needs come from the same superposition: the
complex sum v_th + sum_i z_eq_i i_i e^{j theta_i} is built once, from the
aggregate the voltage solve already formed, and rotated into every unit's
own frame, so one call serves the whole fleet.

Voltages and impedances are Python ``complex`` numbers in volts and ohms;
the equivalent impedances come from network.equivalent_impedance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from gflswing.network import TheveninEquivalent

__all__ = [
    "InjectionState",
    "PccSolution",
    "NonConvergence",
    "ZeroVoltage",
    "aggregate",
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


@dataclass(frozen=True, slots=True)
class InjectionState:
    """Per-inverter apparent power magnitudes and injection angles.

    ``i_fixed`` optionally pins individual inverters to a constant current in
    amperes (used for current-limited units); those entries ignore ``s`` in
    the voltage solve.
    """

    s: tuple[float, ...]
    theta_cg: tuple[float, ...]
    i_fixed: tuple[float | None, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.s) != len(self.theta_cg):
            raise ValueError("s and theta_cg must have the same length")
        if self.i_fixed is not None and len(self.i_fixed) != len(self.s):
            raise ValueError("i_fixed must match the fleet size")
        for k, sk in enumerate(self.s):
            if sk < 0.0:
                raise ValueError(f"apparent power s[{k}] must be non-negative, got {sk}")

    def __len__(self) -> int:
        return len(self.s)


@dataclass(frozen=True, slots=True)
class PccSolution:
    """The solved PCC voltage and the aggregate (C, D) of the injections it
    solves for, which q_components takes at that voltage."""

    v_pcc: complex
    residual: float
    iterations: int
    aggregate: tuple[complex, complex]


def aggregate(zeq: Sequence[complex], inj: InjectionState) -> tuple[complex, complex]:
    """Split the injection sum into a 1/|v| part C and a constant part D.

    rhs(v) = v_th + D + C / |v|, with C collecting constant-power inverters
    (z_eq * s * e^{j theta}) and D the fixed-current ones (z_eq * i * e^{j theta}).
    """
    c = 0.0 + 0.0j
    d = 0.0 + 0.0j
    fixed = inj.i_fixed
    for k in range(len(inj)):
        th = inj.theta_cg[k]
        unit = complex(math.cos(th), math.sin(th))
        z = zeq[k]
        if fixed is not None and fixed[k] is not None:
            d += z * fixed[k] * unit
        else:
            c += z * inj.s[k] * unit
    return c, d


def solve_vpcc(
    grid: TheveninEquivalent,
    zeq: Sequence[complex],
    inj: InjectionState,
    tol: float,
    max_iter: int,
    damping: float = 0.7,
) -> PccSolution:
    """Solve v = v_th + sum_i z_eq_i (s_i / |v|) e^{j theta_i} to a fixed point.

    Damped fixed-point iteration seeded at v_th, falling back to a damped
    2-D Newton step on the closed-form residual once the plain iteration
    stalls. Raises NonConvergence if the residual stays above tol within
    max_iter total iterations and ZeroVoltage if |v| collapses below
    ZERO_VOLTAGE_FRACTION * |v_th|.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if len(zeq) != len(inj):
        raise ValueError("impedance set and injection state sizes differ")

    v_th = grid.v_th
    v_th_mag = abs(v_th)
    c, d = agg = aggregate(zeq, inj)

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
        return PccSolution(v, 0.0, 1, agg)

    w = v_th + d
    floor = ZERO_VOLTAGE_FRACTION * v_th_mag
    v = v_th
    iterations = 0
    residual = math.inf

    fp_budget = min(max_iter, 40)
    while iterations < fp_budget:
        iterations += 1
        r = abs(v)
        if r < floor:
            raise ZeroVoltage(
                f"voltage magnitude {r:.3e} V collapsed below {floor:.3e} V"
            )
        rhs = w + c / r
        residual = abs(v - rhs)
        if residual <= tol:
            return PccSolution(v, residual, iterations, agg)
        v = (1.0 - damping) * v + damping * rhs

    # Newton fallback on F(v) = v - w - C/|v| with its closed-form Jacobian.
    while iterations < max_iter:
        iterations += 1
        x, y = v.real, v.imag
        r = abs(v)
        if r < floor:
            raise ZeroVoltage(
                f"voltage magnitude {r:.3e} V collapsed below {floor:.3e} V"
            )
        f = v - w - c / r
        residual = abs(f)
        if residual <= tol:
            return PccSolution(v, residual, iterations, agg)
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
            if r_new >= floor and abs(v_new - w - c / r_new) < residual:
                break
            alpha *= 0.5
        else:
            v_new = v - alpha * step
        v = v_new

    raise NonConvergence(residual, iterations)


def q_components(
    grid: TheveninEquivalent,
    v_pcc: complex,
    agg: tuple[complex, complex],
    inj: InjectionState,
    z_series: Sequence[complex],
    ref_angles: Sequence[float],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """q-axis components of the PCC and generation voltages, one per unit frame.

    agg is the aggregate (C, D) of inj: the one solve_vpcc returns, or
    aggregate(zeq, inj) at any other v_pcc. The PCC right-hand side
    total = v_th + D + C / |v_pcc| is rotated into each unit's frame ref_p:

        v_pcc_q[p] = Im(total e^{-j ref_p})
        v_gq[p]    = v_pcc_q[p] + Im(z_series_p i_p e^{j (theta_p - ref_p)})

    with i_p = s_p / |v_pcc| (or the pinned fixed current). The cost is O(n)
    for the whole fleet.
    """
    v_mag = abs(v_pcc)
    if v_mag <= 0.0:
        raise ValueError("q_components requires |v_pcc| > 0")
    if len(z_series) != len(inj) or len(ref_angles) != len(inj):
        raise ValueError("z_series and ref_angles must match the fleet size")

    c, d = agg
    total = grid.v_th + d + c / v_mag
    fixed = inj.i_fixed
    v_pcc_q = []
    v_gq = []
    for p, ref in enumerate(ref_angles):
        q = total.imag * math.cos(ref) - total.real * math.sin(ref)
        i_p = fixed[p] if fixed is not None and fixed[p] is not None else inj.s[p] / v_mag
        drop = z_series[p] * i_p * cmath.exp(1j * (inj.theta_cg[p] - ref))
        v_pcc_q.append(q)
        v_gq.append(q + drop.imag)
    return tuple(v_pcc_q), tuple(v_gq)
