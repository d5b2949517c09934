"""Thevenin-equivalent reduction of the grid seen by the inverter fleet.

Voltages and impedances are Python ``complex`` numbers in volts and ohms.
The feeder behind the point of common coupling is collapsed to one voltage
source behind one impedance; the fault scales only that source (see
dynamics.Runs). Source voltage, source impedance and the series load
impedance carry no defaults anywhere in this module: they are
configuration inputs, not quantities derivable from the fleet itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from gflswing.dynamics import InverterConfig

__all__ = [
    "GridModel",
    "equivalent_impedance",
    "line_impedance",
    "parallel",
]

# Pairs whose series sum falls below this are treated as degenerate
# (antiresonant) and rejected by parallel().
MIN_PARALLEL_SUM_OHM = 1e-12


def line_impedance(r: float, l: float, f: float) -> complex:
    """Series line impedance of a resistance r (ohm) and inductance l (H) at f (Hz)."""
    if not 0.0 < f < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {f}")
    if not 0.0 <= r < math.inf:
        raise ValueError(f"line resistance must be non-negative and finite, got {r}")
    if not 0.0 <= l < math.inf:
        raise ValueError(f"line inductance must be non-negative and finite, got {l}")
    return complex(r, 2.0 * math.pi * f * l)


def parallel(a: complex, b: complex) -> complex:
    """Parallel combination a*b/(a+b).

    Rejects pairs whose series sum magnitude is below MIN_PARALLEL_SUM_OHM;
    such antiresonant pairs have no meaningful parallel equivalent.
    """
    s = a + b
    if abs(s) < MIN_PARALLEL_SUM_OHM:
        raise ValueError(
            f"degenerate parallel pair: |a + b| = {abs(s):.3e} ohm is below "
            f"{MIN_PARALLEL_SUM_OHM:.0e}"
        )
    return a * b / s


@dataclass(frozen=True, slots=True)
class GridModel:
    """Pre-fault source v_th behind z_th, and the series load impedance
    z_load. The fault scales only v_th (see dynamics.Runs)."""

    v_th: complex
    z_th: complex
    z_load: complex

    def __post_init__(self) -> None:
        if not cmath.isfinite(self.v_th):
            raise ValueError(f"Thevenin source voltage must be finite, got {self.v_th}")
        if not self.z_th.real >= 0.0:
            raise ValueError(f"Thevenin resistance must be non-negative, got {self.z_th.real}")
        if not cmath.isfinite(self.z_th):
            raise ValueError(f"Thevenin impedance must be finite, got {self.z_th}")
        if not cmath.isfinite(self.z_load):
            raise ValueError(f"load impedance must be finite, got {self.z_load}")


def equivalent_impedance(
    fleet: Sequence["InverterConfig"], grid: GridModel
) -> tuple[complex, ...]:
    """Per-inverter z_eq = (z_line + z_virtual) || (z_th + z_load), one
    table for the whole run, as the fault-on source shares z_th."""
    if not fleet:
        raise ValueError("equivalent_impedance needs a non-empty fleet")
    z_grid = grid.z_th + grid.z_load
    return tuple(parallel(cfg.z_total(), z_grid) for cfg in fleet)

