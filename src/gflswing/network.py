"""Thevenin-equivalent reduction of the grid seen by the inverter fleet.

Voltages and impedances are Python ``complex`` numbers in volts and ohms.
The feeder behind the point of common coupling is collapsed to one voltage
source behind one impedance, with separate pre-fault and fault-on
equivalents. Source voltage, source impedance and the series load impedance
carry no defaults anywhere in this module: they are configuration inputs,
not quantities derivable from the fleet itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    from gflswing.dynamics import InverterConfig

__all__ = [
    "TheveninEquivalent",
    "GridModel",
    "equivalent_impedance",
    "faulted_grid",
    "line_impedance",
    "parallel",
]

# Pairs whose series sum falls below this are treated as degenerate
# (antiresonant) and rejected by parallel().
MIN_PARALLEL_SUM_OHM = 1e-12


def line_impedance(r: float, l: float, f: float) -> complex:
    """Series line impedance of a resistance r (ohm) and inductance l (H) at f (Hz)."""
    if not f > 0.0:
        raise ValueError(f"frequency must be positive, got {f}")
    if not r >= 0.0:
        raise ValueError(f"line resistance must be non-negative, got {r}")
    if not l >= 0.0:
        raise ValueError(f"line inductance must be non-negative, got {l}")
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
class TheveninEquivalent:
    """Single voltage source v_th behind a series impedance z_th."""

    v_th: complex
    z_th: complex

    def __post_init__(self) -> None:
        if not cmath.isfinite(self.v_th):
            raise ValueError(f"Thevenin source voltage must be finite, got {self.v_th}")
        if not self.z_th.real >= 0.0:
            raise ValueError(f"Thevenin resistance must be non-negative, got {self.z_th.real}")
        if not cmath.isfinite(self.z_th):
            raise ValueError(f"Thevenin impedance must be finite, got {self.z_th}")


@dataclass(frozen=True, slots=True)
class GridModel:
    """Pre-fault equivalent, series load impedance and optional fault-on override.

    When ``faulted`` is None the fault-on equivalent is derived from the
    pre-fault one by scaling the source voltage (see faulted_grid); an
    explicit override wins over depth scaling.
    """

    prefault: TheveninEquivalent
    z_load: complex
    faulted: TheveninEquivalent | None = None

    def __post_init__(self) -> None:
        if not cmath.isfinite(self.z_load):
            raise ValueError(f"load impedance must be finite, got {self.z_load}")
        if self.faulted is not None:
            if abs(self.faulted.v_th) > abs(self.prefault.v_th) + 1e-12:
                raise ValueError(
                    "fault-on source voltage exceeds the pre-fault voltage: "
                    f"{abs(self.faulted.v_th):.6g} > {abs(self.prefault.v_th):.6g}"
                )


def equivalent_impedance(
    fleet: Sequence["InverterConfig"],
    grid: TheveninEquivalent,
    z_load: complex,
) -> tuple[complex, ...]:
    """Per-inverter z_eq = (z_line + z_virtual) || (z_th + z_load)."""
    if not fleet:
        raise ValueError("equivalent_impedance needs a non-empty fleet")
    z_grid = grid.z_th + z_load
    return tuple(parallel(cfg.z_total(), z_grid) for cfg in fleet)


def faulted_grid(grid: GridModel, fault_depth: float) -> TheveninEquivalent:
    """Fault-on equivalent: source voltage scaled by (1 - fault_depth).

    The equivalent is held constant for the whole fault-on interval. An
    explicit ``grid.faulted`` override is returned unchanged, ignoring
    fault_depth; otherwise z_th is carried over from the pre-fault model.
    """
    if not 0.0 <= fault_depth <= 1.0:
        raise ValueError(f"fault_depth must lie in [0, 1], got {fault_depth}")
    if grid.faulted is not None:
        return grid.faulted
    return TheveninEquivalent((1.0 - fault_depth) * grid.prefault.v_th, grid.prefault.z_th)
