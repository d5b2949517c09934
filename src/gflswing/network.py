"""Thevenin-equivalent reduction of the grid seen by the inverter fleet.

The feeder behind the point of common coupling is collapsed to one voltage
source behind one impedance, with separate pre-fault and fault-on
equivalents. Source voltage, source impedance and the series load impedance
carry no defaults anywhere in this module: they are configuration inputs,
not quantities derivable from the fleet itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from gflswing.phasor import Impedance, Phasor, parallel

if TYPE_CHECKING:
    from gflswing.dynamics import InverterConfig

__all__ = [
    "TheveninEquivalent",
    "GridModel",
    "EquivalentImpedanceSet",
    "equivalent_impedance",
    "faulted_grid",
]


@dataclass(frozen=True, slots=True)
class TheveninEquivalent:
    """Single voltage source v_th behind a series impedance z_th."""

    v_th: Phasor
    z_th: Impedance

    def __post_init__(self) -> None:
        if self.z_th.r < 0.0:
            raise ValueError(f"Thevenin resistance must be non-negative, got {self.z_th.r}")


@dataclass(frozen=True, slots=True)
class GridModel:
    """Pre-fault equivalent, series load impedance and optional fault-on override.

    When ``faulted`` is None the fault-on equivalent is derived from the
    pre-fault one by scaling the source voltage (see faulted_grid); an
    explicit override wins over depth scaling.
    """

    prefault: TheveninEquivalent
    z_load: Impedance
    faulted: TheveninEquivalent | None = None

    def __post_init__(self) -> None:
        if self.faulted is not None:
            if self.faulted.v_th.magnitude() > self.prefault.v_th.magnitude() + 1e-12:
                raise ValueError(
                    "fault-on source voltage exceeds the pre-fault voltage: "
                    f"{self.faulted.v_th.magnitude():.6g} > {self.prefault.v_th.magnitude():.6g}"
                )


@dataclass(frozen=True, slots=True)
class EquivalentImpedanceSet:
    """Per-inverter equivalent impedance z_eq and its angle gamma."""

    z_eq: tuple[Impedance, ...]
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.z_eq) != len(self.gamma):
            raise ValueError("z_eq and gamma must have the same length")

    def __len__(self) -> int:
        return len(self.z_eq)


def equivalent_impedance(
    fleet: Sequence["InverterConfig"],
    grid: TheveninEquivalent,
    z_load: Impedance,
) -> EquivalentImpedanceSet:
    """Per-inverter z_eq = (z_line + z_virtual) || (z_th + z_load)."""
    if not fleet:
        raise ValueError("equivalent_impedance needs a non-empty fleet")
    z_grid = grid.z_th + z_load
    z_eq = []
    gamma = []
    for cfg in fleet:
        z = parallel(cfg.z_total(), z_grid)
        z_eq.append(z)
        gamma.append(z.angle())
    return EquivalentImpedanceSet(tuple(z_eq), tuple(gamma))


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
    scale = 1.0 - fault_depth
    return TheveninEquivalent(grid.prefault.v_th.scaled(scale), grid.prefault.z_th)
