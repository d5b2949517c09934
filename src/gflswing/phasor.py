"""Complex phasor and impedance primitives shared by every electrical model.

All quantities are SI (volts, amperes, ohms, henries, hertz) and all angles
are radians, double precision throughout. Angle accessors normalize onto
(-pi, pi]; accumulated angles elsewhere in the package stay unwrapped so
divergence stays observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Phasor",
    "Impedance",
    "from_polar",
    "line_impedance",
    "parallel",
    "wrap_angle",
]

_TWO_PI = 2.0 * math.pi

# Pairs whose series sum falls below this are treated as degenerate
# (antiresonant) and rejected by parallel().
MIN_PARALLEL_SUM_OHM = 1e-12


def wrap_angle(angle: float) -> float:
    """Map an angle in radians onto (-pi, pi]."""
    a = (angle + math.pi) % _TWO_PI - math.pi
    if a == -math.pi:
        return math.pi
    return a


@dataclass(frozen=True, slots=True)
class Phasor:
    """Rectangular-form complex voltage or current."""

    re: float
    im: float

    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    def angle(self) -> float:
        return wrap_angle(math.atan2(self.im, self.re))

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    @staticmethod
    def from_complex(z: complex) -> "Phasor":
        return Phasor(z.real, z.imag)

    def scaled(self, k: float) -> "Phasor":
        return Phasor(self.re * k, self.im * k)


@dataclass(frozen=True, slots=True)
class Impedance:
    """Series resistance/reactance pair in ohms."""

    r: float
    x: float

    def magnitude(self) -> float:
        return math.hypot(self.r, self.x)

    def angle(self) -> float:
        return wrap_angle(math.atan2(self.x, self.r))

    def xr_ratio(self) -> float:
        if self.r == 0.0:
            raise ZeroDivisionError("x/r ratio undefined for r = 0")
        return self.x / self.r

    def to_complex(self) -> complex:
        return complex(self.r, self.x)

    @staticmethod
    def from_complex(z: complex) -> "Impedance":
        return Impedance(z.real, z.imag)

    def __add__(self, other: "Impedance") -> "Impedance":
        """Series combination."""
        return Impedance(self.r + other.r, self.x + other.x)


def from_polar(magnitude: float, angle: float) -> Phasor:
    """Build a phasor from magnitude (>= 0) and angle in radians."""
    if magnitude < 0.0:
        raise ValueError(f"phasor magnitude must be non-negative, got {magnitude}")
    return Phasor(magnitude * math.cos(angle), magnitude * math.sin(angle))


def line_impedance(r: float, l: float, f: float) -> Impedance:
    """Series line impedance of a resistance r (ohm) and inductance l (H) at f (Hz)."""
    if f <= 0.0:
        raise ValueError(f"frequency must be positive, got {f}")
    if r < 0.0:
        raise ValueError(f"line resistance must be non-negative, got {r}")
    if l < 0.0:
        raise ValueError(f"line inductance must be non-negative, got {l}")
    return Impedance(r, _TWO_PI * f * l)


def parallel(a: Impedance, b: Impedance) -> Impedance:
    """Parallel combination a*b/(a+b) in complex arithmetic.

    Rejects pairs whose series sum magnitude is below MIN_PARALLEL_SUM_OHM;
    such antiresonant pairs have no meaningful parallel equivalent.
    """
    za = a.to_complex()
    zb = b.to_complex()
    s = za + zb
    if abs(s) < MIN_PARALLEL_SUM_OHM:
        raise ValueError(
            f"degenerate parallel pair: |a + b| = {abs(s):.3e} ohm is below "
            f"{MIN_PARALLEL_SUM_OHM:.0e}"
        )
    return Impedance.from_complex(za * zb / s)
