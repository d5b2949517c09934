import math
import random

import pytest

from gflswing.phasor import (
    Impedance,
    Phasor,
    from_polar,
    line_impedance,
    parallel,
)
from helpers_oracles import fc, fc_parallel, fc_to_complex

# Reference fleet line data: (resistance ohm, inductance uH, X/R at 60 Hz)
LINE_ROWS = [
    (0.15, 40.0, 0.1005),
    (0.30, 45.0, 0.0565),
    (0.25, 50.0, 0.0754),
    (0.35, 60.0, 0.0646),
    (0.30, 65.0, 0.0817),
]


def test_from_polar_identity():
    p = from_polar(1.0, 0.0)
    assert p.re == pytest.approx(1.0, abs=1e-15)
    assert p.im == pytest.approx(0.0, abs=1e-15)


def test_from_polar_quarter_rotation():
    p = from_polar(1.0, math.pi / 2)
    assert p.re == pytest.approx(0.0, abs=1e-15)
    assert p.im == pytest.approx(1.0, abs=1e-15)


def test_from_polar_half_rotation():
    p = from_polar(0.5, math.pi)
    assert p.re == pytest.approx(-0.5, abs=1e-15)
    assert p.im == pytest.approx(0.0, abs=1e-15)


def test_from_polar_rejects_negative_magnitude():
    with pytest.raises(ValueError):
        from_polar(-1.0, 0.0)


def test_polar_round_trip():
    rng = random.Random(42)
    for _ in range(500):
        mag = rng.uniform(1e-6, 1e6)
        ang = rng.uniform(-math.pi, math.pi)
        p = from_polar(mag, ang)
        assert p.magnitude() == pytest.approx(mag, rel=1e-12)
        back = from_polar(p.magnitude(), p.angle())
        assert back.re == pytest.approx(p.re, rel=1e-12, abs=1e-12 * mag)
        assert back.im == pytest.approx(p.im, rel=1e-12, abs=1e-12 * mag)


def test_line_impedance_reference_rows_within_half_percent():
    for r, l_uh, xr in LINE_ROWS:
        z = line_impedance(r, l_uh * 1e-6, 60.0)
        assert z.xr_ratio() == pytest.approx(xr, rel=5e-3)


def test_line_impedance_first_row_reactance():
    z = line_impedance(0.15, 40e-6, 60.0)
    assert z.x == pytest.approx(0.015080, rel=1e-4)
    assert z.xr_ratio() == pytest.approx(0.1005, rel=5e-3)


def test_line_impedance_zero_inductance():
    z = line_impedance(1.0, 0.0, 60.0)
    assert z.x == 0.0
    assert z.xr_ratio() == 0.0


def test_line_impedance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        line_impedance(0.1, 1e-6, 0.0)
    with pytest.raises(ValueError):
        line_impedance(0.1, 1e-6, -60.0)
    with pytest.raises(ValueError):
        line_impedance(-0.1, 1e-6, 60.0)
    with pytest.raises(ValueError):
        line_impedance(0.1, -1e-6, 60.0)


def test_xr_ratio_undefined_for_zero_resistance():
    with pytest.raises(ZeroDivisionError):
        Impedance(0.0, 1.0).xr_ratio()


def test_parallel_equal_pair_halves():
    z = Impedance(1.0, 1.0)
    p = parallel(z, z)
    assert p.r == pytest.approx(0.5, rel=1e-14)
    assert p.x == pytest.approx(0.5, rel=1e-14)


def test_parallel_open_circuit_limit():
    z = Impedance(0.31, 0.015)
    huge = Impedance(0.31e9, 0.015e9)
    p = parallel(z, huge)
    assert p.r == pytest.approx(z.r, rel=1e-8)
    assert p.x == pytest.approx(z.x, rel=1e-8)


def test_parallel_matches_exact_rational_arithmetic():
    # (0.31 + j0.01508) || (1.0 + j0.5), expected from exact Fractions
    expected = fc_to_complex(
        fc_parallel(fc("0.31", "0.01508"), fc(1, "0.5"))
    )
    assert expected == pytest.approx(0.24418370741788098 + 0.03382126410931135j)
    p = parallel(Impedance(0.31, 0.01508), Impedance(1.0, 0.5))
    assert p.r == pytest.approx(expected.real, rel=1e-14)
    assert p.x == pytest.approx(expected.imag, rel=1e-14)


def test_parallel_commutes_bitwise():
    rng = random.Random(7)
    for _ in range(200):
        a = Impedance(rng.uniform(0, 10), rng.uniform(-10, 10))
        b = Impedance(rng.uniform(0, 10), rng.uniform(-10, 10))
        if (a.to_complex() + b.to_complex()) == 0:
            continue
        ab = parallel(a, b)
        ba = parallel(b, a)
        assert ab.r == ba.r and ab.x == ba.x


def test_parallel_magnitude_bounded_by_smaller_for_first_quadrant():
    # Holds for impedances whose r and x are both non-negative; mixed-sign
    # reactances can antiresonate and break the bound.
    rng = random.Random(11)
    for _ in range(300):
        a = Impedance(rng.uniform(0, 5), rng.uniform(0, 5))
        b = Impedance(rng.uniform(0.01, 5), rng.uniform(0, 5))
        p = parallel(a, b)
        assert p.magnitude() <= min(a.magnitude(), b.magnitude()) * (1 + 1e-12)


def test_parallel_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        parallel(Impedance(0.0, 1.0), Impedance(0.0, -1.0))


def test_impedance_angle_range():
    assert Impedance(1.0, 0.0).angle() == 0.0
    assert Impedance(0.0, 1.0).angle() == pytest.approx(math.pi / 2)
    # angle() lands in (-pi, pi]
    assert Impedance(-1.0, 0.0).angle() == pytest.approx(math.pi)


def test_types_are_plain_immutable_data():
    p = Phasor(1.0, 2.0)
    z = Impedance(1.0, 2.0)
    for obj, field in ((p, "re"), (z, "r")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0.0)
