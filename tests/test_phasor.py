"""Complex line impedances and parallel combinations (gflswing.network)."""

import random

import pytest

from gflswing.network import line_impedance, parallel
from helpers_oracles import fc, fc_parallel, fc_to_complex

# Reference fleet line data: (resistance ohm, inductance uH, X/R at 60 Hz)
LINE_ROWS = [
    (0.15, 40.0, 0.1005),
    (0.30, 45.0, 0.0565),
    (0.25, 50.0, 0.0754),
    (0.35, 60.0, 0.0646),
    (0.30, 65.0, 0.0817),
]


def test_line_impedance_reference_rows_within_half_percent():
    for r, l_uh, xr in LINE_ROWS:
        z = line_impedance(r, l_uh * 1e-6, 60.0)
        assert z.imag / z.real == pytest.approx(xr, rel=5e-3)


def test_line_impedance_first_row_reactance():
    z = line_impedance(0.15, 40e-6, 60.0)
    assert z.imag == pytest.approx(0.015080, rel=1e-4)
    assert z.imag / z.real == pytest.approx(0.1005, rel=5e-3)


def test_line_impedance_zero_inductance():
    z = line_impedance(1.0, 0.0, 60.0)
    assert z.imag == 0.0
    assert z.imag / z.real == 0.0


def test_line_impedance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        line_impedance(0.1, 1e-6, 0.0)
    with pytest.raises(ValueError):
        line_impedance(0.1, 1e-6, -60.0)
    with pytest.raises(ValueError):
        line_impedance(-0.1, 1e-6, 60.0)
    with pytest.raises(ValueError):
        line_impedance(0.1, -1e-6, 60.0)


def test_parallel_equal_pair_halves():
    z = complex(1.0, 1.0)
    p = parallel(z, z)
    assert p.real == pytest.approx(0.5, rel=1e-14)
    assert p.imag == pytest.approx(0.5, rel=1e-14)


def test_parallel_open_circuit_limit():
    z = complex(0.31, 0.015)
    huge = complex(0.31e9, 0.015e9)
    p = parallel(z, huge)
    assert p.real == pytest.approx(z.real, rel=1e-8)
    assert p.imag == pytest.approx(z.imag, rel=1e-8)


def test_parallel_matches_exact_rational_arithmetic():
    # (0.31 + j0.01508) || (1.0 + j0.5), expected from exact Fractions
    expected = fc_to_complex(
        fc_parallel(fc("0.31", "0.01508"), fc(1, "0.5"))
    )
    assert expected == pytest.approx(0.24418370741788098 + 0.03382126410931135j)
    p = parallel(complex(0.31, 0.01508), complex(1.0, 0.5))
    assert p.real == pytest.approx(expected.real, rel=1e-14)
    assert p.imag == pytest.approx(expected.imag, rel=1e-14)


def test_parallel_commutes_bitwise():
    rng = random.Random(7)
    for _ in range(200):
        a = complex(rng.uniform(0, 10), rng.uniform(-10, 10))
        b = complex(rng.uniform(0, 10), rng.uniform(-10, 10))
        if a + b == 0:
            continue
        ab = parallel(a, b)
        ba = parallel(b, a)
        assert ab.real == ba.real and ab.imag == ba.imag


def test_parallel_magnitude_bounded_by_smaller_for_first_quadrant():
    # Holds for impedances whose r and x are both non-negative; mixed-sign
    # reactances can antiresonate and break the bound.
    rng = random.Random(11)
    for _ in range(300):
        a = complex(rng.uniform(0, 5), rng.uniform(0, 5))
        b = complex(rng.uniform(0.01, 5), rng.uniform(0, 5))
        p = parallel(a, b)
        assert abs(p) <= min(abs(a), abs(b)) * (1 + 1e-12)


def test_parallel_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        parallel(complex(0.0, 1.0), complex(0.0, -1.0))


