import cmath
import math
import random

import pytest

from gflswing.dynamics import InverterConfig
from gflswing.network import (
    GridModel,
    TheveninEquivalent,
    equivalent_impedance,
    faulted_grid,
    parallel,
)
from helpers_oracles import fc, fc_parallel, fc_to_complex


def _cfg(name="A", s=6000.0, r=0.31, x=0.01508, rv=0.0):
    return InverterConfig(
        name=name, s_rated=s, z_line=complex(r, x), r_virtual=rv,
        kp=4.5e-3, ki=260.0, i_max=100.0,
    )


def test_equivalent_impedance_equal_pair():
    grid = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.6, 0.7))
    z_load = complex(0.4, 0.3)  # z_th + z_load = 1 + j1
    fleet = [_cfg(r=0.9, x=1.0, rv=0.1)]  # z_line + r_virtual = 1 + j1
    zeq = equivalent_impedance(fleet, grid, z_load)
    assert zeq[0].real == pytest.approx(0.5, rel=1e-12)
    assert zeq[0].imag == pytest.approx(0.5, rel=1e-12)
    assert cmath.phase(zeq[0]) == pytest.approx(math.pi / 4, rel=1e-12)


def test_equivalent_impedance_stiff_grid_limit():
    grid = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.31e9, 0.015e9))
    fleet = [_cfg()]
    zeq = equivalent_impedance(fleet, grid, complex(0.0, 0.0))
    z_total = fleet[0].z_total()
    assert zeq[0].real == pytest.approx(z_total.real, rel=1e-8)
    assert zeq[0].imag == pytest.approx(z_total.imag, rel=1e-8)


def test_equivalent_impedance_reference_row_matches_exact_arithmetic():
    # line 0.15 + virtual 0.16 resistive, x = 0.01508, against 1.0 + j0.5
    expected = fc_to_complex(fc_parallel(fc("0.31", "0.01508"), fc(1, "0.5")))
    grid = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.6, 0.25))
    zeq = equivalent_impedance(
        [_cfg(r=0.15, x=0.01508, rv=0.16)], grid, complex(0.4, 0.25)
    )
    assert zeq[0].real == pytest.approx(expected.real, rel=1e-13)
    assert zeq[0].imag == pytest.approx(expected.imag, rel=1e-13)
    assert cmath.phase(zeq[0]) == pytest.approx(cmath.phase(expected), rel=1e-12)


def test_equivalent_impedance_bounded_by_branches():
    rng = random.Random(23)
    for _ in range(100):
        grid = TheveninEquivalent(
            cmath.rect(230.0, 0.0),
            complex(rng.uniform(0.01, 2.0), rng.uniform(0.0, 2.0)),
        )
        z_load = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        fleet = [
            _cfg(r=rng.uniform(0.01, 1.0), x=rng.uniform(0.0, 1.0), rv=rng.uniform(0.0, 0.3))
        ]
        zeq = equivalent_impedance(fleet, grid, z_load)
        bound = min(
            abs(fleet[0].z_total()), abs(grid.z_th + z_load)
        )
        assert abs(zeq[0]) <= bound * (1 + 1e-12)


def test_faulted_grid_identity_at_zero_depth():
    pre = TheveninEquivalent(cmath.rect(230.0, 0.1), complex(0.2, 0.1))
    grid = GridModel(pre, complex(0.1, 0.05))
    f = faulted_grid(grid, 0.0)
    assert f.v_th.real == pre.v_th.real and f.v_th.imag == pre.v_th.imag
    assert f.z_th == pre.z_th


def test_faulted_grid_bolted_fault():
    pre = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.2, 0.1))
    f = faulted_grid(GridModel(pre, complex(0.1, 0.05)), 1.0)
    assert abs(f.v_th) == 0.0


def test_faulted_grid_scales_magnitude_only():
    pre = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.2, 0.1))
    f = faulted_grid(GridModel(pre, complex(0.1, 0.05)), 0.6)
    assert abs(f.v_th) == pytest.approx(92.0, rel=1e-12)
    assert cmath.phase(f.v_th) == pytest.approx(0.0, abs=1e-12)
    assert f.z_th == pre.z_th


def test_faulted_grid_rejects_bad_depth():
    pre = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.2, 0.1))
    grid = GridModel(pre, complex(0.1, 0.05))
    for depth in (-0.1, 1.1):
        with pytest.raises(ValueError):
            faulted_grid(grid, depth)


def test_explicit_fault_override_wins_over_depth():
    pre = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.2, 0.1))
    override = TheveninEquivalent(cmath.rect(100.0, 0.0), complex(0.3, 0.2))
    grid = GridModel(pre, complex(0.1, 0.05), faulted=override)
    f = faulted_grid(grid, 0.9)
    assert f == override


def test_fault_override_cannot_exceed_prefault_voltage():
    pre = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.2, 0.1))
    override = TheveninEquivalent(cmath.rect(231.0, 0.0), complex(0.2, 0.1))
    with pytest.raises(ValueError):
        GridModel(pre, complex(0.1, 0.05), faulted=override)


def test_parallel_helper_consistency_with_equivalent_impedance():
    z_a = complex(0.31, 0.015)
    z_b = complex(1.0, 0.5)
    grid = TheveninEquivalent(cmath.rect(230.0, 0.0), complex(0.5, 0.25))
    zeq = equivalent_impedance([_cfg(r=0.31, x=0.015)], grid, complex(0.5, 0.25))
    direct = parallel(z_a, z_b)
    assert zeq[0].real == pytest.approx(direct.real, rel=1e-13)
    assert zeq[0].imag == pytest.approx(direct.imag, rel=1e-13)
