import cmath
import math
import random

import pytest

from gflswing.dynamics import FaultScenario, InverterConfig, Runs
from gflswing.network import GridModel, equivalent_impedance, parallel
from helpers_oracles import fc, fc_parallel, fc_to_complex


def _cfg(name="A", s=6000.0, r=0.31, x=0.01508, rv=0.0):
    return InverterConfig(
        name=name, s_rated=s, z_line=complex(r, x), r_virtual=rv,
        kp=4.5e-3, ki=260.0, i_max=100.0,
    )


def test_equivalent_impedance_equal_pair():
    z_load = complex(0.4, 0.3)  # z_th + z_load = 1 + j1
    fleet = [_cfg(r=0.9, x=1.0, rv=0.1)]  # z_line + r_virtual = 1 + j1
    zeq = equivalent_impedance(fleet, GridModel(cmath.rect(230.0, 0.0), complex(0.6, 0.7), z_load))
    assert zeq[0].real == pytest.approx(0.5, rel=1e-12)
    assert zeq[0].imag == pytest.approx(0.5, rel=1e-12)
    assert cmath.phase(zeq[0]) == pytest.approx(math.pi / 4, rel=1e-12)


def test_equivalent_impedance_stiff_grid_limit():
    grid = GridModel(cmath.rect(230.0, 0.0), complex(0.31e9, 0.015e9), complex(0.0, 0.0))
    fleet = [_cfg()]
    zeq = equivalent_impedance(fleet, grid)
    z_total = fleet[0].z_total()
    assert zeq[0].real == pytest.approx(z_total.real, rel=1e-8)
    assert zeq[0].imag == pytest.approx(z_total.imag, rel=1e-8)


def test_equivalent_impedance_reference_row_matches_exact_arithmetic():
    # line 0.15 + virtual 0.16 resistive, x = 0.01508, against 1.0 + j0.5
    expected = fc_to_complex(fc_parallel(fc("0.31", "0.01508"), fc(1, "0.5")))
    grid = GridModel(cmath.rect(230.0, 0.0), complex(0.6, 0.25), complex(0.4, 0.25))
    zeq = equivalent_impedance([_cfg(r=0.15, x=0.01508, rv=0.16)], grid)
    assert zeq[0].real == pytest.approx(expected.real, rel=1e-13)
    assert zeq[0].imag == pytest.approx(expected.imag, rel=1e-13)
    assert cmath.phase(zeq[0]) == pytest.approx(cmath.phase(expected), rel=1e-12)


def test_equivalent_impedance_bounded_by_branches():
    rng = random.Random(23)
    for _ in range(100):
        z_th = complex(rng.uniform(0.01, 2.0), rng.uniform(0.0, 2.0))
        z_load = complex(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        grid = GridModel(cmath.rect(230.0, 0.0), z_th, z_load)
        fleet = [
            _cfg(r=rng.uniform(0.01, 1.0), x=rng.uniform(0.0, 1.0), rv=rng.uniform(0.0, 0.3))
        ]
        zeq = equivalent_impedance(fleet, grid)
        bound = min(
            abs(fleet[0].z_total()), abs(grid.z_th + z_load)
        )
        assert abs(zeq[0]) <= bound * (1 + 1e-12)


@pytest.mark.parametrize("depth", [0.0, 0.6, 1.0])
def test_the_fault_scales_only_the_source_voltage(depth):
    grid = GridModel(cmath.rect(230.0, 0.1), complex(0.2, 0.1), complex(0.1, 0.05))
    runs = Runs([_cfg()], grid, FaultScenario(1e-3, None, depth, 2e-3, 1e-4))
    assert runs.prefault == grid.v_th
    assert runs.fault == (1.0 - depth) * grid.v_th
    assert abs(runs.fault) == pytest.approx(230.0 * (1.0 - depth), rel=1e-12, abs=0.0)
    if depth < 1.0:
        assert cmath.phase(runs.fault) == pytest.approx(0.1, rel=1e-12)


def test_parallel_helper_consistency_with_equivalent_impedance():
    z_a = complex(0.31, 0.015)
    z_b = complex(1.0, 0.5)
    grid = GridModel(cmath.rect(230.0, 0.0), complex(0.5, 0.25), complex(0.5, 0.25))
    zeq = equivalent_impedance([_cfg(r=0.31, x=0.015)], grid)
    direct = parallel(z_a, z_b)
    assert zeq[0].real == pytest.approx(direct.real, rel=1e-13)
    assert zeq[0].imag == pytest.approx(direct.imag, rel=1e-13)
