"""Independent oracles used by the test suite.

Everything here re-derives expected values from the defining equations with
code paths separate from the package: exact rational complex arithmetic,
finite-difference Newton and grid-search refinement.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np


# -- exact rational complex arithmetic (pairs of Fractions) -----------------

def fc(re, im=0) -> tuple[Fraction, Fraction]:
    return (Fraction(re), Fraction(im))


def fc_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def fc_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def fc_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def fc_parallel(a, b):
    return fc_div(fc_mul(a, b), fc_add(a, b))


def fc_to_complex(a) -> complex:
    return complex(float(a[0]), float(a[1]))


# -- PCC voltage equation, written out fresh --------------------------------

def pcc_rhs(v: complex, v_th: complex, z_eq: list[complex], s: list[float],
            theta: list[float]) -> complex:
    """Right-hand side of the implicit PCC voltage superposition."""
    total = v_th
    r = abs(v)
    for k in range(len(z_eq)):
        total += z_eq[k] * (s[k] / r) * cmath.exp(1j * theta[k])
    return total


def pcc_residual(v: complex, v_th: complex, z_eq, s, theta) -> float:
    return abs(v - pcc_rhs(v, v_th, z_eq, s, theta))


def newton_fd_vpcc(v_th: complex, z_eq, s, theta, tol: float = 1e-10,
                   max_iter: int = 200) -> complex:
    """Damped 2-D Newton on the residual with a finite-difference Jacobian."""
    scale = max(abs(v_th), 1.0)
    v = v_th
    h = 1e-6 * scale

    def f(v):
        r = v - pcc_rhs(v, v_th, z_eq, s, theta)
        return np.array([r.real, r.imag])

    for _ in range(max_iter):
        r0 = f(v)
        if np.hypot(*r0) <= tol * scale:
            return v
        rx = (f(v + h) - f(v - h)) / (2 * h)
        ry = (f(v + 1j * h) - f(v - 1j * h)) / (2 * h)
        jac = np.column_stack([rx, ry])
        try:
            delta = np.linalg.solve(jac, r0)
        except np.linalg.LinAlgError:
            break
        step = complex(delta[0], delta[1])
        alpha = 1.0
        for _ in range(8):
            v_new = v - alpha * step
            if abs(v_new) > 1e-9 * scale and np.hypot(*f(v_new)) < np.hypot(*r0):
                break
            alpha *= 0.5
        else:
            v_new = v - alpha * step
        v = v_new
    raise AssertionError(
        f"oracle Newton failed to converge (residual {pcc_residual(v, v_th, z_eq, s, theta):.3e})"
    )


def grid_zoom_vpcc(v_th: complex, z_eq, s, theta, zooms: int = 12,
                   points: int = 81) -> complex:
    """Dense magnitude-angle grid search with repeated zoom refinement.

    Minimizes the residual of the implicit voltage equation over a polar
    grid centered on the source voltage, shrinking the search box around
    the best cell each pass.
    """
    v0 = abs(v_th)
    a0 = cmath.phase(v_th)
    r_lo, r_hi = 0.05 * v0, 2.5 * v0
    a_lo, a_hi = a0 - 1.2, a0 + 1.2
    best = (math.inf, v0, a0)
    for _ in range(zooms):
        rs = np.linspace(r_lo, r_hi, points)
        angs = np.linspace(a_lo, a_hi, points)
        for r in rs:
            if r <= 0:
                continue
            for a in angs:
                v = r * cmath.exp(1j * a)
                res = pcc_residual(v, v_th, z_eq, s, theta)
                if res < best[0]:
                    best = (res, r, a)
        _, rb, ab = best
        r_span = (r_hi - r_lo) / (points - 1) * 4
        a_span = (a_hi - a_lo) / (points - 1) * 4
        r_lo, r_hi = max(rb - r_span, 1e-12), rb + r_span
        a_lo, a_hi = ab - a_span, ab + a_span
    return best[1] * cmath.exp(1j * best[2])



# -- aggregate injection sum, written out fresh -----------------------------

def aggregate_cd(zeq, s, theta, i_fixed=None) -> tuple[complex, complex]:
    """(C, D) of rhs(v) = v_th + D + C / |v| for the injections at angles theta.

    C = sum z s e^{j theta} over the constant-power units and
    D = sum z i e^{j theta} over the units pinned to a fixed current i (an
    entry of i_fixed that is not None).
    """
    assert len(zeq) == len(s) == len(theta)
    c = 0.0 + 0.0j
    d = 0.0 + 0.0j
    for k in range(len(zeq)):
        unit = complex(math.cos(theta[k]), math.sin(theta[k]))
        if i_fixed is not None and i_fixed[k] is not None:
            d += zeq[k] * i_fixed[k] * unit
        else:
            c += zeq[k] * s[k] * unit
    return c, d
