"""Numeric two-point structures and kinematics: the two-body phase space
and the Riesz distribution's inversion check.

The exact two-point keys, gamma algebra and momentum polynomials live in
wightman (conventions there).  Metric signature (+,-,-,-);
dmu_m(k) = (2pi)^-3 d^4k theta(k0) delta(k^2 - m^2) is the invariant
mass-shell measure.

Feynman propagator and its PV + i pi delta split, mass-shell measure, Riesz
distribution s(k): tests/test_propagators.py.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .wightman import KinematicsError


# --------------------------------------------------------------------------- two-body phase space


def two_body_phase_space(m1: float, m2: float, s: float) -> float:
    """integral dmu_m1 dmu_m2 (2pi)^4 delta^4(q - p1 - p2) at q^2 = s (rest frame).

    Zero at and below threshold; the closed form is two_body_phase_space_array.
    """
    if s <= 0:
        raise KinematicsError(f"need timelike total momentum, got s = {s}")
    return float(two_body_phase_space_array(m1, m2, s))


def two_body_phase_space_array(m1: float, m2: float, s) -> np.ndarray:
    """two_body_phase_space elementwise on an array of s, without the timelike
    check: sqrt(lambda(s, m1^2, m2^2)) / (8 pi s) above (m1 + m2)^2 and 0 at
    and below.  The root is sqrt(s - (m1 + m2)^2) sqrt(s - (m1 - m2)^2), divided
    by s before 8 pi, so that it keeps full relative precision at threshold
    and no step overflows at any finite s."""
    s = np.asarray(s, dtype=float)
    above = s > (m1 + m2) ** 2
    root = np.sqrt(np.where(above, s - (m1 + m2) ** 2, 0.0))
    root *= np.sqrt(np.where(above, s - (m1 - m2) ** 2, 0.0))
    return root / np.where(above, s, 1.0) / (8.0 * math.pi)


# --------------------------------------------------------------------------- Riesz distribution


def gaussian_probe(a: float = 1.0):
    """Euclidean Gaussian g(k) = exp(-a |k|_E^2) and its third d'Alembertian.

    Returns (g0, g_radial, box3_radial) with the radial callables taking
    (k0, r = |kvec|); box = d^2/dk0^2 - laplacian_kvec.  Closed form from the
    Hermite derivatives along k0 and the powers of the 3-D radial Laplacian:

        box^3 g = g * sum_j C(3,j) a^j H_2j(sqrt(a) k0) (4a)^n n! L_n^(1/2)(a r^2),

    n = 3 - j, with the polynomial factor held as a power series in (k0, r).
    """
    coef = np.zeros((7, 7))
    for j in range(4):
        n = 3 - j
        herm = np.polynomial.hermite.herm2poly([0] * (2 * j) + [1])
        herm = herm * math.sqrt(a) ** np.arange(2 * j + 1)
        lag = np.zeros(2 * n + 1)  # (4a)^n n! L_n^(1/2)(a r^2) in powers of r
        for m in range(n + 1):
            lag[2 * m] = (4 * a) ** n * math.factorial(n) * (-a) ** m * math.gamma(n + 1.5) / (
                math.factorial(n - m) * math.gamma(m + 1.5) * math.factorial(m)
            )
        coef[: 2 * j + 1, : 2 * n + 1] += math.comb(3, j) * a**j * np.outer(herm, lag)

    def g_rad(k0, r):
        return np.exp(-a * (k0**2 + r**2))

    def b3_rad(k0, r):
        k0, r = np.broadcast_arrays(k0, r)
        return g_rad(k0, r) * np.polynomial.polynomial.polyval2d(k0, r, coef)

    return 1.0, g_rad, b3_rad


def riesz_check(box3_radial: Callable, g_at_zero: float, kmax: float = 12.0, n: int = 600) -> float:
    """Residual <s, box^3 g> - (2pi)^4 g(0) for a rotationally symmetric probe."""
    x, w = np.polynomial.legendre.leggauss(n)
    k0 = 0.5 * kmax * (x + 1.0)
    wk = 0.5 * kmax * w
    total = 0.0
    for k0i, w0 in zip(k0, wk):
        # r in [0, k0i]: inside the forward cone
        r = 0.5 * k0i * (x + 1.0)
        wr = 0.5 * k0i * w
        k2 = k0i**2 - r**2
        vals = (math.pi**3 / 4.0) * k2 * box3_radial(k0i, r) * 4.0 * math.pi * r**2
        total += w0 * float(np.sum(wr * vals))
    return total - (2.0 * math.pi) ** 4 * g_at_zero
