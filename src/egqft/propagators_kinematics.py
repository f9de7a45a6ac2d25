"""Numeric two-point structures and kinematics.

The exact two-point keys, gamma algebra and momentum polynomials live in
wightman (conventions there) and are re-exported here.  Metric signature
(+,-,-,-); dmu_m(k) = (2pi)^-3 d^4k theta(k0) delta(k^2 - m^2) is the
invariant mass-shell measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .wightman import (  # noqa: F401  (re-exported)
    GAMMA0,
    GAMMA1,
    GAMMA2,
    GAMMA3,
    GAMMAS,
    IDENTITY4,
    METRIC,
    KinematicsError,
    MomentumPoly,
    TwoPointKey,
    gamma,
    gamma_trace,
    mat_mul,
    two_point,
)


def gamma_np(mu: int) -> np.ndarray:
    return np.array([[complex(x) for x in row] for row in gamma(mu)])


# --------------------------------------------------------------------------- mass shell


@dataclass(frozen=True)
class MassShellMeasure:
    """dmu_m(k) = (2pi)^-3 d^4k theta(k0) delta(k^2 - m^2)."""

    mass: float

    def energy(self, kvec_norm):
        return np.sqrt(kvec_norm**2 + self.mass**2)

    def integrate_radial(self, f: Callable, kmax: float, n: int = 400) -> float:
        """integral dmu_m f for f = f(k0, |kvec|), rotationally symmetric."""
        kk, w = np.polynomial.legendre.leggauss(n)
        kappa = 0.5 * kmax * (kk + 1.0)
        wk = 0.5 * kmax * w
        e = self.energy(kappa)
        vals = f(e, kappa)
        return float(np.sum(wk * vals * kappa**2 / (2.0 * e)) * 4.0 * math.pi / (2.0 * math.pi) ** 3)


# --------------------------------------------------------------------------- propagators


@dataclass(frozen=True)
class PlemeljSplit:
    """i/(q^2 - m^2 + i0) split as i*PV(1/(q^2-m^2)) + pi*delta(q^2-m^2)."""

    pv_value: complex  # i/(q2 - m2), the principal-value integrand off shell
    delta_strength: float  # weight of delta(q2 - m2)
    pole: float  # s = m^2


def feynman_propagator(mass: float, q, iepsilon: float | None = None, mode: str = "eps"):
    """Scalar Feynman propagator i/(q^2 - m^2 + i eps).

    `q` is a 4-vector or the invariant q^2.  mode="eps" evaluates at finite
    iepsilon > 0; mode="strict" refuses on-shell points; mode="pv" returns
    the PlemeljSplit decomposition instead of a number.
    """
    q = np.asarray(q, dtype=float)
    if q.shape == ():
        q2 = float(q)
    elif q.shape == (4,):
        q2 = float(q[0] ** 2 - q[1] ** 2 - q[2] ** 2 - q[3] ** 2)
    else:
        raise KinematicsError("q must be a scalar q^2 or a 4-vector")
    x = q2 - mass**2
    if mode == "pv":
        pv = 1j / x if x != 0.0 else complex("inf")
        return PlemeljSplit(pv_value=pv, delta_strength=math.pi, pole=mass**2)
    if mode == "strict":
        if abs(x) < 1e-12 * max(1.0, mass**2):
            raise KinematicsError(f"on-shell evaluation at q^2 = {q2}")
        return 1j / x
    if iepsilon is None or iepsilon <= 0:
        raise KinematicsError("iepsilon > 0 required in eps mode")
    return 1j / (x + 1j * iepsilon)


# --------------------------------------------------------------------------- two-body phase space


def two_body_phase_space(m1: float, m2: float, s: float) -> float:
    """integral dmu_m1 dmu_m2 (2pi)^4 delta^4(q - p1 - p2) at q^2 = s (rest frame).

    In closed form sqrt(lambda(s, m1^2, m2^2)) / (8 pi s), with the Kallen
    function factored as (s - (m1 + m2)^2)(s - (m1 - m2)^2) so that it keeps
    full relative precision at threshold.  Zero at and below threshold.
    """
    if s <= 0:
        raise KinematicsError(f"need timelike total momentum, got s = {s}")
    if s <= (m1 + m2) ** 2:
        return 0.0
    lam = (s - (m1 + m2) ** 2) * (s - (m1 - m2) ** 2)
    return math.sqrt(lam) / (8.0 * math.pi * s)


def two_body_phase_space_vec(m1: float, m2: float, q) -> float:
    """Same, from a total 4-momentum; zero outside the forward mass shell."""
    q = np.asarray(q, dtype=float)
    s = float(q[0] ** 2 - q[1] ** 2 - q[2] ** 2 - q[3] ** 2)
    if q[0] <= 0 or s <= (m1 + m2) ** 2:
        return 0.0
    return two_body_phase_space(m1, m2, s)


# --------------------------------------------------------------------------- Riesz distribution


def riesz_s(k) -> np.ndarray | float:
    """s(k) = (pi^3/4) k^2 theta(k0) theta(k^2); continuous, cone-supported."""
    k = np.asarray(k, dtype=float)
    if k.ndim == 1:
        k = k[None, :]
        squeeze = True
    else:
        squeeze = False
    k2 = k[:, 0] ** 2 - k[:, 1] ** 2 - k[:, 2] ** 2 - k[:, 3] ** 2
    out = (math.pi**3 / 4.0) * k2 * (k[:, 0] >= 0) * (k2 >= 0)
    return float(out[0]) if squeeze else out


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
