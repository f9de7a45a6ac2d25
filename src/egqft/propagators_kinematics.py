"""Kinematics on the standard library: the two-body phase space, and the
KinematicsError that it and wightman raise.

Metric signature (+,-,-,-); dmu_m(k) = (2pi)^-3 d^4k theta(k0) delta(k^2 - m^2)
is the invariant mass-shell measure.  The exact two-point keys, gamma algebra
and momentum polynomials live in wightman; the Riesz distribution's
inversion check, a Gauss rule, lives in adiabatic_limits.

Feynman propagator and its PV + i pi delta split, mass-shell measure, Riesz
distribution s(k): tests/test_propagators.py.
"""
from __future__ import annotations

import math

from .exact import DomainError


class KinematicsError(DomainError):
    pass


def two_body_phase_space(m1: float, m2: float, s: float) -> float:
    """integral dmu_m1 dmu_m2 (2pi)^4 delta^4(q - p1 - p2) at q^2 = s (rest frame).

    sqrt(lambda(s, m1^2, m2^2)) / (8 pi s) above (m1 + m2)^2 and 0 at and
    below.  The root is sqrt(s - (m1 + m2)^2) sqrt(s - (m1 - m2)^2), divided
    by s before 8 pi, so that it keeps full relative precision at threshold
    and no step overflows at any finite s.
    """
    if s <= 0:
        raise KinematicsError(f"need timelike total momentum, got s = {s}")
    s0 = (m1 + m2) ** 2
    if s <= s0:
        return 0.0
    return math.sqrt(s - s0) * math.sqrt(s - (m1 - m2) ** 2) / s / (8.0 * math.pi)
