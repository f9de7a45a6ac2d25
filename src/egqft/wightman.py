"""Exact two-point structures: gamma algebra, momentum polynomials and the
Wightman two-point keys of generator pairs.

Metric signature (+,-,-,-).  The positive-frequency master function is
D0+(x) = i * integral dmu_m(k) exp(-i k.x) with the invariant measure
dmu_m(k) = (2pi)^-3 d^4k theta(k0) delta(k^2 - m^2).  All two-point
functions are stored as

    <gL(x) gR(y)> = integral dmu_m(k) w(k) exp(-i k.(x-y))

with w an exact polynomial in the contravariant momentum components; the
conventions fix w = 1 for scalars, w = -g_mu_nu for vector components,
every element of (kslash +- m) gamma0 for Dirac pairs, w = -1 for the
ghost pair.  Derivative decorations multiply w by (-i k_mu) on the left
slot and (+i k_mu) on the right slot (lower index).

Everything here is exact (QRat) and imports no numerics; KinematicsError
comes from propagators_kinematics.

Gamma traces, and the numeric two-point functions (Feynman propagator,
mass-shell measure): tests/test_propagators.py.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

from .exact import I, ONE, QRat, as_qrat
from .propagators_kinematics import KinematicsError
from .symbolic_fields import Alpha, FieldTable, Generator, ZERO_ALPHA

METRIC = (1, -1, -1, -1)


# --------------------------------------------------------------------------- gamma algebra


def _mat(rows):
    return tuple(tuple(as_qrat(x) for x in row) for row in rows)


GAMMA0 = _mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
GAMMA1 = _mat([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]])
GAMMA2 = _mat(
    [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, 1j, 0, 0], [-1j, 0, 0, 0]]
)
GAMMA3 = _mat([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]])
GAMMAS = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)


def mat_mul(a, b):
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(4)), QRat(0)) for j in range(4)
        )
        for i in range(4)
    )


def gamma(mu: int):
    if not 0 <= mu <= 3:
        raise KinematicsError(f"gamma index {mu} out of range")
    return GAMMAS[mu]


@functools.cache
def gamma0_gamma(mu: int):
    """gamma^0 gamma^mu, built on first use.  In the Dirac representation it
    equals g_mumu gamma^mu gamma^0, the coefficient of k^mu in kslash gamma^0."""
    return mat_mul(GAMMA0, gamma(mu))


# --------------------------------------------------------------------------- momentum polynomials


class MomentumPoly:
    """Exact polynomial sum_beta c_beta k^beta in contravariant components."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Alpha, QRat] | None = None):
        clean = {}
        if coeffs:
            for b, c in coeffs.items():
                c = as_qrat(c)
                if not c.is_zero():
                    clean[tuple(b)] = c
        self.coeffs = dict(sorted(clean.items()))

    @staticmethod
    def constant(c) -> "MomentumPoly":
        return MomentumPoly({ZERO_ALPHA: as_qrat(c)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max((sum(b) for b in self.coeffs), default=0)

    def mul_monomial(self, beta: Alpha, c) -> "MomentumPoly":
        c = as_qrat(c)
        out = {}
        for b, cc in self.coeffs.items():
            nb = tuple(x + y for x, y in zip(b, beta))
            out[nb] = out.get(nb, QRat(0)) + cc * c
        return MomentumPoly(out)

    def __add__(self, other: "MomentumPoly") -> "MomentumPoly":
        out = dict(self.coeffs)
        for b, c in other.coeffs.items():
            out[b] = out.get(b, QRat(0)) + c
        return MomentumPoly(out)

    def evaluate(self, k) -> complex:
        k = [float(x) for x in k]
        out = 0j
        for b, c in self.coeffs.items():
            term = complex(c)
            for mu in range(4):
                if b[mu]:
                    term *= k[mu] ** b[mu]
            out += term
        return out

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for b, c in self.coeffs.items():
            mono = "".join(f"k{mu}" * b[mu] for mu in range(4)) or "1"
            parts.append(f"({c!r})*{mono}")
        return " + ".join(parts)


def _unit_alpha(mu: int) -> Alpha:
    a = [0, 0, 0, 0]
    a[mu] = 1
    return tuple(a)


# --------------------------------------------------------------------------- two-point keys


class TwoPointKey(NamedTuple):
    left: Generator
    right: Generator
    mass: float
    prefactor: MomentumPoly

    def evaluate(self, k) -> complex:
        return self.prefactor.evaluate(k)


def _base_pair(table: FieldTable, fL: int, fR: int):
    """Undifferentiated pair weight w(k) or None; see module docstring.

    A generator contracts only with a component of its adjoint's field
    block, of the same kind; both come from one [fields] declaration, so
    they share the mass and carry opposite charges.
    """
    eL, eR = table.entry(fL), table.entry(fR)
    eA = table.entry(eL.adjoint)
    if (eR.kind, eR.species) != (eA.kind, eA.species):
        return None
    if eL.kind == "scalar":
        return MomentumPoly.constant(ONE)
    if eL.kind == "ghost":
        return MomentumPoly.constant(QRat(-1))
    if eL.kind == "vector":
        mu = eL.component
        return MomentumPoly.constant(QRat(-METRIC[mu])) if mu == eR.component else None
    # psi psi*: (kslash + m) gamma0;  psi* psi: (kslash - m) gamma0.  The
    # particle block comes first in the table, so psi is the lower index
    if fL < eL.adjoint:
        a, b, msign = eL.component, eR.component, 1
    else:
        b, a, msign = eL.component, eR.component, -1
    pol = MomentumPoly({_unit_alpha(mu): gamma0_gamma(mu)[a][b] for mu in range(4)})
    m = eL.numbers.mass
    if m and not GAMMA0[a][b].is_zero():
        if m != int(m):
            raise KinematicsError("exact Dirac weight needs an integer mass")
        pol = pol + MomentumPoly.constant(GAMMA0[a][b] * (msign * int(m)))
    return None if pol.is_zero() else pol


def two_point(model, gL: Generator, gR: Generator) -> TwoPointKey | None:
    """Wightman two-point key of two generators, or None when it vanishes.

    Vanishes unless gR is a component of the field block of gL's adjoint
    (and, for vector and Dirac pairs, the weight element is nonzero).
    Derivative decorations multiply the momentum polynomial by (-i k_mu)
    (left) and (+i k_mu) (right) per derivative.
    """
    pol = _base_pair(model.fields, gL.field, gR.field)
    if pol is None:
        return None
    for mu in range(4):
        for _ in range(gL.alpha[mu]):
            pol = pol.mul_monomial(_unit_alpha(mu), -I * METRIC[mu])
        for _ in range(gR.alpha[mu]):
            pol = pol.mul_monomial(_unit_alpha(mu), I * METRIC[mu])
    return TwoPointKey(gL, gR, model.fields.entry(gL.field).numbers.mass, pol)
