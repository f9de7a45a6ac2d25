"""One-loop causal splitting by dispersion relations.

A SelfEnergy is a spectral density plus a subtraction order n at q^2 = 0:

    Sigma(q^2) = (q^2)^n / pi * integral_{s0}^inf ds rho(s) / (s^n (s - q^2 -+ i0))

evaluated with the i0 prescription realized as an explicit principal value
plus i pi delta decomposition (no finite-epsilon extrapolation), in closed
form: logs and atan for the equal-mass bubble, exponential integrals for the
massless pair with a UV weight; a density without one is refused.  The
central normalization chooses the minimal n making all momentum derivatives
through order omega vanish at zero; subtraction point fixed at q = 0.

It runs on the standard library, one q^2 per call; the bubble's Im Sigma on
the cut is the two-body phase space of propagators_kinematics.  The array
side (curves, smearing, Gauss rules, scaling-degree estimator) is
adiabatic_limits.

Normalization freedom basis (multi-indices |gamma| <= omega):
tests/test_causal_splitting.py.
"""
from __future__ import annotations

import functools
import math
import sys
from typing import Callable

from .exact import DomainError, SlotRecord
from .power_counting import VANISHING_SECTOR, omega_general
from .propagators_kinematics import two_body_phase_space
from .symbolic_fields import canonical_dim


def __getattr__(name):
    """`integrate` (scipy.integrate), loaded only when asked for.  Only
    bench/tracer.py asks (it wraps integrate.quad); no code in this module
    calls it, and the name goes when the tracer reads library-owned counters
    instead (ROADMAP item 1)."""
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SplittingError(DomainError):
    pass


# --------------------------------------------------------------------------- spectral densities


class SpectralDensity(SlotRecord):
    """A density rho(s) >= 0 above a threshold s0 (and 0 at and below it),
    growing at most like s^growth at large s: the growth sets the least
    subtraction order that makes the dispersion integral converge.

    closed_form maps a scalar q^2 and an order n at least the required one
    to the n-subtracted dispersion integral on the Feynman side.
    dispersion_eval evaluates the closed form and refuses a density without
    one (None).  The equal-mass bubble carries one (bubble_density), and so
    does the massless pair of the second-order kit (_pair_dispersion).
    """

    __slots__ = ("threshold", "growth", "closed_form")

    def __init__(self, threshold: float, growth: float,
                 closed_form: Callable[[float, int], complex] | None = None):
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "growth", growth)  # exponent; -inf for cut-off densities
        object.__setattr__(self, "closed_form", closed_form)


@functools.cache
def bubble_density(m1: float, m2: float) -> SpectralDensity:
    """Two-particle spectral density of the one-loop bubble.

    rho(s) = w * two_body_phase_space(m1, m2, s) with threshold (m1 + m2)^2 and
    the combinatorial weight w = 2: the complete contractions of psi^2 with
    psi^2 (complete_pairings with require_full=True gives two terms).  Equal
    masses m1 = m2 > 0 carry the closed form of _bubble_dispersion.

    Built once per (m1, m2): an equal-mass density holds a fresh closed form
    (a partial, equal only to itself), so only the shared object makes equal
    masses give equal (and equally hashed) densities and self-energies.
    """
    w = 2
    s0 = (m1 + m2) ** 2
    closed = functools.partial(_bubble_dispersion, m1, s0, w) if m1 == m2 > 0 else None
    return SpectralDensity(s0, 0.0, closed)


def _bubble_dispersion(m: float, s0: float, w: float, q2: float, n: int) -> complex:
    """Sigma_n(q^2) of rho(s) = w two_body_phase_space(m, m, s) = w beta(s) /
    (8 pi), beta = sqrt(1 - s0/s), the equal-mass bubble with threshold
    s0 = (m + m)^2 (bubble_density's, not recomputed per point), on the
    Feynman side.

    With x = q^2/s0, Sigma_n = w / (8 pi^2) (J(x) - sum_{k<n} B(k, 3/2) x^k):
    J is the once-subtracted integral and B(k, 3/2) = int_0^1 t^(k-1)
    sqrt(1 - t) dt gives the subtraction constants, c_k = w B(k, 3/2) /
    (8 pi^2 s0^k).  The imaginary part on the cut is the density itself, so
    Im Sigma = rho exactly.
    """
    x = q2 / s0
    if abs(x) < _series_radius(n):
        re = w / (8.0 * math.pi**2) * _bubble_taylor(x, n)
        if abs(re) < sys.float_info.min:
            # below the normal range: summed with the factor in its first term
            # and q^2 undivided, Sigma is rounded there once
            re = _bubble_taylor(q2, n, s0=s0, scale=w / (8.0 * math.pi**2))
        return complex(re)
    re = w / (8.0 * math.pi**2) * (_bubble_j(q2, s0) - _bubble_taylor(x, 1, n))
    if q2 <= s0:
        return complex(re)
    return complex(re, w * two_body_phase_space(m, m, q2))


@functools.cache
def _series_radius(n: int) -> float:
    """|q^2|/s0 below which the n-subtracted bubble is summed as its Taylor
    series: there the logs minus n - 1 Taylor terms cancel towards the n-fold
    zero at q^2 = 0.  At least 1/4 (|q^2| < m^2, terms falling 4-fold), and
    out to where the first series term B(n, 3/2) x^n reaches 1e-3, so that
    the cancellation costs at most about three digits; that stays below the
    cap 0.9 (series terms falling at least 10% each) up to n = 20."""
    log_b = math.lgamma(n) + math.lgamma(1.5) - math.lgamma(n + 1.5)
    return min(0.9, max(0.25, math.exp((math.log(1e-3) - log_b) / n)))


def _bubble_taylor(
    x: float, lo: int, hi: int | None = None, *, s0: float = 1.0, scale: float = 1.0
) -> float:
    """scale * sum_{lo <= k < hi} B(k, 3/2) (x/s0)^k, the Taylor terms of J;
    hi None sums the tail to rounding, for |x/s0| < 1 (the term ratio
    x/s0 k / (k + 3/2) tends to x/s0).  scale / s0 is one factor of the first
    term, so a sum that underflows below the normal range is rounded there
    once, not again by a later factor or by the quotient x/s0."""
    term = scale * (2.0 / 3.0) / s0 * x  # B(1, 3/2) = 2/3
    total, k, x = 0.0, 1, x / s0
    while k < lo or (k < hi if hi else abs(term) > 1e-17 * abs(total)):
        if k >= lo:
            total += term
        term *= x * k / (k + 1.5)
        k += 1
    return total


def _bubble_j(q2: float, s0: float) -> float:
    """Re J(q^2/s0), the once-subtracted integral in units of w / (8 pi^2):

    J = 2 - beta log((beta + 1)/(beta - 1))  below 0,  beta = sqrt(1 - s0/q^2),
    J = 2 - 2 b atan(1/b)                    in (0, s0), b = sqrt(s0/q^2 - 1),
    J = 2 - beta log((1 + beta)/(1 - beta))  from s0 up (plus i pi beta).

    Each log is log1p of an expression in q^2 - s0 and beta that keeps full
    precision at large |q^2| and at the threshold (_log1p_ratio).
    """
    if q2 < 0:
        beta = math.sqrt((q2 - s0) / q2)
        return 2.0 - beta * _log1p_ratio(2.0 * (beta + 1.0), -q2, s0)
    if q2 < s0:
        b = math.sqrt((s0 - q2) / q2)
        return 2.0 - 2.0 * b * math.atan(1.0 / b)
    beta = math.sqrt((q2 - s0) / q2)
    return 2.0 - beta * _log1p_ratio(2.0 * beta * (1.0 + beta), q2, s0)


def _log1p_ratio(a: float, x: float, s0: float) -> float:
    """log(1 + a x / s0) for positive a, x and s0, finite up to the largest
    float x: where the quotient overflows, it is the sum of the three logs,
    whose dropped term log1p(s0 / (a x)) is below 1e-308."""
    y = a * x / s0
    if y == math.inf:
        return math.log(a) + math.log(x) - math.log(s0)
    return math.log1p(y)


def _pair_dispersion(a: float, q2: float, n: int) -> complex:
    """Sigma_0(q^2) of rho(s) = exp(-s/a) / (8 pi) above s = 0, the massless
    pair with a UV weight, on the Feynman side (n is 0: a threshold at zero
    admits no subtraction).

    With y = q^2/a, Re Sigma_0 = -e^-y Ein(y) / (8 pi^2), Ein(y) = gamma +
    log|y| + sum_{k>=1} y^k / (k k!) = Ei(y) above 0 and -E1(-y) below; Im
    Sigma_0 = e^-y / (8 pi) = rho on the cut.  The series is summed on
    [-1, 40), log|y| as log|q^2| - log a (finite where y underflows); below,
    e^-y E1(-y) is Lentz's continued fraction 1/(x + 1 - 1^2/(x + 3 - ...)),
    x = -y, in at most about 100 terms; above, e^-y Ei(y) is the asymptotic
    sum (1/y) sum k!/y^k, cut below 1e-16 of the sum before its terms grow
    near k = y (the least is 7e-17 at y = 40).
    """
    y = q2 / a
    if y < -1.0:
        b, c = 1.0 - y, math.inf
        d = re = 1.0 / b
        for k in range(1, 128):
            b += 2.0
            d = 1.0 / (b - k * k * d)
            c = b - k * k / c
            re *= c * d
            if abs(c * d - 1.0) <= sys.float_info.epsilon:
                break
    elif y < 40.0:
        term, ein, k = y, y, 1
        while abs(term) > 1e-17 * abs(ein):
            term *= y / (k + 1)
            k += 1
            ein += term / k
        gamma = 0.57721566490153286061  # Euler's constant
        re = -math.exp(-y) * (gamma + (math.log(abs(q2)) - math.log(a)) + ein)
    else:
        term, total, k = 1.0 / y, 0.0, 0
        while term > 1e-16 * total:
            total += term
            k += 1
            term *= k / y
        re = -total
    return complex(re / (8.0 * math.pi**2), math.exp(-y) / (8.0 * math.pi) if q2 > 0 else 0.0)


# --------------------------------------------------------------------------- self-energy


class SelfEnergy(SlotRecord):
    __slots__ = ("density", "n_sub")

    def __init__(self, density: SpectralDensity, n_sub: int = 0):
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "n_sub", n_sub)

    def required_n_sub(self) -> int:
        g = self.density.growth
        if g == -math.inf:
            return 0
        return int(math.floor(g)) + 1


def dispersion_eval(se: SelfEnergy, q2: float, mode: str = "feynman") -> complex:
    """Subtracted dispersion integral at one finite real q^2, a complex; a
    caller with a grid evaluates it point by point.

    mode "feynman"/"advanced": boundary value s - q^2 - i0 (below the cut);
    mode "retarded": s - q^2 + i0, the conjugate.  Below threshold the result
    is real; on the cut the i0 term contributes -+ i rho(q^2) (Plemelj).

    The value is the density's closed form; a density without one is a
    SplittingError.  Refused before any evaluation: a non-finite q^2 and,
    over a threshold at zero, q^2 = 0 unsubtracted (int rho(s) / s ds
    diverges like a log) and every subtraction at q^2 = 0, as rho(0+) > 0 for
    both such densities here (the massless bubble and pair are flat there).
    """
    if mode not in ("feynman", "advanced", "retarded"):
        raise SplittingError(f"unknown mode {mode!r}")
    n = se.n_sub
    need = se.required_n_sub()
    if n < need:
        raise SplittingError(
            f"dispersion integral diverges for n_sub = {n}; density growth "
            f"s^{se.density.growth} requires n_sub >= {need}"
        )
    if not math.isfinite(q2):
        raise SplittingError(f"q^2 must be finite, got {q2!r}")
    if se.density.threshold == 0.0 and n:
        raise _needs_mass_gap(n)
    if se.density.threshold == 0.0 and q2 == 0.0:
        raise SplittingError(
            "dispersion integral diverges logarithmically at q^2 = 0: with n_sub = 0 "
            "and the threshold at zero, int rho(s) / s ds diverges at s = 0"
        )
    closed = se.density.closed_form
    if closed is None:
        raise SplittingError("the spectral density has no closed form: only the "
                             "equal-mass bubble (m > 0) and the massless pair are evaluated")
    v = closed(q2, n)
    if mode == "retarded":
        # + 0.0 on each part: no -0.0 imaginary part off the cut
        return complex(v.real + 0.0, 0.0 - v.imag)
    return v


def _needs_mass_gap(n: int) -> SplittingError:
    return SplittingError(
        f"a subtracted dispersion integral needs a mass gap: the spectral threshold "
        f"is at zero, so with n_sub = {n} it is infrared-divergent at the "
        f"subtraction point q^2 = 0"
    )


def central_normalize(se: SelfEnergy, omega: int) -> SelfEnergy:
    """Minimal subtraction order such that all q-derivatives through order
    omega vanish at q = 0.

    Sigma is a function of q^2; a 4-momentum derivative of order 2j probes
    d^j Sigma / d(q^2)^j at 0, so the condition |gamma| <= omega amounts to
    zeros of order floor(omega/2) + 1 in q^2.  Needs a positive threshold
    (a massless cut has no analytic neighborhood of zero to normalize in).
    """
    if omega < 0:
        return se._replace(n_sub=0)
    if se.density.threshold <= 0:
        raise SplittingError(
            "central normalization needs a mass gap: the spectral threshold is "
            "at zero, the subtracted integral would be infrared-divergent at "
            "the subtraction point"
        )
    return se._replace(n_sub=omega // 2 + 1)


def model_self_energy(model, n_sub: int | str = "central") -> SelfEnergy:
    """The one-loop self-energy of a model: the bubble of its heaviest field,
    subtracted n_sub times at q^2 = 0: the one place that decides whether a
    model has that block (selfenergy and both demonstrations call it).

    n_sub "central" derives the order from the model.  The self-energy block
    is two vertices, each with one external leg removed, so its index is
    omega = omega_general([dim(vertex 0) - 1] * 2, c) (0 for a vanishing
    sector), and central_normalize takes the least order that makes every
    derivative through omega vanish at zero.  An integer n_sub is taken as
    given.  Refused with a SplittingError: a central order below what the
    bubble's growth needs (omega < 0), naming omega; a subtraction on a
    massless bubble (central, or n_sub >= 1), whose density starts at
    rho(0+) = w / (8 pi) > 0, so every subtraction at q^2 = 0 diverges; and,
    checked last, a vertex 0 (read for either n_sub) with a monomial that has
    a derivative, a non-scalar factor or fewer than two factors of the
    heaviest mass, whose block is not the bubble.
    """
    fields = model.fields
    m = max((e.numbers.mass for e in fields.entries), default=0.0)
    se = SelfEnergy(bubble_density(m, m))
    if n_sub != "central":
        se = se._replace(n_sub=int(n_sub))
        if se.n_sub >= 1 and m == 0:
            raise _needs_mass_gap(se.n_sub)
    else:
        omega = omega_general([canonical_dim(model.vertex(0)) - 1] * 2, model.c_const)
        if omega is VANISHING_SECTOR:
            omega = 0
        se = central_normalize(se, omega)
        if se.n_sub < se.required_n_sub():
            raise SplittingError(
                f"model {model.name!r} has no central normalization: the derived "
                f"omega = {omega} gives n_sub = {se.n_sub}, but the one-loop bubble "
                f"needs n_sub >= {se.required_n_sub()} to converge"
            )
    for idx, _ in model.vertex(0).terms:
        bad = [fields.gen_name(g) for g, _k in idx.entries
               if g.d_order or fields.entry(g.field).kind != "scalar"]
        heavy = sum(k for g, k in idx.entries if fields.entry(g.field).numbers.mass == m)
        if bad or heavy < 2:
            why = (f"factor {bad[0]!r} is not an underived scalar field" if bad else
                   f"monomial {fields.monomial_name(idx)!r} has fewer than two factors of mass {m}")
            raise SplittingError(
                f"model {model.name!r}, vertex 0: {why}; only the bubble of its "
                f"heaviest field is computed"
            )
    return se
