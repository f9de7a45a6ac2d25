"""One-loop causal splitting by dispersion relations.

A SelfEnergy is a spectral density plus a subtraction order n at q^2 = 0:

    Sigma(q^2) = (q^2)^n / pi * integral_{s0}^inf ds rho(s) / (s^n (s - q^2 -+ i0))

evaluated with the i0 prescription realized as an explicit principal value
plus i pi delta decomposition (no finite-epsilon extrapolation).  The
central normalization chooses the minimal n making all momentum derivatives
through order omega vanish at zero; subtraction point fixed at q = 0.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .propagators_kinematics import two_body_phase_space


class SplittingError(ValueError):
    pass


# --------------------------------------------------------------------------- spectral densities


@dataclass(frozen=True)
class SpectralDensity:
    """Evaluator s -> rho(s) >= 0 above a threshold s0, with a large-s bound
    rho(s) <= bound_const * s^growth used for tail control."""

    fn: Callable[[float], float]
    threshold: float
    growth: float  # exponent; -inf for cut-off densities
    bound_const: float = 1.0
    label: str = "rho"

    def __call__(self, s):
        return self.fn(s)


def bubble_density(m1: float, m2: float) -> SpectralDensity:
    """Two-particle spectral density of the one-loop bubble.

    rho(s) = w * phase_space(m1, m2, s) with the combinatorial weight w
    taken from the complete-pairing count of the underlying squared-field
    contraction (two pairings), and threshold (m1 + m2)^2.
    """
    from .model_registry import builtin
    from .symbolic_fields import Generator, index_of
    from .wick_pairing import complete_pairings

    sm = builtin("scalar_model")
    gpsi = Generator(1)
    w = len(
        complete_pairings(
            [index_of(gpsi, gpsi)], [index_of(gpsi, gpsi)], sm, require_full=True
        )
    )
    s0 = (m1 + m2) ** 2

    def fn(s):
        return w * two_body_phase_space(m1, m2, s) if s > s0 else 0.0

    return SpectralDensity(fn, s0, 0.0, w / (8.0 * math.pi), label=f"bubble({m1},{m2})")


# --------------------------------------------------------------------------- self-energy


@dataclass(frozen=True)
class SelfEnergy:
    density: SpectralDensity
    n_sub: int = 0

    def required_n_sub(self) -> int:
        g = self.density.growth
        if g == -math.inf:
            return 0
        return int(math.floor(g)) + 1


# Tolerances of the dispersion quadrature, in the max norm over the q^2 vector.
_EPSABS, _EPSREL = 1e-13, 1e-11


def dispersion_eval(
    se: SelfEnergy, q2: float | np.ndarray, mode: str = "feynman"
) -> complex | np.ndarray:
    """Subtracted dispersion integral at real q^2, a scalar or an array.

    mode "feynman"/"advanced": boundary value s - q^2 - i0 (below the cut);
    mode "retarded": s - q^2 + i0.  Below threshold the result is real; on
    the cut the i0 term contributes -+ i rho(q^2) via the Plemelj split.
    Returns a complex for a scalar q^2 and a complex array otherwise.
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
    q = np.asarray(q2, dtype=float)
    out = np.zeros(q.shape, dtype=complex)
    # a subtracted Sigma vanishes exactly at q^2 = 0; those points need no integral
    live = q != 0.0 if n >= 1 else np.ones(q.shape, dtype=bool)
    if live.any():
        out[live] = _dispersion_pass(se, q[live], mode)
    return complex(out) if q.ndim == 0 else out


def _dispersion_pass(se: SelfEnergy, qs: np.ndarray, mode: str) -> np.ndarray:
    """Sigma at every point of the 1-D array qs in one adaptive vector quadrature.

    With f(s) = rho(s) / s^n and smax = 100 max(1, max|q^2|, s0 + 1) (at
    least s0 + 10), above every q^2:

    - on [s0, smax] the principal value is taken by subtraction,
      PV int f(s) / (s - q) ds = int (f(s) - f(q)) / (s - q) ds
      + f(q) log((smax - q) / (q - s0)) for s0 < q, and s = s0 + t^2 maps
      the threshold square root away;
    - the tail beyond smax goes to u = 1/s, where rho(1/u) u^(n-1) / (1 - q u)
      is bounded on (0, 1/smax] whenever the subtraction order beats the
      density growth.

    Both pieces are one integration variable x: u on [0, 1/smax], then
    t = x - 1/smax.
    """
    dens, n, s0 = se.density, se.n_sub, se.density.threshold
    smax = max(100.0 * max(1.0, float(np.max(np.abs(qs))), s0 + 1.0), s0 + 10.0)
    u_end = 1.0 / smax
    f_q = np.array([dens(x) / x**n if x > s0 else 0.0 for x in qs.tolist()])
    # a single point stays on Python floats, which quad_vec integrates far faster
    q, fq = (float(qs[0]), float(f_q[0])) if qs.size == 1 else (qs, f_q)

    def integrand(x):
        if x < u_end:
            return dens(1.0 / x) * x ** (n - 1) / (1.0 - q * x)
        t = x - u_end
        s = s0 + t * t
        d = s - q
        # ds/dt = 2t is taken at the rounded s where rho is evaluated: near
        # threshold s0 + t^2 loses the low bits of t^2, and 2t would turn that
        # rounding into noise the adaptive rule chases.  A node exactly at
        # s = q^2 is the 0/0 point of the quotient; it adds 0.
        return (dens(s) / s**n - fq) / (d + (d == 0)) * (2.0 * math.sqrt(s - s0))

    val, err, info = integrate.quad_vec(
        integrand, 0.0, u_end + math.sqrt(smax - s0), epsabs=_EPSABS, epsrel=_EPSREL,
        norm="max", points=(u_end,), limit=1000, full_output=True,
    )
    if not info.success:
        # rho is sampled at floating-point s, which cannot resolve s - s0 much
        # below ulp(s0): points that close to the threshold are ill-conditioned
        near = qs[np.abs(qs - s0) < 1e-8 * max(s0, 1.0)]
        hint = ""
        if near.size:
            hint = f"; q^2 = {float(near[0])!r} is within rounding reach of the threshold"
        raise SplittingError(
            f"dispersion quadrature did not converge after {info.neval} evaluations "
            f"(error estimate {err:.3g}): {info.message.rstrip('.')}{hint}"
        )
    cut = qs > s0
    pv_log = np.zeros_like(qs)
    pv_log[cut] = np.log((smax - qs[cut]) / (qs[cut] - s0))
    disc = math.pi * f_q  # Plemelj term, zero off the cut
    out = val + f_q * pv_log + (-1j if mode == "retarded" else 1j) * disc
    return qs**n / math.pi * out


def central_normalize(se: SelfEnergy, omega: int) -> SelfEnergy:
    """Minimal subtraction order such that all q-derivatives through order
    omega vanish at q = 0.

    Sigma is a function of q^2; a 4-momentum derivative of order 2j probes
    d^j Sigma / d(q^2)^j at 0, so the condition |gamma| <= omega amounts to
    zeros of order floor(omega/2) + 1 in q^2.  Needs a positive threshold
    (a massless cut has no analytic neighborhood of zero to normalize in).
    """
    if omega < 0:
        return replace(se, n_sub=0)
    if se.density.threshold <= 0:
        raise SplittingError(
            "central normalization needs a mass gap: the spectral threshold is "
            "at zero, the subtracted integral would be infrared-divergent at "
            "the subtraction point"
        )
    return replace(se, n_sub=omega // 2 + 1)


# --------------------------------------------------------------------------- normalization freedom


@dataclass(frozen=True)
class FreedomBasis:
    """Multi-indices gamma with |gamma| <= omega over 4n momentum variables:
    the polynomial coefficients multiplying the total-momentum delta."""

    omega: int
    n: int
    indices: tuple[tuple[int, ...], ...]

    def __len__(self):
        return len(self.indices)


def freedom_basis(omega: int, n: int) -> FreedomBasis:
    if n < 0:
        raise SplittingError("need n >= 0 arguments")
    dims = 4 * n
    if omega < 0 or dims == 0:
        idx = () if omega < 0 else ((),)
        return FreedomBasis(omega, n, idx if omega >= 0 and dims == 0 else ())
    out = []
    for total in range(omega + 1):
        for comb in itertools.combinations_with_replacement(range(dims), total):
            gamma = [0] * dims
            for c in comb:
                gamma[c] += 1
            out.append(tuple(gamma))
    return FreedomBasis(omega, n, tuple(out))


# --------------------------------------------------------------------------- scaling-degree estimator


@dataclass(frozen=True)
class ScaledProbe:
    """g(x / lam) for a fixed base profile g with g(0) = 1."""

    base: Callable[[np.ndarray], np.ndarray]
    lam: float

    def __call__(self, x):
        return self.base(np.asarray(x, dtype=float) / self.lam)


@dataclass
class SdEstimate:
    value: float
    slope: float
    residual: float
    ok: bool
    lambdas: tuple[float, ...]
    samples: tuple[float, ...]
    note: str = ""


def _tilted_probe(x):
    """exp(-|x|^2/2)(1 + x0): the x0 tilt keeps odd distributions visible."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    return np.exp(-0.5 * r2) * (1.0 + x[..., 0])


def scaling_degree_estimate(
    pairing: Callable[[ScaledProbe], complex],
    dim: int,
    lambdas: Sequence[float] | None = None,
    base: Callable | None = None,
) -> SdEstimate:
    """Least-squares slope of log|<t, g(./lam)>| against log lam.

    For a distribution of scaling degree sd the pairing scales like
    lam^(dim - sd), so the estimate is dim - slope.  A large fit residual or
    vanishing samples mark the estimate indeterminate.
    """
    if lambdas is None:
        lambdas = tuple(0.5 * 2.0 ** (-k / 2.0) for k in range(12))
    base = base or _tilted_probe
    vals = []
    for lam in lambdas:
        vals.append(complex(pairing(ScaledProbe(base, lam))))
    mags = np.array([abs(v) for v in vals])
    if np.any(mags == 0.0):
        return SdEstimate(
            value=float("nan"),
            slope=float("nan"),
            residual=float("inf"),
            ok=False,
            lambdas=tuple(lambdas),
            samples=tuple(mags),
            note="zero sample; scaling degree is -inf or the probe misses the support",
        )
    x = np.log(np.asarray(lambdas))
    y = np.log(mags)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    residual = float(np.sqrt(res[0] / len(x))) if len(res) else 0.0
    ok = residual < 0.1
    note = "" if ok else "indeterminate: non-linear log-log fit"
    return SdEstimate(
        value=dim - slope,
        slope=slope,
        residual=residual,
        ok=ok,
        lambdas=tuple(lambdas),
        samples=tuple(mags),
        note=note,
    )
