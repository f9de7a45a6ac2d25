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

from .exact import DomainError

# bench/tracer.py patches two_body_phase_space here (and the lazy `integrate`
# below); the densities call the array form
from .propagators_kinematics import two_body_phase_space  # noqa: F401
from .propagators_kinematics import two_body_phase_space_array


def __getattr__(name):
    """`integrate`: scipy.integrate, loaded only when asked for.  Only
    bench/tracer.py asks (it wraps integrate.quad); the name goes when the
    tracer reads library-owned counters instead (ROADMAP item 3)."""
    if name == "integrate":
        from scipy import integrate

        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SplittingError(DomainError):
    pass


# --------------------------------------------------------------------------- spectral densities


@dataclass(frozen=True)
class SpectralDensity:
    """Evaluator s -> rho(s) >= 0 above a threshold s0 (and 0 at and below
    it), growing at most like s^growth at large s: the growth sets the least
    subtraction order that makes the dispersion integral converge.

    fn maps an array of s to the array of rho(s), elementwise: the dispersion
    quadrature evaluates it on whole blocks of nodes at once.  Write it as a
    numpy expression (np.where for the threshold), not with Python branches.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    threshold: float
    growth: float  # exponent; -inf for cut-off densities

    def __call__(self, s):
        return self.fn(s)


def bubble_density(m1: float, m2: float) -> SpectralDensity:
    """Two-particle spectral density of the one-loop bubble.

    rho(s) = w * two_body_phase_space(m1, m2, s) with threshold (m1 + m2)^2 and
    the combinatorial weight w = 2: the complete contractions of psi^2 with
    psi^2 (complete_pairings with require_full=True gives two terms).
    """
    w = 2
    return SpectralDensity(lambda s: w * two_body_phase_space_array(m1, m2, s), (m1 + m2) ** 2, 0.0)


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
# Each of the two pieces starts as _START equal intervals; the quadrature gives
# up at _LIMIT intervals.  One integrand call evaluates at most _BLOCK values.
_START, _LIMIT, _BLOCK = 8, 1000, 1 << 16
_EPS = float(np.finfo(float).eps)

# QUADPACK's qk21 (Piessens et al., QUADPACK, Springer 1983): the 21 Kronrod
# nodes on [-1, 1], which hold the 10 Gauss nodes at the odd positions, and
# the weights of both rules.
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_XK = np.array(_XK + tuple(-x for x in _XK[-2::-1]))
_WK = np.array(_WK + _WK[-2::-1])
_WG = np.array(_WG + _WG[::-1])
_UNIT = np.linspace(0.0, 1.0, _START + 1)


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
    cut = qs > s0
    f_q = np.zeros_like(qs)
    f_q[cut] = dens(qs[cut]) / qs[cut] ** n

    def integrand(x):
        out = np.empty((x.size, qs.size))
        tail = x < u_end
        u = x[tail]
        out[tail] = (dens(1.0 / u) * u ** (n - 1))[:, None] / (1.0 - u[:, None] * qs)
        s = s0 + (x[~tail] - u_end) ** 2
        d = s[:, None] - qs
        # ds/dt = 2t is taken at the rounded s where rho is evaluated: near
        # threshold s0 + t^2 loses the low bits of t^2, and 2t would turn that
        # rounding into noise the adaptive rule chases.  A node exactly at
        # s = q^2 is the 0/0 point of the quotient; it adds 0.
        out[~tail] = ((dens(s) / s**n)[:, None] - f_q) / (d + (d == 0)) * (
            2.0 * np.sqrt(s - s0)
        )[:, None]
        return out

    edges = np.concatenate([u_end * _UNIT, u_end + math.sqrt(smax - s0) * _UNIT[1:]])
    val, err, neval, failure = _adaptive(integrand, edges, qs.size)
    if failure:
        # rho is sampled at floating-point s, which cannot resolve s - s0 much
        # below ulp(s0): points that close to the threshold are ill-conditioned
        near = qs[np.abs(qs - s0) < 1e-8 * max(s0, 1.0)]
        hint = ""
        if near.size:
            hint = f"; q^2 = {float(near[0])!r} is within rounding reach of the threshold"
        raise SplittingError(
            f"dispersion quadrature did not converge after {neval} evaluations "
            f"(error estimate {err:.3g}): {failure}{hint}"
        )
    pv_log = np.zeros_like(qs)
    pv_log[cut] = np.log((smax - qs[cut]) / (qs[cut] - s0))
    disc = math.pi * f_q  # Plemelj term, zero off the cut
    out = val + f_q * pv_log + (-1j if mode == "retarded" else 1j) * disc
    return qs**n / math.pi * out


def _adaptive(f, edges: np.ndarray, m: int):
    """Integral of f over [edges[0], edges[-1]] by adaptive qk21, for f mapping
    a 1-D array of nodes to a (nodes, m) block; the error model is quad_vec's
    in the max norm over m.

    Each round bisects every interval whose error estimate is above its share
    tol / (8 N) of the target, N the interval count (at least the worst
    interval, should rounding in the sum leave none above).  Returns (integral,
    error estimate, evaluations, failure), failure None once the summed error
    is below tol / 8 and otherwise why the quadrature stopped: the summed
    error fell below the rounding floor accumulated over every evaluated
    interval, turned non-finite, or N reached _LIMIT.
    """
    a, b = edges[:-1], edges[1:]
    val, err, rnd = _gk21_blocks(f, a, b, m)
    rounding, neval = float(rnd.sum()), _XK.size * a.size
    while True:
        tol = max(_EPSABS, _EPSREL * float(np.max(np.abs(val.sum(axis=0)))))
        total = float(err.sum())
        if total < tol / 8:
            failure = None
        elif total < rounding:
            failure = "Target precision could not be reached due to rounding error"
        elif not (math.isfinite(total) and math.isfinite(rounding)):
            failure = "Non-finite values encountered"
        elif a.size >= _LIMIT:
            failure = "Target precision not reached"
        else:
            split = err >= min(tol / (8 * a.size), err.max())
            keep = ~split
            lo, hi = a[split], b[split]
            mid = 0.5 * (lo + hi)
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            v, e, r = _gk21_blocks(f, lo, hi, m)
            rounding += float(r.sum())
            neval += _XK.size * lo.size
            a, b = np.concatenate([a[keep], lo]), np.concatenate([b[keep], hi])
            val, err = np.concatenate([val[keep], v]), np.concatenate([err[keep], e])
            continue
        return val.sum(axis=0), total + rounding, neval, failure


def _gk21_blocks(f, a: np.ndarray, b: np.ndarray, m: int):
    """_gk21 on the intervals in chunks whose (nodes, m) blocks stay within
    _BLOCK values."""
    step = max(1, _BLOCK // (_XK.size * m))
    if a.size <= step:
        return _gk21(f, a, b)
    parts = [_gk21(f, a[i:i + step], b[i:i + step]) for i in range(0, a.size, step)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _gk21(f, a: np.ndarray, b: np.ndarray):
    """The 21-point Gauss-Kronrod rule on every interval [a_i, b_i] in one call.

    Returns the Kronrod integrals (intervals, m) and, per interval, the
    QUADPACK error estimate dabs min(1, (200 |K - G| / dabs)^1.5) in the max
    norm over m, raised to the rounding floor 50 eps h int|f|, and that floor.
    """
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fv = f((c[:, None] + h[:, None] * _XK).ravel()).reshape(a.size, _XK.size, -1)
    s_k = _WK @ fv
    diff = h * np.abs(s_k - _WG @ fv[:, 1::2]).max(axis=1)
    dabs = h * (_WK @ np.abs(fv - 0.5 * s_k[:, None])).max(axis=1)
    rnd = 50.0 * _EPS * h * (_WK @ np.abs(fv)).max(axis=1)
    live = dabs != 0
    ratio = 200.0 * diff / np.where(live, dabs, 1.0)
    err = np.where(live, dabs * np.minimum(1.0, ratio**1.5), diff)
    return h[:, None] * s_k, np.maximum(err, rnd), rnd


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
