"""Adiabatic machinery on numpy arrays, the one egqft module that imports
numpy: scaled test families, the Gauss rules, the scaling-degree estimator,
the Riesz distribution's inversion check on a Gaussian probe, limit fitting
over an epsilon schedule, the regularized splitting function, and the two
second-order demonstrations (normalization necessity for the limit's
existence; agreement of the ratio and direct definitions of the smeared
two-point function).

Momentum-space normalization: a base profile integrates to one against
d^N q/(2pi)^N, so a smearing <t, g_eps> is the expectation of t under a
probability measure that concentrates at the origin as eps -> 0.

Point values at zero (Lojasiewicz), the family's tensor Gauss-Hermite
smearing and its derivative probes, and cone membership:
tests/test_adiabatic.py.
"""
from __future__ import annotations

import functools
import itertools
import math
import warnings
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .causal_splitting import (
    SelfEnergy,
    SpectralDensity,
    SplittingError,
    _pair_dispersion,
    dispersion_eval,
    model_self_energy,
)
from .exact import DomainError
from .propagators_kinematics import two_body_phase_space


class AdiabaticError(DomainError):
    pass


def epsilon_schedule(n: int) -> tuple[float, ...]:
    """The n scales eps_k = 0.3 * 2^(-k/2), k = 0..n-1."""
    return tuple(0.3 * 2.0 ** (-k / 2.0) for k in range(n))


DEFAULT_EPSILONS = epsilon_schedule(12)


# --------------------------------------------------------------------------- scaled families


@functools.lru_cache(maxsize=None)
def _hermgauss(n: int):
    """Gauss-Hermite nodes/weights, computed once per order (callers share the
    arrays and must not modify them)."""
    return np.polynomial.hermite.hermgauss(n)


def _gauss_axis(s: float, n: int):
    """n-point rule for E[f(x)], x ~ N(0, s^2): Gauss-Hermite offsets and
    weights that sum to one."""
    h, wh = _hermgauss(n)
    return s * math.sqrt(2.0) * h, wh / math.sqrt(math.pi)


def _gauss_radius(s: float, n: int, alpha: float):
    """n-point rule for E[f(r)] under the density ~ r^(2 alpha + 1) exp(-r^2 / 2 s^2):
    Gauss-Laguerre with exponent alpha in t = r^2 / 2 s^2, weights summing to one."""
    t, w = _laguerre(n, alpha)
    return s * np.sqrt(2.0 * t), w / math.gamma(alpha + 1.0)


class _FamilyFields(NamedTuple):
    dim: int
    sigma: float
    centers: tuple[tuple[float, ...], ...]
    weights: tuple[float, ...]
    epsilons: tuple[float, ...]
    label: str


class ScaledTestFamily(_FamilyFields):
    """Mixture-of-Gaussians profile g with unit normalization; the scaled
    family has centers eps*mu and widths eps*sigma."""

    __slots__ = ()

    def __new__(cls, dim: int, sigma: float = 1.0, centers: tuple[tuple[float, ...], ...] = ((0.0,),),
                weights: tuple[float, ...] = (1.0,), epsilons: tuple[float, ...] = DEFAULT_EPSILONS,
                label: str = "gauss"):
        if abs(sum(weights) - 1.0) > 1e-12:
            raise AdiabaticError("family weights must sum to one")
        for c in centers:
            if len(c) != dim:
                raise AdiabaticError("center dimension mismatch")
        return tuple.__new__(cls, (dim, sigma, centers, weights, epsilons, label))

    @classmethod
    def _make(cls, iterable):  # so _replace validates as the constructor does
        return cls(*iterable)


def gaussian_family(dim: int, sigma: float = 1.0, epsilons=DEFAULT_EPSILONS,
                    label: str = "gauss") -> ScaledTestFamily:
    return ScaledTestFamily(
        dim=dim,
        sigma=sigma,
        centers=((0.0,) * dim,),
        weights=(1.0,),
        epsilons=tuple(epsilons),
        label=label,
    )


def asymmetric_family(dim: int, shift: float = 1.0, sigma: float = 0.7,
                      epsilons=DEFAULT_EPSILONS) -> ScaledTestFamily:
    """Two off-center components with unequal weights (time direction)."""
    c1 = (shift,) + (0.0,) * (dim - 1)
    c2 = (-0.5 * shift,) + (0.0,) * (dim - 1)
    return ScaledTestFamily(
        dim=dim,
        sigma=sigma,
        centers=(c1, c2),
        weights=(0.75, 0.25),
        epsilons=tuple(epsilons),
        label="asym",
    )


# --------------------------------------------------------------------------- scaling-degree estimator


class ScaledProbe(NamedTuple):
    """g(x / lam) for a fixed base profile g with g(0) = 1."""

    base: Callable[[np.ndarray], np.ndarray]
    lam: float

    def __call__(self, x):
        return self.base(np.asarray(x, dtype=float) / self.lam)


class SdEstimate(NamedTuple):
    value: float
    slope: float
    residual: float
    ok: bool
    note: str = ""


def _tilted_probe(x):
    """exp(-|x|^2/2)(1 + x0): the x0 tilt keeps odd distributions visible."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    return np.exp(-0.5 * r2) * (1.0 + x[..., 0])


def target_pairing(target: str, dim: int) -> Callable[[ScaledProbe], complex]:
    """The pairing <t, p> of a probe p with a test distribution t on R^dim:
    "delta" (at 0), "ddelta" (d/dx0 of delta: minus the probe's x0-derivative
    at 0 by a five-point central difference) or "smooth" (the Gaussian
    exp(-|x|^2/8)).

    The ddelta step 5e-4 lam scales with the probe, so the truncation error is
    one factor at every lam (about 1e-13 for the default probe) and the fitted
    slope is exact to rounding.

    The smooth pairing is a tensor 6-point Gauss-Hermite rule in u = x/lam for
    the weight exp(-|u|^2/2) of the probe profile, exact to about 1e-8; its
    6^dim points bound dim by 7.  The Gaussian's width 2 puts the probe scales
    lam <= 0.5 in the asymptotic regime; at width 1 the log-log fit is not
    linear (residual 0.15).
    """
    if target == "delta":
        return lambda p: p(np.zeros(dim))
    if target == "ddelta":
        e0 = np.eye(dim)[0]

        def pairing(p):
            h = 5e-4 * p.lam
            return -(p(-2 * h * e0) - 8 * p(-h * e0) + 8 * p(h * e0) - p(2 * h * e0)) / (12 * h)

        return pairing
    if target != "smooth":
        raise SplittingError(f"unknown target {target!r}")
    if dim > 7:
        raise SplittingError(f"the smooth target's 6^dim-point rule needs --dim <= 7, got {dim}")
    u, w = _gauss_axis(1.0, 6)
    # per axis: the rule for the integral over R, exp(u^2/2) dividing out the weight
    w = w * math.sqrt(2.0 * math.pi) * np.exp(0.5 * u * u)
    nodes = np.array(list(itertools.product(u, repeat=dim)))
    weights = np.prod(list(itertools.product(w, repeat=dim)), axis=1)

    def pairing(p):
        x = p.lam * nodes
        return p.lam**dim * float(np.dot(weights, np.exp(-np.sum(x * x, axis=1) / 8) * p(x)))

    return pairing


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
    mags = np.array([abs(complex(pairing(ScaledProbe(base, lam)))) for lam in lambdas])
    if np.any(mags == 0.0):
        nan = float("nan")
        return SdEstimate(nan, nan, math.inf, False,
                          "zero sample; scaling degree is -inf or the probe misses the support")
    x = np.log(np.asarray(lambdas))
    y = np.log(mags)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    residual = float(np.sqrt(res[0] / len(x))) if len(res) else 0.0
    ok = residual < 0.1
    note = "" if ok else "indeterminate: non-linear log-log fit"
    return SdEstimate(dim - slope, slope, residual, ok, note)


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


_RIESZ_KMAX, _RIESZ_N = 12.0, 600  # riesz_check's cutoff in k0 and Gauss-Legendre order


def riesz_check(box3_radial: Callable, g_at_zero: float) -> float:
    """Residual <s, box^3 g> - (2pi)^4 g(0) for a rotationally symmetric probe."""
    x, w = np.polynomial.legendre.leggauss(_RIESZ_N)
    k0 = 0.5 * _RIESZ_KMAX * (x + 1.0)
    wk = 0.5 * _RIESZ_KMAX * w
    total = 0.0
    for k0i, w0 in zip(k0, wk):
        # r in [0, k0i]: inside the forward cone
        r = 0.5 * k0i * (x + 1.0)
        wr = 0.5 * k0i * w
        k2 = k0i**2 - r**2
        vals = (math.pi**3 / 4.0) * k2 * box3_radial(k0i, r) * 4.0 * math.pi * r**2
        total += w0 * float(np.sum(wr * vals))
    return total - (2.0 * math.pi) ** 4 * g_at_zero


# --------------------------------------------------------------------------- limit fitting


class LimitReport(NamedTuple):
    estimate: complex
    converged: bool
    log_slope: complex
    slope_sigma: float
    samples: tuple[tuple[float, complex], ...]
    family: str = ""


def _lstsq_complex(A: np.ndarray, y: np.ndarray):
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(y) - A.shape[1], 1)
    s2 = float(np.sum(np.abs(resid) ** 2)) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    return coef, np.sqrt(np.abs(np.diag(cov)))


_REL_TOL = 1e-4  # fit_limit's settledness tolerance, relative to the largest sample


def fit_limit(epsilons: Sequence[float], values: Sequence[complex], *, family: str = "") -> LimitReport:
    """Fit v = a + b log(1/eps) and decide convergence from the tail.

    The log slope and its 2-sigma band quantify divergence.  Convergence is
    a settledness criterion: on a geometric schedule the consecutive
    differences of a log-divergent sequence are constant, while those of a
    convergent sequence decay, so the sequence counts as converged when its
    last differences are below the relative tolerance _REL_TOL.  The
    estimate is a Richardson-style extrapolation (linear-in-eps fit on the
    tail).
    """
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(values, dtype=complex)
    if len(eps) < 3:
        raise AdiabaticError("need at least 3 epsilon samples to fit")
    samples = tuple((float(e), complex(v)) for e, v in zip(eps, vals))
    A = np.vstack([np.ones_like(eps), np.log(1.0 / eps)]).T
    with np.errstate(over="ignore"):
        coef, sig = _lstsq_complex(A, vals)
    slope, slope_sigma = coef[1], float(sig[1])
    if not math.isfinite(slope_sigma):
        # the squared residuals leave the float range once |samples| nears 1e154
        raise AdiabaticError(f"the log-slope fit of {family or 'the samples'} overflows: "
                             f"its squared residuals are outside the float range")
    peak = float(np.max(np.abs(vals)))
    scale = peak if peak > 0 else 1.0
    tol = max(_REL_TOL * scale, 1e-12)

    def extrapolate(window: int) -> complex:
        w = min(window, len(eps))
        e, v = eps[-w:], vals[-w:]
        cols = [np.ones_like(e), e]
        if w >= 4:
            cols.append(e**2)
        return complex(np.linalg.lstsq(np.vstack(cols).T, v, rcond=None)[0][0])

    estimate = extrapolate(8)
    # a convergent sequence extrapolates consistently from nested tails; a
    # log-divergent one drifts by roughly slope * (window shift)
    drift = abs(estimate - extrapolate(5))
    # second route: geometric decay of consecutive differences bounds the
    # remaining distance to the limit (log-divergence has ratio ~= 1)
    diffs = np.abs(np.diff(vals))[-5:]
    remainder = math.inf
    if len(diffs) >= 2 and np.all(diffs[:-1] > 0):
        ratios = diffs[1:] / diffs[:-1]
        r = float(np.median(ratios))
        if 0.0 <= r <= 0.9:
            remainder = float(diffs[-1]) * r / (1.0 - r)
    elif len(diffs) and np.all(diffs == 0.0):
        remainder = 0.0
    converged = drift <= tol or remainder <= tol
    return LimitReport(
        estimate=estimate,
        converged=bool(converged),
        log_slope=complex(slope),
        slope_sigma=slope_sigma,
        samples=samples,
        family=family,
    )


# --------------------------------------------------------------------------- splitting function


def _smooth_step(s):
    """C-infinity step: 0 for s <= -1, 1 for s >= 1, rho(s) + rho(-s) = 1.

    The negative branch is defined as one minus the positive branch, so the
    antisymmetry identity holds bitwise, not just to rounding.
    """
    s = np.asarray(s, dtype=float)

    def h(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    def upper_half(t):  # t >= 0
        up = np.clip((t + 1.0) / 2.0, 0.0, 1.0)
        hu = h(up)  # > 0: up >= 1/2
        return hu / (hu + h(1.0 - up))

    a = np.abs(s)
    pos_val = upper_half(a)
    return np.where(s >= 0, pos_val, 1.0 - pos_val)


class SplittingTheta(NamedTuple):
    """Regularized splitting function on n four-vectors.

    Theta(y) = rho(3n sum_j y_j^0 / |y|) for |y| >= ell, smoothly
    interpolated through a floor on the radius inside |y| < ell; rho is the
    standard exponential-bump step.
    """

    n: int
    ell: float = 1.0

    def _radius_floor(self, r):
        u = np.asarray(r, dtype=float) / self.ell
        w = _smooth_step(4.0 * u - 3.0)  # 0 for u <= 1/2, 1 for u >= 1
        return self.ell * (w * u + (1.0 - w))


def theta_eval(theta: SplittingTheta, ys) -> float | np.ndarray:
    """Evaluate Theta_n on a list of n four-vectors (or a batch of lists)."""
    ys = np.asarray(ys, dtype=float)
    single = ys.ndim == 2
    if single:
        ys = ys[None]
    if ys.shape[1] != theta.n or ys.shape[2] != 4:
        raise AdiabaticError(f"expected shape (batch, {theta.n}, 4)")
    t0 = np.sum(ys[:, :, 0], axis=1)
    r = np.sqrt(np.sum(ys**2, axis=(1, 2)))
    denom = theta._radius_floor(r)
    out = _smooth_step(3.0 * theta.n * t0 / denom)
    return float(out[0]) if single else out


# --------------------------------------------------------------------------- interpolated curves


_QMAX = 60.0  # end of the curves' grids; np.interp clamps beyond it


class _Curve:
    """Linear interpolation of a complex function of q^2: its values vals at
    the 900 nodes u of the asinh grid q^2 = delta sinh(u) over [-_QMAX, _QMAX],
    delta = 1e-7 (log-dense near zero, where the singularities live)."""

    def __init__(self, fn: Callable[[float], complex]):
        """fn maps one q^2 to its complex value; it is called once per node."""
        self.delta = 1e-7
        umax = math.asinh(_QMAX / self.delta)
        self.u = np.linspace(-umax, umax, 900)
        self.vals = np.array([fn(q2) for q2 in (self.delta * np.sinh(self.u)).tolist()], complex)

    def __call__(self, q2):
        # np.interp takes complex values directly: one search per point
        return np.interp(np.arcsinh(np.asarray(q2, dtype=float) / self.delta), self.u, self.vals)


# --------------------------------------------------------------------------- second-order kit


_UV_SCALE = 3.0  # the pair density's UV weight is exp(-s / _UV_SCALE^2)


class SecondOrderKit(NamedTuple):
    """Shared numeric pieces of the second-order demonstrations.

    feynman_pair(q^2): the massless Feynman-pair integral built from its
    spectral representation (flat two-body density with a smooth UV weight,
    _UV_SCALE), in exponential integrals (_pair_dispersion); log-divergent at
    q^2 = 0 with an i pi theta(q^2) discontinuity.
    normalized_bubble(q^2): the model's self-energy, the bubble centrally
    normalized to the model's derived omega (analytic near zero momentum).
    Both are _Curves on |q^2| <= _QMAX.
    onshell_pair(q0, r, q2): the massless on-shell pair value 1/(8 pi) on its
    support theta(q^2) theta(-+q0), advanced and retarded.
    """

    feynman_pair: _Curve
    normalized_bubble: _Curve
    ps0: float

    @staticmethod
    def build(se: SelfEnergy) -> "SecondOrderKit":
        """The kit of the self-energy se (model_self_energy of a model)."""
        flat = SpectralDensity(
            threshold=0.0,
            growth=-math.inf,
            closed_form=functools.partial(_pair_dispersion, _UV_SCALE**2),
        )
        se_flat = SelfEnergy(flat, n_sub=0)
        return SecondOrderKit(
            feynman_pair=_Curve(lambda q2: -0.5j * dispersion_eval(se_flat, q2, "feynman")),
            normalized_bubble=_Curve(lambda q2: dispersion_eval(se, q2, "feynman")),
            ps0=two_body_phase_space(0.0, 0.0, 1.0),
        )

    def onshell_pair(self, q0, r, q2, weight: str = "one"):
        """(advanced, retarded) at q0 and r = |qvec| (arrays that broadcast),
        given q2 = q0^2 - r^2: the light-cone mask and the f-profile weight
        are shared, only the time sign's mask differs."""
        on = self.ps0 * (q2 > 0)
        if weight == "vanishing":
            e2 = q0**2 + r**2
            on = on * (e2 / (1.0 + e2))
        return on * (q0 < 0), on * (q0 > 0)


@functools.cache
def _kit(se: SelfEnergy) -> SecondOrderKit:
    """The kit, built once per self-energy; equal models give equal
    self-energies (bubble_density is built once per mass)."""
    return SecondOrderKit.build(se)


# --------------------------------------------------------------------------- 2d radial smearing


_N_TIME, _N_RADIUS = 40, 40  # orders of the Hermite and Laguerre rules of _radial_nodes
_N_KAPPA, _N_Q = 20, 14  # gl_vs_eg_second_order's kappa rule and per-axis q rules


def _time_centers(family: ScaledTestFamily) -> list[tuple[float, float]]:
    """The (time center, weight) of each component of the family.  Both
    demonstrations reduce a 4-D smearing to the time axis and the spatial
    radius, so another dimension or a spatial center is an AdiabaticError."""
    if family.dim != 4:
        raise AdiabaticError(f"the demonstrations need a 4-dimensional family, got dim {family.dim}")
    if any(abs(x) > 0 for c in family.centers for x in c[1:]):
        raise AdiabaticError("the demonstrations need time-directed centers")
    return [(c[0], w) for c, w in zip(family.centers, family.weights)]


def _radial_nodes(family: ScaledTestFamily, eps: float):
    """Nodes for E[f(q0, |qvec|)] under the two-fold convolution of the
    scaled profile with itself (variance doubles, time centers add): one
    component per distinct summed time center, weighted by the summed
    products of the weights of the pairs that share it."""
    s = math.sqrt(2.0) * eps * family.sigma
    h, wh = _gauss_axis(s, _N_TIME)
    # r-measure: r^2 exp(-r^2 / 2 s^2) dr -> generalized Laguerre alpha=1/2
    r, wr = _gauss_radius(s, _N_RADIUS, 0.5)
    centers = _time_centers(family)
    merged: dict[float, float] = {}
    for ti, wi in centers:
        for tj, wj in centers:
            merged[ti + tj] = merged.get(ti + tj, 0.0) + wi * wj
    return [(wc, eps * t + h, wh) for t, wc in merged.items()], r, wr


@functools.lru_cache(maxsize=None)
def _laguerre(n: int, alpha: float):
    """Gauss nodes/weights for integral_0^inf f(t) t^alpha e^(-t) dt, computed
    once per rule (callers share the arrays and must not modify them).

    Nodes: eigenvalues of the Jacobi matrix, polished by two Newton steps.
    Weights: Gamma(n + alpha + 1) t / (n! (n + 1)^2 L_{n+1}^alpha(t)^2),
    relatively accurate also where they are tiny (the Golub-Welsch
    eigenvector weights are only absolutely so).  The three-term recurrence
    runs on p_k = L_k^alpha / B_k, B_k = binom(k + alpha, k), and on
    d_k = p_k - p_{k-1}, which keeps small t free of cancellation.
    """
    k = np.arange(1, n)
    t = np.linalg.eigvalsh(np.diag(2.0 * np.arange(n) + alpha + 1.0)
                           + np.diag(np.sqrt(k * (k + alpha)), -1))

    def p_d(deg):
        p, d = np.ones_like(t), np.zeros_like(t)
        for j in range(deg):
            d = (j * d - t * p) / (j + alpha + 1.0)
            p = p + d
        return p, d

    for _ in range(2):
        # t L_n' = n L_n - (n + alpha) L_{n-1} = n B_n d_n
        p, d = p_d(n)
        t = t - t * p / (n * d)
    # the weight formula with L_{n+1} = B_{n+1} p_{n+1}
    scale = math.gamma(alpha + 1.0) ** 2 * math.factorial(n) / (
        (n + alpha + 1.0) ** 2 * math.gamma(n + alpha + 1.0))
    return t, scale * t / p_d(n + 1)[0] ** 2


def _smear_radial(family, eps, f2d) -> tuple[complex, complex]:
    """Smearings of the advanced and retarded values: f2d(q0, r), on a column
    of time nodes and a row of radii, returns the pair of arrays for time signs
    -1 and +1, evaluated once per component of _radial_nodes (that is, once
    per distinct time center); one array returned for both is smeared once."""
    comps, r, wr = _radial_nodes(family, eps)
    adv = ret = 0.0 + 0.0j
    for wc, q0, w0 in comps:
        va, vr = f2d(q0[:, None], r[None, :])
        a = complex(np.einsum("i,j,ij->", w0, wr, va))
        b = a if vr is va else complex(np.einsum("i,j,ij->", w0, wr, vr))
        adv, ret = adv + wc * a, ret + wc * b
    return adv, ret


# --------------------------------------------------------------------------- appendix demos


class NormalizationDemoReport(NamedTuple):
    advanced: LimitReport
    retarded: LimitReport
    difference: LimitReport


def appendix_c_demo(
    model,
    c_mis: float,
    family: ScaledTestFamily | None = None,
    f_profile: str = "one",
) -> NormalizationDemoReport:
    """Second-order existence/failure of the smeared two-point limit.

    The advanced/retarded distributions are assembled as

        D^+-(q) = Sigma_n(q^2) + c_mis * [P(q^2) - OS^+-(q)]

    with Sigma_n the model's self-energy (model_self_energy): the bubble of
    its heaviest field, centrally normalized to the model's derived omega
    (the properly normalized part, analytic near q = 0), P the massless
    Feynman pair and OS^+- the on-shell pair supported on theta(q^2)
    theta(-+q0) -- the response to shifting the squared-field two-point
    normalization by a constant c_mis.  Smearing uses the two-vertex
    convolution of the scaled profile, reduced to a 2-D (q0, |qvec|)
    quadrature.  For c_mis = 0 both limits exist and agree; otherwise both
    diverge like log(1/eps) with slope proportional to c_mis.  A model whose
    block is not such a bubble (the QED builtins) is refused by
    model_self_energy; an unknown f_profile and a family that is not 4-D
    or has a spatial center are refused before the kit is built.
    """
    family = family or gaussian_family(4)
    if len(family.epsilons) < 6:
        raise AdiabaticError("family too coarse: need at least 6 epsilon points")
    if f_profile not in ("one", "vanishing"):
        raise AdiabaticError(f"unknown f-profile {f_profile!r}")
    _time_centers(family)
    kit = _kit(model_self_energy(model))

    def f(q0, r):
        # only the on-shell pair depends on the time sign
        q2 = q0**2 - r**2
        bub = kit.normalized_bubble(q2)
        if not c_mis:
            return bub, bub
        pair = kit.feynman_pair(q2)
        return [bub + c_mis * (pair - on) for on in kit.onshell_pair(q0, r, q2, f_profile)]

    adv_samples, ret_samples = zip(*(_smear_radial(family, e, f) for e in family.epsilons))
    diff = [a - b for a, b in zip(adv_samples, ret_samples)]
    advanced = fit_limit(family.epsilons, adv_samples, family=family.label + "/adv")
    # equal samples (c_mis = 0) are fitted once
    retarded = (advanced._replace(family=family.label + "/ret") if ret_samples == adv_samples
                else fit_limit(family.epsilons, ret_samples, family=family.label + "/ret"))
    return NormalizationDemoReport(
        advanced=advanced,
        retarded=retarded,
        difference=fit_limit(family.epsilons, diff, family=family.label + "/dif"),
    )


class DecayReport(NamedTuple):
    exponent: float
    exponent_sigma: float
    samples: tuple[tuple[float, float], ...]
    order0_difference: float
    normalized: bool


def gl_vs_eg_second_order(
    model,
    family: ScaledTestFamily | None = None,
    c_mis: float = 0.0,
) -> DecayReport:
    """Decay of the second-order difference between the ratio (Gell-Mann-Low
    style) and direct definitions of the smeared two-point function.

    The difference is dominated by connected cross-block terms carrying one
    massless on-shell line whose time-ordered block evaluates the normalized
    self-energy on the light cone:

        Delta(eps) = integral dmu_0(k) w(k) Phi_a(k, eps) Phi_t(k, eps),
        Phi_t(k, eps) = E[Sigma_n((q + k)^2) + c_mis],
        Phi_a(k, eps) = E[P((q - k)^2)].

    Sigma_n is the model's self-energy (model_self_energy), the bubble
    centrally normalized to the model's derived omega: a zero of order n_sub
    in q^2 at q = 0, so the on-cone evaluation is O(eps^n_sub) and, for the
    n_sub = 2 of scalar_model, the fitted exponent clears the 0.8 floor;
    mis-normalization (c_mis != 0) destroys the decay.  Models are accepted
    and refused as by appendix_c_demo.
    """
    family = family or gaussian_family(4)
    if len(family.epsilons) < 2:
        raise AdiabaticError("cannot fit a decay exponent from fewer than 2 samples")
    centers = _time_centers(family)
    kit = _kit(model_self_energy(model))
    normalized = c_mis == 0.0
    if not normalized:
        warnings.warn(
            "self-energy is not normalized at zero momentum; the decay check "
            "runs but is expected to fail"
        )

    tk, wk = _laguerre(_N_KAPPA, 0.0)
    kappa = np.sqrt(tk)  # f-weight exp(-kappa^2), measure kappa dkappa

    def grids(eps):
        # one Gaussian per component of the family, centered at eps * c0 in
        # time; q^2 (_N_Q^3) and q0 - q_par (_N_Q^2, broadcast along q_perp)
        # do not depend on kappa
        s = eps * family.sigma
        qp, wp = _gauss_axis(s, _N_Q)
        qt, wt = _gauss_radius(s, _N_Q, 0.0)
        comps = []
        for t, wc in centers:
            q0 = (eps * t + qp)[:, None, None]
            comps.append((wc, q0**2 - qp[:, None] ** 2 - qt**2, q0 - qp[:, None]))
        return np.einsum("i,j,k->ijk", wp, wp, wt), comps

    def phi(W, comps, kap, sgn):
        total = 0.0
        for wc, q2, d in comps:
            arg = q2 + 2.0 * sgn * kap * d
            if sgn > 0:
                vals = kit.normalized_bubble(arg)
                vals += c_mis
            else:
                vals = kit.feynman_pair(arg)
            vals *= W
            total += wc * complex(vals.sum())
        return total

    def delta_at(W, comps) -> complex:
        tot = 0.0 + 0.0j
        for kap, w in zip(kappa, wk):
            tot += 0.5 * w * phi(W, comps, kap, +1) * phi(W, comps, kap, -1)
        return tot / (4.0 * math.pi**2)

    deltas = [delta_at(*grids(e)) for e in family.epsilons]

    eps = np.asarray(family.epsilons)
    mags = np.array([abs(d) for d in deltas])
    mask = mags > 0
    if mask.sum() < 2:
        raise AdiabaticError("difference vanished identically; nothing to fit")
    A = np.vstack([np.log(eps[mask]), np.ones(mask.sum())]).T
    coef, sig = _lstsq_complex(A, np.log(mags[mask]).astype(complex))
    return DecayReport(
        exponent=float(coef[0].real),
        exponent_sigma=float(sig[0]),
        samples=tuple((float(e), float(m)) for e, m in zip(eps, mags)),
        # order 0: both definitions are the same smear over a unit denominator
        order0_difference=0.0,
        normalized=normalized,
    )
