"""Adiabatic machinery: scaled test families, point values of distributions
at zero momentum, the regularized splitting function and its cone geometry,
and the two second-order demonstrations (normalization necessity for the
limit's existence; agreement of the ratio and direct definitions of the
smeared two-point function).

Momentum-space normalization: a base profile integrates to one against
d^N q/(2pi)^N, so a smearing <t, g_eps> is the expectation of t under a
probability measure that concentrates at the origin as eps -> 0.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .causal_splitting import (
    SelfEnergy,
    SpectralDensity,
    _gauss_axis,
    dispersion_eval,
    model_self_energy,
)
from .exact import DomainError
from .propagators_kinematics import two_body_phase_space, two_body_phase_space_array


class AdiabaticError(DomainError):
    pass


def epsilon_schedule(n: int) -> tuple[float, ...]:
    """The n scales eps_k = 0.3 * 2^(-k/2), k = 0..n-1."""
    return tuple(0.3 * 2.0 ** (-k / 2.0) for k in range(n))


DEFAULT_EPSILONS = epsilon_schedule(12)


# --------------------------------------------------------------------------- scaled families


def _gauss_radius(s: float, n: int, alpha: float):
    """n-point rule for E[f(r)] under the density ~ r^(2 alpha + 1) exp(-r^2 / 2 s^2):
    Gauss-Laguerre with exponent alpha in t = r^2 / 2 s^2, weights summing to one."""
    t, w = _laguerre(n, alpha)
    return s * np.sqrt(2.0 * t), w / math.gamma(alpha + 1.0)


@dataclass(frozen=True)
class ScaledTestFamily:
    """Mixture-of-Gaussians profile g with unit normalization; the scaled
    family has centers eps*mu and widths eps*sigma."""

    dim: int
    sigma: float = 1.0
    centers: tuple[tuple[float, ...], ...] = ((0.0,),)
    weights: tuple[float, ...] = (1.0,)
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    hermite_order: int = 12
    label: str = "gauss"

    def __post_init__(self):
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise AdiabaticError("family weights must sum to one")
        for c in self.centers:
            if len(c) != self.dim:
                raise AdiabaticError("center dimension mismatch")

    def nodes(self, eps: float):
        """Quadrature nodes/weights such that <t, g_eps> ~ sum w_i t(x_i)."""
        x1, w1 = _gauss_axis(eps * self.sigma, self.hermite_order)
        x = np.stack([g.ravel() for g in np.meshgrid(*[x1] * self.dim, indexing="ij")], axis=-1)
        w = functools.reduce(np.multiply.outer, [w1] * self.dim).ravel()
        return (np.concatenate([x + eps * np.asarray(c) for c in self.centers]),
                np.concatenate([wc * w for wc in self.weights]))

    def pair(self, t: Callable, eps: float) -> complex:
        x, w = self.nodes(eps)
        return complex(np.sum(w * np.asarray(t(x), dtype=complex)))

    def pair_derivative(self, t: Callable, eps: float, gamma) -> complex:
        """<d^gamma t, g_eps> = (-1)^|gamma| <t, d^gamma g_eps> for a 4-multi-
        index gamma of order one or two, via exact Gaussian score functions.

        Needs a centered one-component family.
        """
        if self.centers != ((0.0,) * self.dim,):
            raise AdiabaticError("derivative probes need a centered one-component family")
        if isinstance(gamma, int):
            gamma = tuple(1 if i == gamma else 0 for i in range(self.dim))
        if len(gamma) != self.dim:
            raise AdiabaticError("multi-index dimension mismatch")
        order = sum(gamma)
        x, w = self.nodes(eps)
        s2 = (eps * self.sigma) ** 2
        if order == 1:
            mu = gamma.index(1)
            score = x[:, mu] / s2
        elif order == 2:
            if 2 in gamma:
                mu = gamma.index(2)
                score = x[:, mu] ** 2 / s2**2 - 1.0 / s2
            else:
                mu, nu = [i for i, g in enumerate(gamma) if g == 1]
                score = x[:, mu] * x[:, nu] / s2**2
        else:
            raise AdiabaticError("derivative probes support orders 1 and 2 only")
        return complex(np.sum(w * score * np.asarray(t(x), dtype=complex)))


def gaussian_family(dim: int, sigma: float = 1.0, epsilons=DEFAULT_EPSILONS,
                    hermite_order: int = 12, label: str = "gauss") -> ScaledTestFamily:
    return ScaledTestFamily(
        dim=dim,
        sigma=sigma,
        centers=((0.0,) * dim,),
        weights=(1.0,),
        epsilons=tuple(epsilons),
        hermite_order=hermite_order,
        label=label,
    )


def asymmetric_family(dim: int, shift: float = 1.0, sigma: float = 0.7,
                      epsilons=DEFAULT_EPSILONS, hermite_order: int = 12) -> ScaledTestFamily:
    """Two off-center components with unequal weights (time direction)."""
    c1 = (shift,) + (0.0,) * (dim - 1)
    c2 = (-0.5 * shift,) + (0.0,) * (dim - 1)
    return ScaledTestFamily(
        dim=dim,
        sigma=sigma,
        centers=(c1, c2),
        weights=(0.75, 0.25),
        epsilons=tuple(epsilons),
        hermite_order=hermite_order,
        label="asym",
    )


# --------------------------------------------------------------------------- limit fitting


@dataclass
class LimitReport:
    estimate: complex
    converged: bool
    log_slope: complex
    slope_sigma: float
    samples: tuple[tuple[float, complex], ...]
    family: str = ""
    note: str = ""


def _lstsq_complex(A: np.ndarray, y: np.ndarray):
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = max(len(y) - A.shape[1], 1)
    s2 = float(np.sum(np.abs(resid) ** 2)) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    return coef, np.sqrt(np.abs(np.diag(cov)))


def fit_limit(epsilons: Sequence[float], values: Sequence[complex],
              rel_tol: float = 1e-4, family: str = "") -> LimitReport:
    """Fit v = a + b log(1/eps) and decide convergence from the tail.

    The log slope and its 2-sigma band quantify divergence.  Convergence is
    a settledness criterion: on a geometric schedule the consecutive
    differences of a log-divergent sequence are constant, while those of a
    convergent sequence decay, so the sequence counts as converged when its
    last differences are below the relative tolerance.  The estimate is a
    Richardson-style extrapolation (linear-in-eps fit on the tail).
    """
    eps = np.asarray(epsilons, dtype=float)
    vals = np.asarray(values, dtype=complex)
    if len(eps) < 3:
        raise AdiabaticError("need at least 3 epsilon samples to fit")
    A = np.vstack([np.ones_like(eps), np.log(1.0 / eps)]).T
    coef, sig = _lstsq_complex(A, vals)
    slope, slope_sigma = coef[1], float(sig[1])
    scale = float(np.max(np.abs(vals))) if np.max(np.abs(vals)) > 0 else 1.0
    tol = max(rel_tol * scale, 1e-12)

    def extrapolate(window: int) -> complex:
        w = min(window, len(eps))
        e, v = eps[-w:], vals[-w:]
        cols = [np.ones_like(e), e]
        if w >= 4:
            cols.append(e**2)
        ct, _ = _lstsq_complex(np.vstack(cols).T, v)
        return complex(ct[0])

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
        samples=tuple((float(e), complex(v)) for e, v in zip(eps, vals)),
        family=family,
    )


def lojasiewicz_value(
    evaluate: Callable[[ScaledTestFamily, float], complex],
    family: ScaledTestFamily,
    second_family: ScaledTestFamily | None = None,
    rel_tol: float = 1e-4,
) -> LimitReport:
    """Point value at zero: limit of <t, g_eps> over the schedule.

    Converged iff the slope is insignificant and, when a second family is
    given, both families extrapolate to the same value within tolerance.
    The reported estimate is the (averaged) extrapolated common value.
    """
    vals = [evaluate(family, e) for e in family.epsilons]
    rep = fit_limit(family.epsilons, vals, rel_tol, family.label)
    if second_family is None:
        return rep
    vals2 = [evaluate(second_family, e) for e in second_family.epsilons]
    rep2 = fit_limit(second_family.epsilons, vals2, rel_tol, second_family.label)
    scale = max(abs(rep.estimate), abs(rep2.estimate), 1.0)
    agree = abs(rep.estimate - rep2.estimate) <= max(2 * rel_tol * scale, 1e-10)
    return replace(
        rep,
        estimate=0.5 * (rep.estimate + rep2.estimate),
        converged=bool(rep.converged and rep2.converged and agree),
        note="" if agree else f"families disagree: {rep.estimate} vs {rep2.estimate}",
    )


def lemma51_check(t: Callable, family: ScaledTestFamily,
                  second_family: ScaledTestFamily | None = None) -> LimitReport:
    """Smearing limit of a continuous polynomially bounded function: the
    estimate approaches t(0) with an order set by the smoothness at zero."""
    return lojasiewicz_value(lambda fam, e: fam.pair(t, e), family, second_family)


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
        hu, hd = h(up), h(1.0 - up)
        with np.errstate(invalid="ignore"):
            return np.where(hu + hd > 0, hu / (hu + hd), 1.0)

    a = np.abs(s)
    pos_val = upper_half(a)
    return np.where(s >= 0, pos_val, 1.0 - pos_val)


@dataclass(frozen=True)
class SplittingTheta:
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


# --------------------------------------------------------------------------- cone geometry


def _in_closed_cone(v, sign: int) -> bool:
    v = np.asarray(v, dtype=float)
    t = sign * v[0]
    return bool(t >= 0.0 and v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2 >= 0.0)


def cone_contains(points: Sequence[tuple], sign: int) -> bool:
    """Membership with a given assignment: every (y, x) pair must satisfy
    y in x +- closed forward cone."""
    if sign not in (+1, -1):
        raise AdiabaticError("sign must be +1 or -1")
    return all(
        _in_closed_cone(np.asarray(y, dtype=float) - np.asarray(x, dtype=float), sign)
        for y, x in points
    )


def gamma_cone_member(ys, xs, sign: int) -> bool:
    """Membership in the cone Gamma^+-_{n,m}: some assignment u with
    y_j in x_{u(j)} +- closed forward cone; u(j) is free per j."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    for y in ys:
        if not any(_in_closed_cone(y - x, sign) for x in xs):
            return False
    return True


# --------------------------------------------------------------------------- interpolated curves


class _Curve:
    """Linear interpolation of a complex function of q^2 on an asinh grid
    (log-dense near zero, where the interesting singularities live)."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], qmax: float, npts: int = 900,
                 delta: float = 1e-7):
        """fn maps the whole q^2 grid to its complex values in one call."""
        self.delta = delta
        umax = math.asinh(qmax / delta)
        u = np.linspace(-umax, umax, npts)
        q2 = delta * np.sinh(u)
        self.u = u
        self.vals = np.asarray(fn(q2), dtype=complex)
        self.re, self.im = self.vals.real, self.vals.imag

    def __call__(self, q2):
        # np.interp takes complex values directly: one search per point
        return np.interp(np.arcsinh(np.asarray(q2, dtype=float) / self.delta), self.u, self.vals)


# --------------------------------------------------------------------------- second-order kit


_QMAX = 60.0  # end of the curves' grids; np.interp clamps beyond it


@dataclass(frozen=True)
class SecondOrderKit:
    """Shared numeric pieces of the second-order demonstrations.

    feynman_pair(q^2): the massless Feynman-pair integral built from its
    spectral representation (flat two-body density with a smooth UV weight);
    log-divergent at q^2 = 0 with an i pi theta(q^2) discontinuity.
    normalized_bubble(q^2): the model's self-energy, the bubble centrally
    normalized to the model's derived omega (analytic near zero momentum).
    onshell_pair(q0, r): the massless on-shell pair value 1/(8 pi) on its
    support; support theta(q^2) theta(-+q0) selects advanced/retarded.
    """

    pair_curve: _Curve
    bubble_curve: _Curve
    ps0: float

    @staticmethod
    def build(se: SelfEnergy, uv_scale: float = 3.0) -> "SecondOrderKit":
        """The kit of the self-energy se (model_self_energy of a model)."""
        flat = SpectralDensity(
            fn=lambda s: (two_body_phase_space_array(0.0, 0.0, s)
                          * np.exp(-np.maximum(s, 0.0) / uv_scale**2)),
            threshold=0.0,
            growth=-math.inf,
        )
        se_flat = SelfEnergy(flat, n_sub=0)
        return SecondOrderKit(
            pair_curve=_Curve(lambda q2: -0.5j * dispersion_eval(se_flat, q2, "feynman"), _QMAX),
            bubble_curve=_Curve(lambda q2: dispersion_eval(se, q2, "feynman"), _QMAX),
            ps0=two_body_phase_space(0.0, 0.0, 1.0),
        )

    def feynman_pair(self, q2):
        return self.pair_curve(q2)

    def normalized_bubble(self, q2):
        return self.bubble_curve(q2)

    def onshell_pair(self, q0, r, time_sign: int, weight: str = "one"):
        q0 = np.asarray(q0, dtype=float)
        r = np.asarray(r, dtype=float)
        q2 = q0**2 - r**2
        sup = (q2 > 0) & (time_sign * q0 > 0)
        w = np.ones_like(q2)
        if weight == "vanishing":
            e2 = q0**2 + r**2
            w = e2 / (1.0 + e2)
        elif weight != "one":
            raise AdiabaticError(f"unknown f-profile {weight!r}")
        return self.ps0 * sup * w


@functools.cache
def _kit(se: SelfEnergy, uv_scale: float) -> SecondOrderKit:
    """The kit, built once per (self-energy, uv_scale); equal models give
    equal self-energies (bubble_density is built once per mass)."""
    return SecondOrderKit.build(se, uv_scale)


# --------------------------------------------------------------------------- 2d radial smearing


_N_TIME, _N_RADIUS = 40, 40  # orders of the Hermite and Laguerre rules of _radial_nodes


def _radial_nodes(family: ScaledTestFamily, eps: float):
    """Nodes for E[f(q0, |qvec|)] under the two-fold convolution of the
    scaled profile with itself (variance doubles, time-centers add).

    Spatial centers must vanish so the radial reduction applies.
    """
    s = math.sqrt(2.0) * eps * family.sigma
    h, wh = _gauss_axis(s, _N_TIME)
    # r-measure: r^2 exp(-r^2 / 2 s^2) dr -> generalized Laguerre alpha=1/2
    r, wr = _gauss_radius(s, _N_RADIUS, 0.5)
    comps = []
    for (ci, wc1) in zip(family.centers, family.weights):
        if any(abs(c) > 0 for c in ci[1:]):
            raise AdiabaticError("radial reduction needs time-directed centers")
        for (cj, wc2) in zip(family.centers, family.weights):
            comps.append((wc1 * wc2, eps * (ci[0] + cj[0]) + h, wh))
    return comps, r, wr


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
    """Smearings of the advanced and retarded values: f2d(q0, r) returns the
    pair of arrays for time signs -1 and +1.  Components with the same time
    center share one evaluation; each still adds its own weighted term."""
    comps, r, wr = _radial_nodes(family, eps)
    adv = ret = 0.0 + 0.0j
    smeared = {}
    for wc, q0, w0 in comps:
        key = q0.tobytes()
        if key not in smeared:
            Q0, R = np.meshgrid(q0, r, indexing="ij")
            smeared[key] = [complex(np.einsum("i,j,ij->", w0, wr, v)) for v in f2d(Q0, R)]
        a, b = smeared[key]
        adv, ret = adv + wc * a, ret + wc * b
    return adv, ret


# --------------------------------------------------------------------------- appendix demos


@dataclass
class NormalizationDemoReport:
    advanced: LimitReport
    retarded: LimitReport
    difference: LimitReport
    c_mis: float
    f_profile: str


def appendix_c_demo(
    model,
    c_mis: float,
    family: ScaledTestFamily | None = None,
    f_profile: str = "one",
    uv_scale: float = 3.0,
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
    diverge like log(1/eps) with slope proportional to c_mis.
    """
    if model.name != "scalar_model":
        warnings.warn("demonstration is calibrated for the two-scalar cubic model")
    family = family or gaussian_family(4)
    if len(family.epsilons) < 6:
        raise AdiabaticError("family too coarse: need at least 6 epsilon points")
    kit = _kit(model_self_energy(model), uv_scale)

    def f(q0, r):
        # only the on-shell pair depends on the time sign
        q2 = q0**2 - r**2
        bub = kit.normalized_bubble(q2)
        if not c_mis:
            return bub, bub
        pair = kit.feynman_pair(q2)
        return [bub + c_mis * (pair - kit.onshell_pair(q0, r, sign, f_profile))
                for sign in (-1, +1)]

    adv_samples, ret_samples = zip(*(_smear_radial(family, e, f) for e in family.epsilons))
    diff = [a - b for a, b in zip(adv_samples, ret_samples)]
    return NormalizationDemoReport(
        advanced=fit_limit(family.epsilons, adv_samples, family=family.label + "/adv"),
        retarded=fit_limit(family.epsilons, ret_samples, family=family.label + "/ret"),
        difference=fit_limit(family.epsilons, diff, family=family.label + "/dif"),
        c_mis=c_mis,
        f_profile=f_profile,
    )


@dataclass
class DecayReport:
    exponent: float
    exponent_sigma: float
    samples: tuple[tuple[float, float], ...]
    order0_difference: float
    normalized: bool


def gl_vs_eg_second_order(
    model,
    family: ScaledTestFamily | None = None,
    c_mis: float = 0.0,
    uv_scale: float = 3.0,
    n_kappa: int = 20,
    n_q: int = 14,
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
    mis-normalization (c_mis != 0) destroys the decay.
    """
    family = family or gaussian_family(4)
    if len(family.epsilons) < 2:
        raise AdiabaticError("cannot fit a decay exponent from fewer than 2 samples")
    if any(abs(x) > 0 for c in family.centers for x in c[1:]):
        raise AdiabaticError("the light-cone reduction needs time-directed centers")
    kit = _kit(model_self_energy(model), uv_scale)
    normalized = c_mis == 0.0
    if not normalized:
        warnings.warn(
            "self-energy is not normalized at zero momentum; the decay check "
            "runs but is expected to fail"
        )

    tk, wk = _laguerre(n_kappa, 0.0)
    kappa = np.sqrt(tk)  # f-weight exp(-kappa^2), measure kappa dkappa

    def grids(eps):
        # one Gaussian per component of the family, centered at eps * c0 in
        # time; q^2 and q0 - q_par do not depend on kappa
        s = eps * family.sigma
        qp, wp = _gauss_axis(s, n_q)
        qt, wt = _gauss_radius(s, n_q, 0.0)
        comps = []
        for c, wc in zip(family.centers, family.weights):
            Q0, QP, QT = np.meshgrid(eps * c[0] + qp, qp, qt, indexing="ij")
            comps.append((wc, Q0**2 - QP**2 - QT**2, Q0 - QP))
        return np.einsum("i,j,k->ijk", wp, wp, wt), comps

    def phi(W, comps, kap, sgn):
        total = 0.0
        for wc, q2, d in comps:
            arg = q2 + 2.0 * sgn * kap * d
            vals = kit.normalized_bubble(arg) + c_mis if sgn > 0 else kit.feynman_pair(arg)
            total += wc * complex(np.sum(W * vals))
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
