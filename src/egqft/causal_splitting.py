"""One-loop causal splitting by dispersion relations.

A SelfEnergy is a spectral density plus a subtraction order n at q^2 = 0:

    Sigma(q^2) = (q^2)^n / pi * integral_{s0}^inf ds rho(s) / (s^n (s - q^2 -+ i0))

evaluated with the i0 prescription realized as an explicit principal value
plus i pi delta decomposition (no finite-epsilon extrapolation): in closed
form for the equal-mass bubble, by adaptive quadrature otherwise.  The
central normalization chooses the minimal n making all momentum derivatives
through order omega vanish at zero; subtraction point fixed at q = 0.
"""
from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .exact import DomainError
from .power_counting import VANISHING_SECTOR, omega_general

# bench/tracer.py patches two_body_phase_space here (and the lazy `integrate`
# below); the densities call the array form
from .propagators_kinematics import two_body_phase_space  # noqa: F401
from .propagators_kinematics import two_body_phase_space_array
from .symbolic_fields import canonical_dim


def __getattr__(name):
    """`integrate`: scipy.integrate, loaded only when asked for.  Only
    bench/tracer.py asks (it wraps integrate.quad); the name goes when the
    tracer reads library-owned counters instead (ROADMAP item 1)."""
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

    closed_form, when set, maps a scalar q^2 and an order n at least the
    required one to the n-subtracted dispersion integral on the Feynman side,
    so dispersion_eval needs no quadrature.  Only the equal-mass bubble
    carries one (bubble_density); every other density leaves it None.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    threshold: float
    growth: float  # exponent; -inf for cut-off densities
    closed_form: Callable[[float, int], complex] | None = None

    def __call__(self, s):
        return self.fn(s)


@functools.cache
def bubble_density(m1: float, m2: float) -> SpectralDensity:
    """Two-particle spectral density of the one-loop bubble.

    rho(s) = w * two_body_phase_space(m1, m2, s) with threshold (m1 + m2)^2 and
    the combinatorial weight w = 2: the complete contractions of psi^2 with
    psi^2 (complete_pairings with require_full=True gives two terms).  Equal
    masses m1 = m2 > 0 carry the closed form of _bubble_dispersion.

    Built once per (m1, m2): a density holds a fresh function, so only the
    shared object makes equal masses give equal (and equally hashed)
    densities and self-energies.
    """
    w = 2
    s0 = (m1 + m2) ** 2
    closed = functools.partial(_bubble_dispersion, s0, w) if m1 == m2 > 0 else None
    return SpectralDensity(lambda s: w * two_body_phase_space_array(m1, m2, s), s0, 0.0, closed)


def _bubble_dispersion(s0: float, w: float, q2: float, n: int) -> complex:
    """Sigma_n(q^2) of rho(s) = w beta(s) / (8 pi), beta = sqrt(1 - s0/s), the
    equal-mass bubble with threshold s0 = 4m^2, on the Feynman side.

    With x = q^2/s0, Sigma_n = w / (8 pi^2) (J(x) - sum_{k<n} B(k, 3/2) x^k):
    J is the once-subtracted integral and B(k, 3/2) = int_0^1 t^(k-1)
    sqrt(1 - t) dt gives the subtraction constants, c_k = w B(k, 3/2) /
    (8 pi^2 s0^k).  The imaginary part on the cut is the density's own
    expression, so Im Sigma = rho exactly.
    """
    x = q2 / s0
    if abs(x) < _series_radius(n):
        re = w / (8.0 * math.pi**2) * _bubble_taylor(x, n)
        if abs(re) < sys.float_info.min:
            # below the normal range: summed with the factor in its first term
            # and q^2 undivided, Sigma is rounded there once, as the quadrature's is
            re = _bubble_taylor(q2, n, s0=s0, scale=w / (8.0 * math.pi**2))
        return complex(re)
    re = w / (8.0 * math.pi**2) * (_bubble_j(q2, s0) - _bubble_taylor(x, 1, n))
    if q2 <= s0:
        return complex(re)
    return complex(re, w * (math.sqrt(q2 - s0) * math.sqrt(q2) / q2 / (8.0 * math.pi)))


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

    A density with a closed form (the equal-mass bubble, m > 0) is evaluated
    point by point in elementary functions: logs and atan away from q^2 = 0,
    its Taylor series in q^2 for |q^2| < m^2 (further out from n_sub = 4 on,
    _series_radius); every other density by the quadrature of
    _dispersion_pass.  Both give the Feynman side; "retarded" conjugates it.
    A non-finite q^2 is a SplittingError on both routes, and so is q^2 = 0
    unsubtracted over a threshold at zero: there int rho(s) / s ds diverges
    like a log at s = 0, for any density that does not vanish there (the
    massless pair's is flat).
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
    xs = q.ravel().tolist()
    if not all(map(math.isfinite, xs)):
        bad = next(x for x in xs if not math.isfinite(x))
        raise SplittingError(f"q^2 must be finite, got {bad!r}")
    if n == 0 and se.density.threshold == 0.0 and 0.0 in xs:
        raise SplittingError(
            "dispersion integral diverges logarithmically at q^2 = 0: with n_sub = 0 "
            "and the threshold at zero, int rho(s) / s ds diverges at s = 0"
        )
    closed = se.density.closed_form
    if closed is not None:
        # one scalar evaluation per point; a subtracted Sigma vanishes at 0
        vals = [closed(x, n) if x or not n else 0j for x in xs]
        out = np.array(vals, dtype=complex).reshape(q.shape)
    else:
        out = np.zeros(q.shape, dtype=complex)
        # a subtracted Sigma vanishes exactly at q^2 = 0; those points need no integral
        live = q != 0.0 if n >= 1 else np.ones(q.shape, dtype=bool)
        if live.any():
            out[live] = _dispersion_pass(se, q[live])
    if mode == "retarded":
        out = out.conj() + 0.0  # + 0.0: no -0.0 imaginary parts off the cut
    return complex(out) if q.ndim == 0 else out


def _dispersion_pass(se: SelfEnergy, qs: np.ndarray) -> np.ndarray:
    """Feynman-side Sigma at every point of the 1-D array qs in one vector quadrature.

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
    out = (val + f_q * pv_log + 1j * disc) / math.pi
    # times q^n one factor at a time: a Sigma that underflows below the
    # normal range is rounded there once, as the closed form is
    for _ in range(n):
        out = out * qs
    return out


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
        if int(n_sub) >= 1 and m == 0:
            raise SplittingError(
                f"a subtracted dispersion integral needs a mass gap: the spectral "
                f"threshold is at zero, so with n_sub = {n_sub} it is "
                f"infrared-divergent at the subtraction point q^2 = 0"
            )
        se = replace(se, n_sub=int(n_sub))
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
    note: str = ""


def _tilted_probe(x):
    """exp(-|x|^2/2)(1 + x0): the x0 tilt keeps odd distributions visible."""
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    return np.exp(-0.5 * r2) * (1.0 + x[..., 0])


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
