"""Dispersion splitting, central normalization, freedom basis, scaling degree."""
import functools
import itertools
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egqft.adiabatic_limits import scaling_degree_estimate
from egqft.causal_splitting import (
    SelfEnergy,
    SpectralDensity,
    SplittingError,
    _bubble_j,
    _bubble_taylor,
    _pair_dispersion,
    _series_radius,
    bubble_density,
    central_normalize,
    dispersion_eval,
    model_self_energy,
)
from egqft.model_registry import BUILTIN_NAMES, builtin, load_model
from egqft.propagators_kinematics import two_body_phase_space

M = 1.0
RHO = bubble_density(M, M)
LAM = 3.0  # UV scale of the massless pair, as in the second-order kit
# the massless pair exp(-s / LAM^2) / (8 pi) with its closed form
PAIR = SpectralDensity(
    threshold=0.0,
    growth=-math.inf,
    closed_form=functools.partial(_pair_dispersion, LAM**2),
)
GOLDEN = Path(__file__).with_name("golden")


def two_body_phase_space_array(m1: float, m2: float, s) -> np.ndarray:
    """The two-body phase space elementwise on an array of s, without the
    timelike check: sqrt(lambda(s, m1^2, m2^2)) / (8 pi s) above (m1 + m2)^2
    and 0 at and below.  The root is sqrt(s - (m1 + m2)^2) sqrt(s - (m1 -
    m2)^2), divided by s before 8 pi, so that it keeps full relative
    precision at threshold and no step overflows at any finite s."""
    s = np.asarray(s, dtype=float)
    above = s > (m1 + m2) ** 2
    root = np.sqrt(np.where(above, s - (m1 + m2) ** 2, 0.0))
    root *= np.sqrt(np.where(above, s - (m1 - m2) ** 2, 0.0))
    return root / np.where(above, s, 1.0) / (8.0 * math.pi)


def rho(s, m=M):
    """rho(s) of bubble_density(m, m): the complete-contraction weight 2 times
    the two-body phase space."""
    return 2 * two_body_phase_space_array(m, m, s)


def kallen_phase_space(m1, m2, s):
    lam = (s - m1 * m1 - m2 * m2) ** 2 - 4 * m1 * m1 * m2 * m2
    if s <= (m1 + m2) ** 2 or lam <= 0:
        return 0.0
    return math.sqrt(lam) / (8.0 * math.pi * s)


def test_bubble_density_examples():
    assert rho(RHO.threshold) == 0.0
    assert RHO.threshold == 4.0 * M * M
    for s in (4.5, 9.0, 40.0):
        assert rho(s) == pytest.approx(2.0 * kallen_phase_space(M, M, s), rel=1e-9)
    flat = bubble_density(0.0, 0.0)
    assert flat.threshold == 0.0
    vals = [rho(s, 0.0) for s in (0.5, 3.0, 11.0)]
    assert all(v == pytest.approx(2.0 / (8 * math.pi), rel=1e-9) for v in vals)


@pytest.mark.parametrize("m1, m2", [(1.0, 1.0), (0.5, 1.5), (0.25, 0.25), (0.0, 0.0)])
def test_phase_space_matches_the_array_reference_bit_for_bit(m1, m2):
    """two_body_phase_space equals the numpy reference bit for bit on a grid
    through the threshold: the ulps around it, a span of it, and huge s."""
    s0 = (m1 + m2) ** 2 or 1.0  # a threshold at 0 (s > 0 only) takes the scale 1
    ulps = []
    for toward in (0.0, math.inf):
        x = s0
        for _ in range(8):
            x = math.nextafter(x, toward)
            ulps.append(x)
    grid = [*np.linspace(0.01 * s0, 5.0 * s0, 997), s0, *ulps, 1e160, sys.float_info.max]
    want = two_body_phase_space_array(m1, m2, grid)
    got = [two_body_phase_space(m1, m2, float(s)) for s in grid]
    assert [v.hex() for v in got] == [float(v).hex() for v in want]


def test_bubble_weight_is_the_complete_contraction_count():
    """bubble_density's constant weight 2 is the number of complete
    contractions of psi^2 with psi^2 in scalar_model."""
    from egqft.model_registry import builtin
    from egqft.symbolic_fields import Generator, index_of
    from egqft.wick_pairing import complete_pairings

    psi2 = index_of(Generator(1), Generator(1))
    terms = complete_pairings([psi2], [psi2], builtin("scalar_model"), require_full=True)
    assert len(terms) == 2
    assert rho(9.0) == pytest.approx(len(terms) * kallen_phase_space(M, M, 9.0), rel=1e-12)


def test_dispersion_subtraction_zero_and_reality():
    se = SelfEnergy(RHO, n_sub=1)
    assert dispersion_eval(se, 0.0) == 0.0
    for q2 in (-3.0, 1.0, 3.9):
        v = dispersion_eval(se, q2)
        assert abs(v.imag) < 1e-12


def test_dispersion_imaginary_part_is_density():
    se = SelfEnergy(RHO, n_sub=1)
    for q2 in (4.5, 6.0, 9.0, 25.0, 64.0):
        v = dispersion_eval(se, q2, "feynman")
        assert v.imag == pytest.approx(rho(q2), rel=1e-9)


def test_advanced_minus_retarded_is_discontinuity():
    se = SelfEnergy(RHO, n_sub=1)
    for q2 in (4.8, 7.3, 30.0):
        a = dispersion_eval(se, q2, "advanced")
        r = dispersion_eval(se, q2, "retarded")
        assert abs((a - r) - 2j * rho(q2)) < 1e-6


def test_required_subtraction_error_names_order():
    se = SelfEnergy(RHO, n_sub=0)
    with pytest.raises(SplittingError, match="n_sub >= 1"):
        dispersion_eval(se, 1.0)


def test_subtraction_change_is_polynomial():
    """Raising n_sub by one changes Sigma by a polynomial of degree n_sub."""
    for n in (1, 2):
        se_a = SelfEnergy(RHO, n_sub=n)
        se_b = SelfEnergy(RHO, n_sub=n + 1)
        q2s = np.linspace(-3.0, 3.5, 31)
        diff = np.array(
            [dispersion_eval(se_a, float(q)).real - dispersion_eval(se_b, float(q)).real
             for q in q2s]
        )
        coef = np.polyfit(q2s, diff, n)
        resid = diff - np.polyval(coef, q2s)
        assert np.max(np.abs(resid)) < 1e-8


def test_below_threshold_analyticity_taylor():
    """Sigma matches its own degree-6 Taylor expansion about an interior
    point within the Lagrange remainder bound."""
    from scipy import integrate

    se = central_normalize(SelfEnergy(RHO), omega=2)
    x0, dx = 1.0, 0.4
    # Taylor coefficients from a degree-8 polynomial fit on a local stencil
    h = 5e-2
    xs = x0 + h * np.arange(-4, 5)
    vals = np.array([dispersion_eval(se, float(x)).real for x in xs])
    poly = np.polynomial.Polynomial.fit(xs - x0, vals, 8).convert()
    taylor = sum(poly.coef[k] * dx**k for k in range(7))
    target = dispersion_eval(se, x0 + dx).real
    # Lagrange bound on |Sigma^(7)| over [x0, x0 + dx]: differentiate the
    # dispersion representation under the integral; each derivative worsens
    # the kernel by one power of (s - q^2), maximal at q^2 = x0 + dx
    def kernel7(s):
        f = rho(s) / s**se.n_sub
        base = 1.0 / (s - (x0 + dx))
        return f * math.factorial(7) * base**8 * s**2  # crude (q^2)^n growth cover

    m7 = (1.0 / math.pi) * integrate.quad(kernel7, RHO.threshold, 1e5, limit=300)[0]
    assert abs(taylor - target) <= max(m7 * dx**7 / math.factorial(7), 1e-8)


def test_central_normalize_orders():
    se = central_normalize(SelfEnergy(RHO), omega=2)
    assert se.n_sub == 2
    assert central_normalize(SelfEnergy(RHO), omega=-1).n_sub == 0
    assert central_normalize(SelfEnergy(RHO), omega=0).n_sub == 1
    flat = bubble_density(0.0, 0.0)
    with pytest.raises(SplittingError, match="mass gap"):
        central_normalize(SelfEnergy(flat), omega=2)


def test_central_zeros_at_origin():
    se = central_normalize(SelfEnergy(RHO), omega=2)
    assert abs(dispersion_eval(se, 0.0)) < 1e-8
    h = 1e-3 * M * M
    d1 = (dispersion_eval(se, h).real - dispersion_eval(se, -h).real) / (2 * h)
    d2 = (dispersion_eval(se, h / 2).real - dispersion_eval(se, -h / 2).real) / h
    richardson = (4 * d2 - d1) / 3
    assert abs(richardson) < 1e-8


def freedom_basis(omega: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Multi-indices gamma with |gamma| <= omega over 4n momentum variables:
    the polynomial coefficients multiplying the total-momentum delta."""
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
    return tuple(out)


def test_freedom_basis_counts():
    assert len(freedom_basis(0, 1)) == 1
    assert len(freedom_basis(-1, 1)) == 0
    assert len(freedom_basis(2, 1)) == 15
    fb = freedom_basis(1, 2)
    assert len(fb) == 1 + 8
    assert all(len(g) == 8 for g in fb)


def _tilted_base(dim):
    def g(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x * x, axis=-1)
        return np.exp(-0.5 * r2) * (1.0 + x[..., 0])

    return g


def test_scaling_degree_delta():
    est = scaling_degree_estimate(lambda p: p(np.zeros(4)), 4, base=_tilted_base(4))
    assert est.ok and abs(est.value - 4.0) < 0.05


def test_scaling_degree_derivative_of_delta():
    h = 1e-7

    def pairing(p):
        e = np.zeros(4)
        e[0] = h
        return -(p(e) - p(-e)) / (2 * h)

    est = scaling_degree_estimate(pairing, 4, base=_tilted_base(4))
    assert est.ok and abs(est.value - 5.0) < 0.05


def test_scaling_degree_smooth_function():
    # t(x) = exp(-|x|^2) against the tilted Gaussian probe, in closed form:
    # the tilt term integrates to zero by parity
    def pairing(p):
        lam = p.lam
        a = 1.0 + 1.0 / (2.0 * lam**2)
        return (math.pi / a) ** 2

    lambdas = [0.1 * 2.0 ** (-k / 2.0) for k in range(12)]
    est = scaling_degree_estimate(pairing, 4, lambdas=lambdas, base=_tilted_base(4))
    assert est.value <= 0.1


def _exponential_integral_pair(q2):
    """Sigma_0 of PAIR from scipy's exponential integrals: with b = |q^2| /
    LAM^2 and w0 = 1/(8 pi), w0 e^b E1(b) / pi below the cut and
    (-w0 e^-b Ei(b) + i pi w0 e^-b) / pi on it."""
    from scipy.special import exp1, expi

    w0 = 1.0 / (8 * math.pi)
    b = abs(q2) / LAM**2
    if q2 < 0:
        return w0 * math.exp(b) * exp1(b) / math.pi
    return (-w0 * math.exp(-b) * expi(b) + 1j * math.pi * w0 * math.exp(-b)) / math.pi


def test_massless_cut_dispersion_matches_exponential_integral():
    """Flat exponentially weighted density: the unsubtracted dispersion
    integral in exponential integrals on both sides of the cut, the closed
    form of _pair_dispersion against scipy.special's exp1 and expi; beyond
    |q^2| = 40 LAM^2 Ei is summed asymptotically."""
    se = SelfEnergy(PAIR, n_sub=0)
    for q2 in (-9.0, -1.0, -1e-4, 1e-4, 0.5, 2.0, 8.0):
        got = dispersion_eval(se, q2, "feynman")
        assert abs(got - _exponential_integral_pair(q2)) < 1e-12
    for q2 in (-6e3, -360.0, 359.9, 360.1, 1e3, 6e3):
        want = _exponential_integral_pair(q2)
        got = dispersion_eval(se, q2, "feynman")
        assert abs(got - want) <= 1e-13 * abs(want), (q2, got, want)


def test_kit_pair_matches_exponential_integrals_at_every_node():
    """All 900 nodes of the kit's Feynman pair, -Sigma_0 / 2 of PAIR, within
    1e-13 relative of scipy's exponential integrals; below the cut they lie
    on both sides of the switch from the series to the continued fraction
    at q^2 = -LAM^2."""
    from egqft.adiabatic_limits import SecondOrderKit

    curve = SecondOrderKit.build(model_self_energy(builtin("scalar_model"))).feynman_pair
    q2s = curve.delta * np.sinh(curve.u)
    assert curve.vals.size == 900 and q2s.min() < -LAM**2 < LAM**2 < q2s.max()
    for q2, got in zip(q2s, curve.vals):
        want = -0.5j * _exponential_integral_pair(float(q2))
        assert abs(got - want) <= 1e-13 * abs(want), (q2, got, want)


# --------------------------------------------------------------------------- closed forms against references


def _cauchy_reference(rho, se, q2, mode="feynman"):
    """Per-point reference for dispersion_eval of se, whose density is the
    function rho: adaptive QUADPACK quad on [s0, smax], smax = 100 max(1,
    |q^2|, s0 + 1), with the pole taken by the Cauchy-weight rule on a window
    around it, plus the u = 1/s tail."""
    from scipy import integrate

    n, s0 = se.n_sub, se.density.threshold
    if q2 == 0.0 and n >= 1:
        return 0j

    def f(s):
        return rho(s) / s**n

    def quad(g, a, b, **kw):
        return integrate.quad(g, a, b, limit=400, epsabs=1e-13, epsrel=1e-11, **kw)[0]

    smax = max(100.0 * max(1.0, abs(q2), s0 + 1.0), s0 + 10.0)
    if s0 < q2:
        w = min(q2 - s0, smax - q2) * 0.5
        val = quad(f, q2 - w, q2 + w, weight="cauchy", wvar=q2)
        pieces = [(s0, q2 - w), (q2 + w, smax)]
    else:
        val, pieces = 0.0, [(s0, smax)]
    val += sum(quad(lambda s: f(s) / (s - q2), a, b) for a, b in pieces)
    val += quad(lambda u: rho(1.0 / u) * u ** (n - 1) / (1.0 - q2 * u), 0.0, 1.0 / smax)
    disc = math.pi * f(q2) if q2 > s0 else 0.0
    return q2**n / math.pi * complex(val, -disc if mode == "retarded" else disc)


def test_kit_curves_match_cauchy_reference():
    """Every 9th node of both second-order curves (100 of 900, on both sides
    of 0 and of 4m^2) against the per-point Cauchy-weight reference."""
    from egqft.adiabatic_limits import SecondOrderKit
    from egqft.model_registry import builtin

    kit = SecondOrderKit.build(model_self_energy(builtin("scalar_model")))

    def flat(s):
        return two_body_phase_space(0.0, 0.0, s) * math.exp(-s / 9.0) if s > 0 else 0.0

    se_pair, se_bubble = SelfEnergy(PAIR), central_normalize(SelfEnergy(RHO), 2)
    curves = [
        (kit.feynman_pair, lambda q2: -0.5j * _cauchy_reference(flat, se_pair, q2)),
        (kit.normalized_bubble, lambda q2: _cauchy_reference(rho, se_bubble, q2)),
    ]
    for curve, reference in curves:
        nodes = np.arange(4, curve.u.size, 9)
        q2s = curve.delta * np.sinh(curve.u[nodes])
        below_cut = (0 < q2s) & (q2s < 4 * M * M)
        assert (q2s < 0).any() and below_cut.any() and (q2s > 4 * M * M).any()
        for i, q2 in zip(nodes, q2s):
            want = reference(float(q2))
            got = curve.vals[i]
            assert abs(got - want) <= 1e-10 * abs(want), (q2, got, want)


def _bubble_two_subtractions(z):
    """Closed form of the equal-mass (m = 1) bubble with two subtractions at 0.

    With beta = sqrt(1 - 4/z), J(z) = (z/pi) int_4^inf ds beta(s) / (s (s - z - i0))
    is (2 - beta log((beta + 1)/(beta - 1)))/pi for z < 0,
    (2 - 2 b atan(1/b))/pi with b = sqrt(4/z - 1) for 0 < z < 4 and
    (2 - beta log((1 + beta)/(1 - beta)) + i pi beta)/pi above 4.  The density
    is beta/(4 pi), so Sigma_1 = J/(4 pi) and Sigma_2 = Sigma_1 - z/(24 pi^2).
    """
    if z < 0:
        beta = math.sqrt((z - 4.0) / z)
        j = 2.0 - beta * math.log((beta + 1.0) / (beta - 1.0))
    elif z < 4:
        b = math.sqrt((4.0 - z) / z)
        j = 2.0 - 2.0 * b * math.atan(1.0 / b)
    else:
        beta = math.sqrt((z - 4.0) / z)
        j = complex(2.0 - beta * math.log((1.0 + beta) / (1.0 - beta)), math.pi * beta)
    return j / (4.0 * math.pi**2) - z / (24.0 * math.pi**2)


def test_tagged_bubble_two_subtractions_closed_form():
    se = central_normalize(SelfEnergy(RHO), omega=2)
    for q2 in (-50.0, -5.0, -0.5, -0.05, 0.05, 0.5, 2.0, 3.9, 3.999999,
               4.000001, 4.1, 5.0, 10.0, 50.0):
        v = dispersion_eval(se, q2)
        want = _bubble_two_subtractions(q2)
        assert abs(v - want) <= 1e-10 * abs(want), (q2, v, want)


@pytest.mark.parametrize("density", [RHO, PAIR], ids=["tagged", "pair"])
def test_retarded_is_the_conjugate_feynman_value(density):
    """Both closed forms give "retarded" as the conjugate Feynman value, bit
    for bit (q^2 < 0 at odd n_sub included), with no -0.0 imaginary part;
    each value is a complex.  The pair is unsubtracted, so it has no value
    at q^2 = 0."""
    for n in (1, 2, 3) if density is RHO else (0,):
        q2s = [q2 for q2 in (-7.5, -2.0, -1e-3, 0.0, 1e-3, 1.5, 3.99, 4.01, 6.0, 30.0) if q2 or n]
        se = SelfEnergy(density, n_sub=n)

        def evaluate(mode):
            vals = [dispersion_eval(se, q2, mode) for q2 in q2s]
            assert all(type(v) is complex for v in vals), (mode, vals)
            return np.array(vals)

        got, want = evaluate("retarded"), evaluate("feynman").conjugate() + 0.0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, got, want)
        assert not np.signbit(got.imag[got.imag == 0.0]).any(), (n, got)


def test_tagged_bubble_has_a_value_within_rounding_reach():
    """q^2 = 4 + 10^-k has a value for every k, subtracted once or centrally
    (twice, scalar_model)."""
    central = model_self_energy(builtin("scalar_model"))
    assert central.density is RHO and central.n_sub == 2
    for k in range(2, 16):
        q2 = 4.0 + 10.0**-k
        got = dispersion_eval(central, q2)
        want = _bubble_two_subtractions(q2)
        assert abs(got - want) <= 1e-10 * abs(want), (k, got, want)
        once = dispersion_eval(SelfEnergy(RHO, n_sub=1), q2)
        want = want + q2 / (24.0 * math.pi**2)
        assert abs(once - want) <= 1e-10 * abs(want), (k, once, want)


def test_closed_form_only_for_equal_nonzero_masses():
    assert RHO.closed_form is not None
    assert bubble_density(0.0, 0.0).closed_form is None
    assert bubble_density(1.0, 2.0).closed_form is None


def test_density_without_a_closed_form_is_refused():
    with pytest.raises(SplittingError, match="the spectral density has no closed form"):
        dispersion_eval(SelfEnergy(bubble_density(1.0, 2.0), 1), 5.0)


def _mp_bubble(m, n, q2, dps=20):
    """Sigma_n(q^2) of bubble_density(m, m) on the Feynman side by mpmath
    quadrature, sharing no code with egqft: rho(s) = beta(s) / (4 pi), beta =
    sqrt(1 - s0/s), s0 = 4 m^2, so in s = s0 + t^2 the measure rho(s) ds / s^n
    is t^2 / (2 pi s^(n + 1/2)) dt, with no root left at the threshold.

    Above the threshold the principal value is taken symmetrically about the
    pole t_p = sqrt(q^2 - s0): int_0^t_p of the values at t_p +- h, each over
    its exact denominator s - q^2 = +-h (2 t_p +- h), then the rest from
    2 t_p; the i0 term adds i rho(q^2).  Returns the complex of the rounded
    real and imaginary parts."""
    import mpmath as mp

    with mp.workdps(dps):
        s0, q = 4 * mp.mpf(m) ** 2, mp.mpf(q2)

        def g(t):
            return t * t / (2 * mp.pi * (s0 + t * t) ** (n + mp.mpf(1) / 2))

        d = q - s0
        if d < 0:
            edges = sorted({0, mp.sqrt(-d), mp.sqrt(s0)}) + [mp.inf]
            pv = mp.quad(lambda t: g(t) / (t * t - d), edges)
            im = 0
        else:
            tp = mp.sqrt(d)
            pv = mp.quad(lambda h: g(tp + h) / (h * (2 * tp + h)) - g(tp - h) / (h * (2 * tp - h)),
                         [0, tp])
            edges = [2 * tp, 2 * tp + mp.sqrt(s0), mp.inf]
            pv += mp.quad(lambda t: g(t) / ((t - tp) * (t + tp)), edges)
            im = mp.sqrt(1 - s0 / q) / (4 * mp.pi)
        return complex(float(q**n * pv / mp.pi), float(im))


@settings(max_examples=150, deadline=None)
@given(
    m=st.floats(0.25, 4.0),
    n=st.sampled_from([1, 2, 3]),
    z=st.floats(-50.0, 50.0).filter(lambda z: abs(z - 4.0) > 1e-6 and z != 0.0),
    side=st.floats(-0.01, 0.01),
    huge=st.floats(1e150, sys.float_info.max),
)
def test_property_closed_form_bubble(m, n, z, side, huge):
    """For random masses, orders and q^2 = z m^2: the closed form matches
    the mpmath dispersion integral, "retarded" is its conjugate,
    Im Sigma = rho on the cut and 0.0 below it, Sigma(0) = 0.0, and the
    series and the log/atan branch agree on both sides of their switch.
    Im Sigma = rho holds, finite, out to the largest float."""
    tagged = bubble_density(m, m)
    q2 = z * m * m
    got = dispersion_eval(SelfEnergy(tagged, n), q2)
    want = _mp_bubble(m, n, q2)
    assert abs(got - want) <= 1e-10 * abs(want), (got, want)
    assert dispersion_eval(SelfEnergy(tagged, n), q2, "retarded") == got.conjugate()
    if q2 > tagged.threshold:
        assert got.imag == float(rho(q2, m))
    else:
        assert got.imag == 0.0 and dispersion_eval(SelfEnergy(tagged, n), q2, "retarded").imag == 0.0
    assert dispersion_eval(SelfEnergy(tagged, n), 0.0) == 0.0
    s0 = tagged.threshold
    for x in (_series_radius(n) * (1.0 + side), -_series_radius(n) * (1.0 + side)):
        series = _bubble_taylor(x, n)
        logs = _bubble_j(x * s0, s0) - _bubble_taylor(x, 1, n)
        assert abs(series - logs) <= 1e-12 * abs(logs), (x, series, logs)
    im = dispersion_eval(SelfEnergy(tagged, n), huge).imag
    assert im == float(rho(huge, m)) and math.isfinite(im), (huge, im)


@pytest.mark.parametrize("q2", [1e200, 1e300, sys.float_info.max])
def test_im_sigma_stays_finite_at_huge_q2(q2):
    """Im Sigma of the unit-mass bubble tends to w / (8 pi) = 1/(4 pi); its
    root is taken as a product of two roots, so no step overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3):
            im = dispersion_eval(SelfEnergy(RHO, n), q2).imag
            assert im == float(rho(q2)) and abs(im - 1 / (4 * math.pi)) <= 2e-17
    if q2 == 1e200:
        assert im == 0.07957747154594767


@pytest.mark.parametrize("m", [1.0, 0.25, 3.0])
@pytest.mark.parametrize("q2", [4.4e307, 4.6e307, 1e308, sys.float_info.max])
@pytest.mark.parametrize("sign", [1, -1])
def test_re_sigma_1_stays_finite_at_huge_q2(m, q2, sign):
    """Re Sigma_1 on both sides of q^2 = 0, where the log's argument 1 + 4 q^2/s0
    overflows (past about 4.5e307 s0/4), against the same closed form in
    40-digit arithmetic: J = 2 - beta log((1 + beta)^2 |q^2| / s0), beta =
    sqrt(1 - s0/q^2) on both branches."""
    import mpmath as mp

    q2 *= sign
    got = dispersion_eval(SelfEnergy(bubble_density(m, m), 1), q2).real
    with mp.workdps(40):
        x, s0 = mp.mpf(q2), mp.mpf(4 * m * m)
        beta = mp.sqrt(1 - s0 / x)
        want = float((2 - beta * mp.log((1 + beta) ** 2 * abs(x) / s0)) / (4 * mp.pi**2))
    assert math.isfinite(got) and abs(got - want) <= 1e-12 * abs(want), (got, want)


def test_unsubtracted_zero_threshold_refuses_q2_zero_up_front():
    """The massless pair density unsubtracted at q^2 = 0: int rho(s) / s ds
    diverges like a log at s = 0, so dispersion_eval refuses before it
    evaluates anything; off q^2 = 0 it evaluates the closed form.  Every
    subtraction at q^2 = 0 diverges too, rho(0+) being 1/(8 pi), so an
    n_sub >= 1 is refused at every q^2."""
    calls = []

    def pair(q2, n):
        calls.append(q2)
        return PAIR.closed_form(q2, n)

    se = SelfEnergy(SpectralDensity(0.0, -math.inf, pair), n_sub=0)
    for q2 in (0.0, -0.0):
        with pytest.raises(SplittingError, match="diverges logarithmically at q\\^2 = 0"):
            dispersion_eval(se, q2)
    for n in (1, 2):
        for q2 in (0.0, 1.0, -1.0):
            with pytest.raises(SplittingError, match=f"needs a mass gap.*with n_sub = {n} it"):
                dispersion_eval(SelfEnergy(se.density, n), q2)
    assert calls == []
    assert math.isfinite(dispersion_eval(se, 1.0).real) and calls == [1.0]


@pytest.mark.parametrize(
    "m, n, q2",
    [
        (0.25, 3, 1.0084259891116838e-104 / 16),  # Sigma ~ 6e-317
        (1.0, 2, -3e-157),
        (4.0, 1, -1.20453828144e-312 * 16),  # q^2 itself below the normal range
        (1.0, 1, 1e-320),
    ],
)
def test_closed_form_matches_quadrature_below_the_normal_range(m, n, q2):
    """A Sigma below the smallest normal float keeps few digits, so the
    closed form rounds into that range once: it then gives the float of the
    40-digit mpmath integral, where a second rounding left them apart by up
    to 1e-8 relative."""
    got = dispersion_eval(SelfEnergy(bubble_density(m, m), n), q2)
    want = _mp_bubble(m, n, q2, dps=40)
    assert 0.0 < abs(want) < sys.float_info.min
    assert got == want


@pytest.mark.parametrize("model", [*BUILTIN_NAMES, "two_scalar.model"])
def test_model_self_energy_subtracts_twice_or_needs_a_mass_gap(model):
    """The self-energy blocks of scalar_model and of two_scalar.model have
    omega = 2, so central normalization subtracts twice; a massless model
    has no mass gap to normalize in.  The massive QED blocks are not the
    heaviest field's bubble: refused for a central and an integer n_sub."""
    spec = load_model(str(GOLDEN / model) if model.endswith(".model") else model)
    if max(e.numbers.mass for e in spec.fields.entries) == 0.0:
        with pytest.raises(SplittingError, match="needs a mass gap"):
            model_self_energy(spec)
        return
    if model.endswith("_qed_massive"):
        for n_sub in ("central", 0):
            with pytest.raises(SplittingError, match="factor 'A_0' is not an underived scalar"):
                model_self_energy(spec, n_sub)
        return
    se = model_self_energy(spec)
    assert se.n_sub == 2 and se.density is bubble_density(1.0, 1.0)
    # an integer n_sub is taken as given
    assert model_self_energy(spec, 0) == SelfEnergy(bubble_density(1.0, 1.0), 0)


@pytest.mark.parametrize("q2", [math.nan, math.inf, -math.inf])
def test_non_finite_q2_is_refused_before_any_evaluation(q2):
    """One message for a density with a closed form (the equal-mass bubble)
    and for one without (unequal masses), which is refused only after it."""
    for se in (SelfEnergy(bubble_density(1.0, 1.0), 2), SelfEnergy(bubble_density(1.0, 2.0), 1)):
        with pytest.raises(SplittingError, match=f"q\\^2 must be finite, got {q2!r}"):
            dispersion_eval(se, q2)


@pytest.mark.parametrize("n", [4, 6, 8, 12, 20])
def test_closed_form_high_orders_match_extended_precision(n):
    """Beyond n = 3 the series takes over further out (_series_radius), so
    the logs never cancel by more than about three digits.  The reference
    is the same closed form in 40-digit arithmetic, with Re J = Re(2 - beta
    log((beta + 1)/(beta - 1))) on every branch (beta imaginary in (0, 4)): at
    these orders a numerical dispersion integral to 1e-11 relative (1.2e-10
    off at n = 8, q^2 = 15 m^2) is no reference for the bound."""
    import mpmath as mp

    r = _series_radius(n)
    for x in (-1.5, -r * 1.001, -r * 0.999, 0.5 * r, r * 0.999, r * 1.001, 0.95, 3.75):
        with mp.workdps(40):
            beta = mp.sqrt(1 - 1 / mp.mpf(x))
            j = mp.re(2 - beta * mp.log((beta + 1) / (beta - 1)))
            poly = sum(mp.beta(k, 1.5) * mp.mpf(x) ** k for k in range(1, n))
            want = float((j - poly) / (4 * mp.pi**2))
        q2 = 4.0 * x
        got = dispersion_eval(SelfEnergy(RHO, n), q2).real
        assert abs(got - want) <= 1e-12 * abs(want), (x, got, want)
