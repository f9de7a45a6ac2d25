"""Dispersion splitting, central normalization, freedom basis, scaling degree."""
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egqft.causal_splitting import (
    SelfEnergy,
    SpectralDensity,
    SplittingError,
    _bubble_j,
    _bubble_taylor,
    _series_radius,
    bubble_density,
    central_normalize,
    dispersion_eval,
    freedom_basis,
    model_self_energy,
    scaling_degree_estimate,
)
from egqft.model_registry import BUILTIN_NAMES, builtin, load_model

M = 1.0
RHO = bubble_density(M, M)
# the same density without its closed form: dispersion_eval integrates it
QUAD = SpectralDensity(RHO.fn, RHO.threshold, RHO.growth)
GOLDEN = Path(__file__).with_name("golden")


def kallen_phase_space(m1, m2, s):
    lam = (s - m1 * m1 - m2 * m2) ** 2 - 4 * m1 * m1 * m2 * m2
    if s <= (m1 + m2) ** 2 or lam <= 0:
        return 0.0
    return math.sqrt(lam) / (8.0 * math.pi * s)


def test_bubble_density_examples():
    assert RHO(RHO.threshold) == 0.0
    assert RHO.threshold == 4.0 * M * M
    for s in (4.5, 9.0, 40.0):
        assert RHO(s) == pytest.approx(2.0 * kallen_phase_space(M, M, s), rel=1e-9)
    flat = bubble_density(0.0, 0.0)
    assert flat.threshold == 0.0
    vals = [flat(s) for s in (0.5, 3.0, 11.0)]
    assert all(v == pytest.approx(2.0 / (8 * math.pi), rel=1e-9) for v in vals)


def test_bubble_weight_is_the_complete_contraction_count():
    """bubble_density's constant weight 2 is the number of complete
    contractions of psi^2 with psi^2 in scalar_model."""
    from egqft.model_registry import builtin
    from egqft.symbolic_fields import Generator, index_of
    from egqft.wick_pairing import complete_pairings

    psi2 = index_of(Generator(1), Generator(1))
    terms = complete_pairings([psi2], [psi2], builtin("scalar_model"), require_full=True)
    assert len(terms) == 2
    assert RHO(9.0) == pytest.approx(len(terms) * kallen_phase_space(M, M, 9.0), rel=1e-12)


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
        assert v.imag == pytest.approx(RHO(q2), rel=1e-9)


def test_advanced_minus_retarded_is_discontinuity():
    se = SelfEnergy(RHO, n_sub=1)
    for q2 in (4.8, 7.3, 30.0):
        a = dispersion_eval(se, q2, "advanced")
        r = dispersion_eval(se, q2, "retarded")
        assert abs((a - r) - 2j * RHO(q2)) < 1e-6


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
        f = RHO(s) / s**se.n_sub
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


def test_freedom_basis_counts():
    assert len(freedom_basis(0, 1)) == 1
    assert len(freedom_basis(-1, 1)) == 0
    assert len(freedom_basis(2, 1)) == 15
    fb = freedom_basis(1, 2)
    assert len(fb) == 1 + 8
    assert all(len(g) == 8 for g in fb.indices)


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


def test_massless_cut_dispersion_matches_exponential_integral():
    """Flat exponentially weighted density: the subtracted dispersion
    integral has a closed form in exponential integrals on both sides of
    the cut, an independent oracle for the PV + i pi delta machinery."""
    from scipy.special import exp1, expi

    from egqft.propagators_kinematics import two_body_phase_space

    lam = 3.0
    w0 = 1.0 / (8 * math.pi)
    # the massless phase space is the constant two_body_phase_space(0, 0, s) = w0
    flat = SpectralDensity(
        fn=lambda s: np.where(
            s > 0, two_body_phase_space(0.0, 0.0, 1.0) * np.exp(-s / lam**2), 0.0
        ),
        threshold=0.0,
        growth=-math.inf,
    )
    se = SelfEnergy(flat, n_sub=0)

    def oracle(q2):
        b = abs(q2) / lam**2
        if q2 < 0:
            return w0 * math.exp(b) * exp1(b) / math.pi
        return (-w0 * math.exp(-b) * expi(b) + 1j * math.pi * w0 * math.exp(-b)) / math.pi

    for q2 in (-9.0, -1.0, -1e-4, 1e-4, 0.5, 2.0, 8.0):
        got = dispersion_eval(se, q2, "feynman")
        assert abs(got - oracle(q2)) < 1e-12


# --------------------------------------------------------------------------- vector dispersion pass


def _cauchy_reference(se, q2, mode="feynman"):
    """Per-point reference for dispersion_eval: adaptive QUADPACK quad on
    [s0, smax] with the pole taken by the Cauchy-weight rule on a window
    around it, plus the u = 1/s tail; smax as in dispersion_eval."""
    from scipy import integrate

    n, s0 = se.n_sub, se.density.threshold
    if q2 == 0.0 and n >= 1:
        return 0j

    def f(s):
        return se.density(s) / s**n

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
    val += quad(lambda u: se.density(1.0 / u) * u ** (n - 1) / (1.0 - q2 * u), 0.0, 1.0 / smax)
    disc = math.pi * f(q2) if q2 > s0 else 0.0
    return q2**n / math.pi * complex(val, -disc if mode == "retarded" else disc)


def test_kit_curves_match_cauchy_reference():
    """Every 9th node of both second-order curves (100 of 900, on both sides
    of 0 and of 4m^2) against the per-point Cauchy-weight reference."""
    from egqft.adiabatic_limits import SecondOrderKit
    from egqft.model_registry import builtin
    from egqft.propagators_kinematics import two_body_phase_space

    kit = SecondOrderKit.build(model_self_energy(builtin("scalar_model")))
    flat = SpectralDensity(
        fn=lambda s: two_body_phase_space(0.0, 0.0, s) * math.exp(-s / 9.0) if s > 0 else 0.0,
        threshold=0.0,
        growth=-math.inf,
    )
    se_pair, se_bubble = SelfEnergy(flat), central_normalize(SelfEnergy(RHO), 2)
    curves = [
        (kit.feynman_pair, lambda q2: -0.5j * _cauchy_reference(se_pair, q2)),
        (kit.normalized_bubble, lambda q2: _cauchy_reference(se_bubble, q2)),
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


def _check_two_subtractions(density):
    se = central_normalize(SelfEnergy(density), omega=2)
    q2s = np.array([-50.0, -5.0, -0.5, -0.05, 0.05, 0.5, 2.0, 3.9, 3.999999,
                    4.000001, 4.1, 5.0, 10.0, 50.0])
    got = dispersion_eval(se, q2s)
    for q2, v in zip(q2s, got):
        want = _bubble_two_subtractions(float(q2))
        assert abs(v - want) <= 1e-10 * abs(want), (q2, v, want)


def test_bubble_two_subtractions_closed_form():
    _check_two_subtractions(QUAD)


def test_tagged_bubble_two_subtractions_closed_form():
    _check_two_subtractions(RHO)


def _check_array_matches_scalar(density):
    q2s = [-7.5, -1e-3, 0.0, 1e-3, 2.0, 3.99, 4.01, 6.0, 30.0, 500.0]
    for n in (1, 2):
        se = SelfEnergy(density, n_sub=n)
        for mode in ("feynman", "advanced", "retarded"):
            arr = dispersion_eval(se, np.array(q2s), mode)
            assert arr.shape == (len(q2s),) and arr.dtype == complex
            for q2, v in zip(q2s, arr):
                one = dispersion_eval(se, q2, mode)
                assert isinstance(one, complex)
                assert abs(v - one) <= 1e-11 * abs(one), (n, mode, q2, v, one)
    grid = dispersion_eval(se, np.array(q2s[:9]).reshape(3, 3))
    assert grid.shape == (3, 3) and grid[0, 2] == 0.0
    assert dispersion_eval(se, np.array([])).shape == (0,)


def test_dispersion_array_matches_scalar_all_modes():
    _check_array_matches_scalar(QUAD)


def test_tagged_dispersion_array_matches_scalar_all_modes():
    _check_array_matches_scalar(RHO)


@pytest.mark.parametrize("density", [RHO, QUAD], ids=["tagged", "quadrature"])
def test_retarded_is_the_conjugate_feynman_value(density):
    """Both routes give "retarded" as the conjugate Feynman value, bit for
    bit, for scalar and array q^2 (q^2 < 0 at odd n_sub included), with no
    -0.0 imaginary part."""
    q2s = [-7.5, -2.0, -1e-3, 0.0, 1e-3, 1.5, 3.99, 4.01, 6.0, 30.0]
    for n in (1, 2, 3):
        se = SelfEnergy(density, n_sub=n)
        # the quadrature's refinement depends on the whole vector, so a scalar
        # call is compared with a scalar call
        for evaluate in (lambda mode: dispersion_eval(se, np.array(q2s), mode),
                         lambda mode: np.array([dispersion_eval(se, q2, mode) for q2 in q2s])):
            got, want = evaluate("retarded"), evaluate("feynman").conjugate() + 0.0
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, got, want)
            assert not np.signbit(got.imag[got.imag == 0.0]).any(), (n, got)


def test_near_threshold_sweep_converges_or_names_rounding_reach():
    """q^2 = 4 + 10^-k on the once-subtracted bubble, by quadrature: each
    point matches the closed form Sigma_1 = J / (4 pi) or raises naming the
    threshold's rounding reach; every k <= 8 converges."""
    se = SelfEnergy(QUAD, n_sub=1)
    for k in range(2, 16):
        q2 = 4.0 + 10.0**-k
        try:
            got = dispersion_eval(se, q2)
        except SplittingError as exc:
            assert k > 8 and "within rounding reach of the threshold" in str(exc), (k, exc)
            continue
        want = _bubble_two_subtractions(q2) + q2 / (24.0 * math.pi**2)
        assert abs(got - want) <= 1e-10 * abs(want), (k, got, want)


def test_dispersion_nonconvergence_raises():
    """A density with a non-integrable singularity inside the cut: the
    quadrature cannot converge, and says so instead of returning a number."""
    spike = SpectralDensity(
        fn=lambda s: np.where(
            (s > 4.0) & (s != 7.0), 1.0 / np.abs(np.where(s != 7.0, s - 7.0, 1.0)), 0.0
        ),
        threshold=4.0,
        growth=-math.inf,
    )
    for q2 in (2.0, np.array([-1.0, 2.0])):
        with pytest.raises(SplittingError, match="did not converge"):
            dispersion_eval(SelfEnergy(spike, n_sub=1), q2)
    # 1e-10 above threshold is below what rho sampled at float s resolves
    with pytest.raises(SplittingError, match="rounding reach of the threshold"):
        dispersion_eval(SelfEnergy(QUAD, n_sub=1), np.array([2.0, 4.0 + 1e-10]))


def test_tagged_bubble_has_a_value_within_rounding_reach():
    """The closed form needs no quadrature, so q^2 = 4 + 10^-k has a value for
    every k, subtracted once or centrally (twice, scalar_model)."""
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
    assert QUAD != RHO


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
    the quadrature of the untagged density, "retarded" is its conjugate,
    Im Sigma = rho on the cut and 0.0 below it, Sigma(0) = 0.0, and the
    series and the log/atan branch agree on both sides of their switch.
    Im Sigma = rho holds, finite, out to the largest float."""
    tagged = bubble_density(m, m)
    untagged = SpectralDensity(tagged.fn, tagged.threshold, tagged.growth)
    q2 = z * m * m
    got = dispersion_eval(SelfEnergy(tagged, n), q2)
    want = dispersion_eval(SelfEnergy(untagged, n), q2)
    assert abs(got - want) <= 1e-10 * abs(want), (got, want)
    assert dispersion_eval(SelfEnergy(tagged, n), q2, "retarded") == got.conjugate()
    if q2 > tagged.threshold:
        assert got.imag == float(tagged(q2))
    else:
        assert got.imag == 0.0 and dispersion_eval(SelfEnergy(tagged, n), q2, "retarded").imag == 0.0
    assert dispersion_eval(SelfEnergy(tagged, n), 0.0) == 0.0
    s0 = tagged.threshold
    for x in (_series_radius(n) * (1.0 + side), -_series_radius(n) * (1.0 + side)):
        series = _bubble_taylor(x, n)
        logs = _bubble_j(x * s0, s0) - _bubble_taylor(x, 1, n)
        assert abs(series - logs) <= 1e-12 * abs(logs), (x, series, logs)
    im = dispersion_eval(SelfEnergy(tagged, n), huge).imag
    assert im == float(tagged(huge)) and math.isfinite(im), (huge, im)


@pytest.mark.parametrize("q2", [1e200, 1e300, sys.float_info.max])
def test_im_sigma_stays_finite_at_huge_q2(q2):
    """Im Sigma of the unit-mass bubble tends to w / (8 pi) = 1/(4 pi); its
    root is taken as a product of two roots, so no step overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3):
            im = dispersion_eval(SelfEnergy(RHO, n), q2).imag
            assert im == float(RHO(q2)) and abs(im - 1 / (4 * math.pi)) <= 2e-17
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
    samples the density; off q^2 = 0 it integrates."""
    calls = []

    def pair(s):
        calls.append(s)
        return bubble_density(0.0, 0.0)(s) * np.exp(-np.maximum(s, 0.0) / 9.0)

    se = SelfEnergy(SpectralDensity(pair, 0.0, -math.inf), n_sub=0)
    for q2 in (0.0, -0.0, np.array([1.0, 0.0])):
        with pytest.raises(SplittingError, match="diverges logarithmically at q\\^2 = 0"):
            dispersion_eval(se, q2)
    assert calls == []
    assert math.isfinite(dispersion_eval(se, 1.0).real) and calls


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
    """A Sigma below the smallest normal float keeps few digits, so each route
    rounds into that range once: the closed form and the quadrature then give
    the same float, where a second rounding on either side left them apart by
    up to 1e-8 relative."""
    tagged = bubble_density(m, m)
    untagged = SpectralDensity(tagged.fn, tagged.threshold, tagged.growth)
    got = dispersion_eval(SelfEnergy(tagged, n), q2)
    want = dispersion_eval(SelfEnergy(untagged, n), q2)
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
def test_non_finite_q2_is_refused_before_any_evaluation(q2, monkeypatch):
    """One message on the closed-form route (the equal-mass bubble) and on
    the quadrature route (unequal masses), before any quadrature runs."""
    from egqft import causal_splitting

    def no_quadrature(*args):
        raise AssertionError("the quadrature ran")

    monkeypatch.setattr(causal_splitting, "_dispersion_pass", no_quadrature)
    for se in (SelfEnergy(bubble_density(1.0, 1.0), 2), SelfEnergy(bubble_density(1.0, 2.0), 1)):
        for arg in (q2, np.array([-1.0, q2, 5.0])):
            with pytest.raises(SplittingError, match=f"q\\^2 must be finite, got {q2!r}"):
                dispersion_eval(se, arg)


@pytest.mark.parametrize("n", [4, 6, 8, 12, 20])
def test_closed_form_high_orders_match_extended_precision(n):
    """Beyond n = 3 the series takes over further out (_series_radius), so
    the logs never cancel by more than about three digits.  The reference
    is the same closed form in 40-digit arithmetic, with Re J = Re(2 - beta
    log((beta + 1)/(beta - 1))) on every branch (beta imaginary in (0, 4)): at
    these orders the quadrature's own error (1.2e-10 at n = 8, q^2 = 15 m^2)
    exceeds the bound."""
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
