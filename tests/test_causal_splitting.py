"""Dispersion splitting, central normalization, freedom basis, scaling degree."""
import math
from pathlib import Path

import numpy as np
import pytest

from egqft.causal_splitting import (
    SelfEnergy,
    SpectralDensity,
    SplittingError,
    bubble_density,
    central_normalize,
    dispersion_eval,
    freedom_basis,
    model_self_energy,
    scaling_degree_estimate,
)
from egqft.model_registry import BUILTIN_NAMES, load_model

M = 1.0
RHO = bubble_density(M, M)
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

    kit = SecondOrderKit.build(model_self_energy(builtin("scalar_model")), uv_scale=3.0)
    flat = SpectralDensity(
        fn=lambda s: two_body_phase_space(0.0, 0.0, s) * math.exp(-s / 9.0) if s > 0 else 0.0,
        threshold=0.0,
        growth=-math.inf,
    )
    se_pair, se_bubble = SelfEnergy(flat), central_normalize(SelfEnergy(RHO), 2)
    curves = [
        (kit.pair_curve, lambda q2: -0.5j * _cauchy_reference(se_pair, q2)),
        (kit.bubble_curve, lambda q2: _cauchy_reference(se_bubble, q2)),
    ]
    for curve, reference in curves:
        nodes = np.arange(4, curve.u.size, 9)
        q2s = curve.delta * np.sinh(curve.u[nodes])
        below_cut = (0 < q2s) & (q2s < 4 * M * M)
        assert (q2s < 0).any() and below_cut.any() and (q2s > 4 * M * M).any()
        for i, q2 in zip(nodes, q2s):
            want = reference(float(q2))
            got = complex(curve.re[i], curve.im[i])
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


def test_bubble_two_subtractions_closed_form():
    se = central_normalize(SelfEnergy(RHO), omega=2)
    q2s = np.array([-50.0, -5.0, -0.5, -0.05, 0.05, 0.5, 2.0, 3.9, 3.999999,
                    4.000001, 4.1, 5.0, 10.0, 50.0])
    got = dispersion_eval(se, q2s)
    for q2, v in zip(q2s, got):
        want = _bubble_two_subtractions(float(q2))
        assert abs(v - want) <= 1e-10 * abs(want), (q2, v, want)


def test_dispersion_array_matches_scalar_all_modes():
    q2s = [-7.5, -1e-3, 0.0, 1e-3, 2.0, 3.99, 4.01, 6.0, 30.0, 500.0]
    for n in (1, 2):
        se = SelfEnergy(RHO, n_sub=n)
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


def test_near_threshold_sweep_converges_or_names_rounding_reach():
    """q^2 = 4 + 10^-k on the once-subtracted bubble: each point matches the
    closed form Sigma_1 = J / (4 pi) or raises naming the threshold's rounding
    reach; every k <= 8 converges."""
    se = SelfEnergy(RHO, n_sub=1)
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
        dispersion_eval(SelfEnergy(RHO, n_sub=1), np.array([2.0, 4.0 + 1e-10]))


@pytest.mark.parametrize("model", [*BUILTIN_NAMES, "two_scalar.model"])
def test_model_self_energy_subtracts_twice_or_needs_a_mass_gap(model):
    """The self-energy blocks of the builtins and of two_scalar.model have
    omega = 2, so central normalization subtracts twice; a massless model
    has no mass gap to normalize in."""
    spec = load_model(str(GOLDEN / model) if model.endswith(".model") else model)
    if max(e.numbers.mass for e in spec.fields.entries) == 0.0:
        with pytest.raises(SplittingError, match="needs a mass gap"):
            model_self_energy(spec)
        return
    se = model_self_energy(spec)
    assert se.n_sub == 2 and se.density is bubble_density(1.0, 1.0)
    # an integer n_sub is taken as given
    assert model_self_energy(spec, 0) == SelfEnergy(bubble_density(1.0, 1.0), 0)
