"""Adiabatic machinery: splitting function, cones, point values, demos."""
import math
import warnings

import numpy as np
import pytest

from egqft.adiabatic_limits import (
    AdiabaticError,
    ScaledTestFamily,
    SecondOrderKit,
    SplittingTheta,
    _Curve,
    _gauss_axis,
    _gauss_radius,
    _kit,
    _laguerre,
    _radial_nodes,
    appendix_c_demo,
    asymmetric_family,
    cone_contains,
    fit_limit,
    gamma_cone_member,
    gaussian_family,
    gl_vs_eg_second_order,
    lemma51_check,
    lojasiewicz_value,
    theta_eval,
)
from egqft.causal_splitting import (
    SelfEnergy,
    bubble_density,
    central_normalize,
    dispersion_eval,
    model_self_energy,
)
from egqft.model_registry import builtin

SM = builtin("scalar_model")


# --------------------------------------------------------------------------- Theta_n


def test_theta_support_and_antisymmetry_bulk():
    rng = np.random.default_rng(42)
    for n in (1, 2, 3):
        th = SplittingTheta(n=n, ell=1.0)
        ys = rng.normal(scale=2.0, size=(100_000, n, 4))
        v = theta_eval(th, ys)
        assert np.all((0.0 <= v) & (v <= 1.0))
        r = np.sqrt(np.sum(ys**2, axis=(1, 2)))
        t0 = np.sum(ys[:, :, 0], axis=1)
        big = r >= th.ell
        up = big & (t0 >= r / (3 * n))
        dn = big & (-t0 >= r / (3 * n))
        assert np.all(v[up] == 1.0)
        assert np.all(v[dn] == 0.0)
        # exact antisymmetry outside the regularization ball
        vneg = theta_eval(th, -ys)
        assert np.array_equal(v[big], 1.0 - vneg[big])


def test_theta_scale_invariance():
    th = SplittingTheta(n=2, ell=1.0)
    rng = np.random.default_rng(1)
    ys = rng.normal(scale=1.5, size=(10_000, 2, 4))
    r = np.sqrt(np.sum(ys**2, axis=(1, 2)))
    keep = r > th.ell
    lam = 1.0 + 3.0 * rng.random(keep.sum())
    v1 = theta_eval(th, ys[keep])
    v2 = theta_eval(th, ys[keep] * lam[:, None, None])
    assert np.max(np.abs(v1 - v2)) < 1e-12


# --------------------------------------------------------------------------- cones


def test_cone_membership_examples():
    x1 = np.array([0.3, -0.1, 0.2, 0.0])
    assert cone_contains([(x1, x1)], +1)
    assert cone_contains([(x1, x1)], -1)
    future = x1 + np.array([2.0, 0.5, 0.0, 0.0])
    assert cone_contains([(future, x1)], +1)
    assert not cone_contains([(future, x1)], -1)
    assert gamma_cone_member([future], [x1, x1 + 100.0], +1)


def test_cone_halfspace_inclusion_search():
    """Region (Gamma^-) intersected with the forward half-space of the
    splitting function stays inside |y| <= 6 n^2 |x|: a 10^5-sample search
    finds no counterexample."""
    rng = np.random.default_rng(7)
    n, m = 2, 2
    found = 0
    for _ in range(100_000 // 20):
        xs = rng.normal(scale=1.0, size=(m, 4))
        for _ in range(20):
            # sample y_j in the causal past of some x
            u = rng.integers(0, m, size=n)
            back = -np.abs(rng.normal(scale=1.0, size=n))
            vecs = rng.normal(scale=0.5, size=(n, 3))
            ys = []
            for j in range(n):
                t = back[j]
                sp = vecs[j]
                norm = np.linalg.norm(sp)
                if norm > abs(t):
                    sp = sp * (abs(t) / norm) * rng.random()
                ys.append(xs[u[j]] + np.concatenate([[t], sp]))
            ys = np.array(ys)
            ynorm = math.sqrt(float(np.sum(ys**2)))
            if np.sum(ys[:, 0]) + ynorm / (3 * n) < 0:
                continue  # outside the Theta half-space
            found += 1
            xnorm = math.sqrt(float(np.sum(xs**2)))
            assert ynorm <= 6 * n * n * xnorm + 1e-9
    assert found > 100


# --------------------------------------------------------------------------- point values


def test_lojasiewicz_constant():
    fam = gaussian_family(1)
    fam2 = gaussian_family(1, sigma=1.7, label="wide")
    rep = lojasiewicz_value(
        lambda f, e: f.pair(lambda x: np.full(x.shape[0], -2.5 + 0.5j), e), fam, fam2
    )
    assert rep.converged
    assert rep.estimate == pytest.approx(-2.5 + 0.5j, abs=1e-10)


def test_lojasiewicz_odd_linear():
    fam = gaussian_family(1)
    fam2 = asymmetric_family(1)
    rep = lojasiewicz_value(lambda f, e: f.pair(lambda x: x[:, 0], e), fam, fam2)
    assert rep.converged
    assert abs(rep.estimate) < 1e-10


def test_lojasiewicz_sign_log_not_converged():
    """t(q) = sgn(q) log|q|: the smeared value drifts like log(eps) times the
    profile's sign charge; an asymmetric profile exposes the failure."""
    fam = asymmetric_family(1, shift=1.0, sigma=0.7, hermite_order=64)

    def sgnlog(x):
        q = x[:, 0]
        return np.sign(q) * np.log(np.abs(q))

    rep = lojasiewicz_value(lambda f, e: f.pair(sgnlog, e), fam)
    assert not rep.converged
    # analytic slope: -(profile sign charge), reproduced by the same nodes
    x, w = fam.nodes(1.0)
    charge = float(np.sum(w * np.sign(x[:, 0])))
    assert rep.log_slope.real == pytest.approx(-charge, rel=1e-6)
    assert abs(charge) > 0.3


def test_family_independence_on_convergent_input():
    t = lambda x: np.cos(0.7 * x[:, 0])
    reps = []
    for fam in (gaussian_family(1), gaussian_family(1, sigma=2.2, label="w")):
        reps.append(lojasiewicz_value(lambda f, e: f.pair(t, e), fam))
    assert all(r.converged for r in reps)
    # combined confidence: the design tolerance is 1e-4 relative
    assert abs(reps[0].estimate - reps[1].estimate) < 1e-4
    assert all(abs(r.estimate - 1.0) < 1e-5 for r in reps)


def test_lemma51():
    fam = gaussian_family(4, hermite_order=8)
    rep = lemma51_check(lambda x: np.cos(x @ np.array([0.3, 0.1, 0.0, 0.2])), fam)
    assert rep.converged and rep.estimate == pytest.approx(1.0, abs=1e-6)
    # Lipschitz function vanishing at zero: first-order convergence
    t = lambda x: np.abs(x[:, 0])
    vals = [fam.pair(t, e) for e in fam.epsilons]
    ratios = [abs(v) / e for v, e in zip(vals, fam.epsilons)]
    assert max(ratios) / min(ratios) < 1.0001
    # supported away from zero: every sample eventually vanishes
    def away(x):
        r2 = np.sum((x - 3.0) ** 2, axis=-1)
        return np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-12)), 0.0)

    rep = lemma51_check(away, fam)
    assert abs(rep.estimate) < 1e-12


def test_fit_limit_requires_samples():
    with pytest.raises(AdiabaticError):
        fit_limit([0.1], [1.0])


# --------------------------------------------------------------------------- normalization zeros


def test_wal_zero_orders_via_derivative_probes():
    """The centrally normalized bubble has Lojasiewicz zeros at zero momentum
    through second derivative order; one subtraction only reaches order one."""
    fam = gaussian_family(4, hermite_order=8)
    se2 = central_normalize(SelfEnergy(bubble_density(1.0, 1.0)), omega=2)
    se1 = SelfEnergy(bubble_density(1.0, 1.0), n_sub=1)

    def curve(se):
        return _Curve(lambda q2: dispersion_eval(se, q2, "feynman"), 40.0)

    c2, c1 = curve(se2), curve(se1)

    def t2(x):
        return c2(x[:, 0] ** 2 - np.sum(x[:, 1:] ** 2, axis=1))

    def t1(x):
        return c1(x[:, 0] ** 2 - np.sum(x[:, 1:] ** 2, axis=1))

    eps_small = 0.02
    # order-0 and order-1 probes vanish for both
    for t in (t1, t2):
        assert abs(fam.pair(t, eps_small)) < 1e-5
        assert abs(fam.pair_derivative(t, eps_small, (1, 0, 0, 0))) < 1e-5
    # order-2 probe: vanishes for the omega=2 normalization only
    d2_norm = fam.pair_derivative(t2, eps_small, (2, 0, 0, 0))
    d2_once = fam.pair_derivative(t1, eps_small, (2, 0, 0, 0))
    assert abs(d2_norm) < 5e-3
    assert abs(d2_once) > 50 * abs(d2_norm)


# --------------------------------------------------------------------------- second-order demos


def test_appendix_demo_needs_enough_epsilons():
    fam = gaussian_family(4, epsilons=(0.3, 0.2, 0.1))
    with pytest.raises(AdiabaticError, match="6"):
        appendix_c_demo(SM, 0.0, family=fam)


def test_appendix_demo_difference_paths():
    long_eps = tuple(0.3 * 2.0 ** (-k / 2.0) for k in range(24))
    fam = asymmetric_family(4, shift=0.8, epsilons=long_eps)
    # vanishing f-profile: the on-shell difference has a point value zero
    rep = appendix_c_demo(SM, 1.0, family=fam, f_profile="vanishing")
    assert rep.difference.converged
    assert abs(rep.difference.estimate) < 5e-6
    mags = [abs(v) for _, v in rep.difference.samples]
    assert mags[-1] < 1e-2 * mags[0]
    # flat f-profile: the difference settles to a family-dependent constant
    rep1 = appendix_c_demo(SM, 1.0, family=fam, f_profile="one")
    assert abs(rep1.difference.estimate) > 1e-3


def test_appendix_demo_difference_odd_under_time_reflection():
    """The advanced-retarded difference lives on the on-shell support with a
    time-sign structure, so reflecting the profile in time flips its sign
    exactly."""
    eps = tuple(0.3 * 2.0 ** (-k / 2.0) for k in range(8))
    rp = appendix_c_demo(
        SM, 1.0, family=asymmetric_family(4, shift=0.8, epsilons=eps), f_profile="one"
    )
    rm = appendix_c_demo(
        SM, 1.0, family=asymmetric_family(4, shift=-0.8, epsilons=eps), f_profile="one"
    )
    for (_, v1), (_, v2) in zip(rp.difference.samples, rm.difference.samples):
        assert abs(v1 + v2) < 1e-13 * max(1.0, abs(v1))


def test_gl_check_requires_schedule():
    fam = gaussian_family(4, epsilons=(0.1,))
    with pytest.raises(AdiabaticError):
        gl_vs_eg_second_order(SM, family=fam)


def test_gl_check_warns_when_not_normalized():
    fam = gaussian_family(4, epsilons=tuple(0.3 * 2 ** (-k / 2) for k in range(6)))
    with pytest.warns(UserWarning, match="not normalized"):
        rep = gl_vs_eg_second_order(SM, family=fam, c_mis=0.3, n_kappa=8, n_q=8)
    assert rep.exponent < 0.5


def test_gl_check_reads_the_family_components():
    eps = tuple(0.3 * 2 ** (-k / 2) for k in range(6))

    def samples(family):
        return gl_vs_eg_second_order(SM, family=family, n_kappa=8, n_q=8).samples

    # the asymmetric family is not its centered sigma = 0.7 core
    centered = samples(gaussian_family(4, sigma=0.7, epsilons=eps))
    assert samples(asymmetric_family(4, epsilons=eps)) != centered
    # two equal halves of one component weigh as the component itself
    c = (0.5, 0.0, 0.0, 0.0)
    one = samples(ScaledTestFamily(4, 0.7, (c,), (1.0,), eps))
    halves = samples(ScaledTestFamily(4, 0.7, (c, c), (0.5, 0.5), eps))
    assert one != centered
    for (_, a), (_, b) in zip(one, halves):
        assert b == pytest.approx(a, rel=1e-12)


def test_gl_check_refuses_spatial_centers():
    fam = ScaledTestFamily(4, 0.7, ((0.0, 1.0, 0.0, 0.0),), (1.0,))
    with pytest.raises(AdiabaticError, match="time-directed centers"):
        gl_vs_eg_second_order(SM, family=fam)


# --------------------------------------------------------------------------- Gauss-Laguerre rules


@pytest.mark.parametrize("n, alpha", [(40, 0.5), (20, 0.0), (14, 0.0)])
def test_laguerre_rule_matches_scipy(n, alpha):
    """The recurrence-built rules used by the demonstrations against
    scipy.special, node by node and weight by weight, relatively."""
    from scipy.special import roots_genlaguerre

    t, w = _laguerre(n, alpha)
    t_ref, w_ref = roots_genlaguerre(n, alpha)
    assert t.shape == w.shape == (n,)
    np.testing.assert_allclose(t, t_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n", [14, 40])
@pytest.mark.parametrize("s", [0.3, 2.5])
def test_gauss_helpers_reproduce_second_moments(n, s):
    """The axis rule is N(0, s^2); the radial rule with exponent alpha is the
    radius of a (2 alpha + 2)-dimensional isotropic Gaussian of variance s^2."""
    x, w = _gauss_axis(s, n)
    assert np.sum(w * x**2) == pytest.approx(s**2, rel=1e-14, abs=0)
    for alpha in (0.0, 0.5):
        r, wr = _gauss_radius(s, n, alpha)
        assert np.sum(wr * r**2) == pytest.approx((2 * alpha + 2) * s**2, rel=1e-14, abs=0)


# --------------------------------------------------------------------------- shared evaluations


def _agree(got, want, rel=1e-13):
    """Real and imaginary parts each agree to rel; a part that is exactly zero
    in the reference must come out zero up to an absolute floor."""
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        assert abs(g - w) <= rel * abs(w) + 1e-300, (got, want)


def _demo_reference(family, c_mis, f_profile, time_sign):
    """One time sign of appendix_c_demo, evaluated per component on the
    radial nodes and summed in component order."""
    kit = _kit(model_self_energy(SM), 3.0)
    out = []
    for eps in family.epsilons:
        comps, r, wr = _radial_nodes(family, eps)
        total = 0.0 + 0.0j
        for wc, q0, w0 in comps:
            Q0, R = np.meshgrid(q0, r, indexing="ij")
            q2 = Q0**2 - R**2
            vals = kit.normalized_bubble(q2)
            if c_mis:
                vals = vals + c_mis * (
                    kit.feynman_pair(q2) - kit.onshell_pair(Q0, R, time_sign, f_profile))
            total += wc * complex(np.einsum("i,j,ij->", w0, wr, vals))
        out.append(total)
    return out


def _gl_reference(family, c_mis, n_kappa=20, n_q=14):
    """|Delta(eps)| of gl_vs_eg_second_order with the grids rebuilt for every
    kappa and time sign."""
    kit = _kit(model_self_energy(SM), 3.0)
    tk, wk = _laguerre(n_kappa, 0.0)
    h, wh = np.polynomial.hermite.hermgauss(n_q)
    tl, wl = _laguerre(n_q, 0.0)
    W = np.einsum("i,j,k->ijk", wh / math.sqrt(math.pi), wh / math.sqrt(math.pi), wl)

    def phi(eps, kap, sgn):
        s = eps * family.sigma
        total = 0.0
        for c, wc in zip(family.centers, family.weights):
            q0 = eps * c[0] + s * math.sqrt(2.0) * h
            Q0, QP, QT = np.meshgrid(q0, s * math.sqrt(2.0) * h, s * np.sqrt(2.0 * tl),
                                     indexing="ij")
            arg = Q0**2 - QP**2 - QT**2 + 2.0 * sgn * kap * (Q0 - QP)
            vals = kit.normalized_bubble(arg) + c_mis if sgn > 0 else kit.feynman_pair(arg)
            total += wc * complex(np.sum(W * vals))
        return total

    mags = []
    for eps in family.epsilons:
        tot = 0.0 + 0.0j
        for kap, w in zip(np.sqrt(tk), wk):
            tot += 0.5 * w * phi(eps, kap, +1) * phi(eps, kap, -1)
        mags.append(abs(tot / (4.0 * math.pi**2)))
    return mags


_EPS6 = tuple(0.3 * 2.0 ** (-k / 2.0) for k in range(6))


@pytest.mark.parametrize("c_mis", [0.0, 0.7])
@pytest.mark.parametrize("profile", ["one", "vanishing"])
@pytest.mark.parametrize("family", [gaussian_family(4, epsilons=_EPS6),
                                    asymmetric_family(4, epsilons=_EPS6)],
                         ids=["gauss", "asym"])
def test_appendix_demo_matches_per_sign_reference(family, profile, c_mis):
    """Both time signs from one evaluation of the shared curves per time
    center agree with a separate evaluation per sign and per component."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = appendix_c_demo(SM, c_mis, family=family, f_profile=profile)
    for side, sign in ((rep.advanced, -1), (rep.retarded, +1)):
        want = _demo_reference(family, c_mis, profile, sign)
        assert len(side.samples) == len(want)
        for (_, got), w in zip(side.samples, want):
            _agree(got, w)


@pytest.mark.parametrize("c_mis", [0.0, 1.0])
def test_gl_check_matches_per_kappa_reference(c_mis):
    fam = gaussian_family(4, epsilons=_EPS6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = gl_vs_eg_second_order(SM, family=fam, c_mis=c_mis)
    for (_, got), want in zip(rep.samples, _gl_reference(fam, c_mis)):
        assert abs(got - want) <= 1e-13 * want


def test_curve_lookup_matches_two_real_interpolations():
    """One complex interpolation against separate real and imaginary ones,
    also beyond qmax = 60, where both clamp to the end values."""
    kit = _kit(model_self_energy(SM), 3.0)
    rng = np.random.default_rng(12)
    q2 = np.concatenate([rng.uniform(-90.0, 90.0, 4000), rng.normal(scale=1e-3, size=1000),
                         rng.uniform(3.9, 4.1, 1000), [-1e4, -60.5, 60.5, 1e4]])
    for curve in (kit.pair_curve, kit.bubble_curve):
        u = np.arcsinh(q2 / curve.delta)
        want = np.interp(u, curve.u, curve.re) + 1j * np.interp(u, curve.u, curve.im)
        got = curve(q2)
        assert got.shape == q2.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
        out = np.abs(q2) > 60.0
        assert out.sum() >= 4
        assert np.array_equal(got[out], want[out])
        assert np.array_equal(got[q2 > 60.0], np.full((q2 > 60.0).sum(), curve.vals[-1]))


@pytest.mark.parametrize("c_mis", [0.0, 0.7])
def test_appendix_demo_reads_each_curve_once_per_time_center(monkeypatch, c_mis):
    """One lookup per curve, epsilon and distinct time center: 1 for the
    centered family, 3 for the asymmetric one, whose (i, j) and (j, i)
    components share their center; the pair curve only when c_mis != 0."""
    kit = _kit(model_self_energy(SM), 3.0)
    lookup = _Curve.__call__
    calls = {}

    def counting(curve, q2):
        calls[curve] = calls.get(curve, 0) + 1
        return lookup(curve, q2)

    monkeypatch.setattr(_Curve, "__call__", counting)
    for family, centers in ((gaussian_family(4, epsilons=_EPS6), 1),
                            (asymmetric_family(4, epsilons=_EPS6), 3)):
        calls.clear()
        appendix_c_demo(SM, c_mis, family=family)
        want = {kit.bubble_curve: centers * len(_EPS6)}
        if c_mis:
            want[kit.pair_curve] = centers * len(_EPS6)
        assert calls == want


def test_demonstrations_build_the_kit_once(monkeypatch):
    """Separately loaded copies of one model give equal self-energies, so two
    appendix_c_demo calls and one gl_vs_eg_second_order call share one kit."""
    build, calls = SecondOrderKit.build, []
    monkeypatch.setattr(SecondOrderKit, "build",
                        staticmethod(lambda *args: calls.append(args) or build(*args)))
    _kit.cache_clear()
    family = gaussian_family(4, epsilons=_EPS6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for c_mis in (0.0, 0.7):
            appendix_c_demo(builtin("scalar_model"), c_mis, family=family)
        gl_vs_eg_second_order(builtin("scalar_model"), family=family)
    assert len(calls) == 1
