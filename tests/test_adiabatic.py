"""Adiabatic machinery: splitting function, cones, point values, demos."""
import functools
import hashlib
import math
import warnings
from typing import Callable

import numpy as np
import pytest

from egqft.adiabatic_limits import (
    AdiabaticError,
    LimitReport,
    ScaledTestFamily,
    SecondOrderKit,
    SplittingTheta,
    _N_KAPPA,
    _N_Q,
    _REL_TOL,
    _Curve,
    _gauss_axis,
    _gauss_radius,
    _kit,
    _laguerre,
    _radial_nodes,
    appendix_c_demo,
    asymmetric_family,
    epsilon_schedule,
    fit_limit,
    gaussian_family,
    gl_vs_eg_second_order,
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


def _in_closed_cone(v, sign: int) -> bool:
    v = np.asarray(v, dtype=float)
    t = sign * v[0]
    return bool(t >= 0.0 and v[0] ** 2 - v[1] ** 2 - v[2] ** 2 - v[3] ** 2 >= 0.0)


def gamma_cone_member(ys, xs, sign: int) -> bool:
    """Membership in the cone Gamma^+-_{n,m}: some assignment u with
    y_j in x_{u(j)} +- closed forward cone; u(j) is free per j."""
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    for y in ys:
        if not any(_in_closed_cone(y - x, sign) for x in xs):
            return False
    return True


def test_cone_membership_examples():
    x1 = np.array([0.3, -0.1, 0.2, 0.0])
    assert gamma_cone_member([x1], [x1], +1)
    assert gamma_cone_member([x1], [x1], -1)
    future = x1 + np.array([2.0, 0.5, 0.0, 0.0])
    assert gamma_cone_member([future], [x1], +1)
    assert not gamma_cone_member([future], [x1], -1)
    assert gamma_cone_member([future], [x1, x1 + 100.0], +1)


def test_cone_halfspace_inclusion_search():
    """Region (Gamma^-) intersected with the forward half-space of the
    splitting function stays inside |y| <= 6 n^2 |x|: a 10^5-sample search
    finds no counterexample.  Each of 5000 draws of x carries 20 samples of
    y, every y_j in the closed causal past of a uniformly chosen x_u."""
    rng = np.random.default_rng(7)
    n, m, groups, per = 2, 2, 100_000 // 20, 20
    xs = rng.normal(scale=1.0, size=(groups, m, 4))
    u = rng.integers(0, m, size=(groups, per, n))
    back = -np.abs(rng.normal(scale=1.0, size=(groups, per, n)))
    sp = rng.normal(scale=0.5, size=(groups, per, n, 3))
    # a spatial part longer than |t| is shrunk into the cone, to a uniform
    # fraction of its edge
    norm = np.linalg.norm(sp, axis=-1)
    shrink = np.where(norm > -back, -back / norm * rng.random(norm.shape), 1.0)
    offsets = np.concatenate([back[..., None], sp * shrink[..., None]], axis=-1)
    ys = xs[np.arange(groups)[:, None, None], u] + offsets
    ynorm = np.sqrt(np.sum(ys**2, axis=(-2, -1)))
    # inside the Theta half-space
    inside = np.sum(ys[..., 0], axis=-1) + ynorm / (3 * n) >= 0
    found = int(inside.sum())
    xnorm = np.sqrt(np.sum(xs**2, axis=(-2, -1)))[:, None]
    assert not np.any(inside & (ynorm > 6 * n * n * xnorm + 1e-9))
    assert found > 100


# --------------------------------------------------------------------------- point values
# Smearing against a family by a tensor Gauss-Hermite rule of a given order
# per axis, and the point value at zero as the limit over the schedule.


def nodes(family: ScaledTestFamily, eps: float, order: int):
    """Quadrature nodes/weights such that <t, g_eps> ~ sum w_i t(x_i)."""
    x1, w1 = _gauss_axis(eps * family.sigma, order)
    x = np.stack([g.ravel() for g in np.meshgrid(*[x1] * family.dim, indexing="ij")], axis=-1)
    w = functools.reduce(np.multiply.outer, [w1] * family.dim).ravel()
    return (np.concatenate([x + eps * np.asarray(c) for c in family.centers]),
            np.concatenate([wc * w for wc in family.weights]))


def pair(family: ScaledTestFamily, t: Callable, eps: float, order: int = 12) -> complex:
    x, w = nodes(family, eps, order)
    return complex(np.sum(w * np.asarray(t(x), dtype=complex)))


def pair_derivative(family: ScaledTestFamily, t: Callable, eps: float, gamma,
                    order: int = 12) -> complex:
    """<d^gamma t, g_eps> = (-1)^|gamma| <t, d^gamma g_eps> for a 4-multi-
    index gamma of order one or two, via exact Gaussian score functions.

    Needs a centered one-component family.
    """
    if family.centers != ((0.0,) * family.dim,):
        raise AdiabaticError("derivative probes need a centered one-component family")
    if isinstance(gamma, int):
        gamma = tuple(1 if i == gamma else 0 for i in range(family.dim))
    if len(gamma) != family.dim:
        raise AdiabaticError("multi-index dimension mismatch")
    x, w = nodes(family, eps, order)
    s2 = (eps * family.sigma) ** 2
    if sum(gamma) == 1:
        mu = gamma.index(1)
        score = x[:, mu] / s2
    elif sum(gamma) == 2:
        if 2 in gamma:
            mu = gamma.index(2)
            score = x[:, mu] ** 2 / s2**2 - 1.0 / s2
        else:
            mu, nu = [i for i, g in enumerate(gamma) if g == 1]
            score = x[:, mu] * x[:, nu] / s2**2
    else:
        raise AdiabaticError("derivative probes support orders 1 and 2 only")
    return complex(np.sum(w * score * np.asarray(t(x), dtype=complex)))


def lojasiewicz_value(
    evaluate: Callable[[ScaledTestFamily, float], complex],
    family: ScaledTestFamily,
    second_family: ScaledTestFamily | None = None,
) -> LimitReport:
    """Point value at zero: limit of <t, g_eps> over the schedule.

    Converged iff the slope is insignificant and, when a second family is
    given, both families extrapolate to the same value within fit_limit's
    tolerance.  The reported estimate is the (averaged) extrapolated common
    value.
    """
    vals = [evaluate(family, e) for e in family.epsilons]
    rep = fit_limit(family.epsilons, vals, family=family.label)
    if second_family is None:
        return rep
    vals2 = [evaluate(second_family, e) for e in second_family.epsilons]
    rep2 = fit_limit(second_family.epsilons, vals2, family=second_family.label)
    scale = max(abs(rep.estimate), abs(rep2.estimate), 1.0)
    agree = abs(rep.estimate - rep2.estimate) <= max(2 * _REL_TOL * scale, 1e-10)
    return rep._replace(
        estimate=0.5 * (rep.estimate + rep2.estimate),
        converged=bool(rep.converged and rep2.converged and agree),
    )


def test_lojasiewicz_constant():
    fam = gaussian_family(1)
    fam2 = gaussian_family(1, sigma=1.7, label="wide")
    rep = lojasiewicz_value(
        lambda f, e: pair(f, lambda x: np.full(x.shape[0], -2.5 + 0.5j), e), fam, fam2
    )
    assert rep.converged
    assert rep.estimate == pytest.approx(-2.5 + 0.5j, abs=1e-10)


def test_lojasiewicz_odd_linear():
    fam = gaussian_family(1)
    fam2 = asymmetric_family(1)
    rep = lojasiewicz_value(lambda f, e: pair(f, lambda x: x[:, 0], e), fam, fam2)
    assert rep.converged
    assert abs(rep.estimate) < 1e-10


def test_lojasiewicz_sign_log_not_converged():
    """t(q) = sgn(q) log|q|: the smeared value drifts like log(eps) times the
    profile's sign charge; an asymmetric profile exposes the failure."""
    fam = asymmetric_family(1, shift=1.0, sigma=0.7)

    def sgnlog(x):
        q = x[:, 0]
        return np.sign(q) * np.log(np.abs(q))

    rep = lojasiewicz_value(lambda f, e: pair(f, sgnlog, e, 64), fam)
    assert not rep.converged
    # analytic slope: -(profile sign charge), reproduced by the same nodes
    x, w = nodes(fam, 1.0, 64)
    charge = float(np.sum(w * np.sign(x[:, 0])))
    assert rep.log_slope.real == pytest.approx(-charge, rel=1e-6)
    assert abs(charge) > 0.3


def test_family_independence_on_convergent_input():
    t = lambda x: np.cos(0.7 * x[:, 0])
    reps = []
    for fam in (gaussian_family(1), gaussian_family(1, sigma=2.2, label="w")):
        reps.append(lojasiewicz_value(lambda f, e: pair(f, t, e), fam))
    assert all(r.converged for r in reps)
    # combined confidence: the design tolerance is 1e-4 relative
    assert abs(reps[0].estimate - reps[1].estimate) < 1e-4
    assert all(abs(r.estimate - 1.0) < 1e-5 for r in reps)


def test_lemma51():
    fam = gaussian_family(4)
    cos = lambda x: np.cos(x @ np.array([0.3, 0.1, 0.0, 0.2]))
    rep = lojasiewicz_value(lambda f, e: pair(f, cos, e, 8), fam)
    assert rep.converged and rep.estimate == pytest.approx(1.0, abs=1e-6)
    # Lipschitz function vanishing at zero: first-order convergence
    t = lambda x: np.abs(x[:, 0])
    vals = [pair(fam, t, e, 8) for e in fam.epsilons]
    ratios = [abs(v) / e for v, e in zip(vals, fam.epsilons)]
    assert max(ratios) / min(ratios) < 1.0001
    # supported away from zero: every sample eventually vanishes
    def away(x):
        r2 = np.sum((x - 3.0) ** 2, axis=-1)
        return np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-12)), 0.0)

    rep = lojasiewicz_value(lambda f, e: pair(f, away, e, 8), fam)
    assert abs(rep.estimate) < 1e-12


def test_fit_limit_requires_samples():
    with pytest.raises(AdiabaticError):
        fit_limit([0.1], [1.0])


def test_fit_limit_refuses_residuals_outside_the_float_range():
    eps = (0.3, 0.2, 0.1, 0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AdiabaticError, match="the log-slope fit of x overflows"):
            fit_limit(eps, [1e160, -1e160, 1e160, -1e160], family="x")
        assert math.isfinite(fit_limit(eps, [1e150, -1e150, 1e150, -1e150]).slope_sigma)


# --------------------------------------------------------------------------- normalization zeros


def test_wal_zero_orders_via_derivative_probes():
    """The centrally normalized bubble has Lojasiewicz zeros at zero momentum
    through second derivative order; one subtraction only reaches order one."""
    fam = gaussian_family(4)
    se2 = central_normalize(SelfEnergy(bubble_density(1.0, 1.0)), omega=2)
    se1 = SelfEnergy(bubble_density(1.0, 1.0), n_sub=1)

    def curve(se):
        return _Curve(lambda q2: dispersion_eval(se, q2, "feynman"))

    c2, c1 = curve(se2), curve(se1)

    def t2(x):
        return c2(x[:, 0] ** 2 - np.sum(x[:, 1:] ** 2, axis=1))

    def t1(x):
        return c1(x[:, 0] ** 2 - np.sum(x[:, 1:] ** 2, axis=1))

    eps_small = 0.02
    # order-0 and order-1 probes vanish for both
    for t in (t1, t2):
        assert abs(pair(fam, t, eps_small, 8)) < 1e-5
        assert abs(pair_derivative(fam, t, eps_small, (1, 0, 0, 0), 8)) < 1e-5
    # order-2 probe: vanishes for the omega=2 normalization only
    d2_norm = pair_derivative(fam, t2, eps_small, (2, 0, 0, 0), 8)
    d2_once = pair_derivative(fam, t1, eps_small, (2, 0, 0, 0), 8)
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
        rep = gl_vs_eg_second_order(SM, family=fam, c_mis=0.3)
    assert rep.exponent < 0.5


def test_gl_check_reads_the_family_components():
    eps = tuple(0.3 * 2 ** (-k / 2) for k in range(6))

    def samples(family):
        return gl_vs_eg_second_order(SM, family=family).samples

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


@pytest.fixture
def no_kit_build(monkeypatch):
    """A kit build fails the test; the cache is emptied so none is reused."""
    def no_build(*args):
        raise AssertionError("the kit was built")

    monkeypatch.setattr(SecondOrderKit, "build", staticmethod(no_build))
    _kit.cache_clear()


@pytest.mark.parametrize("demo", [lambda fam: appendix_c_demo(SM, 0.0, family=fam),
                                  lambda fam: gl_vs_eg_second_order(SM, family=fam)],
                         ids=["appendix_c_demo", "gl_vs_eg_second_order"])
def test_demonstrations_refuse_spatial_centers_before_the_kit(demo, no_kit_build):
    """One message from both demonstrations, before any kit is built, for a
    spatial center and for a family that is not 4-D (whose time axis and
    radius the reduction would read as those of a 4-D one)."""
    for fam, message in (
        (ScaledTestFamily(4, 0.7, ((0.0, 0.0, 0.0, 0.0), (0.2, 0.0, 1.0, 0.0)), (0.5, 0.5)),
         "the demonstrations need time-directed centers"),
        *((gaussian_family(d), f"the demonstrations need a 4-dimensional family, got dim {d}")
          for d in (1, 2, 7)),
    ):
        with pytest.raises(AdiabaticError, match=message):
            demo(fam)


def test_appendix_demo_refuses_an_unknown_f_profile_at_entry(no_kit_build):
    """Refused at c_mis = 0 too, where no on-shell pair is evaluated, and
    before the kit is built."""
    for c_mis in (0.0, 0.7):
        with pytest.raises(AdiabaticError, match="unknown f-profile 'bogus'"):
            appendix_c_demo(SM, c_mis, f_profile="bogus")


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
    kit = _kit(model_self_energy(SM))
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
                    kit.feynman_pair(q2) - kit.onshell_pair(Q0, R, q2, f_profile)[time_sign > 0])
            total += wc * complex(np.einsum("i,j,ij->", w0, wr, vals))
        out.append(total)
    return out


def _gl_reference(family, c_mis):
    """|Delta(eps)| of gl_vs_eg_second_order with the grids rebuilt for every
    kappa and time sign."""
    kit = _kit(model_self_energy(SM))
    tk, wk = _laguerre(_N_KAPPA, 0.0)
    h, wh = np.polynomial.hermite.hermgauss(_N_Q)
    tl, wl = _laguerre(_N_Q, 0.0)
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


_SWEEP_DIGESTS = {
    ("appendix_c_demo", "gauss", "one", 0.0): "d7cca1091e9d72c300b3ecae4240afade608879ffc52b3704db557bf24d06687",
    ("appendix_c_demo", "gauss", "one", 0.5): "b22d20a8e4008d0b610240cf8f7e7a80d19ebae87e52abae34f3e927b446ff41",
    ("appendix_c_demo", "gauss", "vanishing", 0.0): "d7cca1091e9d72c300b3ecae4240afade608879ffc52b3704db557bf24d06687",
    ("appendix_c_demo", "gauss", "vanishing", 0.5): "8ebe982cc0679e6f58b1c25890aab81750a6b6bfc2ac17b2a8fafe8e93020530",
    ("appendix_c_demo", "asym", "one", 0.0): "d0446e4263064a2f67b5f739c81cef48a234a991ce630a16cf1cd34059d731cc",
    ("appendix_c_demo", "asym", "one", 0.5): "5ee7e7f07ce5ef4d28e19d9f105cde7c207ff52aee3d8de68082d4a2a2d35075",
    ("appendix_c_demo", "asym", "vanishing", 0.0): "d0446e4263064a2f67b5f739c81cef48a234a991ce630a16cf1cd34059d731cc",
    ("appendix_c_demo", "asym", "vanishing", 0.5): "c815eccf6b49a0cbdcf92d9317cb21eb3b96e5f3d91991fd81e4ceaef68024d0",
    ("gl_vs_eg_second_order", "gauss", None, 0.0): "3fe6eb7228bbc25d9a47bda17dc529bcc2d60611de900a4732fd5e91026efd71",
    ("gl_vs_eg_second_order", "gauss", None, 1.0): "4456be5611252bf00f46e04b35ce3fe80a02335aebc9623e54028f7bd6d9fc25",
    ("gl_vs_eg_second_order", "asym", None, 0.0): "b6626f6b40455974e042425995bc2c213b38cfed1c5daf145c2293128a0ea076",
    ("gl_vs_eg_second_order", "asym", None, 1.0): "adf7b3de6b8d59c423a439dae0e1f693c9279f6a83b0b0c34ebde713c74ddbf4",
}


@pytest.mark.parametrize("key", sorted(_SWEEP_DIGESTS, key=repr), ids=lambda k: "-".join(map(str, k)))
def test_demonstration_reports_are_pinned_bit_for_bit(key):
    """sha256 of the repr of each report at epsilon_schedule(6), recorded from
    the per-sign evaluation on meshgrid copies with every fit run separately;
    the reference tests above agree only to 1e-13 and miss a last-bit move."""
    demo, kind, profile, c_mis = key
    family = (gaussian_family if kind == "gauss" else asymmetric_family)(4, epsilons=_EPS6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if demo == "appendix_c_demo":
            rep = appendix_c_demo(SM, c_mis, family=family, f_profile=profile)
        else:
            rep = gl_vs_eg_second_order(SM, family=family, c_mis=c_mis)
    assert hashlib.sha256(repr(rep).encode()).hexdigest() == _SWEEP_DIGESTS[key]


@pytest.mark.parametrize("schedule", [epsilon_schedule, lambda n: tuple(0.3 * 0.6**k for k in range(n))],
                         ids=["sqrt2", "ratio-0.6"])
def test_fit_limit_of_all_zero_samples_is_pinned(schedule):
    """Exactly zero samples (the difference at c_mis = 0) report the limit
    0j, converged, with a zero slope and sigma, signs of zero included."""
    for n in range(3, 41):
        eps = schedule(n)
        want = LimitReport(0j, True, 0j, 0.0, tuple((e, 0j) for e in eps), "z")
        assert repr(fit_limit(eps, [0j] * n, family="z")) == repr(want)


def test_onshell_pair_splits_the_cone_by_time_sign():
    """Advanced on q0 < 0, retarded on q0 > 0, each ps0 times the f-profile
    weight inside the light cone and zero outside it."""
    kit = _kit(model_self_energy(SM))
    q0 = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])[:, None]
    r = np.array([0.0, 1.0, 3.0])[None, :]
    q2, e2 = q0**2 - r**2, q0**2 + r**2
    for profile, w in (("one", 1.0), ("vanishing", e2 / (1.0 + e2))):
        adv, ret = kit.onshell_pair(q0, r, q2, profile)
        on = np.where(q2 > 0, kit.ps0 * w, 0.0)
        assert np.array_equal(adv, np.where(q0 < 0, on, 0.0))
        assert np.array_equal(ret, np.where(q0 > 0, on, 0.0))


def test_curve_lookup_matches_two_real_interpolations():
    """One complex interpolation against separate real and imaginary ones,
    also beyond qmax = 60, where both clamp to the end values."""
    kit = _kit(model_self_energy(SM))
    rng = np.random.default_rng(12)
    q2 = np.concatenate([rng.uniform(-90.0, 90.0, 4000), rng.normal(scale=1e-3, size=1000),
                         rng.uniform(3.9, 4.1, 1000), [-1e4, -60.5, 60.5, 1e4]])
    for curve in (kit.feynman_pair, kit.normalized_bubble):
        u = np.arcsinh(q2 / curve.delta)
        want = (np.interp(u, curve.u, curve.vals.real)
                + 1j * np.interp(u, curve.u, curve.vals.imag))
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
    kit = _kit(model_self_energy(SM))
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
        want = {kit.normalized_bubble: centers * len(_EPS6)}
        if c_mis:
            want[kit.feynman_pair] = centers * len(_EPS6)
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
