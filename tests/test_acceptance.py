"""Acceptance criteria, one test per criterion, tolerances pinned.

Each test prints a single PASS/FAIL line (visible with pytest -s or -rA).
"""
import itertools
import math
import sys
import time
from fractions import Fraction

import numpy as np

from egqft.adiabatic_limits import (
    SplittingTheta,
    appendix_c_demo,
    gaussian_probe,
    gl_vs_eg_second_order,
    riesz_check,
    scaling_degree_estimate,
    theta_eval,
)
from egqft.causal_splitting import (
    SelfEnergy,
    bubble_density,
    central_normalize,
    dispersion_eval,
)
from egqft.model_registry import builtin, parse_model_spec, validate
from egqft.power_counting import SList, omega_massless
from egqft.propagators_kinematics import two_body_phase_space
from egqft.symbolic_fields import Generator, SuperQuadriIndex, subpolynomials
from egqft.wick_pairing import complete_pairings, expand_aT, isserlis_oracle, telescoping_sum

RESULTS = []


def _report(criterion: int, ok: bool, detail: str, t0: float):
    line = (
        f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
        f"({time.monotonic() - t0:.1f}s) {detail}"
    )
    RESULTS.append(line)
    print(line, file=sys.stderr)
    assert ok, line


# --------------------------------------------------------------------------- 1


def test_criterion_1_power_counting_reproduction():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)

    def random_ulist(model, fields_alpha, k):
        items = []
        for _ in range(k):
            pairs = []
            for f, amax in fields_alpha:
                n = int(rng.integers(0, 3))
                for _ in range(n):
                    alpha = [0, 0, 0, 0]
                    if amax and rng.random() < 0.4:
                        alpha[int(rng.integers(0, 4))] = 1
                    pairs.append((Generator(f, tuple(alpha)), 1))
            items.append(SuperQuadriIndex.from_pairs(pairs))
        return SList(tuple(items))

    checked = 0
    # spinor QED: 4 - sum ext(A_mu) - 3/2 (ext psi + ext psibar)
    m = builtin("spinor_qed_massless")
    fa = [(m.fields.index(f"A_{mu}"), 0) for mu in range(4)]
    fp = [(m.fields.index(f"psi_{a}"), 0) for a in (1, 2, 3, 4)]
    fpb = [(m.fields.index(f"psi*_{a}"), 0) for a in (1, 2, 3, 4)]
    n_ok = 0
    while n_ok < 200:
        u = random_ulist(m, fa + fp + fpb, int(rng.integers(1, 4)))
        from egqft.power_counting import ext

        extA = sum(ext(u, f) for f, _ in fa)
        extP = sum(ext(u, f) for f, _ in fp)
        extPb = sum(ext(u, f) for f, _ in fpb)
        if (extP + extPb) % 2:
            continue
        expect = 4 - extA - Fraction(3, 2) * (extP + extPb)
        assert omega_massless(m, u) == expect
        n_ok += 1
        checked += 1

    # scalar QED: 4 - ext(A) - ext(phi) - ext(phi*) - der(phi) - der(phi*)
    m = builtin("scalar_qed_massless")
    fa = [(m.fields.index(f"A_{mu}"), 0) for mu in range(4)]
    fphi = [(m.fields.index("phi"), 1), (m.fields.index("phi*"), 1)]
    for _ in range(200):
        u = random_ulist(m, fa + fphi, int(rng.integers(1, 4)))
        from egqft.power_counting import der, ext

        expect = (
            4
            - sum(ext(u, f) for f, _ in fa)
            - ext(u, m.fields.index("phi"))
            - ext(u, m.fields.index("phi*"))
            - der(u, m.fields.index("phi"))
            - der(u, m.fields.index("phi*"))
        )
        assert omega_massless(m, u) == expect
        checked += 1

    # scalar model: 4 - ext(phi) - ext(psi)
    m = builtin("scalar_model")
    for _ in range(200):
        u = random_ulist(m, [(0, 0), (1, 0)], int(rng.integers(1, 4)))
        from egqft.power_counting import ext

        expect = 4 - ext(u, 0) - ext(u, 1)
        assert omega_massless(m, u) == expect
        checked += 1

    elapsed = time.monotonic() - t0
    _report(1, checked >= 600 and elapsed < 1.0,
            f"omega formulas exact on {checked} random u-lists", t0)


# --------------------------------------------------------------------------- 2


def test_criterion_2_structural_counts():
    t0 = time.monotonic()
    n_qed_sub = len(subpolynomials(builtin("spinor_qed_massive").vertex("e"), view="species"))
    n_sm_sub = len(subpolynomials(builtin("scalar_model").vertex("e"), view="species"))
    n_qed_gen = len(builtin("spinor_qed_massive").fields)
    n_sqed_gen = len(builtin("scalar_qed_massive").fields)
    ok = (n_qed_sub, n_sm_sub, n_qed_gen, n_sqed_gen) == (8, 6, 12, 6)
    elapsed = time.monotonic() - t0
    _report(2, ok and elapsed < 1.0,
            f"sub-polynomials {n_qed_sub}/{n_sm_sub}, generators {n_qed_gen}/{n_sqed_gen}", t0)


# --------------------------------------------------------------------------- 3


def test_criterion_3_renormalizability_verdicts():
    t0 = time.monotonic()
    checks = []
    for name in ("spinor_qed_massive", "spinor_qed_massless",
                 "scalar_qed_massive", "scalar_qed_massless"):
        v = validate(builtin(name))
        checks.append(v.renormalizability == "renormalizable" and v.wal_eligible)
    v0 = validate(builtin("scalar_model", c_const=0))
    checks.append(v0.renormalizability == "super-renormalizable" and not v0.wal_eligible)
    v1 = validate(builtin("scalar_model"))
    checks.append(v1.renormalizability == "renormalizable" and v1.wal_eligible)
    phi3 = parse_model_spec(
        "[fields]\nphi scalar 0.0 0 0\n[vertices]\ng = 1/6 * phi^3\n[options]\nc = 1\n"
    )
    checks.append(not validate(phi3).wal_eligible)
    elapsed = time.monotonic() - t0
    _report(3, all(checks) and elapsed < 1.0, "verdict matrix exact", t0)


# --------------------------------------------------------------------------- 4


def _toy_two_scalars():
    return parse_model_spec(
        "[fields]\nx scalar 0.0 0 0\ny scalar 0.0 0 0\n[vertices]\n[options]\nc = 0\n"
    )


def _pairing_moment(model, left, right, cov):
    """Sum over complete pairings weighted by cov[(lslot, rslot, f)]."""
    total = None
    for t in complete_pairings(left, right, model, require_full=True):
        w = t.const.re if total is None or True else None
        w = t.const.re
        for p in t.pairs:
            w = w * cov[(p.left_slot, p.right_slot, p.left_gen.field)]
        total = w if total is None else total + w
    zero = Fraction(0) if isinstance(next(iter(cov.values())), Fraction) else 0.0
    return zero if total is None else total


def _oracle_moment(left, right, cov):
    occ = []
    for i, s in enumerate(left):
        for g, m in s.entries:
            occ += [("L", i, g.field)] * m
    for j, s in enumerate(right):
        for g, m in s.entries:
            occ += [("R", j, g.field)] * m
    n = len(occ)
    exact = isinstance(next(iter(cov.values())), Fraction)
    zero = Fraction(0) if exact else 0.0
    cmat = [[zero] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            sa, ia, fa = occ[a]
            sb, ib, fb = occ[b]
            if sa == "L" and sb == "R" and fa == fb:
                cmat[a][b] = cmat[b][a] = cov[(ia, ib, fa)]
    return isserlis_oracle(cmat, list(range(n)))


def test_criterion_4_wick_isserlis_equivalence():
    t0 = time.monotonic()
    toy = _toy_two_scalars()
    gx, gy = Generator(0), Generator(1)

    def mono(a, b):
        return SuperQuadriIndex.from_pairs([(gx, a), (gy, b)])

    # exact: all bosonic monomial pairs of total degree <= 8
    cov = {
        (0, 0, 0): Fraction(2, 3),
        (0, 0, 1): Fraction(-3, 7),
    }
    n_exact = 0
    for (a, b), (c, d) in itertools.product(
        itertools.product(range(5), repeat=2), repeat=2
    ):
        if a + b + c + d > 8:
            continue
        left, right = [mono(a, b)], [mono(c, d)]
        assert _pairing_moment(toy, left, right, cov) == _oracle_moment(left, right, cov)
        n_exact += 1

    # float: 100 random covariances, two slots per side, total degree <= 6
    rng = np.random.default_rng(11)
    n_float = 0
    while n_float < 100:
        degs = rng.integers(0, 3, size=(2, 2, 2))
        if degs.sum() > 6 or degs[0].sum() != degs[1].sum():
            continue
        left = [mono(*degs[0, i]) for i in range(2)]
        right = [mono(*degs[1, j]) for j in range(2)]
        cov = {
            (i, j, f): float(rng.normal())
            for i in range(2)
            for j in range(2)
            for f in (0, 1)
        }
        got = _pairing_moment(toy, left, right, cov)
        expect = _oracle_moment(left, right, cov)
        assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))
        n_float += 1
    elapsed = time.monotonic() - t0
    _report(4, elapsed < 30.0,
            f"{n_exact} exact monomial pairs + {n_float} random covariances", t0)


# --------------------------------------------------------------------------- 5


def test_criterion_5_ordered_partition_combinatorics():
    t0 = time.monotonic()
    counts = [len(expand_aT(n).terms) for n in range(1, 5)]
    ok = counts == [1, 3, 13, 75]
    for n in range(1, 5):
        for side in ("left", "right"):
            ok = ok and telescoping_sum(n, side=side) == {}
            ok = ok and telescoping_sum(n, parities=[1] * n, side=side) == {}
    elapsed = time.monotonic() - t0
    _report(5, ok and elapsed < 5.0, f"counts {counts}, telescoping exact to n=4", t0)


# --------------------------------------------------------------------------- 6


def test_criterion_6_one_loop_bubble():
    t0 = time.monotonic()
    m = 1.0

    def kallen(s):
        lam = (s - 2 * m * m) ** 2 - 4 * m**4
        return math.sqrt(lam) / (8 * math.pi * s) if s > 4 * m * m and lam > 0 else 0.0

    worst = 0.0
    for s in np.linspace(4.0 * m * m + 1e-6, 100.0 * m * m, 173):
        got = two_body_phase_space(m, m, float(s))
        expect = kallen(float(s))
        worst = max(worst, abs(got - expect) / max(abs(expect), 1e-300))
    ok = worst < 1e-6

    se = central_normalize(SelfEnergy(bubble_density(m, m)), omega=2)
    sigma0 = abs(dispersion_eval(se, 0.0))
    h = 1e-3 * m * m
    d1 = (dispersion_eval(se, h).real - dispersion_eval(se, -h).real) / (2 * h)
    d2 = (dispersion_eval(se, h / 2).real - dispersion_eval(se, -h / 2).real) / h
    dsigma0 = abs((4 * d2 - d1) / 3)
    ok = ok and sigma0 < 1e-8 and dsigma0 < 1e-8
    elapsed = time.monotonic() - t0
    _report(6, ok and elapsed < 60.0,
            f"phase space rel err {worst:.1e}; |Sigma(0)|={sigma0:.1e}, "
            f"|Sigma'(0)|={dsigma0:.1e}", t0)


# --------------------------------------------------------------------------- 7


def test_criterion_7_normalization_necessity():
    t0 = time.monotonic()
    model = builtin("scalar_model")
    rep0 = appendix_c_demo(model, 0.0)
    agree = abs(rep0.advanced.estimate - rep0.retarded.estimate)
    scale = max(abs(rep0.advanced.estimate), 1e-6)
    ok = rep0.advanced.converged and rep0.retarded.converged
    ok = ok and agree <= 2e-4 * max(scale, 1.0)

    slopes = {}
    for c in (0.5, 1.0, 2.0):
        rep = appendix_c_demo(model, c)
        s = rep.advanced.log_slope
        significant = abs(s) > 2.0 * rep.advanced.slope_sigma
        ok = ok and significant and not rep.advanced.converged
        slopes[c] = s
    k = slopes[1.0]
    lin = max(abs(slopes[c] / (k * c) - 1.0) for c in (0.5, 1.0, 2.0))
    ok = ok and lin <= 0.05
    elapsed = time.monotonic() - t0
    _report(
        7,
        ok and elapsed < 300.0,
        f"c=0 converges (adv-ret {agree:.1e}); slopes linear in c within {lin:.2%}",
        t0,
    )


# --------------------------------------------------------------------------- 8


def test_criterion_8_ratio_vs_direct_decay():
    t0 = time.monotonic()
    rep = gl_vs_eg_second_order(builtin("scalar_model"))
    ok = rep.exponent >= 0.8 and rep.order0_difference == 0.0
    elapsed = time.monotonic() - t0
    _report(8, ok and elapsed < 300.0,
            f"decay exponent {rep.exponent:.2f} >= 0.8", t0)


# --------------------------------------------------------------------------- 9


def test_criterion_9_distribution_toolkit():
    t0 = time.monotonic()

    def tilted(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * np.sum(x * x, axis=-1)) * (1.0 + x[..., 0])

    est_d = scaling_degree_estimate(lambda p: p(np.zeros(4)), 4, base=tilted)
    h = 1e-7

    def ddelta(p):
        e = np.zeros(4)
        e[0] = h
        return -(p(e) - p(-e)) / (2 * h)

    est_dd = scaling_degree_estimate(ddelta, 4, base=tilted)
    ok = abs(est_d.value - 4.0) <= 0.05 and abs(est_dd.value - 5.0) <= 0.05

    g0, _, box3 = gaussian_probe(1.0)
    resid = abs(riesz_check(box3, g0)) / (2 * math.pi) ** 4
    ok = ok and resid < 1e-4

    rng = np.random.default_rng(5)
    for n in (1, 2):
        th = SplittingTheta(n=n)
        ys = rng.normal(scale=2.0, size=(100_000, n, 4))
        v = theta_eval(th, ys)
        r = np.sqrt(np.sum(ys**2, axis=(1, 2)))
        s0 = np.sum(ys[:, :, 0], axis=1)
        big = r >= th.ell
        ok = ok and bool(np.all((0 <= v) & (v <= 1)))
        ok = ok and bool(np.all(v[big & (s0 >= r / (3 * n))] == 1.0))
        ok = ok and bool(np.all(v[big & (-s0 >= r / (3 * n))] == 0.0))
        ok = ok and bool(np.array_equal(v[big], 1.0 - theta_eval(th, -ys)[big]))
        lam = 1.0 + 3.0 * rng.random(int(big.sum()))
        ok = ok and bool(
            np.allclose(
                theta_eval(th, ys[big] * lam[:, None, None]), v[big], atol=1e-12
            )
        )
    elapsed = time.monotonic() - t0
    _report(
        9,
        ok and elapsed < 60.0,
        f"sd(delta)={est_d.value:.3f}, sd(d delta)={est_dd.value:.3f}, "
        f"Riesz residual {resid:.1e}, Theta properties exact on 1e5 samples",
        t0,
    )


def test_zz_summary():
    print("\n" + "\n".join(RESULTS), file=sys.stderr)
    assert len(RESULTS) == 9
