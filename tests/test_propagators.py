"""Two-point structures, gamma algebra, phase space, Riesz distribution."""
import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest
from scipy import integrate

from egqft.adiabatic_limits import gaussian_probe, riesz_check
from egqft.exact import QRat
from egqft.model_registry import builtin
from egqft.propagators_kinematics import KinematicsError, two_body_phase_space
from egqft.symbolic_fields import Generator
from egqft.wightman import METRIC, gamma, gamma0_gamma, mat_mul, two_point

QED = builtin("spinor_qed_massive")
SM = builtin("scalar_model")


def gamma_np(mu: int) -> np.ndarray:
    return np.array([[complex(x) for x in row] for row in gamma(mu)])


def two_body_phase_space_vec(m1: float, m2: float, q) -> float:
    """two_body_phase_space from a total 4-momentum; zero outside the forward
    mass shell."""
    q = np.asarray(q, dtype=float)
    s = float(q[0] ** 2 - q[1] ** 2 - q[2] ** 2 - q[3] ** 2)
    if q[0] <= 0 or s <= (m1 + m2) ** 2:
        return 0.0
    return two_body_phase_space(m1, m2, s)


def kallen_phase_space(m1, m2, s):
    """Closed-form oracle sqrt(lambda(s, m1^2, m2^2)) / (8 pi s)."""
    lam = (s - m1 * m1 - m2 * m2) ** 2 - 4 * m1 * m1 * m2 * m2
    if s <= (m1 + m2) ** 2 or lam <= 0:
        return 0.0
    return math.sqrt(lam) / (8.0 * math.pi * s)


# --------------------------------------------------------------------------- gamma algebra


IDENTITY4 = tuple(tuple(QRat(int(i == j)) for j in range(4)) for i in range(4))


def gamma_trace(indices: Sequence[int]) -> complex:
    """Trace of the explicit product gamma^mu1 ... gamma^muk."""
    m = IDENTITY4
    for mu in indices:
        m = mat_mul(m, gamma(mu))
    return complex(sum((m[i][i] for i in range(4)), QRat(0)))



def test_clifford_relations_exact():
    for mu in range(4):
        for nu in range(4):
            anti = [
                [
                    mat_mul(gamma(mu), gamma(nu))[i][j]
                    + mat_mul(gamma(nu), gamma(mu))[i][j]
                    for j in range(4)
                ]
                for i in range(4)
            ]
            expect = QRat(2 * METRIC[mu]) if mu == nu else QRat(0)
            for i in range(4):
                for j in range(4):
                    assert anti[i][j] == (expect if i == j else QRat(0))


def test_gamma0_gamma_table_is_the_reordered_product():
    """gamma0_gamma(mu) = gamma^0 gamma^mu = g_mumu gamma^mu gamma^0, entry
    by entry and exactly: the Dirac weight reads the table in that form."""
    g0 = gamma(0)
    for mu in range(4):
        table = gamma0_gamma(mu)
        assert table == mat_mul(g0, gamma(mu))
        reordered = mat_mul(gamma(mu), g0)
        for a, b in itertools.product(range(4), repeat=2):
            assert table[a][b] == reordered[a][b] * METRIC[mu]


def test_gamma_traces():
    g = METRIC
    for mu in range(4):
        for nu in range(4):
            assert gamma_trace([mu, nu]) == 4 * (g[mu] if mu == nu else 0)
    for idx in ([0], [1, 2, 3], [0, 0, 1]):
        assert gamma_trace(idx) == 0
    # explicit four-index identity against matrix multiplication
    def gmn(a, b):
        return g[a] if a == b else 0

    for mu, nu, rho, sig in itertools.product(range(4), repeat=4):
        expect = 4 * (
            gmn(mu, nu) * gmn(rho, sig)
            - gmn(mu, rho) * gmn(nu, sig)
            + gmn(mu, sig) * gmn(nu, rho)
        )
        m = np.eye(4, dtype=complex)
        for t in (mu, nu, rho, sig):
            m = m @ gamma_np(t)
        assert gamma_trace([mu, nu, rho, sig]) == pytest.approx(expect)
        assert np.trace(m) == pytest.approx(expect)


# --------------------------------------------------------------------------- two-point keys


def test_vector_pair_weights():
    # <A_mu A_nu> = i g_mu_nu D0+, i.e. weight -g_mu_nu on the on-shell measure
    for mu in range(4):
        for nu in range(4):
            gmu = Generator(QED.fields.index(f"A_{mu}"))
            gnu = Generator(QED.fields.index(f"A_{nu}"))
            key = two_point(QED, gmu, gnu)
            if mu != nu:
                assert key is None
            else:
                assert key.mass == 0.0
                assert key.prefactor.coeffs == {(0, 0, 0, 0): QRat(-METRIC[mu])}


def test_scalar_cross_pair_zero():
    assert two_point(SM, Generator(0), Generator(1)) is None
    assert two_point(SM, Generator(0), Generator(0)) is not None


def test_charge_conservation():
    sq = builtin("scalar_qed_massive")
    phi = Generator(sq.fields.index("phi"))
    phistar = Generator(sq.fields.index("phi*"))
    assert two_point(sq, phi, phi) is None
    assert two_point(sq, phi, phistar) is not None
    psi = Generator(QED.fields.index("psi_1"))
    assert two_point(QED, psi, psi) is None


def test_derivative_rule_momentum_power():
    dphi = Generator(0, (1, 0, 0, 0))
    phi = Generator(0)
    key = two_point(SM, dphi, phi)
    assert key.prefactor.degree() == 1
    # left derivative in time direction: factor -i k^0
    assert key.prefactor.coeffs == {(1, 0, 0, 0): QRat(0, -1)}
    key2 = two_point(SM, phi, dphi)
    assert key2.prefactor.coeffs == {(1, 0, 0, 0): QRat(0, 1)}
    k = np.array([2.0, 0.3, 0.0, 0.0])
    assert key.evaluate(k) == pytest.approx(-2j)


def test_dirac_pair_structure():
    psi = Generator(QED.fields.index("psi_1"))
    psibar2 = Generator(QED.fields.index("psi*_2"))
    key = two_point(QED, psi, psibar2)
    # (kslash + m) gamma0, element (0, 1): vanishes identically
    assert key is None
    psibar1 = Generator(QED.fields.index("psi*_1"))
    key = two_point(QED, psi, psibar1)
    k = np.array([1.0, 0.0, 0.0, 0.5])
    kslash = k[0] * gamma_np(0) - k[3] * gamma_np(3)
    expect = ((kslash + np.eye(4)) @ gamma_np(0))[0, 0]
    assert key.evaluate(k) == pytest.approx(expect)
    # mass matching: two-point vanishes between different masses
    massless = builtin("spinor_qed_massless")
    assert massless.fields.entry(4).numbers.mass == 0.0


@pytest.mark.parametrize("charge", [-1, 0, 1])
def test_dirac_order_follows_the_block_not_the_charge(charge):
    """psi psi* carries (kslash + m) gamma0 and psi* psi (kslash - m) gamma0
    whatever charge the field declares: the psi_1 psi*_1 mass term is +1, the
    psi*_1 psi_1 one is -1, and every element matches the charge -1 builtin."""
    from egqft.model_registry import parse_model_spec

    model = parse_model_spec(f"[fields]\npsi dirac 1.0 {charge} 1\n[vertices]\n")
    gen = lambda name: Generator(model.fields.index(name))
    for left, right, mass_term in (("psi_1", "psi*_1", 1), ("psi*_1", "psi_1", -1)):
        coeffs = two_point(model, gen(left), gen(right)).prefactor.coeffs
        assert coeffs[(0, 0, 0, 0)] == QRat(mass_term), (left, right)
    for a, b in itertools.product(range(1, 5), repeat=2):
        for left, right in ((f"psi_{a}", f"psi*_{b}"), (f"psi*_{a}", f"psi_{b}")):
            got = two_point(model, gen(left), gen(right))
            want = two_point(QED, *(Generator(QED.fields.index(n)) for n in (left, right)))
            assert (got and got.prefactor.coeffs) == (want and want.prefactor.coeffs), (left, right)


def test_two_point_mass_matching_scan():
    for gl in range(len(SM.fields)):
        for gr in range(len(SM.fields)):
            key = two_point(SM, Generator(gl), Generator(gr))
            if key is not None:
                ml = SM.fields.entry(gl).numbers.mass
                mr = SM.fields.entry(gr).numbers.mass
                assert ml == mr == key.mass


# --------------------------------------------------------------------------- propagator


@dataclass(frozen=True)
class PlemeljSplit:
    """i/(q^2 - m^2 + i0) split as i*PV(1/(q^2-m^2)) + pi*delta(q^2-m^2)."""

    pv_value: complex  # i/(q2 - m2), the principal-value integrand off shell
    delta_strength: float  # weight of delta(q2 - m2)
    pole: float  # s = m^2


def feynman_propagator(mass: float, q, iepsilon: float | None = None, mode: str = "eps"):
    """Scalar Feynman propagator i/(q^2 - m^2 + i eps).

    `q` is a 4-vector or the invariant q^2.  mode="eps" evaluates at finite
    iepsilon > 0; mode="strict" refuses on-shell points; mode="pv" returns
    the PlemeljSplit decomposition instead of a number.
    """
    q = np.asarray(q, dtype=float)
    if q.shape == ():
        q2 = float(q)
    elif q.shape == (4,):
        q2 = float(q[0] ** 2 - q[1] ** 2 - q[2] ** 2 - q[3] ** 2)
    else:
        raise KinematicsError("q must be a scalar q^2 or a 4-vector")
    x = q2 - mass**2
    if mode == "pv":
        pv = 1j / x if x != 0.0 else complex("inf")
        return PlemeljSplit(pv_value=pv, delta_strength=math.pi, pole=mass**2)
    if mode == "strict":
        if abs(x) < 1e-12 * max(1.0, mass**2):
            raise KinematicsError(f"on-shell evaluation at q^2 = {q2}")
        return 1j / x
    if iepsilon is None or iepsilon <= 0:
        raise KinematicsError("iepsilon > 0 required in eps mode")
    return 1j / (x + 1j * iepsilon)



def test_feynman_propagator_values():
    assert feynman_propagator(1.0, 0.0, mode="strict") == pytest.approx(-1j)
    q = np.array([30.0, 0, 0, 0])
    val = feynman_propagator(0.0, q, mode="strict")
    assert abs(val) == pytest.approx(1.0 / 900.0)
    with pytest.raises(KinematicsError):
        feynman_propagator(1.0, 1.0, mode="strict")
    with pytest.raises(KinematicsError):
        feynman_propagator(1.0, 2.0, mode="eps", iepsilon=0.0)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_plemelj_split_matches_small_epsilon():
    """Integrating i/(s - m^2 + i eps) against a Gaussian approaches the
    principal-value plus i pi delta decomposition."""
    m = 1.0

    def g(s):
        return math.exp(-((s - 0.5) ** 2))

    eps = 1e-7
    # real part: eps g(s) / ((s-m^2)^2 + eps^2); substitute s = m^2 + eps t
    direct_re = integrate.quad(
        lambda t: g(m**2 + eps * t) / (1 + t**2), -np.inf, np.inf, limit=800
    )[0]
    direct_im = integrate.quad(
        lambda s: (1j / (s - m**2 + 1j * eps) * g(s)).imag,
        -8, 10, limit=800, points=[m**2],
    )[0]
    direct = direct_re + 1j * direct_im
    pv = integrate.quad(lambda s: g(s), m**2 - 4, m**2 + 4, weight="cauchy", wvar=m**2)[0]
    pv += integrate.quad(lambda s: g(s) / (s - m**2), -8, m**2 - 4, limit=200)[0]
    pv += integrate.quad(lambda s: g(s) / (s - m**2), m**2 + 4, 10, limit=200)[0]
    split = feynman_propagator(m, 123.0, mode="pv")
    assert split.delta_strength == pytest.approx(math.pi)
    expect = 1j * pv + split.delta_strength * g(m**2)
    assert abs(direct - expect) < 1e-6


# --------------------------------------------------------------------------- phase space


def test_phase_space_threshold_and_kallen():
    assert two_body_phase_space(1.0, 2.0, 9.0) == 0.0
    for s in np.linspace(4.001, 100.0, 37):
        got = two_body_phase_space(1.0, 1.0, float(s))
        assert got == pytest.approx(kallen_phase_space(1.0, 1.0, float(s)), rel=1e-12)
    for s in (0.5, 2.0, 17.0):
        got = two_body_phase_space(0.0, 0.0, s)
        assert got == pytest.approx(1.0 / (8.0 * math.pi), rel=1e-8)
    with pytest.raises(KinematicsError):
        two_body_phase_space(1.0, 1.0, -1.0)


@pytest.mark.parametrize("m1, m2", [(1.0, 1.0), (0.5, 1.5), (0.0, 0.0)])
def test_phase_space_is_finite_at_huge_s(m1, m2):
    """The Kallen root is a product of two roots divided by s before 8 pi:
    the large-s limit 1/(8 pi) holds out to the largest float."""
    for s in (1e160, 1e300, 1e307, sys.float_info.max):
        got = two_body_phase_space(m1, m2, s)
        assert math.isfinite(got) and abs(got - 1 / (8 * math.pi)) <= 1e-17, (s, got)


def test_phase_space_symmetry_and_boost():
    for s in (5.0, 11.5):
        assert two_body_phase_space(1.0, 2.0, s) == pytest.approx(
            two_body_phase_space(2.0, 1.0, s), abs=1e-14
        )
    q_rest = np.array([3.0, 0.0, 0.0, 0.0])
    beta = 0.6
    gam = 1.0 / math.sqrt(1 - beta**2)
    q_boost = np.array([gam * 3.0, gam * beta * 3.0, 0.0, 0.0])
    a = two_body_phase_space_vec(1.0, 1.0, q_rest)
    b = two_body_phase_space_vec(1.0, 1.0, q_boost)
    assert abs(a - b) < 1e-10


@dataclass(frozen=True)
class MassShellMeasure:
    """dmu_m(k) = (2pi)^-3 d^4k theta(k0) delta(k^2 - m^2)."""

    mass: float

    def energy(self, kvec_norm):
        return np.sqrt(kvec_norm**2 + self.mass**2)

    def integrate_radial(self, f: Callable, kmax: float, n: int = 400) -> float:
        """integral dmu_m f for f = f(k0, |kvec|), rotationally symmetric."""
        kk, w = np.polynomial.legendre.leggauss(n)
        kappa = 0.5 * kmax * (kk + 1.0)
        wk = 0.5 * kmax * w
        e = self.energy(kappa)
        vals = f(e, kappa)
        return float(np.sum(wk * vals * kappa**2 / (2.0 * e)) * 4.0 * math.pi / (2.0 * math.pi) ** 3)


def test_mass_shell_measure():
    mu = MassShellMeasure(0.0)
    # integral dmu_0 exp(-k0^2 - kappa^2): compare against direct radial form
    got = mu.integrate_radial(lambda e, k: np.exp(-(e**2) - k**2), kmax=10.0)
    expect = integrate.quad(
        lambda k: 4 * math.pi * k**2 / (2 * k) * math.exp(-2 * k**2), 0, 10
    )[0] / (2 * math.pi) ** 3
    assert got == pytest.approx(expect, rel=1e-9)


# --------------------------------------------------------------------------- Riesz distribution


def riesz_s(k) -> np.ndarray | float:
    """s(k) = (pi^3/4) k^2 theta(k0) theta(k^2); continuous, cone-supported."""
    k = np.asarray(k, dtype=float)
    if k.ndim == 1:
        k = k[None, :]
        squeeze = True
    else:
        squeeze = False
    k2 = k[:, 0] ** 2 - k[:, 1] ** 2 - k[:, 2] ** 2 - k[:, 3] ** 2
    out = (math.pi**3 / 4.0) * k2 * (k[:, 0] >= 0) * (k2 >= 0)
    return float(out[0]) if squeeze else out



def test_riesz_support_and_bound():
    rng = np.random.default_rng(3)
    k = rng.normal(scale=3.0, size=(100_000, 4))
    vals = riesz_s(k)
    k2 = k[:, 0] ** 2 - np.sum(k[:, 1:] ** 2, axis=1)
    outside = (k[:, 0] < 0) | (k2 < 0)
    assert np.all(vals[outside] == 0.0)
    norms2 = np.sum(k * k, axis=1)
    assert np.all(np.abs(vals) <= (math.pi**3 / 4.0) * norms2 + 1e-12)
    assert riesz_s(np.array([1.0, 2.0, 0.0, 0.0])) == 0.0  # spacelike


def test_riesz_inverts_cubed_wave_operator():
    g0, _, box3 = gaussian_probe(a=1.0)
    residual = riesz_check(box3, g0)
    assert abs(residual) / (2 * math.pi) ** 4 < 1e-4


def _box3_gaussian_reference():
    """sympy's box^3 of g = exp(-a |k|_E^2) on the k1 axis, differentiated
    once with a symbolic a, as (k0, r, a) -> value.  Each box acts on P g and
    is expanded back to a polynomial P, so the expression stays small."""
    import sympy as sp

    k0, k1, k2, k3 = sp.symbols("k0 k1 k2 k3", real=True)
    a = sp.symbols("a", positive=True)
    g = sp.exp(-a * (k0**2 + k1**2 + k2**2 + k3**2))
    box = lambda f: sp.diff(f, k0, 2) - sp.diff(f, k1, 2) - sp.diff(f, k2, 2) - sp.diff(f, k3, 2)
    p = sp.Integer(1)
    for _ in range(3):
        p = sp.expand(box(p * g) / g)
    r = sp.symbols("r", nonnegative=True)
    return sp.lambdify((k0, r, a), (p * g).subs({k1: r, k2: 0, k3: 0}), "numpy")


def test_gaussian_probe_closed_form_matches_sympy():
    k0, r = np.meshgrid(np.linspace(-3.0, 3.0, 25), np.linspace(0.0, 3.0, 13))
    reference = _box3_gaussian_reference()
    for a in (0.5, 1.0, 2.0):
        g0, g, box3 = gaussian_probe(a)
        want = reference(k0, r, a)
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(box3(k0, r), want, rtol=1e-12, atol=1e-12 * scale)
        assert g0 == 1.0 and g(0.0, 0.0) == 1.0
        # scalar k0 against an array of radii, as riesz_check calls it
        np.testing.assert_allclose(box3(0.7, r[:, 0]), box3(np.full(13, 0.7), r[:, 0]))


def test_gaussian_probe_does_not_import_sympy():
    code = (
        "import sys\n"
        "from egqft.adiabatic_limits import gaussian_probe, riesz_check\n"
        "g0, _, box3 = gaussian_probe(1.0)\n"
        "riesz_check(box3, g0)\n"
        "assert 'sympy' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_ghost_pair_two_point():
    from egqft.model_registry import parse_model_spec

    gm = parse_model_spec(
        "[fields]\neta ghost 0.0 0 1\n[vertices]\n[options]\nc = 0\n"
    )
    u = Generator(gm.fields.index("eta"))
    ubar = Generator(gm.fields.index("eta~"))
    key = two_point(gm, u, ubar)
    assert key is not None and key.mass == 0.0
    assert key.prefactor.coeffs == {(0, 0, 0, 0): QRat(-1)}
    assert two_point(gm, ubar, u) is not None
    assert two_point(gm, u, u) is None


DIRAC_K = np.array([1.3, 0.2, -0.7, 0.5])


def dirac_weight_np(mass: float, sign: int) -> np.ndarray:
    """(kslash + sign * m) gamma0 at DIRAC_K from the numpy gamma matrices."""
    kslash = sum(METRIC[mu] * DIRAC_K[mu] * gamma_np(mu) for mu in range(4))
    return (kslash + sign * mass * np.eye(4)) @ gamma_np(0)


@pytest.mark.parametrize("name", ["spinor_qed_massive", "spinor_qed_massless"])
def test_dirac_two_point_is_every_element_of_kslash_pm_m_gamma0(name):
    """<psi_a psi*_b> = ((kslash + m) gamma0)_ab and <psi*_a psi_b> =
    ((kslash - m) gamma0)_ba for all 16 (a, b), the vanishing elements
    included (None counts as 0)."""
    model = builtin(name)
    gen = lambda n: Generator(model.fields.index(n))
    mass = model.fields.entry(model.fields.index("psi_1")).numbers.mass
    plus, minus = dirac_weight_np(mass, 1), dirac_weight_np(mass, -1)
    for a, b in itertools.product(range(4), repeat=2):
        for left, right, expect in (
            (f"psi_{a + 1}", f"psi*_{b + 1}", plus[a, b]),
            (f"psi*_{a + 1}", f"psi_{b + 1}", minus[b, a]),
        ):
            key = two_point(model, gen(left), gen(right))
            got = 0 if key is None else key.evaluate(DIRAC_K)
            assert abs(got - expect) < 1e-12, (left, right, got, expect)


def test_spinor_vertex_full_contraction_count():
    """A full contraction of psi*_a psi_b A_mu with psi*_c psi_d A_nu pairs
    psi*_a with psi_d, psi_b with psi*_c and A_mu with A_nu; count the
    monomial pairs whose three weights are nonzero, from the numpy matrices."""
    from egqft.wick_pairing import complete_pairings

    vertex = [idx for idx, _ in QED.vertex("e").terms]
    got = sum(
        len(complete_pairings([x], [y], QED, require_full=True)) for x in vertex for y in vertex
    )
    mass = QED.fields.entry(QED.fields.index("psi_1")).numbers.mass
    plus, minus = (np.abs(dirac_weight_np(mass, s)) > 1e-12 for s in (1, -1))
    couplings = [np.abs(gamma_np(0) @ gamma_np(mu)) > 0 for mu in range(4)]
    expect = sum(
        minus[d, a] and plus[b, c]
        for c_mu in couplings
        for a, b in zip(*np.nonzero(c_mu))
        for c, d in zip(*np.nonzero(c_mu))
    )
    assert len(vertex) == 16
    assert got == expect == 48
