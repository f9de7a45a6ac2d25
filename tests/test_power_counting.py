"""Counting functional tests: ext/der, omega forms, bounds, IR indices."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egqft.model_registry import builtin, parse_model_spec
from egqft.power_counting import (
    VANISHING_SECTOR,
    CountingError,
    IrIndex,
    SList,
    classify,
    der,
    ext,
    ir_index_product,
    ir_index_split,
    omega_general,
    omega_massless,
    omega_prime,
    sd_bound,
)
from egqft.symbolic_fields import (
    Generator,
    Polynomial,
    SuperQuadriIndex,
    canonical_dim,
    index_of,
    subpolynomials,
)

QED = builtin("spinor_qed_massive")
SM = builtin("scalar_model")


def test_ext_der_examples():
    a0 = QED.fields.index("A_0")
    a1 = QED.fields.index("A_1")
    s = SList.of(index_of(Generator(a0)), index_of(Generator(a1)))
    assert ext(s, a0) == 1 and ext(s, a1) == 1
    assert der(s, a0) == 0
    phi = SM.fields.index("phi")
    sd = SList.of(SuperQuadriIndex.from_pairs([(Generator(phi, (1, 0, 0, 0)), 2)]))
    assert ext(sd, phi) == 2 and der(sd, phi) == 2
    empty = SList.of()
    assert ext(empty, phi) == 0 and der(empty, phi) == 0


_indices = st.builds(
    SuperQuadriIndex.from_pairs,
    st.lists(st.tuples(st.builds(Generator, st.integers(0, 5),
                                 st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 2, 1)])),
                       st.integers(0, 3)), max_size=4),
)


@settings(deadline=None)
@given(st.lists(_indices, max_size=4))
def test_property_total_equals_pairwise_add_fold(items):
    """One merge over every item's entries is the left fold of add."""
    fold = SuperQuadriIndex()
    for s in items:
        fold = fold.add(s)
    assert SList(tuple(items)).total() == fold


def test_omega_general_examples():
    assert omega_general([Fraction(3), Fraction(3)], 0) == 2  # T(j, j)
    assert omega_general([2, 2], 1) == 2  # two squared-field blocks, c = 1
    assert omega_general([4], 0) == 4
    assert omega_general([Fraction(3, 2), Fraction(3)], 0) is VANISHING_SECTOR


def test_omega_massless_examples():
    a = [QED.fields.index(f"A_{mu}") for mu in range(4)]
    u = SList.of(index_of(Generator(a[0])), index_of(Generator(a[1])))
    assert omega_massless(QED, u) == 2
    phi = SM.fields.index("phi")
    u2 = SList.of(SuperQuadriIndex.from_pairs([(Generator(phi), 2)]))
    assert omega_massless(SM, u2) == 2
    assert omega_massless(SM, SList.of()) == 4
    with pytest.raises(CountingError, match="eligible"):
        omega_massless(builtin("scalar_model", c_const=0), SList.of())


def _massless_subindices(model):
    """Sub-indices of the first vertex supported on massless fields."""
    massless = model.massless_fields()
    out = []
    for s, _ in subpolynomials(model.vertex(0), view="all"):
        if s.involves_only(massless):
            out.append(s)
    return out


def test_omega_form_equivalence_random():
    rng = random.Random(42)
    for name in ("spinor_qed_massive", "scalar_qed_massive", "scalar_model",
                 "spinor_qed_massless", "scalar_qed_massless"):
        model = builtin(name)
        L = model.vertex(0)
        dimL = canonical_dim(L)
        cands = _massless_subindices(model)
        for _ in range(200):
            k = rng.randint(1, 4)
            u = SList.of(*(rng.choice(cands) for _ in range(k)))
            om = omega_massless(model, u)
            dims = [dimL - sum((model.fields.gen_dim(g)) * m for g, m in s.entries)
                    for s in u.items]
            og = omega_general(dims, model.c_const)
            op = omega_prime(dims, model.c_const)
            assert om == og == op


def test_sd_bound():
    L = SM.vertex("e")
    assert sd_bound(SM, [L, L]) == 8
    one = Polynomial.unit(SM.fields)
    c0 = builtin("scalar_model", c_const=0)
    assert sd_bound(c0, [L, L, one]) == sd_bound(c0, [L, L])
    assert sd_bound(SM, []) == 0


def test_classify():
    assert classify(QED) == "renormalizable"
    assert classify(builtin("scalar_model", c_const=0)) == "super-renormalizable"
    heavy = parse_model_spec(
        "[fields]\nphi scalar 0.0 0 0\n[vertices]\ng = 1 * phi^4\n[options]\nc = 1\n"
    )
    assert classify(heavy) == "nonrenormalizable"


def test_ir_index_product():
    d = IrIndex(4, "underline")
    dp = IrIndex(4, "underline")
    out = ir_index_product(d, dp, {0: (2, 0)}, {0: 1}, {0: 0.0})
    assert out == IrIndex(6, "underline")
    out = ir_index_product(d, dp, {}, {})
    assert out.value == 4
    # wAL-shaped inputs: each block carries 4 minus its external weight minus
    # its share of the contracted lines; the pairing term restores the shares
    # and the product lands back on 4 minus the total external weight
    rng = random.Random(9)
    for _ in range(100):
        ext1, ext2 = rng.randint(0, 3), rng.randint(0, 3)
        sh1, sh2 = rng.randint(0, 3), rng.randint(0, 3)
        out = ir_index_product(
            IrIndex(4 - ext1 - sh1),
            IrIndex(4 - ext2 - sh2),
            {0: (sh1 + sh2, 0)},
            {0: 1},
            {0: 0.0},
        )
        assert out.value == 4 - (ext1 + ext2)
    with pytest.raises(CountingError, match="massive"):
        ir_index_product(d, dp, {0: (2, 0)}, {0: 1}, {0: 1.0})
    mixed = ir_index_product(IrIndex(1, "partial"), dp, {}, {})
    assert mixed.scope == "partial"
    with pytest.raises(CountingError):
        ir_index_product(IrIndex(1, "partial"), IrIndex(1, "partial"), {}, {})


def test_ir_index_split():
    r = ir_index_split(IrIndex(-3, "partial"))
    assert r.index.value == -3 and not r.limit_exists
    r = ir_index_split(IrIndex(1, "partial"))
    assert r.index.value == 0 and r.limit_exists
    r = ir_index_split(IrIndex(5, "partial"))
    assert r.index.value == 0 and not r.limit_exists
    with pytest.raises(CountingError):
        ir_index_split(IrIndex(1, "underline"))


def test_monotonicity_weaken():
    d = IrIndex(3, "underline")
    assert d.weaken(1).value == 1
    with pytest.raises(CountingError):
        d.weaken(4)
