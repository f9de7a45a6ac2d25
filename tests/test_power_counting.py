"""Counting functional tests: ext/der, omega forms, bounds, IR indices."""
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egqft.exact import DomainError
from egqft.model_registry import (
    BUILTIN_NAMES,
    ModelError,
    ModelSpec,
    builtin,
    parse_model_spec,
    validate,
)
from egqft.power_counting import (
    VANISHING_SECTOR,
    CountingError,
    SList,
    classify,
    der,
    ext,
    omega_general,
    omega_massless,
)
from egqft.symbolic_fields import (
    AlgebraError,
    FieldEntry,
    FieldTable,
    Generator,
    Polynomial,
    QuantumNumbers,
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


# ----------------------------------------------------------------- merge-and-Fraction reference
# The counting functions as they were before omega summed integers from a
# per-model table: every list merged through SList.total(), every entry read
# from the field table, Fraction arithmetic, validate() on each call.


def _as_int(x: Fraction):
    return int(x) if x.denominator == 1 else None


def _ref_ext(s: SList, field: int) -> int:
    """Number of occurrences of the field (any derivative order) in the list."""
    return sum(m for g, m in s.total().entries if g.field == field)


def _ref_der(s: SList, field: int) -> int:
    """Total number of derivatives carried by occurrences of the field."""
    return sum(m * g.d_order for g, m in s.total().entries if g.field == field)


def _ref_omega_massless(model, u: SList):
    """omega = 4 - sum_i [dim(A_i) ext_u(A_i) + der_u(A_i)] for eligible models."""
    verdict = validate(model)
    if not verdict.wal_eligible:
        raise CountingError(
            "model is not weak-adiabatic-limit eligible: " + "; ".join(verdict.reasons)
        )
    total = Fraction(4)
    for g, m in u.total().entries:
        total -= m * (model.fields.entry(g.field).numbers.dim + g.d_order)
    v = _as_int(total)
    return VANISHING_SECTOR if v is None else v


def _outcome(f, *args):
    """f's value, or the type and text of the domain error it raises."""
    try:
        return f(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def _same(f, ref, *args):
    got, want = _outcome(f, *args), _outcome(ref, *args)
    assert (got is VANISHING_SECTOR) == (want is VANISHING_SECTOR), (got, want)
    assert got == want


_GOLDEN = Path(__file__).with_name("golden")
_MODELS = [builtin(name) for name in BUILTIN_NAMES] + [
    parse_model_spec((_GOLDEN / f"{name}.model").read_text())
    for name in ("two_scalar", "dirac", "ghosts")
]
_TAGS = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 2, 1, 0)]


@st.composite
def _model_and_list(draw):
    """A model and an s-list over its field table: empty lists and items,
    derivative tags, multiplicities 0-3."""
    model = draw(st.sampled_from(_MODELS))
    entry = st.tuples(
        st.builds(Generator, st.integers(0, len(model.fields) - 1), st.sampled_from(_TAGS)),
        st.integers(0, 3),
    )
    items = draw(st.lists(st.builds(SuperQuadriIndex.from_pairs, st.lists(entry, max_size=5)),
                          max_size=4))
    return model, SList(tuple(items))


@settings(deadline=None, max_examples=300)
@given(_model_and_list(), st.integers(0, 13))
def test_property_integer_counting_equals_merge_reference(model_u, field):
    """omega_massless, ext and der agree with the merge-and-Fraction reference,
    values and VANISHING_SECTOR identity alike, or raise the same error."""
    model, u = model_u
    _same(omega_massless, _ref_omega_massless, model, u)
    _same(ext, _ref_ext, u, field)
    _same(der, _ref_der, u, field)


def test_integer_counting_errors_match_reference():
    phi = SM.fields.index("phi")
    ok = index_of(Generator(phi))
    # two ineligible models (a dim-3 vertex at c = 0, and ghosts.model), then
    # a c the verdict refuses
    for model in (builtin("scalar_model", c_const=0), _MODELS[-1]):
        assert _outcome(omega_massless, model, SList.of(ok))[0] is CountingError
        _same(omega_massless, _ref_omega_massless, model, SList.of(ok))
    c2 = builtin("scalar_model", c_const=2)
    assert _outcome(omega_massless, c2, SList.of()) == (ModelError, "c must be 0 or 1, got 2")
    _same(omega_massless, _ref_omega_massless, c2, SList.of())
    # a dangling field index, also behind a valid item; a zero multiplicity
    # of a dangling index is dropped by the merge and raises nothing
    for u in (SList.of(index_of(Generator(99))), SList.of(ok, index_of(Generator(7), Generator(5)))):
        _same(omega_massless, _ref_omega_massless, SM, u)
    assert _outcome(omega_massless, SM, SList.of(index_of(Generator(9)))) == (
        AlgebraError, "dangling field index 9")
    zero = SList.of(SuperQuadriIndex(((Generator(99), 0),)), ok)
    assert omega_massless(SM, zero) == _ref_omega_massless(SM, zero) == 3
    # a negative multiplicity, built without the merge that refuses it, raises
    # before a dangling index in an earlier item is looked up
    neg = SuperQuadriIndex(((Generator(phi), -1),))
    for u in (SList.of(neg), SList.of(ok, neg), SList.of(index_of(Generator(99)), neg)):
        assert _outcome(omega_massless, SM, u) == (AlgebraError, "negative multiplicity")
        _same(omega_massless, _ref_omega_massless, SM, u)
        _same(ext, _ref_ext, u, phi)
        _same(der, _ref_der, u, phi)


def test_integer_counting_with_a_field_of_dimension_one_third():
    """A table built in Python with a field of dimension 1/3 counts exactly:
    omega = 4 - 3 * (1/3) - 1 = 2, and a non-integer total is VANISHING_SECTOR."""
    def entry(i, name, dim):
        return FieldEntry(name, "scalar", name, 0, QuantumNumbers(0, 0, dim, 0.0), i)

    table = FieldTable([entry(0, "phi", Fraction(1)), entry(1, "chi", Fraction(1, 3))])
    phi, chi = Polynomial.of_field(table, "phi"), Polynomial.of_field(table, "chi")
    vertex = phi * phi * phi * chi * chi * chi
    model = ModelSpec("third", table, (("g", vertex),), 0)
    assert validate(model).wal_eligible
    g_chi, g_phi = Generator(1), Generator(0)
    cases = [
        (SList.of(SuperQuadriIndex.from_pairs([(g_chi, 3)]), index_of(g_phi)), 2),
        (SList.of(index_of(g_chi)), VANISHING_SECTOR),
        (SList.of(index_of(g_chi, Generator(1, (1, 0, 0, 0)), g_phi), index_of(g_chi)), 1),
        (SList.of(), 4),
    ]
    for u, want in cases:
        assert omega_massless(model, u) == want  # the marker compares by identity
        _same(omega_massless, _ref_omega_massless, model, u)


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
            assert om == og


def sd_bound(model, polys) -> Fraction:
    """Scaling-degree bound sum_j (dim(B_j) + c) for homogeneous arguments."""
    return sum((canonical_dim(p) + model.c_const for p in polys), Fraction(0))


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


# ----------------------------------------------------------------- IR indices
# The infrared-index arithmetic of the product and splitting rules.


@dataclass(frozen=True)
class IrIndex:
    """Integer infrared regularity grade near zero momentum.

    scope="underline": translation-invariant, all variables jointly;
    scope="partial":   with respect to a distinguished subset of variables.
    Holding at d implies holding at every d' <= d.
    """

    value: int
    scope: str = "underline"

    def __post_init__(self):
        if self.scope not in ("underline", "partial"):
            raise CountingError(f"bad IR-index scope {self.scope!r}")

    def weaken(self, d: int) -> "IrIndex":
        if d > self.value:
            raise CountingError("IR-index only weakens downward")
        return IrIndex(d, self.scope)


@dataclass(frozen=True)
class SplitResult:
    index: IrIndex
    limit_exists: bool  # d = 1 case: constant + remainder vanishing at zero


def ir_index_product(
    d: IrIndex,
    d_prime: IrIndex,
    pairing_stats: Mapping[int, tuple[int, int]],
    dims: Mapping[int, Fraction | int],
    masses: Mapping[int, float] | None = None,
) -> IrIndex:
    """d'' = d + d' + sum_i [dim(A_i) ext(A_i) + der(A_i)] - 4.

    pairing_stats maps field index -> (ext, der) of the contracted lines;
    every paired field must be massless.  Scope: underline*underline stays
    underline; one partial operand makes the result partial (all variables
    except the non-distinguished ones of the partial factor).
    """
    if d.scope == "partial" and d_prime.scope == "partial":
        raise CountingError("product rule covers at most one partial-scope factor")
    total = Fraction(d.value + d_prime.value - 4)
    for fid, (e, dd) in pairing_stats.items():
        if masses is not None and masses.get(fid, 0.0) > 0:
            raise CountingError(
                f"paired field {fid} is massive; the product rule applies to "
                f"massless contractions only"
            )
        if e == 0 and dd != 0:
            raise CountingError("der > 0 with ext = 0 is inconsistent")
        total += Fraction(dims[fid]) * e + dd
    v = _as_int(total)
    if v is None:
        raise CountingError(f"non-integer IR-index {total}")
    scope = "underline" if (d.scope == d_prime.scope == "underline") else "partial"
    return IrIndex(v, scope)


def ir_index_split(d: IrIndex) -> SplitResult:
    """Splitting keeps min(d, 0); d = 1 additionally leaves a constant plus a
    remainder that vanishes at zero momentum (the limit exists)."""
    if d.scope != "partial":
        raise CountingError("splitting rule is stated for partial-scope indices")
    return SplitResult(IrIndex(min(d.value, 0), "partial"), limit_exists=(d.value == 1))


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
