"""Record semantics: every library record is an immutable value, equal and
hashed as its field tuple, with a Name(field=value, ...) repr and _replace;
Generator orders by order_key alone; constructor validation keeps its
errors."""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from egqft.adiabatic_limits import (
    AdiabaticError,
    DecayReport,
    LimitReport,
    NormalizationDemoReport,
    ScaledProbe,
    ScaledTestFamily,
    SdEstimate,
    SecondOrderKit,
    SplittingTheta,
)
from egqft.causal_splitting import SelfEnergy, SpectralDensity
from egqft.exact import QRat
from egqft.model_registry import ModelSpec, ModelVerdict, builtin
from egqft.power_counting import SList
from egqft.symbolic_fields import (
    AlgebraError,
    FieldEntry,
    Generator,
    QuantumNumbers,
    SuperQuadriIndex,
)
from egqft.wick_pairing import ExpansionTerm, Factor, OpProductExpansion, Pair, PairingTerm, WickTerm
from egqft.wightman import MomentumPoly, TwoPointKey

G0, G1 = Generator(0), Generator(1, (0, 1, 0, 0))
IDX = SuperQuadriIndex(((G0, 2),))
NUMBERS = QuantumNumbers(fermion=1, charge=-1, dim=Fraction(3, 2), mass=1.0)
SCALAR = builtin("scalar_model")
LIMIT = LimitReport(1j, True, 0j, 0.5, ((0.3, 1j),), "gauss/adv")

# (record type, its fields in declaration order, one field and another value for it)
CASES = [
    (Generator, {"field": 1, "alpha": (0, 1, 0, 0)}, ("field", 2)),
    (QuantumNumbers, dict(NUMBERS._asdict()), ("mass", 0.0)),
    (FieldEntry, {"name": "psi_1", "kind": "dirac", "species": "psi", "component": 1,
                  "numbers": NUMBERS, "adjoint": 2}, ("adjoint", 3)),
    (SuperQuadriIndex, {"entries": ((G0, 2),)}, ("entries", ())),
    (ModelSpec, dict(SCALAR._asdict()), ("c_const", 0)),
    (ModelVerdict, {"renormalizability": "renormalizable", "wal_eligible": True,
                    "reasons": ("a reason",)}, ("reasons", ())),
    (SList, {"items": (IDX,)}, ("items", ())),
    (WickTerm, {"s_list": SList.of(IDX), "sign": -1, "weight": QRat(1, 2),
                "vev_args": (), "vev_forced_zero": False}, ("sign", 1)),
    (Pair, {"left_slot": 0, "left_gen": G0, "right_slot": 1, "right_gen": G1, "mass": 0.0},
     ("mass", 1.0)),
    (PairingTerm, {"pairs": (), "residual_left": SList.of(IDX), "residual_right": SList.of(),
                   "const": QRat(1), "classification": "vacuum"}, ("classification", "massive")),
    (Factor, {"kind": "T", "content": (0, "J")}, ("kind", "aT")),
    (ExpansionTerm, {"structural": -1, "factors": (Factor("T", (0,)),), "parities": (1,),
                     "j_parity": 0}, ("j_parity", 1)),
    (OpProductExpansion, {"n": 1, "terms": ()}, ("n", 2)),
    (TwoPointKey, {"left": G0, "right": G1, "mass": 0.0, "prefactor": MomentumPoly.constant(1)},
     ("mass", 1.0)),
    (SpectralDensity, {"threshold": 4.0, "growth": 0.0, "closed_form": None}, ("growth", -math.inf)),
    (SelfEnergy, {"density": SpectralDensity(4.0, 0.0), "n_sub": 1}, ("n_sub", 2)),
    (ScaledProbe, {"base": abs, "lam": 0.5}, ("lam", 0.25)),
    (SdEstimate, {"value": 4.0, "slope": 0.0, "residual": 0.0, "ok": True, "note": ""},
     ("ok", False)),
    (ScaledTestFamily, {"dim": 1, "sigma": 1.0, "centers": ((0.0,),), "weights": (1.0,),
                        "epsilons": (0.3, 0.2), "label": "gauss"}, ("sigma", 0.7)),
    (LimitReport, dict(LIMIT._asdict()), ("converged", False)),
    (SplittingTheta, {"n": 2, "ell": 1.0}, ("ell", 2.0)),
    (SecondOrderKit, {"feynman_pair": abs, "normalized_bubble": abs, "ps0": 0.04}, ("ps0", 1.0)),
    (NormalizationDemoReport, {"advanced": LIMIT, "retarded": LIMIT, "difference": LIMIT},
     ("difference", LIMIT._replace(estimate=0j))),
    (DecayReport, {"exponent": 1.5, "exponent_sigma": 0.01, "samples": ((0.3, 1e-3),),
                   "order0_difference": 0.0, "normalized": True}, ("normalized", False)),
]


@pytest.mark.parametrize("cls, fields, change", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_semantics(cls, fields, change):
    rec = cls(**fields)
    values = tuple(fields.values())
    assert cls(*values) == rec and tuple(getattr(rec, k) for k in fields) == values
    assert hash(rec) == hash(values)
    if cls is not SuperQuadriIndex:  # which writes itself as a monomial
        args = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(rec) == f"{cls.__name__}({args})"
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
    name, value = change
    other = rec._replace(**{name: value})
    assert type(other) is cls and getattr(other, name) == value and other != rec
    assert other._replace(**{name: getattr(rec, name)}) == rec
    assert rec == cls(**fields) and getattr(rec, name) == fields[name]


generators = st.builds(
    Generator, st.integers(0, 3), st.tuples(*[st.integers(0, 2)] * 4)
)


@given(st.lists(generators, min_size=1, max_size=8))
def test_property_generator_order_is_order_key(gens):
    """<, <=, >, >=, sorted, min and max on Generators follow order_key, not
    the (field, alpha) tuple order."""
    for a in gens:
        for b in gens:
            ka, kb = a.order_key(), b.order_key()
            assert ((a < b), (a <= b), (a > b), (a >= b)) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
            assert (a == b) == (ka == kb)
    assert sorted(gens) == sorted(gens, key=Generator.order_key)
    assert max(gens).order_key() == max(g.order_key() for g in gens)
    assert min(gens).order_key() == min(g.order_key() for g in gens)


def test_generator_orders_by_derivative_count_before_alpha():
    # one derivative in direction 3 sorts before two in direction 0
    low, high = Generator(0, (0, 0, 0, 1)), Generator(0, (2, 0, 0, 0))
    assert low < high and high > low and max(low, high) is high and (low, high) < (high, low)


@pytest.mark.parametrize("build, error, text", [
    (lambda: Generator(-1), AlgebraError, "negative field index"),
    (lambda: Generator(0, (0, 0, 0)), AlgebraError, "bad multi-index (0, 0, 0)"),
    (lambda: Generator(0, (0, -1, 0, 0)), AlgebraError, "bad multi-index (0, -1, 0, 0)"),
    (lambda: ScaledTestFamily(1, weights=(0.5, 0.4), centers=((0.0,), (1.0,))), AdiabaticError,
     "family weights must sum to one"),
    (lambda: ScaledTestFamily(2), AdiabaticError, "center dimension mismatch"),
    (lambda: G0._replace(field=-1), AlgebraError, "negative field index"),
    (lambda: ScaledTestFamily(1)._replace(weights=(0.5,)), AdiabaticError,
     "family weights must sum to one"),
])
def test_constructor_validation_keeps_its_errors(build, error, text):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == text


def test_a_verdict_without_reasons_has_an_empty_tuple():
    assert ModelVerdict("renormalizable", True).reasons == ()
