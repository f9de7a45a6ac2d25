"""Model table, validation, and text-format tests."""
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egqft.exact import QRat
from egqft.model_registry import (
    BUILTIN_NAMES,
    ModelError,
    ModelParseError,
    builtin,
    parse_model_spec,
    parse_polynomial,
    serialize_model_spec,
    validate,
)
from egqft.symbolic_fields import Polynomial, canonical_dim


def test_builtin_generator_counts():
    assert len(builtin("spinor_qed_massive").fields) == 12
    assert len(builtin("spinor_qed_massless").fields) == 12
    assert len(builtin("scalar_qed_massive").fields) == 6
    assert len(builtin("scalar_model").fields) == 2


def test_scalar_model_vertex():
    m = builtin("scalar_model")
    (cname, v), = m.vertices
    assert cname == "e"
    assert len(v.terms) == 1
    idx, coeff = v.terms[0]
    assert coeff == QRat(Fraction(1, 2))
    assert canonical_dim(v) == 3
    assert m.c_const == 1


def test_spinor_qed_current_from_vertex_derivative():
    """The single A-derivative of the vertex is the conserved current
    contraction of the spinor pair with the explicit matrix structure."""
    from egqft.propagators_kinematics import GAMMA0, gamma, mat_mul
    from egqft.symbolic_fields import Generator, derive, index_of

    m = builtin("spinor_qed_massive")
    for mu in range(4):
        j = derive(m.vertex("e"), index_of(Generator(m.fields.index(f"A_{mu}"))))
        expect = Polynomial.zero(m.fields)
        g0gmu = mat_mul(GAMMA0, gamma(mu))
        for a in range(4):
            for b in range(4):
                c = g0gmu[a][b]
                if not c.is_zero():
                    expect = expect + (
                        Polynomial.of_field(m.fields, f"psi*_{a + 1}")
                        * Polynomial.of_field(m.fields, f"psi_{b + 1}")
                    ).scale(c)
        assert j == expect


def test_scalar_qed_current_structure():
    m = builtin("scalar_qed_massive")
    v = m.vertex("e")
    assert canonical_dim(v) == 4
    # coefficient structure of i phi* d phi - i (d phi*) phi at mu = 0
    from egqft.exact import QRat
    from egqft.symbolic_fields import Generator, SuperQuadriIndex

    a0 = Generator(m.fields.index("A_0"))
    phi = Generator(m.fields.index("phi"))
    phistar = Generator(m.fields.index("phi*"))
    dphi = Generator(m.fields.index("phi"), (1, 0, 0, 0))
    dphistar = Generator(m.fields.index("phi*"), (1, 0, 0, 0))
    idx1 = SuperQuadriIndex.from_pairs([(a0, 1), (phistar, 1), (dphi, 1)])
    idx2 = SuperQuadriIndex.from_pairs([(a0, 1), (dphistar, 1), (phi, 1)])
    assert v.coeff(idx1) == QRat(0, 1)
    assert v.coeff(idx2) == QRat(0, -1)
    # every monomial carries exactly one derivative and an A-component
    for idx, _ in v.terms:
        ders = sum(mult * g.d_order for g, mult in idx.entries)
        assert ders == 1
        assert any(m.fields.entry(g.field).kind == "vector" for g, _ in idx.entries)
    # the masses: photon massless, scalars massive
    assert m.fields.entry(m.fields.index("A_0")).numbers.mass == 0.0
    assert m.fields.entry(m.fields.index("phi")).numbers.mass == 1.0


def test_validate_builtin_matrix():
    expected = {
        "spinor_qed_massive": ("renormalizable", True),
        "spinor_qed_massless": ("renormalizable", True),
        "scalar_qed_massive": ("renormalizable", True),
        "scalar_qed_massless": ("renormalizable", True),
        "scalar_model": ("renormalizable", True),
    }
    for name in BUILTIN_NAMES:
        verdict = validate(builtin(name))
        assert (verdict.renormalizability, verdict.wal_eligible) == expected[name]
        assert any("not checked" in r for r in verdict.reasons)


def test_validate_memoized_per_spec_returns_own_copy():
    from egqft.model_registry import _verdict

    m = builtin("scalar_model")
    first = validate(m)
    first.reasons.append("edited by the caller")
    hits = _verdict.cache_info().hits
    again = validate(builtin("scalar_model"))  # an equal spec hits the same entry
    assert _verdict.cache_info().hits == hits + 1
    assert again == validate(m) and "edited by the caller" not in again.reasons
    assert again.reasons is not validate(m).reasons


def test_scalar_model_c0_super_renormalizable():
    verdict = validate(builtin("scalar_model", c_const=0))
    assert verdict.renormalizability == "super-renormalizable"
    assert not verdict.wal_eligible


def test_massless_cubic_vertex_not_eligible():
    text = """
[fields]
phi scalar 0.0 0 0
[vertices]
g = 1/6 * phi^3
[options]
c = 1
"""
    m = parse_model_spec(text)
    verdict = validate(m)
    assert not verdict.wal_eligible
    assert any("massive" in r for r in verdict.reasons)


@pytest.mark.parametrize(
    "fields, vertex, defects",
    [
        ("chi scalar 1.0 -1 0", "chi^4", ["has nonzero charge", "is not self-adjoint"]),
        ("u ghost 1.0 0 1\nphi scalar 1.0 0 0", "u*phi^3",
         ["has nonzero fermion number", "is not self-adjoint"]),
    ],
    ids=["charge", "fermion-number"],
)
def test_nonconserving_vertex_is_not_eligible(fields, vertex, defects):
    m = parse_model_spec(f"[fields]\n{fields}\n[vertices]\ng = 1 * {vertex}\n[options]\nc = 0\n")
    verdict = validate(m)
    assert not verdict.wal_eligible
    assert verdict.reasons == [f"vertex 'g' {d}" for d in defects] + [
        "Lorentz-scalar property of vertices: not checked"
    ]


SCALAR_TEXT = """\
# two-scalar cubic model
[fields]
phi  scalar  0.0  0  0
psi  scalar  1.0  0  0
[vertices]
e = 1/2 * phi*psi^2
[options]
c = 1
"""


def test_parse_matches_builtin_scalar_model():
    m = parse_model_spec(SCALAR_TEXT)
    ref = builtin("scalar_model")
    assert m.fields == ref.fields
    assert m.vertices == ref.vertices
    assert m.c_const == ref.c_const


def test_roundtrip_all_builtins():
    for name in BUILTIN_NAMES:
        ref = builtin(name)
        again = parse_model_spec(serialize_model_spec(ref))
        assert again == ref


def test_roundtrip_custom_scalar():
    m = parse_model_spec(SCALAR_TEXT)
    again = parse_model_spec(serialize_model_spec(m))
    assert again.fields == m.fields
    assert again.vertices == m.vertices
    assert again.c_const == m.c_const


def test_empty_vertices_is_free_model():
    m = parse_model_spec("[fields]\nphi scalar 0.0 0 0\n[vertices]\n[options]\nc = 0\n")
    assert m.vertices == ()
    assert validate(m).renormalizability == "renormalizable"


def test_vertex_coefficient_parsed_exactly():
    m = parse_model_spec(SCALAR_TEXT)
    idx, coeff = m.vertex("e").terms[0]
    assert coeff == QRat(Fraction(1, 2))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ModelParseError, match="line 3"):
        parse_model_spec("[fields]\nphi scalar 0.0 0 0\nbadline only\n")
    with pytest.raises(ModelParseError, match="unknown field name"):
        parse_model_spec("[fields]\nphi scalar 0.0 0 0\n[vertices]\ne = 1 * chi^2\n")


@pytest.mark.parametrize("mass", ["nan", "inf", "-inf"])
def test_nonfinite_mass_is_rejected_on_its_line(mass):
    with pytest.raises(ModelParseError) as exc:
        parse_model_spec(f"[fields]\nphi scalar 1.0 0 0\npsi scalar {mass} 0 0\n")
    assert str(exc.value) == f"line 3, col 0: mass must be finite, got '{mass}'"


@pytest.mark.parametrize(
    "fields, message",
    [
        ("A vector 0 0 0\nA_0 scalar 0 0 0", "line 3, col 0: field name 'A_0' is already declared on line 2"),
        ("phi scalar 1 0 0\n\npsi dirac 0 -1 1\nphi scalar 0 0 0",
         "line 5, col 0: field name 'phi' is already declared on line 2"),
    ],
    ids=["component-collision", "redeclared"],
)
def test_field_name_collision_names_the_field_and_the_line(fields, message):
    with pytest.raises(ModelParseError) as exc:
        parse_model_spec(f"[fields]\n{fields}\n")
    assert str(exc.value) == message


def test_parse_polynomial_matches_vertex_and_names_the_factor():
    m = parse_model_spec(SCALAR_TEXT)
    assert parse_polynomial(m.fields, "1/2 * phi*psi^2") == m.vertex("e")
    with pytest.raises(ModelParseError) as exc:
        parse_polynomial(m.fields, "phi*zz")
    assert str(exc.value) == "unknown field name 'zz'"
    assert exc.value.line is None and exc.value.col == 4


def test_nonscalar_vertex_rejected_with_pointer():
    text = """
[fields]
A vector 0.0 0 0
phi scalar 0.0 0 0
[vertices]
e = 1 * A*phi^2
"""
    with pytest.raises(ModelParseError, match="builtin"):
        parse_model_spec(text)


def test_charged_scalar_conjugation_star():
    text = """
[fields]
chi scalar 1.0 -1 0
[vertices]
g = 1 * chi**chi
[options]
c = 0
"""
    # chi* is conjugation (field exists), the second * separates factors
    m = parse_model_spec(text)
    v = m.vertex("g")
    assert v.charge() == 0
    assert canonical_dim(v) == 2


def test_conjugate_power_roundtrips():
    text = "[fields]\nchi scalar 1.0 -1 0\n[vertices]\ng = 1 * chi**chi*\n[options]\nc = 0\n"
    m = parse_model_spec(text)
    assert "g = 1 * chi*^2\n" in serialize_model_spec(m)
    assert parse_model_spec(serialize_model_spec(m)) == m


def test_derivative_tags():
    text = """
[fields]
phi scalar 0.0 0 0
[vertices]
g = 1 * d[1]phi*d[1]phi
[options]
c = 0
"""
    v = parse_model_spec(text).vertex("g")
    assert canonical_dim(v) == 4
    idx, _ = v.terms[0]
    (g, mult), = idx.entries
    assert g.alpha == (0, 1, 0, 0) and mult == 2


def test_unknown_builtin():
    with pytest.raises(ModelError, match="unknown builtin"):
        builtin("phi4")


def test_ghost_statistics_admitted():
    text = """
[fields]
eta ghost 0.0 0 1
[vertices]
[options]
c = 0
"""
    m = parse_model_spec(text)
    e = m.fields.entry(m.fields.index("eta"))
    assert e.numbers.statistics == "fermi"
    p = Polynomial.of_field(m.fields, "eta")
    assert (p * p).is_zero()


def test_vertex_derivative_order_cap():
    text = """
[fields]
phi scalar 0.0 0 0
[vertices]
g = 1 * d[0]d[0]d[0]phi*phi
[options]
c = 0
"""
    m = parse_model_spec(text)
    with pytest.raises(ModelError, match="capped at two derivatives"):
        validate(m)


def test_validate_dangling_field_index():
    from egqft.symbolic_fields import Generator, Polynomial, SuperQuadriIndex

    m = builtin("scalar_model")
    bad_idx = SuperQuadriIndex.from_pairs([(Generator(7), 1)])
    bad_poly = Polynomial(m.fields, {bad_idx: 1})
    from dataclasses import replace

    broken = replace(m, vertices=(("e", bad_poly),))
    with pytest.raises(Exception, match="dangling"):
        validate(broken)


def test_builtin_section_takes_name_and_c():
    m = builtin("spinor_qed_massive", c_const=1)
    text = serialize_model_spec(m)
    assert text == "[builtin]\nname = spinor_qed_massive\nc = 1\n"
    assert parse_model_spec(text) == m
    assert serialize_model_spec(builtin("spinor_qed_massive")) == "[builtin]\nname = spinor_qed_massive\n"
    with pytest.raises(ModelParseError, match="line 3, col 0: unknown \\[builtin\\] key 'mass'"):
        parse_model_spec("[builtin]\nname = scalar_model\nmass = 2\n")


def test_dirac_model_files_serialize_their_fields_and_vertices():
    fields = "[fields]\nA vector 0.0 0 0\npsi dirac 1.0 -1 1\nphi scalar 1.0 0 0\n"
    cubic = parse_model_spec(fields + "[vertices]\ng = 1 * phi^3\n[options]\nc = 1\n")
    quartic = parse_model_spec(fields + "[vertices]\ng = 1 * phi^4\n[options]\nc = 0\n")
    text = serialize_model_spec(cubic)
    assert text.startswith("[fields]\nA  vector  0.0  0  0\npsi  dirac  1.0  -1  1\nphi  scalar")
    assert text != serialize_model_spec(quartic)
    for m in (cubic, quartic):
        assert parse_model_spec(serialize_model_spec(m)) == m


def test_serialize_refuses_a_custom_vertex_outside_the_grammar():
    m = builtin("scalar_qed_massive")
    with pytest.raises(ModelError, match="not a single monomial"):
        serialize_model_spec(replace(m, name="custom"))


# --------------------------------------------------------------------------- parse . serialize (hypothesis)


@st.composite
def model_texts(draw):
    """Model texts over all four field kinds with scalar-sector vertices."""
    lines, bosons, ghosts = ["[fields]"], [], []
    for name in draw(st.lists(st.sampled_from("abhuvwd"), min_size=1, max_size=5, unique=True)):
        kind = draw(st.sampled_from(("scalar", "dirac", "vector", "ghost")))
        mass = draw(st.floats(0, 10, allow_nan=False))
        charge, fermion = 0, 0
        if kind != "vector":
            charge = draw(st.integers(-2, 2))
            fermion = draw(st.sampled_from((-2, 0, 2) if kind == "scalar" else (-1, 1)))
        lines.append(f"{name} {kind} {mass!r} {charge} {fermion}")
        if kind == "scalar":
            bosons += [name] if charge == 0 else [name, name + "*"]
        elif kind == "ghost":
            ghosts += [name, name + "~"]
    lines.append("[vertices]")
    tags = st.sampled_from(("", "d[0]", "d[1]d[3]", "d[2]d[2]"))
    for k in range(draw(st.integers(0, 2)) if bosons or ghosts else 0):
        names = draw(st.lists(st.sampled_from(bosons + ghosts), min_size=1, max_size=4).filter(
            lambda ns: len(set(ns) & set(ghosts)) == sum(n in ghosts for n in ns)))
        factors = [
            draw(tags) + n + (draw(st.sampled_from(("", "^2", "^3"))) if n in bosons else "")
            for n in names
        ]
        coeff = draw(st.fractions(-3, 3, max_denominator=5).filter(bool))
        lines.append(f"g{k} = {coeff} * " + "*".join(factors))
    c = draw(st.sampled_from(("", "c = 0", "c = 1")))
    return "\n".join(lines + ["[options]", c]) + "\n"


@settings(max_examples=300, deadline=None)
@given(model_texts())
def test_parse_serialize_roundtrip(text):
    m = parse_model_spec(text)
    assert parse_model_spec(serialize_model_spec(m)) == m


def test_power_is_one_multiplicity():
    sm = builtin("scalar_model")
    phi = Polynomial.of_field(sm.fields, "phi")
    power = Polynomial.unit(sm.fields)
    for n in range(7):
        assert parse_polynomial(sm.fields, f"phi^{n}") == power
        power = power * phi
    (idx, coeff), = parse_polynomial(sm.fields, "3/2 * phi^99999999").terms
    assert idx.degree() == 99999999 and coeff == QRat(Fraction(3, 2))
    gm = parse_model_spec("[fields]\nu ghost 0.0 0 1\n[vertices]\n")
    assert parse_polynomial(gm.fields, "u^2") == Polynomial.zero(gm.fields)
    assert parse_polynomial(gm.fields, "u*u") == Polynomial.zero(gm.fields)
    ordered = parse_polynomial(gm.fields, "u*u~")
    assert ordered != Polynomial.zero(gm.fields)
    assert parse_polynomial(gm.fields, "u~*u") == -ordered


def test_zero_denominator_is_a_parse_error():
    sm = builtin("scalar_model")
    with pytest.raises(ModelParseError, match=r"cannot parse factor '1/0'"):
        parse_polynomial(sm.fields, "1/0*phi")
    with pytest.raises(ModelParseError, match=r"line 4, col 0: cannot parse factor '3/0'"):
        parse_model_spec("[fields]\nphi scalar 1.0 0 0\n[vertices]\ng = 3/0 * phi^3\n")
    assert parse_polynomial(sm.fields, "2/04*phi") == parse_polynomial(sm.fields, "1/2*phi")
