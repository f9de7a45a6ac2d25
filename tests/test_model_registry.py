"""Model table, validation, and text-format tests."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egqft.exact import I, QRat
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
from egqft.symbolic_fields import FieldTable, Polynomial, canonical_dim
from egqft.wightman import METRIC, gamma0_gamma


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
    from egqft.wightman import GAMMA0, gamma, mat_mul
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


# the vertex builders that made the QED builtins before they became model text


def _ref_spinor_qed_vertex(table: FieldTable) -> Polynomial:
    """psibar gamma^mu psi A_mu, with psibar = psi* gamma^0."""
    field = lambda name: Polynomial.of_field(table, name)
    vertex = Polynomial.zero(table)
    for mu in range(4):
        g0gmu = gamma0_gamma(mu)
        for a in range(4):
            for b in range(4):
                c = g0gmu[a][b]
                if c.is_zero():
                    continue
                term = field(f"psi*_{a + 1}") * field(f"psi_{b + 1}") * field(f"A_{mu}")
                vertex = vertex + term.scale(c)
    return vertex


def _ref_scalar_qed_vertex(table: FieldTable) -> Polynomial:
    phi = Polynomial.of_field(table, "phi")
    phistar = Polynomial.of_field(table, "phi*")
    vertex = Polynomial.zero(table)
    for mu in range(4):
        alpha = tuple(1 if nu == mu else 0 for nu in range(4))
        dphi = Polynomial.of_field(table, "phi", alpha)
        dphistar = Polynomial.of_field(table, "phi*", alpha)
        # current j^mu = i (phi* d phi - (d phi*) phi), index raised with the metric
        jmu = (phistar * dphi - dphistar * phi).scale(I * METRIC[mu])
        vertex = vertex + Polynomial.of_field(table, f"A_{mu}") * jmu
    return vertex


@pytest.mark.parametrize(
    "name, ref",
    [
        ("spinor_qed_massive", _ref_spinor_qed_vertex),
        ("spinor_qed_massless", _ref_spinor_qed_vertex),
        ("scalar_qed_massive", _ref_scalar_qed_vertex),
        ("scalar_qed_massless", _ref_scalar_qed_vertex),
    ],
)
def test_qed_builtin_text_equals_the_builder_vertex(name, ref):
    m = builtin(name)
    assert m == m._replace(vertices=(("e", ref(m.fields)),))
    assert len(m.vertex("e").terms) == (16 if name.startswith("spinor") else 8)


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


def test_validate_returns_one_shared_verdict_per_spec():
    m = builtin("scalar_model")
    first = validate(m)
    hits = validate.cache_info().hits
    again = validate(builtin("scalar_model"))  # an equal spec hits the same entry
    assert validate.cache_info().hits == hits + 1
    assert again is first and type(again.reasons) is tuple


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
    assert verdict.reasons == (*(f"vertex 'g' {d}" for d in defects),
                               "Lorentz-scalar property of vertices: not checked")


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
    """A bare four-component species is refused, naming its components;
    a component is a factor like any other."""
    text = """
[fields]
A vector 0.0 0 0
phi scalar 0.0 0 0
[vertices]
e = 1 * A*phi^2
"""
    with pytest.raises(ModelParseError) as exc:
        parse_model_spec(text)
    assert str(exc.value) == "line 6, col 4: field 'A' has components A_0..A_3; name one of them"
    m = parse_model_spec(text.replace("A*phi^2", "A_0*A_0*phi^2"))
    assert serialize_model_spec(m).count("e = 1 * A_0^2*phi^2\n") == 1
    with pytest.raises(ModelParseError, match="field 'psi\\*' has components psi\\*_1..psi\\*_4"):
        parse_model_spec("[fields]\npsi dirac 1.0 -1 1\n[vertices]\ne = 1 * psi**psi_1\n")


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
    assert m.fields.parity(m.fields.index("eta")) == 1
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
    broken = m._replace(vertices=(("e", bad_poly),))
    with pytest.raises(Exception, match="dangling"):
        validate(broken)


def test_builtin_section_takes_name_and_c():
    """[builtin] is read by name; the serializer writes every model, a
    builtin too, as fields, vertices and options."""
    m = builtin("spinor_qed_massive", c_const=1)
    assert parse_model_spec("[builtin]\nname = spinor_qed_massive\nc = 1\n") == m
    assert parse_model_spec("[builtin]\nname = spinor_qed_massive\n") == builtin("spinor_qed_massive")
    text = serialize_model_spec(m)
    assert "[builtin]" not in text and text.startswith("[fields]\nA  vector  0.0  0  0\npsi  dirac")
    assert text.endswith("[options]\nc = 1\nname = spinor_qed_massive\n")
    assert parse_model_spec(text) == m
    assert serialize_model_spec(builtin("spinor_qed_massive")) == text.replace("c = 1", "c = 0")
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


def test_serialize_writes_a_custom_qed_vertex_as_text():
    m = builtin("scalar_qed_massive")._replace(name="custom")
    text = serialize_model_spec(m)
    assert "e = -1i * A_0*phi*d[0]phi* + 1i * A_0*d[0]phi*phi* + " in text
    assert parse_model_spec(text) == m


@pytest.mark.parametrize(
    "vertex, written",
    [
        ("3", "3"),
        ("0", "0"),
        ("1 * u*u", "0"),
        ("-1/2i", "-1/2i"),
        ("1+2i * phi^2 + 3/4 + phi^2", "3/4 + 2+2i * phi^2"),
        ("phi^2 + -1 * phi^2", "0"),
    ],
)
def test_constant_and_vanishing_vertices_roundtrip(vertex, written):
    fields = "[fields]\nphi scalar 1.0 0 0\nu ghost 0.0 0 1\n"
    m = parse_model_spec(f"{fields}[vertices]\ng = {vertex}\n[options]\nc = 0\n")
    text = serialize_model_spec(m)
    assert f"\ng = {written}\n" in text
    assert parse_model_spec(text) == m


@pytest.mark.parametrize(
    "coeff, value",
    [("-1/2", QRat(Fraction(-1, 2))), ("1i", QRat(0, 1)), ("-1/2i", QRat(0, Fraction(-1, 2))),
     ("1+2i", QRat(1, 2)), ("+3/4-5i", QRat(Fraction(3, 4), -5)), ("12i", QRat(0, 12))],
)
def test_complex_coefficients_read_as_qrat_writes_them(coeff, value):
    table = builtin("scalar_model").fields
    (_, got), = parse_polynomial(table, f"{coeff} * phi").terms
    assert got == value
    assert repr(value) == coeff or coeff.startswith("+")


def test_repeated_coupling_name_is_refused_at_its_second_line():
    text = "[fields]\nphi scalar 1.0 0 0\n[vertices]\ng = 1/6 * phi^3\n# quartic\ng = 1/24 * phi^4\n"
    with pytest.raises(ModelParseError) as exc:
        parse_model_spec(text)
    assert str(exc.value) == "line 6, col 0: coupling 'g' is already declared on line 4"


def test_component_star_joins_only_a_declared_component():
    """psi*_1 is one factor when psi is a dirac field; after a charged scalar
    the star separates phi* from a scalar named _1, as it always has."""
    m = builtin("spinor_qed_massive")
    one = parse_polynomial(m.fields, "psi*_1*psi_1*A_0")
    assert one == -parse_polynomial(m.fields, "psi_1*psi*_1*A_0")
    dpsi = Polynomial.of_field(m.fields, "psi*_2", (1, 0, 0, 0))
    assert parse_polynomial(m.fields, "d[0]psi*_2") == dpsi
    s = parse_model_spec("[fields]\nphi scalar 1.0 -1 0\n_1 scalar 1.0 0 0\n[vertices]\n")
    two = parse_polynomial(s.fields, "phi*_1")
    assert two == Polynomial.of_field(s.fields, "phi") * Polynomial.of_field(s.fields, "_1")


# --------------------------------------------------------------------------- parse . serialize (hypothesis)


@st.composite
def model_texts(draw):
    """Model texts over all four field kinds, with vertices of 1-3 terms over
    every declared factor (dirac and vector components included), complex
    coefficients, bare-coefficient terms and vanishing vertices."""
    lines, bosons, odd = ["[fields]"], [], []
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
        elif kind == "vector":
            bosons += [f"{name}_{mu}" for mu in range(4)]
        elif kind == "ghost":
            odd += [name, name + "~"]
        else:
            odd += [f"{name}{star}_{a}" for star in ("", "*") for a in range(1, 5)]
    lines.append("[vertices]")
    tags = st.sampled_from(("", "d[0]", "d[1]d[3]", "d[2]d[2]"))
    rat = st.fractions(-3, 3, max_denominator=5)
    coeffs = st.builds(QRat, rat, rat).filter(bool).map(repr)

    def term():
        if draw(st.integers(0, 5)) == 0:
            return draw(coeffs)  # a bare coefficient
        names = draw(st.lists(st.sampled_from(bosons + odd), min_size=1, max_size=4).filter(
            lambda ns: len(set(ns) & set(odd)) == sum(n in odd for n in ns)))
        factors = [
            draw(tags) + n + (draw(st.sampled_from(("", "^2", "^3"))) if n in bosons else "")
            for n in names
        ]
        return f"{draw(coeffs)} * " + "*".join(factors)

    sums = False
    for k in range(draw(st.integers(0, 3))):
        n_terms = draw(st.integers(0, 3))  # 0 draws the vanishing vertex
        terms = [term() for _ in range(n_terms)] or ["0"]
        sums |= len(terms) > 1
        lines.append(f"g{k} = " + " + ".join(terms))
    # a sum may mix dimensions, which leaves no default c to derive
    c = draw(st.sampled_from(("c = 0", "c = 1") if sums else ("", "c = 0", "c = 1")))
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
