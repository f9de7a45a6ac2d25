"""Field-algebra unit tests: sign calculus, derivations, sub-polynomials."""
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egqft.exact import QRat
from egqft.model_registry import BUILTIN_NAMES, builtin, load_model, parse_model_spec
from egqft.symbolic_fields import (
    AlgebraError,
    Generator,
    Polynomial,
    SuperQuadriIndex,
    _derive_one,
    adjoint,
    canonical_dim,
    canonicalize_word,
    derive,
    index_of,
    permutation_sign,
    subpolynomials,
)

QED = builtin("spinor_qed_massive")
SM = builtin("scalar_model")


def _toy_mixed():
    # two bosons, one ghost pair: covers odd statistics without spinor indices
    return parse_model_spec(
        """
[fields]
b scalar 0.0 0 0
c scalar 1.0 0 0
eta ghost 0.0 0 1
[vertices]
[options]
c = 0
"""
    )


def _random_monomial(rng, table, max_gens=4):
    n = rng.randint(0, max_gens)
    gens = []
    for _ in range(n):
        f = rng.randrange(len(table))
        alpha = [0, 0, 0, 0]
        if rng.random() < 0.3:
            alpha[rng.randrange(4)] += 1
        gens.append(Generator(f, tuple(alpha)))
    word_poly = Polynomial.unit(table)
    for g in gens:
        word_poly = word_poly * Polynomial.generator(table, g)
    return word_poly


def test_graded_commutativity_exact():
    toy = _toy_mixed()
    rng = random.Random(7)
    checked = 0
    for _ in range(1000):
        m1 = _random_monomial(rng, toy.fields)
        m2 = _random_monomial(rng, toy.fields)
        if m1.is_zero() or m2.is_zero():
            continue
        f1, f2 = m1.fermion_number(), m2.fermion_number()
        lhs = m1 * m2
        rhs = (m2 * m1).scale(QRat(-1 if (f1 * f2) % 2 else 1))
        assert lhs == rhs
        checked += 1
    assert checked > 800


def test_quantum_number_additivity():
    toy = _toy_mixed()
    rng = random.Random(11)
    for _ in range(1000):
        m1 = _random_monomial(rng, toy.fields)
        m2 = _random_monomial(rng, toy.fields)
        p = m1 * m2
        if p.is_zero() or m1.is_zero() or m2.is_zero():
            continue
        assert p.fermion_number() == m1.fermion_number() + m2.fermion_number()
        assert p.charge() == m1.charge() + m2.charge()
        assert canonical_dim(p) == canonical_dim(m1) + canonical_dim(m2)


def test_dim_examples():
    psi1 = Polynomial.of_field(QED.fields, "psi_1")
    assert canonical_dim(psi1) == Fraction(3, 2)
    dA = Polynomial.of_field(QED.fields, "A_1", (1, 0, 0, 0))
    assert canonical_dim(dA) == 2
    assert canonical_dim(Polynomial.unit(QED.fields)) == 0
    assert canonical_dim(SM.vertex("e")) == 3


def test_dim_error_names_components():
    phi = Polynomial.of_field(SM.fields, "phi")
    mixed = phi + phi * phi
    # components by field name, the empty one as 1
    with pytest.raises(AlgebraError, match=r"not homogeneous.*component phi has .* component phi\^2 has"):
        canonical_dim(mixed)
    with pytest.raises(AlgebraError, match=r"component 1 has .* component phi has"):
        canonical_dim(Polynomial.unit(SM.fields) + phi)


def test_bosonic_power_rule():
    phi = Polynomial.of_field(SM.fields, "phi")
    p = phi * phi * phi * phi  # phi^4
    g = Generator(0)
    for k in range(1, 5):
        s = SuperQuadriIndex.from_pairs([(g, k)])
        got = derive(p, s)
        coeff = 1
        for t in range(k):
            coeff *= 4 - t
        expect = Polynomial.monomial(
            SM.fields, SuperQuadriIndex.from_pairs([(g, 4 - k)]), QRat(coeff)
        )
        assert got == expect
    assert derive(p, SuperQuadriIndex.from_pairs([(g, 5)])).is_zero()


def test_derive_is_graded_derivation():
    toy = _toy_mixed()
    rng = random.Random(3)
    table = toy.fields
    gens = [Generator(i) for i in range(len(table))]
    for _ in range(300):
        m1 = _random_monomial(rng, table, 3)
        m2 = _random_monomial(rng, table, 3)
        if m1.is_zero() or m2.is_zero():
            continue
        g = rng.choice(gens)
        s = index_of(g)
        fs = table.parity(g.field)
        f1 = m1.parity()
        lhs = derive(m1 * m2, s)
        sign = QRat((-1) ** (f1 * fs))
        rhs = derive(m1, s) * m2 + (m1 * derive(m2, s)).scale(sign)
        assert lhs == rhs


def test_fermionic_derivative_sign_by_reordering():
    # d/d(psi*_1) acting on psi_1 psi*_1 vs the reordered -psi*_1 psi_1
    t = QED.fields
    p1 = Polynomial.of_field(t, "psi_1")
    ps1 = Polynomial.of_field(t, "psi*_1")
    s = index_of(Generator(t.index("psi*_1")))
    a = derive(p1 * ps1, s)
    b = derive((ps1 * p1).scale(QRat(-1)), s)
    assert a == b
    # opposite bracketing of a two-step derivative
    s2 = index_of(Generator(t.index("psi_1")))
    ab = derive(derive(p1 * ps1, s), s2)
    ba = derive(derive(p1 * ps1, s2), s)
    assert ab == ba.scale(QRat(-1))  # odd derivatives anticommute


def test_subpolynomial_counts():
    assert len(subpolynomials(SM.vertex("e"), view="species")) == 6
    assert len(subpolynomials(QED.vertex("e"), view="species")) == 8
    # single bosonic field, multiplicity n: n + 1 sub-monomials
    phi = Polynomial.of_field(SM.fields, "phi")
    p = Polynomial.unit(SM.fields)
    for n in range(1, 6):
        p = p * phi
        assert len(subpolynomials(p, view="all")) == n + 1
    const = Polynomial.unit(SM.fields, QRat(5))
    subs = subpolynomials(const, view="all")
    assert len(subs) == 1 and subs[0][1] == const


def _subpolynomials_by_derive(p):
    """(s, derive(p, s)) for every sub-index s of a monomial of p with a
    nonzero derivative, in key order: each candidate derived from the whole
    polynomial."""
    subs = {}
    for idx, _ in p.terms:
        for mults in itertools.product(*(range(m + 1) for _, m in idx.entries)):
            s = SuperQuadriIndex.from_pairs((g, k) for (g, _), k in zip(idx.entries, mults))
            subs[s.key()] = s
    found = [(s, derive(p, s)) for s in subs.values()]
    return sorted([(s, q) for s, q in found if not q.is_zero()], key=lambda t: t[0].key())


def test_subpolynomials_equal_derive_on_every_vertex():
    """Each B^(s) derived from the candidate one letter smaller equals
    derive(p, s), on the vertices of every builtin and golden model file."""
    golden = sorted(Path(__file__).with_name("golden").glob("*.model"))
    models = [builtin(n) for n in BUILTIN_NAMES] + [load_model(str(f)) for f in golden]
    vertices = [p for m in models for _, p in m.vertices]
    assert len(golden) == 3 and len(vertices) >= len(models)
    for p in vertices:
        assert subpolynomials(p, view="all") == _subpolynomials_by_derive(p), p


def test_permutation_sign_examples_and_oracle():
    assert permutation_sign([0, 0, 0], [2, 0, 1]) == 1
    assert permutation_sign([1, 0, 1], [2, 1, 0]) == -1

    def bubble_oracle(fermions, pi):
        # sort pi by adjacent swaps, counting swaps of two odd items
        arr = list(pi)
        count = 0
        for i in range(len(arr)):
            for j in range(len(arr) - 1):
                if arr[j] > arr[j + 1]:
                    if fermions[arr[j]] % 2 and fermions[arr[j + 1]] % 2:
                        count += 1
                    arr[j], arr[j + 1] = arr[j + 1], arr[j]
        return (-1) ** count

    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 8)
        fermions = [rng.randint(0, 2) for _ in range(n)]
        pi = list(range(n))
        rng.shuffle(pi)
        assert permutation_sign(fermions, pi) == bubble_oracle(fermions, pi)
    # multiplicative under composition: the second step reorders the already
    # permuted list, so its sign is computed against the permuted parities
    for _ in range(200):
        n = rng.randint(1, 6)
        fermions = [rng.randint(0, 1) for _ in range(n)]
        p1 = list(range(n))
        p2 = list(range(n))
        rng.shuffle(p1)
        rng.shuffle(p2)
        comp = [p1[p2[i]] for i in range(n)]
        par_after_p1 = [fermions[p1[i]] for i in range(n)]
        assert permutation_sign(fermions, comp) == permutation_sign(
            fermions, p1
        ) * permutation_sign(par_after_p1, p2)
    # for uniform parities the naive product rule holds as well
    for _ in range(100):
        n = rng.randint(1, 6)
        p1 = list(range(n))
        p2 = list(range(n))
        rng.shuffle(p1)
        rng.shuffle(p2)
        comp = [p1[p2[i]] for i in range(n)]
        odd = [1] * n
        assert permutation_sign(odd, comp) == permutation_sign(
            odd, p1
        ) * permutation_sign(odd, p2)
    with pytest.raises(AlgebraError):
        permutation_sign([0, 0], [0, 1, 2])


def test_adjoint():
    A0 = Polynomial.of_field(QED.fields, "A_0")
    assert adjoint(A0) == A0
    toy = _toy_mixed()
    rng = random.Random(13)
    for _ in range(300):
        m = _random_monomial(rng, toy.fields).scale(QRat(Fraction(2, 3), Fraction(-1, 5)))
        assert adjoint(adjoint(m)) == m
    # (psi_a psi*_b)* = psi_b psi*_a up to the re-sorting sign
    t = QED.fields
    pa = Polynomial.of_field(t, "psi_1")
    psb = Polynomial.of_field(t, "psi*_2")
    lhs = adjoint(pa * psb)
    rhs = Polynomial.of_field(t, "psi_2") * Polynomial.of_field(t, "psi*_1")
    assert lhs == rhs or lhs == rhs.scale(QRat(-1))
    # explicit reordering oracle: star then canonical sort
    idx, coeff = (pa * psb).terms[0]
    word = [t.star(g) for g in reversed(idx.word())]
    sgn, new_idx = canonicalize_word(word, t)
    assert lhs == Polynomial.monomial(t, new_idx, coeff.conjugate() * sgn)


def test_odd_generator_squares_to_zero():
    t = QED.fields
    p = Polynomial.of_field(t, "psi_1")
    assert (p * p).is_zero()


def test_equal_tables_and_polynomials_hash_alike():
    # two builds of one model share no objects, only values
    t1, t2 = builtin("spinor_qed_massive").fields, builtin("spinor_qed_massive").fields
    assert t1 is not t2 and t1 == t2 and hash(t1) == hash(t2)
    p1 = builtin("spinor_qed_massive").vertex("e")
    p2 = QED.vertex("e")
    assert p1 is not p2 and p1 == p2 and hash(p1) == hash(p2)
    assert {t1: "table", p1: "vertex"}[t2] == "table"
    assert {t1: "table", p1: "vertex"}[p2] == "vertex"
    assert len({t1, t2}) == 1 and len({p1, p2}) == 1


# --------------------------------------------------------------------------- properties (hypothesis)

TOY = _toy_mixed().fields  # b, c even; eta, eta~ odd

generators = st.builds(
    Generator,
    st.integers(0, len(TOY) - 1),
    st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 2, 0)]),
)
words = st.lists(generators, max_size=5)
coefficients = st.builds(QRat, st.fractions(max_denominator=4), st.integers(-2, 2))


def _word_parity(word):
    return sum(TOY.parity(g.field) for g in word) % 2


# words without a repeated odd generator, whose square would vanish
nonvanishing_words = words.map(
    lambda w: [g for k, g in enumerate(w) if not (TOY.parity(g.field) and g in w[:k])]
)
nonzero_coefficients = coefficients.filter(lambda c: not c.is_zero())


@st.composite
def graded_polynomials(draw):
    """Nonzero sums of up to three monomials of one parity (that of the first
    word), with nonzero complex rational coefficients, built without
    Polynomial.__mul__."""
    terms, parity = {}, None
    for word in draw(st.lists(nonvanishing_words, min_size=1, max_size=3)):
        parity = _word_parity(word) if parity is None else parity
        if _word_parity(word) == parity:
            terms[canonicalize_word(word, TOY)[1]] = draw(nonzero_coefficients)
    return Polynomial(TOY, terms), parity


@settings(deadline=None)
@given(graded_polynomials(), graded_polynomials())
def test_property_graded_commutativity(a, b):
    (pa, fa), (pb, fb) = a, b
    assert pa * pb == (pb * pa).scale(QRat((-1) ** (fa * fb)))


@settings(deadline=None)
@given(graded_polynomials(), graded_polynomials(), graded_polynomials())
def test_property_associativity(a, b, c):
    assert (a[0] * b[0]) * c[0] == a[0] * (b[0] * c[0])


@settings(deadline=None)
@given(graded_polynomials(), graded_polynomials())
def test_property_adjoint_involution_and_anti_homomorphism(a, b):
    pa, pb = a[0], b[0]
    assert adjoint(adjoint(pa)) == pa
    assert adjoint(pa * pb) == adjoint(pb) * adjoint(pa)


@settings(deadline=None)
@given(graded_polynomials())
def test_property_subpolynomials_equal_derive(a):
    assert subpolynomials(a[0], view="all") == _subpolynomials_by_derive(a[0])


@st.composite
def leibniz_cases(draw):
    """(p, parity), (q, parity), g: p and q are sums of up to two monomials
    of one parity, with g appended to about half of the words so that d_g
    acts on them."""
    g = draw(generators)

    def factor():
        terms, parity = {}, None
        for word in draw(st.lists(st.lists(generators, max_size=3, unique=True), min_size=1, max_size=2)):
            if g not in word and draw(st.booleans()):
                word = word + [g]
            parity = _word_parity(word) if parity is None else parity
            if _word_parity(word) == parity:
                terms[canonicalize_word(word, TOY)[1]] = draw(coefficients)
        return Polynomial(TOY, terms), parity

    return factor(), factor(), g


@settings(deadline=None)
@given(leibniz_cases())
def test_property_derivation_leibniz_rule(case):
    """d_g(pq) = (d_g p) q + (-1)^(|g||p|) p (d_g q) for the graded left
    derivation d_g."""
    (p, fp), (q, _), g = case
    sign = QRat((-1) ** (TOY.parity(g.field) * fp))
    assert _derive_one(p * q, g) == _derive_one(p, g) * q + (p * _derive_one(q, g)).scale(sign)


@settings(max_examples=300, deadline=None)
@given(words)
def test_property_canonicalize_sign_is_permutation_sign_of_stable_sort(word):
    res = canonicalize_word(word, TOY)
    odd = [g for g in word if TOY.parity(g.field)]
    if len(set(odd)) != len(odd):
        assert res is None
        return
    order = sorted(range(len(word)), key=lambda i: (word[i].order_key(), i))
    parities = [TOY.parity(g.field) for g in word]
    assert res[0] == permutation_sign(parities, order)
    assert res[1] == SuperQuadriIndex.from_pairs((g, 1) for g in word)
