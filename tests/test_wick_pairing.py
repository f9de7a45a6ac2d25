"""Wick/pairing combinatorics tests."""
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egqft.exact import QRat
from egqft.model_registry import builtin, load_model, parse_model_spec
from egqft.power_counting import SList
from egqft.symbolic_fields import (
    AlgebraError,
    Generator,
    Polynomial,
    SuperQuadriIndex,
    canonicalize_word,
    derive,
    index_of,
    permutation_sign,
    subpolynomials,
)
from egqft import wick_pairing
from egqft.wick_pairing import (
    ExpansionTerm,
    Factor,
    OpProductExpansion,
    Pair,
    PairingTerm,
    WickError,
    _norm_parities,
    _subsequence_splits,
    complete_pairings,
    expand_aT,
    expand_adv,
    isserlis_oracle,
    telescoping_sum,
    wick_expand,
)
from egqft.wightman import GAMMA0, gamma, mat_mul, two_point

QED = builtin("spinor_qed_massive")
SM = builtin("scalar_model")
GHOSTS = load_model(str(Path(__file__).with_name("golden") / "ghosts.model"))


# --------------------------------------------------------------------------- expansions


def expand_ret(n: int, parities=None, j_parity: int = 0) -> OpProductExpansion:
    """Ret(I;J) = sum over splits I1,I2: (-1)^|I2| aT(I2) T(I1,J), i.e. the
    terms of Adv(I;J) with their factors in reverse order."""
    adv = expand_adv(n, parities, j_parity)
    return OpProductExpansion(n, tuple(t._replace(factors=t.factors[::-1]) for t in adv.terms))


def expand_dif(n: int, parities=None, j_parity: int = 0) -> OpProductExpansion:
    """Dif = Adv - Ret, as one signed term list."""
    a = expand_adv(n, parities, j_parity)
    r = expand_ret(n, parities, j_parity)
    neg = tuple(
        ExpansionTerm(-t.structural, t.factors, t.parities, t.j_parity) for t in r.terms
    )
    return OpProductExpansion(n, a.terms + neg)


def expand_dif_commutator(n: int, parities=None, j_parity: int = 0) -> OpProductExpansion:
    """Dif(I;J;P) = -sum over partitions I1,I2,I3 with I2 != I of
    (-1)^|I1| [aT(I1), Adv(I2;J;P)] T(I3), commutators expanded."""
    parities = _norm_parities(n, parities)
    terms = []
    for i1, i2, i3 in _subsequence_splits(n, 3):
        if len(i2) == n:
            continue
        base = -((-1) ** len(i1))
        f_at = Factor("aT", tuple(i1))
        f_adv = Factor("Adv", tuple(i2) + ("J",))
        f_t = Factor("T", tuple(i3))
        terms.append(
            ExpansionTerm(base, (f_at, f_adv, f_t), parities, j_parity)
        )
        # swapped commutator piece: the graded factor (-1)^(f f') is already
        # produced by the final-arrangement parity, so only the bare minus
        # remains structural
        terms.append(
            ExpansionTerm(-base, (f_adv, f_at, f_t), parities, j_parity)
        )
    return OpProductExpansion(n, tuple(terms))



def test_aT_term_counts_fubini():
    # brute-force ordered-set-partition oracle
    def fubini(n):
        count = 0
        for k in range(1, n + 1):
            for labels in itertools.product(range(k), repeat=n):
                if set(labels) == set(range(k)):
                    count += 1
        return count

    for n in range(1, 5):
        assert len(expand_aT(n).terms) == fubini(n)
    assert [len(expand_aT(n).terms) for n in range(1, 5)] == [1, 3, 13, 75]


def test_aT2_explicit():
    terms = {tuple(f.content for f in t.factors): t.coeff for t in expand_aT(2).terms}
    assert terms == {((0, 1),): -1, ((0,), (1,)): 1, ((1,), (0,)): 1}
    fermi = {tuple(f.content for f in t.factors): t.coeff
             for t in expand_aT(2, parities=[1, 1]).terms}
    assert fermi == {((0, 1),): -1, ((0,), (1,)): 1, ((1,), (0,)): -1}


def test_telescoping_cancels():
    for n in range(1, 5):
        for side in ("left", "right"):
            assert telescoping_sum(n, side=side) == {}
            assert telescoping_sum(n, parities=[1] * n, side=side) == {}
            assert telescoping_sum(n, parities=[1, 0] * (n // 2) + [1] * (n % 2),
                                   side=side) == {}


def test_adv_empty_is_TJ():
    exp = expand_adv(0)
    assert len(exp.terms) == 1
    (t,) = exp.terms
    assert t.coeff == 1 and [f.kind for f in t.factors] == ["T"]
    assert t.factors[0].content == ("J",)
    exp = expand_ret(0)
    assert len(exp.terms) == 1 and exp.terms[0].factors[0].content == ("J",)


def test_adv_ret_dif_one_argument():
    # Adv(B;J) = T(B,J) - T(J) aT(B);  Dif = [T(B), T(J)] for bosonic B
    adv = {tuple((f.kind, f.content) for f in t.factors): t.coeff
           for t in expand_adv(1).terms}
    assert adv == {
        (("T", (0, "J")),): 1,
        (("T", ("J",)), ("aT", (0,))): -1,
    }
    # odd B and odd J: the word J B of T(J) aT(B) reorders two odd entries
    fermi = {tuple((f.kind, f.content) for f in t.factors): t.coeff
             for t in expand_adv(1, [1], j_parity=1).terms}
    assert fermi == {
        (("T", (0, "J")),): 1,
        (("T", ("J",)), ("aT", (0,))): 1,
    }
    dif = expand_dif(1)
    acc = {}
    for t in dif.terms:
        key = tuple((f.kind, f.content) for f in t.factors)
        acc[key] = acc.get(key, 0) + t.coeff
    acc = {k: v for k, v in acc.items() if v}
    assert acc == {
        (("T", ("J",)), ("aT", (0,))): -1,
        (("aT", (0,)), ("T", ("J",))): 1,
    }
    # flatten by replacing aT(0) -> T(0): Dif(B;J) = T(B)T(J) - T(J)T(B)
    flat = {}
    for t in dif.terms:
        word = tuple(
            ("T", tuple(x for x in f.content)) for f in t.factors if f.content
        )
        flat[word] = flat.get(word, 0) + t.coeff
    flat = {k: v for k, v in flat.items() if v}
    assert flat == {
        (("T", (0,)), ("T", ("J",))): 1,
        (("T", ("J",)), ("T", (0,))): -1,
    }


def _norm_word_sum(d):
    return {k: v for k, v in d.items() if v}


def test_dif_equals_commutator_form_all_parities():
    """Adv - Ret agrees with the restricted commutator representation at the
    pure time-ordered word level, including fermionic arguments and a
    fermionic spectator list."""
    from egqft.wick_pairing import flatten_to_T

    for n in (1, 2, 3):
        cases = [([0] * n, 0), ([1] * n, 0), ([1] * n, 1),
                 ([1, 0] * (n // 2) + [1] * (n % 2), 1), ([0] * n, 1)]
        for pars, jp in cases:
            plain = _norm_word_sum(flatten_to_T(expand_dif(n, pars, jp).terms))
            comm = _norm_word_sum(
                flatten_to_T(expand_dif_commutator(n, pars, jp).terms)
            )
            assert plain == comm, (n, pars, jp)


def test_ret_through_advanced_blocks():
    """Ret(I;J) = sum over partitions of (-1)^|I1| aT(I1) Adv(I2;J) T(I3)."""
    from egqft.wick_pairing import flatten_to_T

    def ret_via_adv(n, parities, j_parity):
        parities = _norm_parities(n, parities)
        terms = []
        for i1, i2, i3 in _subsequence_splits(n, 3):
            factors = []
            if i1:
                factors.append(Factor("aT", tuple(i1)))
            factors.append(Factor("Adv", tuple(i2) + ("J",)))
            if i3:
                factors.append(Factor("T", tuple(i3)))
            terms.append(
                ExpansionTerm((-1) ** len(i1), tuple(factors), parities, j_parity)
            )
        return terms

    for n in (1, 2, 3):
        for pars, jp in [([0] * n, 0), ([1] * n, 0), ([1] * n, 1)]:
            lhs = _norm_word_sum(flatten_to_T(expand_ret(n, pars, jp).terms))
            rhs = _norm_word_sum(flatten_to_T(ret_via_adv(n, pars, jp)))
            assert lhs == rhs, (n, pars, jp)


def test_dif_commutator_restriction():
    for n in (1, 2, 3):
        exp = expand_dif_commutator(n)
        for t in exp.terms:
            advs = [f for f in t.factors if f.kind == "Adv"]
            assert len(advs) == 1
            inner = tuple(x for x in advs[0].content if x != "J")
            assert len(inner) < n  # the I2 != I restriction
    # n = 1: two partitions survive, two terms each from the commutator
    assert len(expand_dif_commutator(1).terms) == 4


# --------------------------------------------------------------------------- wick expansion


def test_scalar_model_TLL_counts():
    L = SM.vertex("e")
    terms = list(wick_expand([L, L]))
    assert len(terms) == 36
    alive = [t for t in terms if not t.vev_forced_zero]
    assert len(alive) == 10


def test_wick_expand_runs_in_lexicographic_order():
    # the product over key-sorted candidate lists is already ordered, so
    # wick_expand keeps no sort of its own
    for model, n in ((QED, 2), (SM, 3)):
        L = model.vertex("e")
        keys = [tuple(s.key() for s in t.s_list.items) for t in wick_expand([L] * n)]
        assert len(keys) == len(subpolynomials(L, view="all")) ** n
        assert all(a < b for a, b in zip(keys, keys[1:])), model.name


def test_wick_expand_prices_each_candidate_once(monkeypatch):
    calls = []
    enumerate_candidates = wick_pairing.subpolynomials

    def counted(p, view="all"):
        calls.append(p)
        return enumerate_candidates(p, view)

    monkeypatch.setattr(wick_pairing, "subpolynomials", counted)
    L = QED.vertex("e")
    n_cand = len(enumerate_candidates(L, view="all"))
    assert n_cand == 73
    # the same polynomial twice is priced once
    assert len(list(wick_expand([L, L]))) == n_cand**2
    assert calls == [L]
    # distinct arguments are each priced once, however often they repeat
    calls.clear()
    j0 = derive(L, index_of(Generator(QED.fields.index("A_0"))))
    n_j0 = len(enumerate_candidates(j0, view="all"))
    assert len(list(wick_expand([j0, L, j0]))) == n_j0**2 * n_cand
    assert calls == [j0, L]


def _internal_species(vertex, s):
    """Species counts of B^(s) for a vertex whose monomials all share one
    species content: the vertex's counts minus those of s."""
    table = vertex.table

    def species(idx):
        acc = {}
        for g, m in idx.entries:
            sp = table.entry(g.field).species
            acc[sp] = acc.get(sp, 0) + m
        return acc

    acc = species(vertex.terms[0][0])
    assert all(species(idx) == acc for idx, _ in vertex.terms)
    for g, m in s.entries:
        acc[table.entry(g.field).species] -= m
    return acc


@pytest.mark.parametrize(
    "model, n, terms, forced_zero",
    [
        ("spinor_qed_massive", 2, 5329, 4216),
        ("scalar_qed_massive", 2, 2209, 1806),
        # L = phi psi^2/2: s_j = phi^a_j psi^b_j leaves phi^(1-a_j) psi^(2-b_j)
        # inside, so a term survives iff an even number of the a_j are 0
        # (2^(n-1) of 2^n) and an even number of the b_j are 1 ((3^n + 1)/2
        # of 3^n): 6^n - 2^(n-2) (3^n + 1) = 160 are forced zero at n = 3
        ("scalar_model", 3, 216, 6**3 - 2 * (3**3 + 1)),
    ],
)
def test_wick_forced_zero_counts(model, n, terms, forced_zero):
    """Each term's verdict against species balance counted from its s-list:
    a self-conjugate species (A, the real scalars) occurs an even number of
    times, a charged one as often as its conjugate."""
    m = builtin(model)
    L = m.vertex("e")
    conj = {e.species: m.fields.entry(e.adjoint).species for e in m.fields.entries}
    expansion = list(wick_expand([L] * n))
    for t in expansion:
        total = {}
        for s in t.s_list.items:
            for sp, c in _internal_species(L, s).items():
                total[sp] = total.get(sp, 0) + c
        balanced = all(
            c % 2 == 0 if conj[sp] == sp else c == total.get(conj[sp], 0)
            for sp, c in total.items()
        )
        assert t.vev_forced_zero == (not balanced), t.s_list
    assert len(expansion) == terms
    assert sum(t.vev_forced_zero for t in expansion) == forced_zero


# a real scalar, a charged massive scalar and a ghost pair
TOY = parse_model_spec(
    """
[fields]
phi scalar 0.0 0 0
chi scalar 1.0 -1 0
u ghost 0.0 0 1
[vertices]
[options]
c = 0
"""
).fields


@st.composite
def fermion_homogeneous_polynomials(draw):
    """Sums of up to two monomials of degree 1..3 in the toy fields, with
    one fermion number (monomials of any other are dropped)."""
    gens = st.builds(Generator, st.integers(0, len(TOY) - 1), st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0)]))
    terms, fermion = {}, None
    for word in draw(st.lists(st.lists(gens, min_size=1, max_size=3), min_size=1, max_size=2)):
        res = canonicalize_word(word, TOY)
        f = sum(TOY.entry(g.field).numbers.fermion for g in word)
        fermion = f if fermion is None else fermion
        if res is not None and f == fermion:
            terms[res[1]] = QRat(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(-1, 1)))
    return Polynomial(TOY, terms)


def _per_term_wick(polys):
    """wick_expand as it was before memoization: every candidate's rho taken
    from the extraction reference, and every term's cross sign, weight and
    verdict computed on its own."""
    table = polys[0].table
    per_arg = [
        [
            (s, d, _reference_rho(p, s), s.factorial(),
             sum(m * table.parity(g.field) for g, m in s.entries) % 2,
             wick_pairing._species_content(d, table))
            for s, d in subpolynomials(p, view="all")
        ]
        for p in polys
    ]
    ppar = [p.parity() for p in polys]
    regroup = list(range(0, 2 * len(polys), 2)) + list(range(1, 2 * len(polys), 2))
    out = []
    for choice in itertools.product(*per_arg):
        s_list, args, rhos, facts, spars, contents = zip(*choice)
        blocks = [b for par, spar in zip(ppar, spars) for b in ((par - spar) % 2, spar)]
        out.append((
            tuple(s.key() for s in s_list),
            permutation_sign(blocks, regroup) * math.prod(rhos),
            QRat(Fraction(1, math.prod(facts))),
            args,
            not wick_pairing._species_balance_possible(contents, table),
        ))
    return out


@settings(deadline=None)
@given(
    st.lists(fermion_homogeneous_polynomials(), min_size=1, max_size=3),
    st.lists(st.integers(0, 2), min_size=2, max_size=3),
)
def test_property_memoized_wick_equals_per_term_reference(pool, picks):
    """Repeated and distinct arguments: the memoized expansion equals the
    per-term one in order, sign, weight, VEV arguments and verdict."""
    polys = [pool[k % len(pool)] for k in picks]
    got = [
        (tuple(s.key() for s in t.s_list.items), t.sign, t.weight, t.vev_args, t.vev_forced_zero)
        for t in wick_expand(polys)
    ]
    assert got == _per_term_wick(polys)


# --------------------------------------------------------------------------- sign references


def _reference_extraction_sign(r, s, table):
    """The odd-odd (external, internal) pair count that permutation_sign replaced."""
    word = r.word()
    external = []
    remaining = {g: m for g, m in s.entries}
    for pos in range(len(word) - 1, -1, -1):
        g = word[pos]
        if remaining.get(g, 0) > 0:
            remaining[g] -= 1
            external.append(pos)
    ext_set = set(external)
    sign = 1
    for pe in ext_set:
        if not table.parity(word[pe].field):
            continue
        for pi in range(pe + 1, len(word)):
            if pi not in ext_set and table.parity(word[pi].field):
                sign = -sign
    return sign


def _reference_contraction_sign(n_total, parities, pairs):
    """Contract pairs in order of left position, each time counting the live
    odd elements strictly between the endpoints."""
    alive = [True] * n_total
    sign = 1
    for i, j in sorted(pairs):
        if parities[i] and parities[j]:
            crossings = sum(1 for k in range(i + 1, j) if alive[k] and parities[k])
            if crossings % 2:
                sign = -sign
        alive[i] = alive[j] = False
    return sign


def _reference_rho(p, s):
    """The sign rho relating derive(p, s) to the right-extraction of s:
    rho * derive(p, s) = sum over monomials A^t of sigma C(t, s) s! c A^(t-s),
    with sigma the extraction sign; asserted uniform over the monomials."""
    table, d = p.table, derive(p, s)
    rhos = set()
    for t, c in p.terms:
        if not t.ge(s):
            continue
        binomial = math.prod(math.comb(t.get(g), k) for g, k in s.entries)
        ratio = c * (_reference_extraction_sign(t, s, table) * binomial * s.factorial()) / d.coeff(t.sub(s))
        assert ratio in (QRat(1), QRat(-1)), (p, s, ratio)
        rhos.add(ratio)
    (rho,) = rhos
    return 1 if rho == QRat(1) else -1


def test_wick_rho_matches_extraction_reference():
    """rho = (-1)^(C(j, 2) + j r) against the extraction reference, read off
    wick_expand([B, 1]): the unit argument adds no sign, so the term of
    (s, 1) carries rho of B and s alone."""
    rng = random.Random(23)
    table = QED.fields
    unit = Polynomial.unit(table)
    vertex = QED.vertex("e")
    cases = [(vertex, [s for s, _ in subpolynomials(vertex, view="all")])]
    for _ in range(120):
        gens = rng.sample(range(len(table)), rng.randint(1, 7))
        r = SuperQuadriIndex.from_pairs(
            (Generator(f), 1 if table.parity(f) else rng.randint(1, 2)) for f in gens
        )
        s = SuperQuadriIndex.from_pairs((g, rng.randint(0, m)) for g, m in r.entries)
        cases.append((Polynomial.monomial(table, r, QRat(rng.randint(1, 5), rng.randint(-2, 2))), [s]))
    seen = set()
    for p, subs in cases:
        signs = {t.s_list.items[0]: t.sign for t in wick_expand([p, unit])}
        for s in subs:
            assert signs[s] == _reference_rho(p, s), (p, s)
            j = sum(m * table.parity(g.field) for g, m in s.entries)
            seen.add((j, (p.parity() - j) % 2, signs[s]))
    # both terms of the exponent matter: C(j, 2) is odd at j = 2, 3 and
    # j r is odd at odd j over an odd B^(s); every j up to 4 with both r
    assert {(j, r) for j, r, _ in seen} >= {(j, r) for j in range(5) for r in (0, 1)}
    assert {sign for j, _, sign in seen if j >= 3} == {-1, 1}


def test_contraction_sign_matches_crossing_count_for_equal_parity_pairs():
    rng = random.Random(29)
    flips = 0
    for _ in range(2000):
        n = rng.randint(0, 10)
        parities = [rng.randint(0, 1) for _ in range(n)]
        free = list(range(n))
        rng.shuffle(free)
        pairs = []
        while len(free) >= 2 and rng.random() < 0.8:
            i = free.pop()
            partner = [j for j in free if parities[j] == parities[i]]
            if not partner:
                continue
            j = rng.choice(partner)
            free.remove(j)
            pairs.append((min(i, j), max(i, j)))
        got = wick_pairing._contraction_sign(n, parities, pairs)
        assert got == _reference_contraction_sign(n, parities, pairs), (parities, pairs)
        flips += got == -1
    assert flips > 200


def test_wick_single_argument():
    L = SM.vertex("e")
    (t,) = wick_expand([L])
    assert t.s_list.items == (SuperQuadriIndex(),)
    assert t.sign == 1 and t.weight == QRat(1)
    assert t.vev_args == (L,)


def _external_reconstruction(polys):
    """Sum of all-external terms must reproduce the plain tensor product."""
    terms = wick_expand(polys)
    acc = {}
    for t in terms:
        if all(len(p.terms) == 1 and not p.terms[0][0].entries for p in t.vev_args):
            c = QRat(t.sign) * t.weight
            for p in t.vev_args:
                c = c * p.terms[0][1]
            key = tuple(s.key() for s in t.s_list.items)
            acc[key] = acc.get(key, QRat(0)) + c
    expect = {}
    for combo in itertools.product(*[p.terms for p in polys]):
        key = tuple(idx.key() for idx, _ in combo)
        c = QRat(1)
        for _, cc in combo:
            c = c * cc
        expect[key] = expect.get(key, QRat(0)) + c
    acc = {k: v for k, v in acc.items() if not v.is_zero()}
    expect = {k: v for k, v in expect.items() if not v.is_zero()}
    return acc, expect


def test_wick_all_external_reconstruction():
    L = SM.vertex("e")
    acc, expect = _external_reconstruction([L, L])
    assert acc == expect
    j0 = derive(QED.vertex("e"), index_of(Generator(QED.fields.index("A_0"))))
    psi1 = Polynomial.of_field(QED.fields, "psi_1")
    acc, expect = _external_reconstruction([j0, psi1])
    assert acc == expect
    acc, expect = _external_reconstruction([j0, j0])
    assert acc == expect


def test_qed_current_psi_expansion_matches_displayed_form():
    """F(j^mu, psi_a) = :j psi: - <F((psibar gamma^mu)_b, psi_a)> :psi_b:."""
    t = QED.fields
    for mu in (0, 1):
        jmu = derive(QED.vertex("e"), index_of(Generator(t.index("A_" + str(mu)))))
        psi1 = Polynomial.of_field(t, "psi_1")
        terms = list(wick_expand([jmu, psi1]))
        g0gmu = mat_mul(GAMMA0, gamma(mu))
        for b in range(4):
            sb = index_of(Generator(t.index(f"psi_{b + 1}")))
            match = [
                x
                for x in terms
                if x.s_list.items == (sb, SuperQuadriIndex())
            ]
            assert len(match) == 1
            (term,) = match
            # invariant combination: sign * first VEV argument
            got = term.vev_args[0].scale(QRat(term.sign) * term.weight)
            psibar_gamma_b = Polynomial.zero(t)
            for d in range(4):
                c = g0gmu[d][b]
                if not c.is_zero():
                    psibar_gamma_b = psibar_gamma_b + Polynomial.of_field(
                        t, f"psi*_{d + 1}"
                    ).scale(c)
            if psibar_gamma_b.is_zero():
                assert got.is_zero()
            else:
                assert got == psibar_gamma_b.scale(QRat(-1))
            assert term.vev_args[1] == psi1


def test_wick_graded_symmetry_covariance():
    """Permutation of arguments multiplies each term by the composite graded
    sign of the argument, normal, and internal reorderings."""
    t = QED.fields
    j0 = derive(QED.vertex("e"), index_of(Generator(t.index("A_0"))))
    psi1 = Polynomial.of_field(t, "psi_1")
    for b1, b2 in [(j0, psi1), (psi1, j0),
                   (psi1, Polynomial.of_field(t, "psi*_2"))]:
        t12 = {tuple(s.key() for s in x.s_list.items): x for x in wick_expand([b1, b2])}
        t21 = {tuple(s.key() for s in x.s_list.items): x for x in wick_expand([b2, b1])}
        for (k1, k2), x in t12.items():
            y = t21[(k2, k1)]
            spar1 = sum(t.parity(g.field) * m for g, m in x.s_list.items[0].entries) % 2
            spar2 = sum(t.parity(g.field) * m for g, m in x.s_list.items[1].entries) % 2
            ipar1 = (b1.parity() - spar1) % 2
            ipar2 = (b2.parity() - spar2) % 2
            rel = -1 if (spar1 * ipar2 + spar2 * ipar1) % 2 else 1
            assert y.sign == x.sign * rel
            assert y.vev_args == (x.vev_args[1], x.vev_args[0])


def test_wick_refuses_a_mixed_parity_argument_at_any_count():
    """The fermion-homogeneity contract holds for one argument as for two,
    and is checked on the call, before any term is made."""
    t = QED.fields
    mixed = Polynomial.of_field(t, "psi_1") + Polynomial.of_field(t, "A_0")
    for args in ([mixed], [mixed, Polynomial.of_field(t, "A_1")]):
        with pytest.raises(AlgebraError, match="not homogeneous in fermion number"):
            wick_expand(args)


def test_wick_expand_streams_in_constant_memory():
    """wick_expand is a single-pass iterator that keeps only what its terms
    share (candidates and weights): consuming scalar QED L,L,L, 103,823
    terms, peaks below 1 MB."""
    import tracemalloc

    L = builtin("scalar_qed_massive").vertex("e")
    tracemalloc.start()
    try:
        terms = wick_expand([L] * 3)
        assert iter(terms) is terms
        count = sum(1 for _ in terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 103823 and next(terms, None) is None
    assert peak < 1 << 20, peak


def test_wick_graded_symmetry_three_arguments():
    """Composite graded sign identity across all six permutations of three
    mixed-parity arguments."""
    t = QED.fields
    j0 = derive(QED.vertex("e"), index_of(Generator(t.index("A_0"))))
    args = [
        Polynomial.of_field(t, "psi_1"),
        j0,
        Polynomial.of_field(t, "psi*_2"),
    ]
    base = {
        tuple(s.key() for s in x.s_list.items): x for x in wick_expand(args)
    }
    for perm in itertools.permutations(range(3)):
        other = {
            tuple(s.key() for s in x.s_list.items): x
            for x in wick_expand([args[p] for p in perm])
        }

        def inv_par(pars):
            c = 0
            for a in range(3):
                for b in range(a + 1, 3):
                    if perm[a] > perm[b] and pars[perm[a]] and pars[perm[b]]:
                        c += 1
            return c

        for key, x in base.items():
            y = other[tuple(key[p] for p in perm)]
            spar = [
                sum(t.parity(g.field) * m for g, m in s.entries) % 2
                for s in x.s_list.items
            ]
            ipar = [(args[j].parity() - spar[j]) % 2 for j in range(3)]
            tot = [(spar[j] + ipar[j]) % 2 for j in range(3)]
            rel = (-1) ** (inv_par(tot) + inv_par(spar) + inv_par(ipar))
            assert y.sign == x.sign * rel
            assert y.vev_args == tuple(x.vev_args[p] for p in perm)


# --------------------------------------------------------------------------- pairings


def test_pairing_counts():
    phi2 = SuperQuadriIndex.from_pairs([(Generator(0), 2)])
    terms = complete_pairings([phi2], [phi2], SM, require_full=True)
    assert len(terms) == 2 and all(t.const == QRat(1) for t in terms)
    phi3 = SuperQuadriIndex.from_pairs([(Generator(0), 3)])
    assert len(complete_pairings([phi3], [phi3], SM, require_full=True)) == 6


def test_pairing_mass_mismatch_dropped():
    phi = index_of(Generator(0))
    psi = index_of(Generator(1))
    terms = complete_pairings([phi], [psi], SM)
    assert all(not t.pairs for t in terms)


def momentum_support_vanishes(term: PairingTerm) -> bool:
    """True iff at least one contracted line is massive, so the Fourier
    support of the pair product misses a neighborhood of zero momentum."""
    return any(p.mass > 0 for p in term.pairs)


def test_pairing_classification_and_support():
    phi = index_of(Generator(0))
    psi2 = SuperQuadriIndex.from_pairs([(Generator(1), 2)])
    vac = [t for t in complete_pairings([], [], SM)]
    assert len(vac) == 1 and vac[0].classification == "vacuum"
    assert not momentum_support_vanishes(vac[0])
    massless = complete_pairings([phi], [phi], SM, require_full=True)
    assert massless[0].classification == "massless"
    assert not momentum_support_vanishes(massless[0])
    massive = complete_pairings([psi2], [psi2], SM, require_full=True)
    assert all(t.classification == "massive" for t in massive)
    assert all(momentum_support_vanishes(t) for t in massive)
    # massive residual without massive pair: classification massive, support ok
    part = [
        t
        for t in complete_pairings([phi.add(psi2)], [phi], SM)
        if t.pairs and all(p.mass == 0 for p in t.pairs)
    ]
    assert part and all(t.classification == "massive" for t in part)
    assert all(not momentum_support_vanishes(t) for t in part)


def ext_der_stats(term: PairingTerm) -> dict[int, tuple[int, int]]:
    """Per-field (ext, der) statistics of the contracted lines."""
    acc: dict[int, list[int]] = {}
    for p in term.pairs:
        for g in (p.left_gen, p.right_gen):
            e = acc.setdefault(g.field, [0, 0])
            e[0] += 1
            e[1] += g.d_order
    return {f: (e, d) for f, (e, d) in acc.items()}


def test_pairing_ext_der_constraint():
    """ext/der additivity: paired content per side sums to the pair stats."""
    left = [SM.vertex("e").terms[0][0]]
    right = [SM.vertex("e").terms[0][0]]
    for t in complete_pairings(left, right, SM):
        stats = ext_der_stats(t)
        for fid, (e, d) in stats.items():
            el = sum(1 for p in t.pairs if p.left_gen.field == fid)
            er = sum(1 for p in t.pairs if p.right_gen.field == fid)
            dl = sum(p.left_gen.d_order for p in t.pairs if p.left_gen.field == fid)
            dr = sum(p.right_gen.d_order for p in t.pairs if p.right_gen.field == fid)
            assert e == el + er and d == dl + dr


def test_pairing_guard():
    phi7 = SuperQuadriIndex.from_pairs([(Generator(0), 13)])
    with pytest.raises(WickError, match="force"):
        complete_pairings([phi7], [phi7], SM, require_full=True)


def _per_term_pairings(left, right, model, require_full):
    """complete_pairings as it was before terms shared their objects: a Pair
    per contracted line, the crossing-count sign, both residuals and the
    classification built for every term on its own."""
    locc = [(slot, g) for slot, idx in enumerate(left) for g in idx.word()]
    rocc = [(slot, g) for slot, idx in enumerate(right) for g in idx.word()]
    if require_full and len(locc) != len(rocc):
        return []
    table = model.fields
    parities = [table.parity(g.field) for _, g in locc + rocc]
    admissible = {}
    for i, (_, gl) in enumerate(locc):
        for j, (_, gr) in enumerate(rocc):
            key = two_point(model, gl, gr)
            if key is not None:
                admissible[(i, j)] = key.mass

    def residual(slots, occ, used):
        per_slot = [[] for _ in slots]
        for pos, (slot, g) in enumerate(occ):
            if pos not in used:
                per_slot[slot].append(g)
        return SList(tuple(SuperQuadriIndex.from_pairs((g, 1) for g in gens) for gens in per_slot))

    out = []

    def emit(assign):
        pairs = tuple(Pair(*locc[i], *rocc[assign[i]], admissible[(i, assign[i])]) for i in sorted(assign))
        sign = _reference_contraction_sign(
            len(parities), parities, [(i, len(locc) + j) for i, j in assign.items()])
        res_l = residual(left, locc, set(assign))
        res_r = residual(right, rocc, set(assign.values()))
        leftover = [g for sl in (res_l, res_r) for s in sl.items for g, _ in s.entries]
        if not pairs and not leftover:
            cls = "vacuum"
        elif any(p.mass > 0 for p in pairs) or any(table.entry(g.field).numbers.mass > 0 for g in leftover):
            cls = "massive"
        else:
            cls = "massless"
        out.append(PairingTerm(pairs, res_l, res_r, QRat(sign), cls))

    def recurse(i, assign):
        if i == len(locc):
            if not require_full or len(assign) == len(rocc):
                emit(assign)
            return
        if not require_full:
            recurse(i + 1, assign)
        for j in range(len(rocc)):
            if j not in assign.values() and (i, j) in admissible:
                recurse(i + 1, {**assign, i: j})

    recurse(0, {})
    return out


@st.composite
def pairing_cases(draw):
    """(left, right, model, require_full): up to two monomials a side, each
    of one to three letters with or without a derivative, over the scalar
    model or the ghost model (no odd letter twice)."""
    model = draw(st.sampled_from([SM, GHOSTS]))
    table = model.fields
    letters = st.builds(
        Generator, st.integers(0, len(table) - 1), st.sampled_from([(0, 0, 0, 0), (1, 0, 0, 0)]))

    def monomial(word):
        return SuperQuadriIndex.from_pairs(
            (g, 1) for k, g in enumerate(word) if not (table.parity(g.field) and g in word[:k]))

    side = st.lists(st.lists(letters, min_size=1, max_size=3).map(monomial), max_size=2)
    return draw(side), draw(side), model, draw(st.booleans())


@settings(deadline=None)
@given(pairing_cases())
def test_property_shared_pairings_equal_per_term_reference(case):
    """Terms that share pairs, residuals and consts equal the per-term
    construction in order and in every field."""
    left, right, model, full = case
    got = complete_pairings(left, right, model, require_full=full)
    assert got == _per_term_pairings(left, right, model, full)


def test_isserlis_examples():
    c1 = [[Fraction(1)]]
    assert isserlis_oracle(c1, [0, 0, 0, 0]) == 3
    assert isserlis_oracle(c1, [0, 0, 0]) == 0
    rho = Fraction(1, 3)
    c2 = [[Fraction(1), rho], [rho, Fraction(1)]]
    assert isserlis_oracle(c2, [0, 0, 1, 1]) == 1 + 2 * rho**2


def test_pairing_sum_matches_isserlis_multislot():
    """Slot-dependent covariances: sum over complete pairings weighted by the
    slot-pair covariance equals the cross-block Gaussian moment."""
    rng = random.Random(17)
    phi = Generator(0)
    for _ in range(30):
        nl, nr = rng.randint(1, 2), rng.randint(1, 2)
        left = [
            SuperQuadriIndex.from_pairs([(phi, rng.randint(1, 3))]) for _ in range(nl)
        ]
        right = [
            SuperQuadriIndex.from_pairs([(phi, rng.randint(1, 3))]) for _ in range(nr)
        ]
        cov = {
            (i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            for i in range(nl)
            for j in range(nr)
        }
        total = Fraction(0)
        for t in complete_pairings(left, right, SM, require_full=True):
            w = t.const.re
            for p in t.pairs:
                w *= cov[(p.left_slot, p.right_slot)]
            total += w
        # oracle: one Gaussian variable per occurrence, cross-block cov only
        occ = []
        for i, s in enumerate(left):
            occ += [("L", i)] * s.degree()
        for j, s in enumerate(right):
            occ += [("R", j)] * s.degree()
        n = len(occ)
        cmat = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                if occ[a][0] == "L" and occ[b][0] == "R":
                    cmat[a][b] = cmat[b][a] = cov[(occ[a][1], occ[b][1])]
        assert total == isserlis_oracle(cmat, list(range(n)))
