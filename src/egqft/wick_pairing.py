"""Wick combinatorics: causal expansion of multilinear field products,
complete-pairing enumeration for vacuum expectation values of products,
contribution classification, and the ordered-partition expansions of the
anti-time-ordered and advanced products.

Sign conventions.  Every graded sign here is
``symbolic_fields.permutation_sign`` of an explicit rearrangement.  The
factor (-1)^f multiplying a Wick-expansion term is fixed by a word
construction: each argument's canonical generator word is split into an
internal part (entering the VEV factor) and an external part (the
normal-ordered remainder), and the externals are moved to the right.  The
term sign regroups the blocks (internal_1, external_1, ..., internal_n,
external_n) as all internals, then all externals, and multiplies per
argument rho = (-1)^(C(j, 2) + j r), with j the number of odd letters of s
and r the parity of B^(s): derive takes the odd letters off highest first,
so against the extraction they come out reversed, past a block of parity r.
This is pinned by the Gaussian-moment oracle and the graded symmetry property.

Retarded and causal (Dif) expansions, the momentum-support test and the
ext/der statistics of a pairing: tests/test_wick_pairing.py.
"""
from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .exact import DomainError, QRat
from .power_counting import SList
from .symbolic_fields import Generator, Polynomial, SuperQuadriIndex, permutation_sign, subpolynomials
from .wightman import two_point


class WickError(DomainError):
    pass


# --------------------------------------------------------------------------- wick expansion


class WickTerm(NamedTuple):
    s_list: SList
    sign: int
    weight: QRat  # 1/(s_1! ... s_n!)
    vev_args: tuple[Polynomial, ...]
    vev_forced_zero: bool


def _species_content(p: Polynomial, table) -> frozenset:
    """The species multisets of the monomials of p, as sorted (species, count) tuples."""
    sigs = set()
    for idx, _ in p.terms:
        acc: dict[str, int] = {}
        for g, m in idx.entries:
            sp = table.entry(g.field).species
            acc[sp] = acc.get(sp, 0) + m
        sigs.add(tuple(sorted(acc.items())))
    return frozenset(sigs)


def _species_balance_possible(per_arg: Sequence[frozenset], table) -> bool:
    """Can some choice of monomials (one per argument) balance all species?

    per_arg holds each argument's _species_content.  Balance:
    conjugate-paired species occur equally often; self-conjugate species
    occur an even number of times.  Necessary for a nonzero VEV.
    """
    # species -> conjugate species, taken from the first entry of each species
    conj = {e.species: table.entries[e.adjoint].species for e in reversed(table.entries)}

    for combo in itertools.product(*per_arg):
        total: dict[str, int] = {}
        for sig in combo:
            for sp, m in sig:
                total[sp] = total.get(sp, 0) + m
        ok = True
        for sp, m in total.items():
            cs = conj[sp]
            if cs == sp:
                if m % 2:
                    ok = False
                    break
            elif total.get(cs, 0) != m:
                ok = False
                break
        if ok:
            return True
    return False


def wick_expand(polys: Sequence[Polynomial]) -> Iterator[WickTerm]:
    """All terms of the causal Wick expansion of F(B_1(x_1), ..., B_n(x_n)),
    as a single-pass iterator.

    Enumerates every list (s_1, ..., s_n) with derive(B_j, s_j) != 0, with
    the sign of the module docstring and weight 1/(s_1!...s_n!); a single
    argument has the one candidate s = 0 (the expansion is the tautology).
    Each argument, a single one too, must be fermion-homogeneous
    (Polynomial.parity).  Terms whose internal field content cannot balance
    are flagged vev_forced_zero.

    The checks and the pricing of every candidate run on the call, so each
    error is raised before the first term; the terms are then made one at a
    time, and only the candidates and weights they share stay in memory.
    """
    if not polys:
        return iter(())
    table = polys[0].table
    for p in polys:
        if p.table != table:
            raise WickError("arguments over different field tables")
    # one record per (distinct argument, candidate): s, B^(s), the number j
    # of odd letters in s, s!, species content of B^(s).  Candidate lists are
    # key-sorted with distinct keys, so the product below already runs in
    # lexicographic order of the s-lists.
    priced: dict[Polynomial, list] = {}
    for p in polys:
        if p not in priced:
            priced[p] = [
                (s, d, sum(m * table.parity(g.field) for g, m in s.entries), s.factorial(),
                 _species_content(d, table))
                for s, d in (subpolynomials(p, view="all") if len(polys) > 1
                             else [(SuperQuadriIndex(), p)])
            ]
    per_arg = [priced[p] for p in polys]
    ppar = [p.parity() for p in polys]
    # cross sign: the blocks (internal_1, external_1, ..., internal_n,
    # external_n) regrouped as all internals, then all externals
    regroup = list(range(0, 2 * len(polys), 2)) + list(range(1, 2 * len(polys), 2))

    @functools.cache
    def sign(js):
        # rho per argument: the j odd letters reversed, then moved past B^(s)
        inner = [(par - j) % 2 for par, j in zip(ppar, js)]
        cross = permutation_sign([b for r, j in zip(inner, js) for b in (r, j)], regroup)
        return cross * math.prod(
            permutation_sign([1] * j + [r], range(j, -1, -1)) for r, j in zip(inner, js))

    # a term's verdict and weight depend only on small classes of its
    # candidates (species contents, factorial product), so each is computed
    # once per tuple of classes
    forced_zero = functools.cache(lambda contents: not _species_balance_possible(contents, table))
    weight = functools.cache(lambda fact: QRat(Fraction(1, fact)))

    def terms():
        for choice in itertools.product(*per_arg):
            s_list, args, js, facts, contents = zip(*choice)
            yield WickTerm(
                s_list=SList(s_list),
                sign=sign(js),
                weight=weight(math.prod(facts)),
                vev_args=args,
                vev_forced_zero=forced_zero(contents),
            )

    return terms()


# --------------------------------------------------------------------------- complete pairings


class Pair(NamedTuple):
    left_slot: int
    left_gen: Generator
    right_slot: int
    right_gen: Generator
    mass: float


class PairingTerm(NamedTuple):
    pairs: tuple[Pair, ...]
    residual_left: SList
    residual_right: SList
    const: QRat
    classification: str  # vacuum | massless | massive


def _occurrences(slots: Sequence[SuperQuadriIndex]):
    out = []
    for slot, idx in enumerate(slots):
        for g in idx.word():
            out.append((slot, g))
    return out


def _contraction_sign(n_total: int, parities: Sequence[int], pairs: Sequence[tuple[int, int]]) -> int:
    """Graded Wick sign: the pairs (i, j), i < j, are moved adjacent to the
    front in order of left position, the uncontracted positions after them.

    For pairs of equal parity this is the crossing count of contracting each
    pair past the live odd elements between its endpoints; two_point pairs
    only fields of one kind, so every pair it admits has equal parity.
    """
    front = [pos for pair in sorted(pairs) for pos in pair]
    used = set(front)
    rest = [pos for pos in range(n_total) if pos not in used]
    return permutation_sign(parities, front + rest)


def complete_pairings(
    left: Sequence[SuperQuadriIndex],
    right: Sequence[SuperQuadriIndex],
    model,
    require_full: bool = False,
    force: bool = False,
) -> list[PairingTerm]:
    """Enumerate pairings of left occurrences against right occurrences.

    Every chosen left occurrence pairs exactly one right occurrence; pairs
    whose two-point function vanishes identically (the right generator is
    not a component of the left one's adjoint field, or its weight element
    is zero) are dropped.  With require_full=True only complete
    contractions of both sides are produced.  Enumeration order is lexicographic in (left slot,
    left generator, right slot); occurrences of identical generators count
    separately, so a full phi^3-phi^3 contraction yields 3! terms.

    Terms share one Pair per admissible (left, right) occurrence pair and
    one residual SList per set of used positions on each side.
    """
    locc = _occurrences(left)
    rocc = _occurrences(right)
    cap = min(len(locc), len(rocc))
    if cap > 12 and not force:
        raise WickError(
            f"{cap} pairable occurrences exceed the factorial guard (12); "
            f"pass force=True to proceed"
        )
    if require_full and len(locc) != len(rocc):
        return []

    table = model.fields
    parities = [table.parity(g.field) for _, g in locc + rocc]
    nl, nr = len(locc), len(rocc)
    # per left position, its admissible (right position, Pair)
    options = [[] for _ in locc]
    for i, (ls, gl) in enumerate(locc):
        for j, (rs, gr) in enumerate(rocc):
            key = two_point(model, gl, gr)
            if key is not None:
                options[i].append((j, Pair(ls, gl, rs, gr, key.mass)))
    # a side's residual depends only on its set of used positions (a bit mask)
    residual_l = functools.cache(lambda used: _residual(left, locc, used, table))
    residual_r = functools.cache(lambda used: _residual(right, rocc, used, table))
    const = {1: QRat(1), -1: QRat(-1)}
    odd = any(parities)
    vacuum = not (locc or rocc)
    out: list[PairingTerm] = []

    def recurse(i, chosen, used_l, used_r, heavy):
        # with require_full every left position pairs, so every right one does
        if i == nl:
            (res_l, massive_l), (res_r, massive_r) = residual_l(used_l), residual_r(used_r)
            sign = 1
            if odd:
                sign = _contraction_sign(nl + nr, parities, [(k, nl + j) for k, j, _ in chosen])
            cls = "vacuum" if vacuum else "massive" if heavy or massive_l or massive_r else "massless"
            out.append(PairingTerm(tuple(p for _, _, p in chosen), res_l, res_r, const[sign], cls))
            return
        if not require_full:
            recurse(i + 1, chosen, used_l, used_r, heavy)
        for j, pair in options[i]:
            if not used_r >> j & 1:
                chosen.append((i, j, pair))
                recurse(i + 1, chosen, used_l | 1 << i, used_r | 1 << j, heavy or pair.mass > 0)
                chosen.pop()

    recurse(0, [], 0, 0, False)
    return out


def _residual(slots, occ, used, table) -> tuple[SList, bool]:
    """The unused occurrences of a side, per slot, and whether one is massive."""
    per_slot = [[] for _ in slots]
    for pos, (slot, g) in enumerate(occ):
        if not used >> pos & 1:
            per_slot[slot].append(g)
    return (
        SList(tuple(SuperQuadriIndex.from_pairs((g, 1) for g in gens) for gens in per_slot)),
        any(table.entry(g.field).numbers.mass > 0 for gens in per_slot for g in gens),
    )


# --------------------------------------------------------------------------- Gaussian-moment oracle


def isserlis_oracle(cov, occurrences: Sequence[int]):
    """Gaussian moment <x_{i1} ... x_{im}> by the recursive pair sum.

    cov is a symmetric matrix (indexable cov[i][j]) of exact rationals or
    floats; zero-mean.  Used only as an independent test oracle.
    """
    occ = list(occurrences)
    if len(occ) == 0:
        return 1
    if len(occ) % 2:
        return Fraction(0) if _is_exact(cov) else 0.0
    first, rest = occ[0], occ[1:]
    total = Fraction(0) if _is_exact(cov) else 0.0
    for k in range(len(rest)):
        sub = rest[:k] + rest[k + 1 :]
        total += cov[first][rest[k]] * isserlis_oracle(cov, sub)
    return total


def _is_exact(cov) -> bool:
    return isinstance(cov[0][0], (int, Fraction))


# --------------------------------------------------------------------------- ordered-partition expansions


class Factor(NamedTuple):
    kind: str  # "T" | "aT" | "Adv"
    content: tuple  # original argument indices; "J" marks the spectator list


class ExpansionTerm(NamedTuple):
    structural: int
    factors: tuple[Factor, ...]
    parities: tuple[int, ...]
    j_parity: int = 0

    @property
    def coeff(self) -> int:
        """structural sign times the graded-reordering sign of the final word."""
        n = len(self.parities)
        key = [n if x == "J" else x for f in self.factors for x in f.content]
        # the spectator list J is entry n, present only when a factor holds it
        fermions = (self.parities + (self.j_parity,))[: len(key)]
        return self.structural * permutation_sign(fermions, key)


class OpProductExpansion(NamedTuple):
    n: int
    terms: tuple[ExpansionTerm, ...]


def _ordered_partitions(n: int, k: int):
    """Ordered partitions of range(n) into k nonempty blocks of increasing
    elements (blocks are subsequences of the identity order)."""
    return (blocks for blocks in _subsequence_splits(n, k) if all(blocks))


def _subsequence_splits(n: int, parts: int):
    for labels in itertools.product(range(parts), repeat=n):
        yield [tuple(i for i in range(n) if labels[i] == b) for b in range(parts)]


def _norm_parities(n, parities):
    if parities is None:
        return tuple([0] * n)
    if len(parities) != n:
        raise WickError("parity list length mismatch")
    return tuple(p % 2 for p in parities)


def expand_aT(n: int, parities=None) -> OpProductExpansion:
    """aT as a signed sum of products of time-ordered blocks over ordered
    partitions; term count is the ordered-set-partition number of n."""
    parities = _norm_parities(n, parities)
    terms = []
    if n == 0:
        return OpProductExpansion(0, (ExpansionTerm(1, (), parities),))
    for k in range(1, n + 1):
        for blocks in _ordered_partitions(n, k):
            structural = (-1) ** (n + k)
            terms.append(
                ExpansionTerm(
                    structural,
                    tuple(Factor("T", b) for b in blocks),
                    parities,
                )
            )
    return OpProductExpansion(n, tuple(terms))


def expand_adv(n: int, parities=None, j_parity: int = 0) -> OpProductExpansion:
    """Adv(I;J) = sum over splits I1,I2: (-1)^|I2| T(I1,J) aT(I2)."""
    parities = _norm_parities(n, parities)
    terms = []
    for i1, i2 in _subsequence_splits(n, 2):
        structural = (-1) ** len(i2)
        factors = [Factor("T", tuple(i1) + ("J",))]
        if i2:
            factors.append(Factor("aT", tuple(i2)))
        terms.append(ExpansionTerm(structural, tuple(factors), parities, j_parity))
    return OpProductExpansion(n, tuple(terms))


# --------------------------------------------------------------------------- flattening / telescoping


def flatten_to_T(terms: Sequence[ExpansionTerm]) -> dict[tuple, int]:
    """Rewrite aT and Adv factors through their expansions and collect the
    coefficients of pure T-block words (tuples of content tuples).

    Empty T-blocks are unit factors and are dropped from the word.
    """
    acc: dict[tuple, int] = {}

    def rec(pending, factors_done, structural, term):
        if not pending:
            final = ExpansionTerm(structural, tuple(factors_done), term.parities, term.j_parity)
            word = tuple(f.content for f in factors_done if f.content)
            acc[word] = acc.get(word, 0) + final.coeff
            return
        f, rest = pending[0], pending[1:]
        if f.kind == "T":
            rec(rest, factors_done + [f], structural, term)
            return
        inner = tuple(x for x in f.content if x != "J")
        parities = [term.parities[i] for i in inner]
        if f.kind == "aT":
            sub = expand_aT(len(inner), parities)
        elif f.kind == "Adv":
            sub = expand_adv(len(inner), parities, term.j_parity)
        else:
            raise WickError(f"cannot flatten factor kind {f.kind!r}")
        for st in sub.terms:
            mapped = [
                Factor(g.kind, tuple(x if x == "J" else inner[x] for x in g.content))
                for g in st.factors
            ]
            rec(mapped + rest, factors_done, structural * st.structural, term)

    for t in terms:
        rec(list(t.factors), [], t.structural, t)
    return {k: v for k, v in acc.items() if v}


def telescoping_sum(n: int, parities=None, side: str = "left") -> dict[tuple, int]:
    """The signed sums expressing S^-1 S = 1 (left) or S S^-1 = 1 (right):
    sum over splits of (-1)^|I1| aT(I1) T(I2), resp. (-1)^|I2| T(I1) aT(I2);
    both must flatten to zero for n >= 1."""
    parities = _norm_parities(n, parities)
    terms = []
    kinds, signed_block = (("aT", "T"), 0) if side == "left" else (("T", "aT"), 1)
    for blocks in _subsequence_splits(n, 2):
        factors = [Factor(k, b) for k, b in zip(kinds, blocks) if b] or [Factor("T", ())]
        terms.append(ExpansionTerm((-1) ** len(blocks[signed_block]), tuple(factors), parities))
    return flatten_to_T(terms)
