"""Wick combinatorics: causal expansion of multilinear field products,
complete-pairing enumeration for vacuum expectation values of products,
contribution classification, and the ordered-partition expansions of the
anti-time-ordered / advanced / retarded / causal products.

Sign conventions.  The factor (-1)^f multiplying a Wick-expansion term is
fixed by an explicit word construction: each argument's canonical generator
word is split into an internal part (entering the VEV factor) and an
external part (the normal-ordered remainder), externals are moved to the
right, and odd-odd transpositions are counted.  This is one consistent
realization; it is pinned by the Gaussian-moment oracle and the graded
symmetry property rather than by a closed formula.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact import QRat
from .power_counting import SList
from .propagators_kinematics import two_point
from .symbolic_fields import Generator, Polynomial, SuperQuadriIndex, subpolynomials


class WickError(ValueError):
    pass


# --------------------------------------------------------------------------- wick expansion


@dataclass(frozen=True)
class WickTerm:
    s_list: SList
    sign: int
    weight: QRat  # 1/(s_1! ... s_n!)
    vev_args: tuple[Polynomial, ...]
    normal_monomials: tuple[SuperQuadriIndex, ...]
    vev_forced_zero: bool


def _extraction_sign(r: SuperQuadriIndex, s: SuperQuadriIndex, table) -> int:
    """Sign of moving the s-content of the canonical word of r to the right.

    For each generator the rightmost s(g) occurrences are marked external;
    the sign counts odd-odd (external, internal) pairs in original order.
    """
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


def _binomial_weight(r: SuperQuadriIndex, s: SuperQuadriIndex) -> int:
    out = 1
    for g, k in s.entries:
        m = r.get(g)
        num = den = 1
        for t in range(k):
            num *= m - t
            den *= t + 1
        out *= num // den
    return out


def _derive_vs_extraction(poly: Polynomial, s: SuperQuadriIndex, derived: Polynomial, table) -> int:
    """Relative sign rho between derive(poly, s) and the explicit right-extraction.

    rho * derive(poly, s) = sum_monomials sigma * C(r,s) * s! * coeff * A^(r-s);
    well-defined for homogeneous poly (asserted across monomials).
    """
    rho = None
    sfact = s.factorial()
    for idx, coeff in poly.terms:
        if not idx.ge(s):
            continue
        target = idx.sub(s)
        x = derived.coeff(target)
        if x.is_zero():
            continue
        sigma = _extraction_sign(idx, s, table)
        y = coeff * (sigma * _binomial_weight(idx, s) * sfact)
        ratio = y / x
        if ratio == QRat(1):
            r = 1
        elif ratio == QRat(-1):
            r = -1
        else:
            raise WickError(f"extraction/derivative mismatch: ratio {ratio!r}")
        if rho is None:
            rho = r
        elif rho != r:
            raise WickError("extraction sign is not uniform over the monomials")
    if rho is None:
        raise WickError("empty derivative in sign computation")
    return rho


def _species_balance_possible(args: Sequence[Polynomial], table) -> bool:
    """Can some choice of monomials (one per argument) balance all species?

    Balance: conjugate-paired species occur equally often; self-conjugate
    species occur an even number of times.  Necessary for a nonzero VEV.
    """
    per_arg = []
    for p in args:
        sigs = set()
        for idx, _ in p.terms:
            acc: dict[str, int] = {}
            for g, m in idx.entries:
                sp = table.entry(g.field).species
                acc[sp] = acc.get(sp, 0) + m
            sigs.add(tuple(sorted(acc.items())))
        per_arg.append(sigs)
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


def wick_expand(polys: Sequence[Polynomial]) -> list[WickTerm]:
    """All terms of the causal Wick expansion of F(B_1(x_1), ..., B_n(x_n)).

    Enumerates every list (s_1, ..., s_n) with derive(B_j, s_j) != 0, with
    the exact sign from the word construction and weight 1/(s_1!...s_n!).
    Terms whose internal field content cannot balance are flagged
    vev_forced_zero.
    """
    if not polys:
        return []
    table = polys[0].table
    if len(polys) == 1:
        # one argument: the expansion is the tautology with s = 0
        p = polys[0]
        return [
            WickTerm(
                s_list=SList((SuperQuadriIndex(),)),
                sign=1,
                weight=QRat(1),
                vev_args=(p,),
                normal_monomials=(SuperQuadriIndex(),),
                vev_forced_zero=not _species_balance_possible((p,), table),
            )
        ]
    for p in polys:
        if p.table != table:
            raise WickError("arguments over different field tables")
    # candidate lists are key-sorted with distinct keys, so the product
    # below already runs in lexicographic order of the s-lists
    per_arg = [subpolynomials(p, view="all") for p in polys]
    ppar = [p.parity() for p in polys]

    out = []
    for choice in itertools.product(*per_arg):
        s_list = SList(tuple(s for s, _ in choice))
        args = tuple(d for _, d in choice)
        # cross sign: externals of slot j move right past internals of slots k > j
        tau = 1
        spar = [_index_parity(s, table) for s, _ in choice]
        ipar = [(ppar[j] - spar[j]) % 2 for j in range(len(choice))]
        for j in range(len(choice)):
            for k in range(j + 1, len(choice)):
                if spar[j] and ipar[k]:
                    tau = -tau
        rho = 1
        weight = QRat(1)
        for j, (s, d) in enumerate(choice):
            rho *= _derive_vs_extraction(polys[j], s, d, table)
            weight = weight / QRat(s.factorial())
        forced = not _species_balance_possible(args, table)
        out.append(
            WickTerm(
                s_list=s_list,
                sign=tau * rho,
                weight=weight,
                vev_args=args,
                normal_monomials=tuple(s for s, _ in choice),
                vev_forced_zero=forced,
            )
        )
    return out


def _index_parity(s: SuperQuadriIndex, table) -> int:
    return sum(m * table.parity(g.field) for g, m in s.entries) % 2


# --------------------------------------------------------------------------- complete pairings


@dataclass(frozen=True)
class Pair:
    left_slot: int
    left_gen: Generator
    right_slot: int
    right_gen: Generator
    mass: float


@dataclass(frozen=True)
class PairingTerm:
    pairs: tuple[Pair, ...]
    residual_left: SList
    residual_right: SList
    const: QRat
    classification: str  # vacuum | massless | massive

    def ext_der_stats(self) -> dict[int, tuple[int, int]]:
        """Per-field (ext, der) statistics of the contracted lines."""
        acc: dict[int, list[int]] = {}
        for p in self.pairs:
            for g in (p.left_gen, p.right_gen):
                e = acc.setdefault(g.field, [0, 0])
                e[0] += 1
                e[1] += g.d_order
        return {f: (e, d) for f, (e, d) in acc.items()}


def _occurrences(slots: Sequence[SuperQuadriIndex]):
    out = []
    for slot, idx in enumerate(slots):
        for g in idx.word():
            out.append((slot, g))
    return out


def _contraction_sign(n_total: int, parities: Sequence[int], pairs: Sequence[tuple[int, int]]) -> int:
    """Graded Wick sign: contract pairs in order of left position, each time
    counting live odd elements strictly between the endpoints."""
    alive = [True] * n_total
    sign = 1
    for i, j in sorted(pairs):
        if parities[i] and parities[j]:
            crossings = sum(
                1 for k in range(i + 1, j) if alive[k] and parities[k]
            )
            if crossings % 2:
                sign = -sign
        alive[i] = alive[j] = False
    return sign


def complete_pairings(
    left: Sequence[SuperQuadriIndex],
    right: Sequence[SuperQuadriIndex],
    model,
    require_full: bool = False,
    force: bool = False,
) -> list[PairingTerm]:
    """Enumerate pairings of left occurrences against right occurrences.

    Every chosen left occurrence pairs exactly one right occurrence; pairs
    whose two-point function vanishes identically (mass or charge mismatch)
    are dropped.  With require_full=True only complete contractions of both
    sides are produced.  Enumeration order is lexicographic in (left slot,
    left generator, right slot); occurrences of identical generators count
    separately, so a full phi^3-phi^3 contraction yields 3! terms.
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
    parities = [table.parity(g.field) for _, g in locc] + [
        table.parity(g.field) for _, g in rocc
    ]
    nl = len(locc)

    admissible: dict[tuple[int, int], float] = {}
    for i, (_, gl) in enumerate(locc):
        for j, (_, gr) in enumerate(rocc):
            key = two_point(model, gl, gr)
            if key is not None:
                admissible[(i, j)] = key.mass

    out: list[PairingTerm] = []

    def emit(assign: dict[int, int]):
        pairs = []
        pos_pairs = []
        for i in sorted(assign):
            j = assign[i]
            ls, lg = locc[i]
            rs, rg = rocc[j]
            pairs.append(Pair(ls, lg, rs, rg, admissible[(i, j)]))
            pos_pairs.append((i, nl + j))
        sign = _contraction_sign(nl + len(rocc), parities, pos_pairs)
        used_r = set(assign.values())
        res_l = _residuals(left, locc, set(assign))
        res_r = _residuals(right, rocc, used_r)
        cls = _classify(pairs, res_l, res_r, table)
        out.append(
            PairingTerm(
                pairs=tuple(pairs),
                residual_left=res_l,
                residual_right=res_r,
                const=QRat(sign),
                classification=cls,
            )
        )

    def recurse(i: int, assign: dict[int, int], free_r: list[bool]):
        if i == nl:
            if not require_full or len(assign) == len(rocc):
                emit(assign)
            return
        if not require_full:
            recurse(i + 1, assign, free_r)
        for j in range(len(rocc)):
            if free_r[j] and (i, j) in admissible:
                free_r[j] = False
                assign[i] = j
                recurse(i + 1, assign, free_r)
                del assign[i]
                free_r[j] = True

    recurse(0, {}, [True] * len(rocc))
    return out


def _residuals(slots, occ, used_positions) -> SList:
    per_slot = [[] for _ in slots]
    for pos, (slot, g) in enumerate(occ):
        if pos not in used_positions:
            per_slot[slot].append(g)
    return SList(
        tuple(
            SuperQuadriIndex.from_pairs((g, 1) for g in gens) for gens in per_slot
        )
    )


def _classify(pairs, res_l: SList, res_r: SList, table) -> str:
    res_empty = all(not s.entries for s in res_l.items) and all(
        not s.entries for s in res_r.items
    )
    if not pairs and res_empty:
        return "vacuum"
    massive = any(p.mass > 0 for p in pairs)
    for sl in (res_l, res_r):
        for s in sl.items:
            for g, _ in s.entries:
                if table.entry(g.field).numbers.mass > 0:
                    massive = True
    return "massive" if massive else "massless"


def momentum_support_vanishes(term: PairingTerm) -> bool:
    """True iff at least one contracted line is massive, so the Fourier
    support of the pair product misses a neighborhood of zero momentum."""
    return any(p.mass > 0 for p in term.pairs)


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


@dataclass(frozen=True)
class Factor:
    kind: str  # "T" | "aT" | "Adv"
    content: tuple  # original argument indices; "J" marks the spectator list


@dataclass(frozen=True)
class ExpansionTerm:
    structural: int
    factors: tuple[Factor, ...]
    parities: tuple[int, ...]
    j_parity: int = 0

    def arrangement(self) -> tuple:
        out = []
        for f in self.factors:
            out.extend(x for x in f.content if x != "J")
        return tuple(out)

    def _arrangement_with_j(self):
        out = []
        for f in self.factors:
            out.extend(f.content)
        return out

    @property
    def coeff(self) -> int:
        """structural sign times the graded-reordering sign of the final word."""
        arr = self._arrangement_with_j()
        par = [self.j_parity if x == "J" else self.parities[x] for x in arr]
        key = [len(self.parities) if x == "J" else x for x in arr]
        inv = 0
        for a in range(len(key)):
            for b in range(a + 1, len(key)):
                if key[a] > key[b] and par[a] and par[b]:
                    inv += 1
        return self.structural * (-1 if inv % 2 else 1)


@dataclass(frozen=True)
class OpProductExpansion:
    n: int
    terms: tuple[ExpansionTerm, ...]


def _ordered_partitions(n: int, k: int):
    """Ordered partitions of range(n) into k nonempty blocks of increasing
    elements (blocks are subsequences of the identity order)."""
    for labels in itertools.product(range(k), repeat=n):
        if set(labels) != set(range(k)):
            continue
        blocks = [tuple(i for i in range(n) if labels[i] == b) for b in range(k)]
        yield blocks


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


def expand_ret(n: int, parities=None, j_parity: int = 0) -> OpProductExpansion:
    """Ret(I;J) = sum over splits I1,I2: (-1)^|I2| aT(I2) T(I1,J)."""
    parities = _norm_parities(n, parities)
    terms = []
    for i1, i2 in _subsequence_splits(n, 2):
        structural = (-1) ** len(i2)
        factors = []
        if i2:
            factors.append(Factor("aT", tuple(i2)))
        factors.append(Factor("T", tuple(i1) + ("J",)))
        terms.append(ExpansionTerm(structural, tuple(factors), parities, j_parity))
    return OpProductExpansion(n, tuple(terms))


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
        elif f.kind == "aT":
            content = f.content
            sub = expand_aT(len(content), [term.parities[i] for i in content])
            for st in sub.terms:
                mapped = [
                    Factor("T", tuple(content[i] for i in g.content))
                    for g in st.factors
                ]
                rec(mapped + rest, factors_done, structural * st.structural, term)
        elif f.kind == "Adv":
            inner = tuple(x for x in f.content if x != "J")
            sub = expand_adv(
                len(inner), [term.parities[i] for i in inner], term.j_parity
            )
            for st in sub.terms:
                mapped = [
                    Factor(g.kind, tuple(x if x == "J" else inner[x] for x in g.content))
                    for g in st.factors
                ]
                rec(mapped + rest, factors_done, structural * st.structural, term)
        else:
            raise WickError(f"cannot flatten factor kind {f.kind!r}")

    for t in terms:
        rec(list(t.factors), [], t.structural, t)
    return {k: v for k, v in acc.items() if v}


def telescoping_sum(n: int, parities=None, side: str = "left") -> dict[tuple, int]:
    """The signed sums expressing S^-1 S = 1 (left) or S S^-1 = 1 (right):
    sum over splits of (-1)^|I1| aT(I1) T(I2), resp. (-1)^|I2| T(I1) aT(I2);
    both must flatten to zero for n >= 1."""
    parities = _norm_parities(n, parities)
    terms = []
    for i1, i2 in _subsequence_splits(n, 2):
        if side == "left":
            structural = (-1) ** len(i1)
            factors = []
            if i1:
                factors.append(Factor("aT", tuple(i1)))
            if i2:
                factors.append(Factor("T", tuple(i2)))
        else:
            structural = (-1) ** len(i2)
            factors = []
            if i1:
                factors.append(Factor("T", tuple(i1)))
            if i2:
                factors.append(Factor("aT", tuple(i2)))
        if not factors:
            factors = [Factor("T", ())]
        terms.append(ExpansionTerm(structural, tuple(factors), parities))
    return flatten_to_T(terms)
