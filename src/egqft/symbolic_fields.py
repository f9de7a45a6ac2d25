"""Free graded-commutative *-algebra of symbolic fields.

Generators are derivative-decorated field symbols d^alpha A_i; monomials are
labeled by super-quadri-indices (finite multiplicity maps on generators);
polynomials are exact-rational linear combinations of monomials.  A fixed
total order on generators (field index, then derivative order, then the
multi-index lexicographically) makes every sign reproducible.

Everything here is immutable and pure; a Polynomial is bound to the
FieldTable it was built from, which supplies fermion/charge/dimension data
for the sign calculus and power counting.

The algebra is off-shell: derivative symbols are free generators and no
field equation is ever used to simplify (the wave-operator image of a field
is a nonzero symbol even when the operator realization would annihilate it).
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .exact import ONE, DomainError, QRat, as_qrat

Alpha = tuple[int, int, int, int]
ZERO_ALPHA: Alpha = (0, 0, 0, 0)


class AlgebraError(DomainError):
    pass


# --------------------------------------------------------------------------- generators


class _GeneratorFields(NamedTuple):
    field: int
    alpha: Alpha


class Generator(_GeneratorFields):
    """A symbol d^alpha A_i: basic field component plus a 4-multi-index.

    Equal and hashed as its (field, alpha) tuple; every order comparison
    follows order_key, never the tuple order."""

    __slots__ = ()

    def __new__(cls, field: int, alpha: Alpha = ZERO_ALPHA):
        if field < 0:
            raise AlgebraError("negative field index")
        if len(alpha) != 4 or any(a < 0 for a in alpha):
            raise AlgebraError(f"bad multi-index {alpha}")
        return tuple.__new__(cls, (field, alpha))

    @classmethod
    def _make(cls, iterable):  # so _replace validates as the constructor does
        return cls(*iterable)

    @property
    def d_order(self) -> int:
        return sum(self.alpha)

    def order_key(self):
        # total order: field index, then graded-lex on alpha
        return (self.field, self.d_order, self.alpha)

    def __lt__(self, other: "Generator"):
        return self.order_key() < other.order_key()

    def __le__(self, other: "Generator"):
        return self.order_key() <= other.order_key()

    def __gt__(self, other: "Generator"):
        return self.order_key() > other.order_key()

    def __ge__(self, other: "Generator"):
        return self.order_key() >= other.order_key()


# --------------------------------------------------------------------------- quantum numbers


class QuantumNumbers(NamedTuple):
    fermion: int
    charge: int
    dim: Fraction
    mass: float


class FieldEntry(NamedTuple):
    """One basic generator (one component of one field)."""

    name: str
    kind: str  # scalar | dirac | vector | ghost
    species: str  # component grouping, e.g. all four A_mu share species "A"
    component: int
    numbers: QuantumNumbers
    adjoint: int  # index of the Hermitian-conjugate generator (self if real)


class FieldTable:
    """Immutable table of basic generators with an involution."""

    def __init__(self, entries: Sequence[FieldEntry]):
        self.entries = tuple(entries)
        self._by_name = {e.name: i for i, e in enumerate(self.entries)}
        if len(self._by_name) != len(self.entries):
            raise AlgebraError("duplicate field names")
        for i, e in enumerate(self.entries):
            if not (0 <= e.adjoint < len(self.entries)):
                raise AlgebraError(f"dangling adjoint index for {e.name}")
            if self.entries[e.adjoint].adjoint != i:
                raise AlgebraError(f"adjoint pairing of {e.name} is not an involution")
        self._hash = hash(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, FieldTable) and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise AlgebraError(f"unknown field name {name!r}") from None

    def entry(self, i: int) -> FieldEntry:
        if not (0 <= i < len(self.entries)):
            raise AlgebraError(f"dangling field index {i}")
        return self.entries[i]

    def parity(self, i: int) -> int:
        return self.entry(i).numbers.fermion % 2

    def gen_dim(self, g: Generator) -> Fraction:
        return self.entry(g.field).numbers.dim + g.d_order

    def gen_name(self, g: Generator) -> str:
        name = self.entry(g.field).name
        if g.alpha == ZERO_ALPHA:
            return name
        tags = "".join(f"d[{mu}]" * g.alpha[mu] for mu in range(4))
        return tags + name

    def monomial_name(self, idx: SuperQuadriIndex) -> str:
        """The factors of idx as name^m joined by '*' ('' for the empty index)."""
        return "*".join(self.gen_name(g) + (f"^{m}" if m > 1 else "") for g, m in idx.entries)

    def star(self, g: Generator) -> Generator:
        return Generator(self.entry(g.field).adjoint, g.alpha)


# --------------------------------------------------------------------------- super-quadri-indices


class SuperQuadriIndex(NamedTuple):
    """Finite multiplicity map Generator -> positive integer."""

    entries: tuple[tuple[Generator, int], ...] = ()

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[Generator, int]]) -> "SuperQuadriIndex":
        acc: dict[Generator, int] = {}
        for g, m in pairs:
            if m < 0:
                raise AlgebraError("negative multiplicity")
            if m:
                acc[g] = acc.get(g, 0) + m
        items = tuple(sorted(acc.items(), key=lambda it: it[0].order_key()))
        return SuperQuadriIndex(items)

    def get(self, g: Generator) -> int:
        for h, m in self.entries:
            if h == g:
                return m
        return 0

    def degree(self) -> int:
        """|r|: total number of generator factors."""
        return sum(m for _, m in self.entries)

    def factorial(self) -> int:
        """r!: product of factorials of the multiplicities."""
        return math.prod(math.factorial(m) for _, m in self.entries)

    def ge(self, other: "SuperQuadriIndex") -> bool:
        return all(self.get(g) >= m for g, m in other.entries)

    def add(self, other: "SuperQuadriIndex") -> "SuperQuadriIndex":
        return SuperQuadriIndex.from_pairs(self.entries + other.entries)

    def sub(self, other: "SuperQuadriIndex") -> "SuperQuadriIndex":
        if not self.ge(other):
            raise AlgebraError("subtraction would give negative multiplicity")
        return SuperQuadriIndex.from_pairs(
            [(g, m - other.get(g)) for g, m in self.entries]
        )

    def word(self) -> tuple[Generator, ...]:
        """The canonical generator word (ascending order, with repeats)."""
        out = []
        for g, m in self.entries:
            out.extend([g] * m)
        return tuple(out)

    def key(self):
        return tuple((g.order_key(), m) for g, m in self.entries)

    def involves_only(self, fields: set[int]) -> bool:
        return all(g.field in fields for g, _ in self.entries)

    def __repr__(self):
        if not self.entries:
            return "1"
        return "*".join(
            f"g{g.field}a{''.join(map(str, g.alpha))}^{m}" for g, m in self.entries
        )


EMPTY_INDEX = SuperQuadriIndex()


def index_of(*gens: Generator) -> SuperQuadriIndex:
    return SuperQuadriIndex.from_pairs((g, 1) for g in gens)


# --------------------------------------------------------------------------- word sign calculus


def permutation_sign(fermion_numbers: Sequence[int], pi: Sequence[int]) -> int:
    """(-1)^(number of transpositions of pi involving two odd entries).

    `pi` lists, for each new position, the original index placed there.  The
    count equals the parity of odd-odd inversions, i.e. the sign of the
    permutation induced on the odd-fermion entries.  This is the one place
    the graded (Koszul) sign is counted; every other sign is a call to it.
    """
    if sorted(pi) != list(range(len(fermion_numbers))):
        raise AlgebraError("pi is not a permutation of the argument indices")
    odd = [x for x in pi if fermion_numbers[x] % 2]
    inv = sum(a > b for k, a in enumerate(odd) for b in odd[k + 1 :])
    return -1 if inv % 2 else 1


def canonicalize_word(word: Sequence[Generator], table: FieldTable):
    """Sort an arbitrary generator word; returns (sign, SuperQuadriIndex) or None.

    The sign is permutation_sign of the stable sort order, i.e. the
    graded-commutation sign relating the word as written to the canonical
    monomial.  None when an odd generator occurs twice (its square vanishes).
    """
    parities = [table.parity(g.field) for g in word]
    odd = [g for g, par in zip(word, parities) if par]
    if len(set(odd)) != len(odd):
        return None
    order = sorted(range(len(word)), key=lambda i: word[i].order_key())
    return permutation_sign(parities, order), SuperQuadriIndex.from_pairs((g, 1) for g in word)


# --------------------------------------------------------------------------- polynomials


class Polynomial:
    """Exact linear combination of monomials A^r over one field table."""

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: FieldTable, terms: Mapping[SuperQuadriIndex, QRat] | None = None):
        self.table = table
        clean = {}
        if terms:
            for idx, c in terms.items():
                c = as_qrat(c)
                if not c.is_zero():
                    clean[idx] = c
        self.terms = tuple(sorted(clean.items(), key=lambda it: it[0].key()))

    # -------------------------------------------------------------- constructors
    @staticmethod
    def zero(table: FieldTable) -> "Polynomial":
        return Polynomial(table)

    @staticmethod
    def unit(table: FieldTable, coeff=ONE) -> "Polynomial":
        return Polynomial(table, {EMPTY_INDEX: as_qrat(coeff)})

    @staticmethod
    def generator(table: FieldTable, g: Generator, coeff=ONE) -> "Polynomial":
        table.entry(g.field)
        return Polynomial(table, {index_of(g): as_qrat(coeff)})

    @staticmethod
    def of_field(table: FieldTable, name: str, alpha: Alpha = ZERO_ALPHA) -> "Polynomial":
        return Polynomial.generator(table, Generator(table.index(name), alpha))

    @staticmethod
    def monomial(table: FieldTable, idx: SuperQuadriIndex, coeff=ONE) -> "Polynomial":
        return Polynomial(table, {idx: as_qrat(coeff)})

    # -------------------------------------------------------------- algebra
    def _check(self, other: "Polynomial"):
        if self.table is not other.table and self.table != other.table:
            raise AlgebraError("polynomials over different field tables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        acc = dict(self.terms)
        for idx, c in other.terms:
            acc[idx] = acc.get(idx, QRat(0)) + c
        return Polynomial(self.table, acc)

    def __neg__(self):
        return Polynomial(self.table, {i: -c for i, c in self.terms})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Polynomial":
        c = as_qrat(c)
        return Polynomial(self.table, {i: cc * c for i, cc in self.terms})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return self.scale(other)
        self._check(other)
        acc: dict[SuperQuadriIndex, QRat] = {}
        for i1, c1 in self.terms:
            w1 = i1.word()
            for i2, c2 in other.terms:
                res = canonicalize_word(w1 + i2.word(), self.table)
                if res is None:
                    continue
                sgn, idx = res
                acc[idx] = acc.get(idx, QRat(0)) + c1 * c2 * sgn
        return Polynomial(self.table, acc)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.table == other.table
            and self.terms == other.terms
        )

    def __hash__(self):
        # computed on first use: most polynomials are never hashed
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.table, self.terms))
            return self._hash

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, idx: SuperQuadriIndex) -> QRat:
        for i, c in self.terms:
            if i == idx:
                return c
        return QRat(0)

    def key(self):
        return tuple((i.key(), c.key()) for i, c in self.terms)

    def normalized_key(self):
        """Key invariant under nonzero scalar multiples (leading coeff -> 1)."""
        if not self.terms:
            return ()
        lead = self.terms[0][1]
        return tuple((i.key(), (c / lead).key()) for i, c in self.terms)

    def __repr__(self):
        return " + ".join(
            f"({c!r})*{self.table.monomial_name(idx)}" if idx.entries else f"({c!r})"
            for idx, c in self.terms
        ) or "0"

    # -------------------------------------------------------------- quantum numbers
    def _mono_numbers(self, idx: SuperQuadriIndex):
        f = q = 0
        d = Fraction(0)
        for g, m in idx.entries:
            nums = self.table.entry(g.field).numbers
            f += m * nums.fermion
            q += m * nums.charge
            d += m * (nums.dim + g.d_order)
        return f, q, d

    def _homogeneous_value(self, which: int, what: str):
        vals = {}
        for idx, _ in self.terms:
            vals.setdefault(self._mono_numbers(idx)[which], idx)
        if len(vals) > 1:
            (v1, i1), (v2, i2) = list(vals.items())[:2]
            name = self.table.monomial_name
            raise AlgebraError(
                f"polynomial not homogeneous in {what}: component {name(i1) or '1'} "
                f"has {what} {v1}, component {name(i2) or '1'} has {what} {v2}"
            )
        return next(iter(vals)) if vals else None

    def fermion_number(self) -> int:
        v = self._homogeneous_value(0, "fermion number")
        return 0 if v is None else v

    def charge(self) -> int:
        v = self._homogeneous_value(1, "charge")
        return 0 if v is None else v

    def parity(self) -> int:
        return self.fermion_number() % 2

    def contains_massive_everywhere(self) -> bool:
        """True when every monomial has at least one massive-field factor."""
        if not self.terms:
            return False
        for idx, _ in self.terms:
            if not any(
                self.table.entry(g.field).numbers.mass > 0 for g, _m in idx.entries
            ):
                return False
        return True


def canonical_dim(p: Polynomial) -> Fraction:
    """Canonical dimension of a dim-homogeneous polynomial.

    Additive over products; each derivative adds one.  Raises naming both
    offending components when the input mixes dimensions.
    """
    v = p._homogeneous_value(2, "canonical dimension")
    return Fraction(0) if v is None else v


# --------------------------------------------------------------------------- derivation


def _derive_one(p: Polynomial, g: Generator) -> Polynomial:
    """Graded left derivation d/d(g) on canonical words."""
    parity = p.table.parity
    odd_g = parity(g.field)
    acc: dict[SuperQuadriIndex, QRat] = {}
    for idx, c in p.terms:
        entries = idx.entries
        pos = next((k for k, (h, _) in enumerate(entries) if h == g), None)
        if pos is None:
            continue
        m = entries[pos][1]
        below, above = entries[:pos], entries[pos + 1 :]
        # an odd g passes the odd letters below it in the canonical word
        sgn = -1 if odd_g and sum(mult for h, mult in below if parity(h.field)) % 2 else 1
        new = SuperQuadriIndex(below + ((g, m - 1),) + above if m > 1 else below + above)
        acc[new] = acc.get(new, QRat(0)) + c * (m * sgn)
    return Polynomial(p.table, acc)


def derive(p: Polynomial, s: SuperQuadriIndex) -> Polynomial:
    """Iterated graded derivative B^(s); zero when the multiplicities do not fit.

    The derivative factors for distinct generators only graded-commute, so a
    fixed composition order is part of the convention: highest generator
    first.
    """
    out = p
    for g, m in reversed(s.entries):
        for _ in range(m):
            out = _derive_one(out, g)
            if out.is_zero():
                return out
    return out


# --------------------------------------------------------------------------- adjoint


def adjoint(p: Polynomial) -> Polynomial:
    """Antilinear involution: (B1 B2)* = B2* B1* with graded re-sorting signs."""
    acc: dict[SuperQuadriIndex, QRat] = {}
    for idx, c in p.terms:
        starred = tuple(p.table.star(g) for g in reversed(idx.word()))
        res = canonicalize_word(starred, p.table)
        if res is None:
            continue
        sgn, new = res
        acc[new] = acc.get(new, QRat(0)) + c.conjugate() * sgn
    return Polynomial(p.table, acc)


# --------------------------------------------------------------------------- sub-polynomials


def _candidate_subindices(p: Polynomial):
    seen = set()
    for idx, _ in p.terms:
        gens = idx.entries
        ranges = [range(m + 1) for _, m in gens]
        for mults in itertools.product(*ranges):
            s = SuperQuadriIndex.from_pairs(
                (g, k) for (g, _), k in zip(gens, mults) if k
            )
            if s not in seen:
                seen.add(s)
                yield s


def species_signature(s: SuperQuadriIndex, table: FieldTable):
    """Multiset of (species, alpha) with multiplicities: the component-blind
    shape of a derivative operation."""
    acc: dict[tuple[str, Alpha], int] = {}
    for g, m in s.entries:
        key = (table.entry(g.field).species, g.alpha)
        acc[key] = acc.get(key, 0) + m
    return tuple(sorted(acc.items()))


def subpolynomials(p: Polynomial, view: str = "all"):
    """All (s, B^(s)) with B^(s) != 0.

    view="all"      every super-quadri-index separately;
    view="constant" deduplicated up to a scalar multiple;
    view="species"  one representative per component-blind signature (the
                    counting used for the structural tallies: 8 for the
                    spinor-QED vertex, 6 for the scalar-model vertex).
    """
    # B^(s) = d/d(low) B^(s - low), with low the lowest generator of s:
    # derive applies the lowest generator last, and s - low is a candidate too
    memo = {EMPTY_INDEX: p}

    def sub(s: SuperQuadriIndex) -> Polynomial:
        q = memo.get(s)
        if q is None:
            (low, m), rest = s.entries[0], s.entries[1:]
            q = sub(SuperQuadriIndex(((low, m - 1),) + rest if m > 1 else rest))
            q = memo[s] = q if q.is_zero() else _derive_one(q, low)
        return q

    # indices order as their key()s do: Generators compare by order_key
    found = [(s, q) for s in _candidate_subindices(p) if not (q := sub(s)).is_zero()]
    found.sort(key=lambda t: t[0])
    if view == "all":
        return found
    if view not in ("constant", "species"):
        raise AlgebraError(f"unknown view {view!r}")
    out, seen = [], set()
    for s, q in found:
        k = q.normalized_key() if view == "constant" else species_signature(s, p.table)
        if k not in seen:
            seen.add(k)
            out.append((s, q))
    return out
