"""Power counting: ext/der statistics, the omega index in its equivalent
forms, the scaling-degree bound, renormalizability classification, and the
infrared-index arithmetic used by the product and splitting rules.

omega conventions (k arguments):
    omega_general:  sum_j (dim B_j + c) - 4 (k - 1)
    omega_massless: 4 - sum_i [dim(A_i) ext_u(A_i) + der_u(A_i)]
A half-integer value forces the vacuum expectation value to vanish, so the
omega functions return the distinguished VANISHING_SECTOR marker instead of
a number in that case.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exact import DomainError
from .symbolic_fields import AlgebraError, SuperQuadriIndex, canonical_dim


class CountingError(DomainError):
    pass


class _VanishingSector:
    """Marker: half-integer omega, the corresponding VEV vanishes."""

    def __repr__(self):
        return "VANISHING_SECTOR"


VANISHING_SECTOR = _VanishingSector()


# --------------------------------------------------------------------------- s-lists


@dataclass(frozen=True)
class SList:
    """Ordered list of super-quadri-indices."""

    items: tuple[SuperQuadriIndex, ...]

    @staticmethod
    def of(*items: SuperQuadriIndex) -> "SList":
        return SList(tuple(items))

    def total(self) -> SuperQuadriIndex:
        return SuperQuadriIndex.from_pairs(e for s in self.items for e in s.entries)

    def __len__(self):
        return len(self.items)


def _entries(s: SList) -> list:
    """Every (generator, multiplicity) of every item, unmerged; a negative
    multiplicity raises as the merge in ``SList.total()`` does."""
    pairs = [e for item in s.items for e in item.entries]
    if any(m < 0 for _, m in pairs):
        raise AlgebraError("negative multiplicity")
    return pairs


def ext(s: SList, field: int) -> int:
    """Number of occurrences of the field (any derivative order) in the list."""
    return sum(m for g, m in _entries(s) if g.field == field)


def der(s: SList, field: int) -> int:
    """Total number of derivatives carried by occurrences of the field."""
    return sum(m * g.d_order for g, m in _entries(s) if g.field == field)


# --------------------------------------------------------------------------- omega


def _as_int(x: Fraction):
    return int(x) if x.denominator == 1 else None


def omega_general(dims: Sequence[Fraction | int], c: int):
    """omega = sum(dim + c) - 4(k - 1); VANISHING_SECTOR when half-integer."""
    if c not in (0, 1):
        raise CountingError(f"c must be 0 or 1, got {c}")
    k = len(dims)
    total = sum((Fraction(d) for d in dims), Fraction(0)) + c * k - 4 * (k - 1)
    v = _as_int(total)
    return VANISHING_SECTOR if v is None else v


@functools.lru_cache(maxsize=64)
def _counting_table(model):
    """The refusal text of an ineligible model; otherwise (D, D * dim per
    field index) with D the lcm of the denominators of the field dimensions
    (2 for every kind the model grammar admits).  Computed once per spec."""
    from .model_registry import validate

    verdict = validate(model)
    if not verdict.wal_eligible:
        return "model is not weak-adiabatic-limit eligible: " + "; ".join(verdict.reasons)
    dims = [Fraction(e.numbers.dim) for e in model.fields.entries]
    D = math.lcm(*(d.denominator for d in dims))
    return D, tuple(int(D * d) for d in dims)


def omega_massless(model, u: SList):
    """omega = 4 - sum_i [dim(A_i) ext_u(A_i) + der_u(A_i)] for eligible models.

    Summed in integers, D * omega, over the entries of every item of u (omega
    is linear in the list, so the items need no merge)."""
    table = _counting_table(model)
    if isinstance(table, str):
        raise CountingError(table)
    D, scaled = table
    total = 4 * D
    try:
        for item in u.items:
            for g, m in item.entries:
                if m > 0:
                    total -= m * (scaled[g.field] + D * g.d_order)
                elif m:
                    raise AlgebraError("negative multiplicity")
    except IndexError:
        # a field outside the table: raise what the merge and the table lookup
        # raise, a negative multiplicity before the lowest dangling index
        for g, _ in u.total().entries:
            model.fields.entry(g.field)
        raise
    return total // D if total % D == 0 else VANISHING_SECTOR


def omega_prime(dims: Sequence[Fraction | int], c: int):
    """omega' = 4 - sum_j (4 - c - dim B_j); equals omega_massless when the
    B_j are vertex sub-polynomials."""
    total = Fraction(4) - sum((4 - c - Fraction(d) for d in dims), Fraction(0))
    v = _as_int(total)
    return VANISHING_SECTOR if v is None else v


def sd_bound(model, polys) -> Fraction:
    """Scaling-degree bound sum_j (dim(B_j) + c) for homogeneous arguments."""
    return sum((canonical_dim(p) + model.c_const for p in polys), Fraction(0))


def classify(model) -> str:
    """renormalizable iff dim + c <= 4 for every vertex; super- iff strict."""
    dims = [canonical_dim(poly) + model.c_const for _, poly in model.vertices]
    if any(d > 4 for d in dims):
        return "nonrenormalizable"
    if dims and all(d < 4 for d in dims):
        return "super-renormalizable"
    return "renormalizable"


# --------------------------------------------------------------------------- IR indices


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
