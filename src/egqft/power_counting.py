"""Power counting: ext/der statistics, the omega index in two equivalent
forms, and renormalizability classification.

omega conventions (k arguments):
    omega_general:  sum_j (dim B_j + c) - 4 (k - 1)
    omega_massless: 4 - sum_i [dim(A_i) ext_u(A_i) + der_u(A_i)]
A half-integer value forces the vacuum expectation value to vanish, so the
omega functions return the distinguished VANISHING_SECTOR marker instead of
a number in that case.

IR-index product and splitting rules, scaling-degree bound:
tests/test_power_counting.py.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .exact import DomainError, SlotRecord
from .symbolic_fields import AlgebraError, SuperQuadriIndex, canonical_dim


class CountingError(DomainError):
    pass


class _VanishingSector:
    """Marker: half-integer omega, the corresponding VEV vanishes."""

    def __repr__(self):
        return "VANISHING_SECTOR"


VANISHING_SECTOR = _VanishingSector()


# --------------------------------------------------------------------------- s-lists


class SList(SlotRecord):
    """Ordered list of super-quadri-indices.  Not a NamedTuple: its length
    is the number of items."""

    __slots__ = ("items",)

    def __init__(self, items: tuple[SuperQuadriIndex, ...]):
        object.__setattr__(self, "items", items)

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
            # a Generator unpacks as (field, alpha): no attribute reads here
            for (field, alpha), m in item.entries:
                if m > 0:
                    total -= m * (scaled[field] + D * sum(alpha))
                elif m:
                    raise AlgebraError("negative multiplicity")
    except IndexError:
        # a field outside the table: raise what the merge and the table lookup
        # raise, a negative multiplicity before the lowest dangling index
        for g, _ in u.total().entries:
            model.fields.entry(g.field)
        raise
    return total // D if total % D == 0 else VANISHING_SECTOR


def classify(model) -> str:
    """renormalizable iff dim + c <= 4 for every vertex; super- iff strict."""
    dims = [canonical_dim(poly) + model.c_const for _, poly in model.vertices]
    if any(d > 4 for d in dims):
        return "nonrenormalizable"
    if dims and all(d < 4 for d in dims):
        return "super-renormalizable"
    return "renormalizable"
