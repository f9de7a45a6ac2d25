"""Exact complex rationals, and the two bases every layer shares
(DomainError, SlotRecord).

All combinatorial identities of the field algebra must hold exactly, so
monomial coefficients are complex numbers with rational real and imaginary
parts (Fraction-backed).  Conversion to float/complex happens only at the
numeric boundary.
"""
from __future__ import annotations

from fractions import Fraction


class DomainError(ValueError):
    """Base of the errors that name a violated condition of the input (the
    CLI's exit 1), as opposed to a usage error or a bug."""


class SlotRecord:
    """Base of a record kept in __slots__ where a NamedTuple does not fit:
    SList, whose length is its item count, and SpectralDensity and
    SelfEnergy, whose fields dispersion_eval reads on every call (a slot
    reads in about half the time of a NamedTuple field).  As a NamedTuple
    does, a record is immutable, equal within its type and hashed as its
    field tuple, written Name(field=value, ...) and copied with fields
    changed by _replace.  A subclass names its fields in __slots__ and sets
    them in __init__ through object.__setattr__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _replace(self, **changes):
        return type(self)(**dict(zip(self.__slots__, self._values()), **changes))

    def __reduce__(self):  # copy and pickle build through __init__
        return type(self), self._values()


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class QRat:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    def __setattr__(self, name, value):
        raise AttributeError("QRat is immutable")

    # ------------------------------------------------------------------ algebra
    def __add__(self, other):
        other = as_qrat(other)
        return QRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return QRat(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-as_qrat(other))

    def __rsub__(self, other):
        return as_qrat(other) + (-self)

    def __mul__(self, other):
        other = as_qrat(other)
        return QRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_qrat(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero QRat")
        return QRat(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def conjugate(self) -> "QRat":
        return QRat(self.re, -self.im)

    # ------------------------------------------------------------------ queries
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        try:
            other = as_qrat(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def key(self):
        """Stable sort/serialization key."""
        return (
            self.re.numerator,
            self.re.denominator,
            self.im.numerator,
            self.im.denominator,
        )


def as_qrat(x) -> QRat:
    if isinstance(x, QRat):
        return x
    if isinstance(x, (int, Fraction)):
        return QRat(x)
    if isinstance(x, complex) and x.real == int(x.real) and x.imag == int(x.imag):
        return QRat(int(x.real), int(x.imag))
    raise TypeError(f"cannot coerce {x!r} to QRat")


ONE = QRat(1)
I = QRat(0, 1)
