"""Exact complex rationals.

All combinatorial identities of the field algebra must hold exactly, so
monomial coefficients are complex numbers with rational real and imaginary
parts (Fraction-backed).  Conversion to float/complex happens only at the
numeric boundary.
"""
from __future__ import annotations

from fractions import Fraction


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
