"""Exact coefficient arithmetic: rationals by default, odd-prime residues opt-in.

Rational coefficients are plain ints and fractions.Fraction (Python keeps them
interchangeable in dicts and comparisons). Residue coefficients are ModInt
instances; the two kinds never mix inside one chain.

The linear maps and the row reduction run on integers: `cleared` turns
coefficients into integer terms over one scale (the lcm of the denominators
over Q, 1 over F_q, where the terms are residues), and `divided` turns an
integer result and its scale back into coefficients, once, at the output.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class InputError(ValueError):
    """Bad user-supplied input (malformed text, out-of-range letter, ...)."""


class ResourceLimitError(RuntimeError):
    """A computation was refused because it exceeds the configured size bound."""


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def check_characteristic(q: int) -> int:
    """Validate a residue-field characteristic: an odd prime (2 is rejected)."""
    if q == 2:
        raise InputError("characteristic 2 is not supported")
    if not is_prime(q):
        raise InputError(f"characteristic must be an odd prime, got {q}")
    return q


class ModInt:
    """An element of the field of integers modulo an odd prime q."""

    __slots__ = ("value", "q")

    def __init__(self, value: int, q: int):
        self.value = value % q
        self.q = q

    def _coerce(self, other) -> "ModInt":
        if isinstance(other, ModInt):
            if other.q != self.q:
                raise InputError("mixed residue characteristics")
            return other
        if isinstance(other, int):
            return ModInt(other, self.q)
        if isinstance(other, Fraction):
            return ModInt(other.numerator, self.q) / ModInt(other.denominator, self.q)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value + other.value, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value - other.value, self.q)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(other.value - self.value, self.q)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value * other.value, self.q)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.value == 0:
            raise ZeroDivisionError(f"division by zero mod {self.q}")
        return ModInt(self.value * pow(other.value, self.q - 2, self.q), self.q)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return ModInt(-self.value, self.q)

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.q == other.q and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.q
        return NotImplemented

    def __bool__(self):
        return self.value != 0

    def __hash__(self):
        return hash((self.value, self.q))

    def __repr__(self):
        return f"ModInt({self.value}, {self.q})"

    def __str__(self):
        return str(self.value)


def make_coefficient(numerator: int, denominator: int = 1, char: int | None = None):
    """Build a coefficient in the requested mode, reduced to normal form."""
    if denominator == 0:
        raise InputError("zero denominator in coefficient")
    f = Fraction(numerator, denominator)
    if char is None:
        return int(f) if f.denominator == 1 else f
    check_characteristic(char)
    if f.denominator % char == 0:
        raise InputError(f"coefficient {f} has denominator {f.denominator}, a multiple of "
                         f"the residue characteristic {char}, so it has no residue mod {char}")
    return ModInt(f.numerator, char) / ModInt(f.denominator, char)


def invert_integer(n: int, char: int | None = None):
    """Multiplicative inverse of a nonzero integer in the active field.

    Raises ZeroDivisionError when char divides n (the residue image is zero).
    """
    if char is None:
        return Fraction(1, n)
    inv = ModInt(1, char) / ModInt(n, char)
    return inv


def cleared(terms: dict, char: int | None = None) -> tuple[dict, int, int | None]:
    """(integer terms, scale, q) with terms = integer terms / scale, zeros
    dropped; q is `char`, else the ModInt characteristic, else None for Q.
    Over Q the scale is the lcm of the denominators; over F_q it is 1 and the
    integer terms are residues, read as ModInt arithmetic reads them."""
    first = next(iter(terms.values()), None)
    q = first.q if char is None and isinstance(first, ModInt) else char
    if q is None:
        scale = lcm(*[c.denominator for c in terms.values() if type(c) is not int])
        return {k: c.numerator * (scale // c.denominator) for k, c in terms.items() if c}, scale, q
    return {k: r for k, c in terms.items()
            if (r := (c if type(c) is int else (ModInt(0, q) + c).value) % q)}, 1, q


def divided(terms: dict, scale: int, q: int | None = None) -> dict:
    """integer terms / scale as coefficients, the inverse of `cleared`: over Q
    an int where the quotient is integral, else a Fraction; over F_q a nonzero
    ModInt, raising ZeroDivisionError if q divides the scale, whatever the terms."""
    if q is not None:
        inv = invert_integer(scale, q).value
        return {k: ModInt(r, q) for k, v in terms.items() if (r := v * inv % q)}
    if scale == 1:
        return terms
    return {k: Fraction(v, scale) if v % scale else v // scale for k, v in terms.items()}
