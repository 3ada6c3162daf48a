"""Exact coefficient arithmetic: rationals by default, odd-prime residues opt-in.

A field is named by its characteristic: None for Q, an odd prime q for F_q.
Rational coefficients are plain ints and fractions.Fraction (Python keeps them
interchangeable in dicts and comparisons); residue coefficients are ints in
0..q-1. A coefficient does not record its field: the chain, row space or
relation span that holds it does, and passes it to the functions below.

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


# Miller-Rabin with the prime bases 2..41 decides primality exactly below
# PRIMALITY_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 86, 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin; q >= PRIMALITY_BOUND is refused."""
    if q >= PRIMALITY_BOUND:
        raise InputError(f"{q} is too large: primality is decided exactly only "
                         f"below {PRIMALITY_BOUND}")
    if q < 2:
        return False
    for a in PRIME_BASES:
        if q % a == 0:
            return q == a
    d, s = q - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def check_characteristic(q: int) -> int:
    """Validate a residue-field characteristic: an odd prime (2 is rejected)."""
    if type(q) is not int:
        raise InputError(f"characteristic must be an integer, got {q!r}")
    if q == 2:
        raise InputError("characteristic 2 is not supported")
    if not is_prime(q):
        raise InputError(f"characteristic must be an odd prime, got {q}")
    return q


def make_coefficient(numerator: int, denominator: int = 1, char: int | None = None):
    """Build a coefficient in the requested mode, reduced to normal form; the
    caller checks that char is an odd prime."""
    if denominator == 0:
        raise InputError("zero denominator in coefficient")
    f = Fraction(numerator, denominator)
    if char is None:
        return int(f) if f.denominator == 1 else f
    if f.denominator % char == 0:
        raise InputError(f"coefficient {f} has denominator {f.denominator}, a multiple of "
                         f"the residue characteristic {char}, so it has no residue mod {char}")
    return residue(f, char)


def invert_integer(n: int, char: int | None = None):
    """Inverse of a nonzero integer in the field: a Fraction over Q, a residue
    over F_q, raising ZeroDivisionError when char divides n."""
    if char is None:
        return Fraction(1, n)
    if n % char == 0:
        raise ZeroDivisionError(f"division by zero mod {char}")
    return pow(n, -1, char)


def field_coefficient(coeff, char: int | None = None):
    """An exact coefficient read in the field: itself over Q, its residue over
    F_q. Anything but an int or a Fraction is refused."""
    if type(coeff) is not int and type(coeff) is not Fraction:
        raise InputError(f"coefficient {coeff!r} is not an int or a Fraction")
    return coeff if char is None else residue(coeff, char)


def residue(coeff, q: int) -> int:
    """The residue mod q of a rational coefficient, in 0..q-1."""
    if type(coeff) is int:
        return coeff % q
    return coeff.numerator * invert_integer(coeff.denominator, q) % q


def cleared(terms: dict, char: int | None = None) -> tuple[dict, int]:
    """(integer terms, scale) with terms = integer terms / scale in the field
    `char`, zeros dropped. Over Q the scale is the lcm of the denominators;
    over F_q it is 1 and the integer terms are the residues of the terms."""
    if char is None:
        scale = lcm(*[c.denominator for c in terms.values() if type(c) is not int])
        return {k: c.numerator * (scale // c.denominator) for k, c in terms.items() if c}, scale
    return {k: r for k, c in terms.items() if (r := residue(c, char))}, 1


def divided(terms: dict, scale: int, q: int | None = None) -> dict:
    """integer terms / scale as coefficients, the inverse of `cleared`: over Q
    an int where the quotient is integral, else a Fraction; over F_q a nonzero
    residue, raising ZeroDivisionError if q divides the scale, whatever the terms."""
    if q is not None:
        inv = invert_integer(scale, q)
        return {k: r for k, v in terms.items() if (r := v * inv % q)}
    if scale == 1:
        return terms
    return {k: Fraction(v, scale) if v % scale else v // scale for k, v in terms.items()}
