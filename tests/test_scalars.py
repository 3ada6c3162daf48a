from fractions import Fraction

import pytest

from swingwords.chains import Chain
from swingwords.scalars import (PRIMALITY_BOUND, InputError, check_characteristic,
                                invert_integer, is_prime, make_coefficient, residue)


def test_division_by_zero_residue():
    with pytest.raises(ZeroDivisionError, match="division by zero mod 5"):
        residue(Fraction(1, 5), 5)
    with pytest.raises(ZeroDivisionError, match="division by zero mod 5"):
        Chain(1, {(1,): 1}, 5).scale(Fraction(2, 5))


def test_check_characteristic():
    assert check_characteristic(3) == 3
    for bad in (2, 4, 9, 1):
        with pytest.raises(InputError):
            check_characteristic(bad)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_is_exact_below_its_bound():
    assert all(is_prime(n) == _trial_division(n) for n in range(20000))
    # 561 is a Carmichael number; the others are strong pseudoprimes to the
    # prime bases 2, 2..7, 2..31 and 2..37, and 10^18 + 1 = 101 * 9901 * ...
    for composite in (561, 2047, 3215031751, 10 ** 18 + 1, 3825123056546413051,
                      318665857834031151167461):
        assert not is_prime(composite)
        with pytest.raises(InputError, match="odd prime"):
            check_characteristic(composite)
    assert is_prime(10 ** 18 + 3) and is_prime(2 ** 61 - 1)
    assert check_characteristic(10 ** 18 + 3) == 10 ** 18 + 3
    # 2^89 - 1 is prime, but past the bound primality is not decided
    for big in (PRIMALITY_BOUND, 2 ** 89 - 1):
        with pytest.raises(InputError, match="decided exactly only below"):
            check_characteristic(big)
    with pytest.raises(InputError, match="must be an integer"):
        check_characteristic(5.0)


def test_make_coefficient():
    assert make_coefficient(4, 2) == 2
    assert isinstance(make_coefficient(4, 2), int)
    assert make_coefficient(1, 2) == Fraction(1, 2)
    assert make_coefficient(1, 2, char=5) == 3
    assert type(make_coefficient(-1, 2, char=5)) is int
    assert make_coefficient(-1, 2, char=5) == 2
    # a denominator is read in lowest terms before it is inverted mod q
    assert make_coefficient(3, 3, char=3) == 1
    with pytest.raises(InputError, match="denominator 3, .* characteristic 3"):
        make_coefficient(2, 6, char=3)
    with pytest.raises(InputError):
        make_coefficient(1, 0)


def test_invert_integer():
    assert invert_integer(4) == Fraction(1, 4)
    assert invert_integer(4, char=7) == 2
    with pytest.raises(ZeroDivisionError):
        invert_integer(3, char=3)
