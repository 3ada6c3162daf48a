from fractions import Fraction

import pytest

from swingwords.scalars import (InputError, ModInt, check_characteristic,
                                invert_integer, make_coefficient)


def test_modint_field_ops():
    a = ModInt(3, 5)
    b = ModInt(4, 5)
    assert a + b == ModInt(2, 5)
    assert a - b == ModInt(4, 5)
    assert a * b == ModInt(2, 5)
    assert a / b == a * ModInt(4, 5)
    assert (a / b) * b == a
    assert -a == ModInt(2, 5)
    assert bool(ModInt(5, 5)) is False


def test_modint_mixes_with_ints_and_fractions():
    a = ModInt(2, 7)
    assert a + 6 == ModInt(1, 7)
    assert 3 * a == ModInt(6, 7)
    assert a * Fraction(1, 2) == ModInt(1, 7)


def test_modint_rejects_cross_characteristic():
    with pytest.raises(InputError):
        ModInt(1, 5) + ModInt(1, 7)


def test_division_by_zero_residue():
    with pytest.raises(ZeroDivisionError):
        ModInt(1, 5) / ModInt(5, 5)


def test_check_characteristic():
    assert check_characteristic(3) == 3
    for bad in (2, 4, 9, 1):
        with pytest.raises(InputError):
            check_characteristic(bad)


def test_make_coefficient():
    assert make_coefficient(4, 2) == 2
    assert isinstance(make_coefficient(4, 2), int)
    assert make_coefficient(1, 2) == Fraction(1, 2)
    assert make_coefficient(1, 2, char=5) == ModInt(3, 5)
    # a denominator is read in lowest terms before it is inverted mod q
    assert make_coefficient(3, 3, char=3) == ModInt(1, 3)
    with pytest.raises(InputError, match="denominator 3, .* characteristic 3"):
        make_coefficient(2, 6, char=3)
    with pytest.raises(InputError):
        make_coefficient(1, 0)


def test_invert_integer():
    assert invert_integer(4) == Fraction(1, 4)
    assert invert_integer(4, char=7) == ModInt(2, 7)
    with pytest.raises(ZeroDivisionError):
        invert_integer(3, char=3)
