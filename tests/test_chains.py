from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from swingwords.chains import Chain, concat, reverse
from swingwords.moves import fold_l, fold_prime
from swingwords.quotients import canonical_l, canonical_prime
from swingwords.scalars import InputError
from swingwords.textio import parse_chain

words = st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=5).map(tuple)
coeffs = st.integers(min_value=-4, max_value=4)
chains = st.dictionaries(words, coeffs, max_size=4).map(lambda d: Chain(3, d))


def test_concat_words():
    assert Chain.of_word(2, (1,)) * Chain.of_word(2, (2,)) == Chain.of_word(2, (1, 2))


def test_concat_identity():
    empty = Chain.of_word(2, ())
    assert empty * Chain.of_word(2, (1, 2)) == Chain.of_word(2, (1, 2))
    assert Chain.of_word(2, (1, 2)) * empty == Chain.of_word(2, (1, 2))


def test_concat_bilinear():
    a = Chain.of_word(3, (1,)) - Chain.of_word(3, (2,))
    result = a * Chain.of_word(3, (3,))
    assert result == Chain(3, {(1, 3): 1, (2, 3): -1})


def test_concat_alphabet_mismatch():
    with pytest.raises(InputError):
        concat(Chain.of_word(2, (1,)), Chain.of_word(3, (1,)))


def test_reverse_examples():
    assert reverse((1, 2, 3)) == (3, 2, 1)
    assert reverse((1,)) == (1,)
    assert reverse(reverse((1, 2))) == (1, 2)


def test_reverse_chain_termwise():
    c = Chain(2, {(1, 2): 2, (2, 2, 1): -1})
    assert reverse(c) == Chain(2, {(2, 1): 2, (1, 2, 2): -1})


def test_zero_pruning_and_equality():
    c = Chain(2, {(1,): 1}) - Chain(2, {(1,): 1})
    assert c.is_zero()
    assert c == Chain.zero(2)
    assert not c.terms


def test_homogeneity():
    assert Chain(2, {(1, 2): 1, (2, 1): 3}).is_homogeneous()
    assert Chain(2, {(1, 2): 1, (2, 1): 3}).degree() == 2
    mixed = Chain(2, {(1,): 1, (2, 1): 1})
    assert not mixed.is_homogeneous()
    with pytest.raises(InputError):
        mixed.degree()


def test_multidegree():
    assert Chain(3, {(1, 2, 1): 5}).multidegree() == (2, 1, 0)
    with pytest.raises(InputError):
        Chain(2, {(1, 2): 1, (1, 1): 1}).multidegree()


def test_residue_chain_field_ops():
    a = Chain(1, {(1,): 3}, 5)
    b = Chain(1, {(1,): 4}, 5)
    assert a + b == Chain(1, {(1,): 2}, 5)
    assert a - b == Chain(1, {(1,): 4}, 5)
    assert a * b == Chain(1, {(1, 1): 2}, 5)
    # dividing by 4 is multiplying by its inverse 4 mod 5
    assert a.scale(Fraction(1, 4)) == a.scale(4)
    assert a.scale(Fraction(1, 4)).scale(4) == a
    assert -a == Chain(1, {(1,): 2}, 5)
    assert Chain(1, {(1,): 5}, 5).is_zero()
    assert (a + a.scale(4)).is_zero() and not (a + a.scale(4)).terms


def test_residue_chain_reads_ints_and_fractions():
    a = Chain(1, {(1,): 2}, 7)
    assert a + Chain(1, {(1,): 6}, 7) == Chain(1, {(1,): 1}, 7)
    assert a.scale(3) == Chain(1, {(1,): 6}, 7)
    assert a.scale(Fraction(1, 2)) == Chain(1, {(1,): 1}, 7)
    assert Chain(1, {(1,): Fraction(1, 2), (1, 1): -5}, 7).terms == {(1,): 4, (1, 1): 2}


def test_residue_chains_reject_cross_characteristic():
    f5, f7, rational = Chain(1, {(1,): 1}, 5), Chain(1, {(1,): 1}, 7), Chain(1, {(1,): 1})
    for a, b in ((f5, f7), (f5, rational), (rational, f7)):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(InputError, match="mixed residue characteristics"):
                op(a, b)


@pytest.mark.parametrize("coeff", [0.5, 1.0, True, "1", Decimal("0.5"), None])
def test_inexact_or_non_numeric_coefficients_refused(coeff):
    for char in (None, 5):
        with pytest.raises(InputError, match="not an int or a Fraction"):
            Chain(2, {(1, 2): coeff}, char)
        with pytest.raises(InputError, match="not an int or a Fraction"):
            Chain(2, {(1, 2): 1}, char).scale(coeff)


# each scalar's residue mod 5, worked by hand: -1 = 4 and 1/2 = 3 (2 * 3 = 6)
SCALARS_MOD_5 = {1: 1, -1: 4, 2: 2, Fraction(1, 2): 3, 0: 0}
SCALED_CHAINS = [
    (None, {(1, 2): 3, (2, 1): -2, (1,): 1}),
    (None, {(1, 2): Fraction(3, 4), (2, 1): -2, (2, 2, 1): Fraction(-1, 3)}),
    (5, {(1, 2): 3, (2, 1): 4, (1,): 1}),
]


@pytest.mark.parametrize("char, terms", SCALED_CHAINS)
@pytest.mark.parametrize("coeff", list(SCALARS_MOD_5))
def test_scale_is_the_termwise_product_and_keeps_the_field(char, terms, coeff):
    chain = Chain(2, terms, char)
    if char is None:
        expected = {w: coeff * c for w, c in terms.items() if coeff * c}
    else:
        expected = {w: SCALARS_MOD_5[coeff] * c % 5 for w, c in terms.items()
                    if SCALARS_MOD_5[coeff] * c % 5}
    scaled = chain.scale(coeff)
    assert scaled.terms == expected and scaled.char == char and scaled.p == 2
    assert scaled == Chain(2, expected, char)
    assert chain.terms == terms  # the input is left as it was


@pytest.mark.parametrize("coeff", [1.0, -1.0, 0.5])
def test_scale_refuses_a_float_even_equal_to_a_sign(coeff):
    for char in (None, 5):
        with pytest.raises(InputError, match="not an int or a Fraction"):
            Chain(2, {(1, 2): 1}, char).scale(coeff)


def test_parsed_residue_chain_differs_from_its_rational_lift():
    residue, rational = parse_chain("2*[1,2]", 2, 5), Chain(2, {(1, 2): 2})
    assert residue != rational and len({residue, rational}) == 2
    same = Chain(2, {(1, 2): 7}, 5)
    assert residue == same and hash(residue) == hash(same)


FIELDS = (None, 5, 7)


@st.composite
def term_dicts(draw):
    degree = draw(st.integers(1, 5))
    word = st.tuples(*[st.integers(1, 2)] * degree)
    return draw(st.dictionaries(word, st.integers(-9, 9), min_size=1, max_size=3))


def _assert_hash_contract(values):
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)


@given(term_dicts(), st.integers(2, 5))
def test_equal_chains_and_classes_hash_equally_over_every_field(terms, k):
    # 35 is zero mod 5 and mod 7, so each residue chain appears twice
    chains = [Chain(2, terms, q) for q in FIELDS]
    chains += [Chain(2, {w: c + 35 for w, c in terms.items()}, q) for q in FIELDS]
    _assert_hash_contract(chains)
    assert all(a.char == b.char for a in chains for b in chains if a == b)
    classes = []
    for chain in chains:
        q = chain.char
        lie = canonical_l(chain, q)
        assert lie == canonical_l(fold_l(k, chain), q)
        if q is not None:
            assert lie == canonical_l(Chain(2, terms), q)
            assert lie.chain.char == q
        classes += [lie, canonical_l(fold_l(k, chain), q)]
        try:
            prime = canonical_prime(chain)
        except ZeroDivisionError:  # q divides n - 1
            continue
        assert prime == canonical_prime(fold_prime(k, chain))
        classes += [prime, canonical_prime(fold_prime(k, chain))]
    _assert_hash_contract(classes)


def test_letter_bounds():
    with pytest.raises(InputError):
        Chain(2, {(3,): 1})


@given(chains, chains, chains)
def test_concat_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(chains, chains)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(chains)
def test_reverse_involution(c):
    assert c.reverse().reverse() == c


@given(chains)
def test_neg_cancels(c):
    assert (c + (-c)).is_zero()
