import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

import swingwords.moves
from swingwords.chains import Chain
from swingwords.moves import (commutator_expand, eta, eta_word, expand_word, fold_l,
                              fold_prime, magma_leaves)
from swingwords.scalars import ResourceLimitError


def chain_of(p, terms):
    return Chain(p, dict(terms))


def eta_comb(word):
    """The left comb (a_n, (.., (a_2, a_1))): its commutator expansion is
    eta of the nonempty word a_1..a_n."""
    term = word[0]
    for a in word[1:]:
        term = (a, term)
    return term


def test_eta_single_letter():
    assert eta(Chain.of_word(2, (1,))) == Chain.of_word(2, (1,))


def test_eta_two_letters():
    assert eta(Chain.of_word(2, (1, 2))) == chain_of(2, {(2, 1): 1, (1, 2): -1})


def test_eta_three_letters():
    # unrolled by hand from the recursion
    expected = chain_of(3, {(3, 2, 1): 1, (3, 1, 2): -1, (2, 1, 3): -1, (1, 2, 3): 1})
    assert eta(Chain.of_word(3, (1, 2, 3))) == expected


def test_eta_empty_word_dies():
    assert eta(Chain.of_word(2, ())).is_zero()


def test_eta_of_a_doubled_first_letter_dies_without_recursion(monkeypatch):
    # eta(aa) = aa - aa, and each later letter acts linearly on the prefix's
    # eta; the left comb's expansion is an independent path to the same zero
    rng = random.Random(7)
    for _ in range(300):
        monkeypatch.setattr(swingwords.moves, "_ETA_MEMO", {})
        a = rng.randint(1, 3)
        word = (a, a) + tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 9)))
        assert eta_word(word) == {}
        assert list(swingwords.moves._ETA_MEMO) == [word]
        assert expand_word(eta_comb(word)) == {}


def test_fold_l_out_of_range_is_identity():
    assert fold_l(1, Chain.of_word(2, (1, 2))) == Chain.of_word(2, (1, 2))
    assert fold_l(9, Chain.of_word(2, (1, 2))) == Chain.of_word(2, (1, 2))


def test_fold_l_examples():
    assert fold_l(2, Chain.of_word(2, (1, 2))) == chain_of(2, {(2, 1): -1})
    assert fold_l(3, Chain.of_word(3, (1, 2, 3))) == chain_of(3, {(3, 2, 1): 1, (3, 1, 2): -1})


def test_fold_prime_examples():
    assert fold_prime(5, Chain.of_word(1, (1,))).is_zero()
    assert fold_prime(3, Chain.of_word(3, (1, 2, 3))) == chain_of(3, {(3, 2, 1): -1})
    assert fold_prime(2, Chain.of_word(3, (1, 2, 3))) == chain_of(3, {(2, 1, 3): -1})


def test_fold_prime_top_is_signed_reversal():
    for n in range(2, 6):
        w = tuple(range(1, n + 1))
        sign = 1 if n % 2 == 0 else -1
        assert fold_prime(n, Chain.of_word(n, w)) == Chain.of_word(n, w[::-1], sign)


def test_commutator_expand_examples():
    assert commutator_expand(3, 3) == Chain.of_word(3, (3,))
    assert commutator_expand((1, 2), 2) == chain_of(2, {(1, 2): 1, (2, 1): -1})
    expected = chain_of(3, {(1, 2, 3): 1, (2, 1, 3): -1, (3, 1, 2): -1, (3, 2, 1): 1})
    assert commutator_expand(((1, 2), 3), 3) == expected


def test_commutator_expand_multidegree_is_leaf_multiset():
    term = ((1, (2, 1)), 3)
    chain = commutator_expand(term, 3)
    counts = [0, 0, 0]
    for a in magma_leaves(term):
        counts[a - 1] += 1
    assert chain.multidegree() == tuple(counts)


def test_expansion_past_the_word_bound_is_refused():
    # each 12-leaf comb over distinct letters expands to 2^11 words, so their
    # bracket would build 2 * 2^22 terms
    left, right = eta_comb(tuple(range(1, 13))), eta_comb(tuple(range(13, 25)))
    with pytest.raises(ResourceLimitError, match="over the bound 2000000"):
        commutator_expand((left, right), 24)


def test_only_the_whole_term_is_memoized(monkeypatch):
    # the inner nodes of a 300-level comb hold about 300^3 / 3 letters, and
    # its expansion 301 words of 301 letters
    monkeypatch.setattr(swingwords.moves, "_EXPAND_MEMO", {})
    comb = 1
    for _ in range(300):
        comb = (comb, 2)
    expansion = expand_word(comb)
    assert len(expansion) == 301
    assert swingwords.moves._EXPAND_MEMO == {comb: expansion}


def test_left_comb_reproduces_eta():
    # the nested-bracket oracle for eta: an independent expansion path
    for n in range(1, 6):
        for w in product((1, 2), repeat=n):
            assert commutator_expand(eta_comb(w), 2) == eta(Chain.of_word(2, w))


def test_moves_preserve_degree_and_multidegree():
    c = Chain.of_word(3, (1, 2, 2, 3))
    for image in (eta(c), fold_l(3, c), fold_prime(3, c)):
        if not image.is_zero():
            assert image.degree() == 4
            assert image.multidegree() == (1, 2, 1)


words7 = st.lists(st.integers(min_value=1, max_value=3), min_size=7, max_size=7).map(tuple)
chains7 = st.dictionaries(words7, st.integers(min_value=-3, max_value=3),
                          min_size=1, max_size=3).map(lambda d: Chain(3, d))


@given(chains7)
def test_eta_squared_scaling_on_random_degree7_chains(c):
    assert eta(eta(c)) == eta(c).scale(7)


@given(chains7, st.integers(min_value=2, max_value=7))
def test_folds_are_linear(c, n):
    doubled = fold_l(n, c.scale(2))
    assert doubled == fold_l(n, c).scale(2)
    assert fold_prime(n, c + c) == fold_prime(n, c).scale(2)


def test_fold_rejects_nonpositive_index():
    with pytest.raises(Exception):
        fold_l(0, Chain.of_word(2, (1, 2)))
