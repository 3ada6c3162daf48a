from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from swingwords.chains import Chain
from swingwords.linalg import RowSpace
from swingwords.moves import eta, fold_l
from swingwords.quotients import (TensorElement, canonical_l, canonical_prime,
                                  choose_head, choose_head_by_letter, ell_map,
                                  g_map, g_prime_map, g_tilde, relation_span)
from swingwords.scalars import InputError, ResourceLimitError


def words(p, n):
    return product(range(1, p + 1), repeat=n)


def test_canonical_l_kills_symmetric_part():
    c = Chain.of_word(2, (1, 2)) + Chain.of_word(2, (2, 1))
    assert canonical_l(c).is_zero()


def test_canonical_l_fold_relation():
    lhs = canonical_l(Chain.of_word(2, (2, 1)))
    rhs = canonical_l(Chain.of_word(2, (1, 2)).scale(-1))
    assert lhs == rhs


def test_canonical_l_eta_scaling():
    w = Chain.of_word(3, (1, 2, 3))
    assert canonical_l(eta(w)) == canonical_l(w.scale(3))


def test_canonical_l_idempotent():
    for p in (2, 3):
        for n in range(1, 6):
            for w in words(p, n):
                once = canonical_l(Chain.of_word(p, w))
                assert canonical_l(once.chain) == once
    for p, n in ((3, 6), (2, 7), (3, 7)):
        for w in list(words(p, n))[::17]:
            once = canonical_l(Chain.of_word(p, w))
            assert canonical_l(once.chain) == once


def test_canonical_l_rejects_inhomogeneous():
    with pytest.raises(InputError):
        canonical_l(Chain(2, {(1,): 1, (1, 2): 1}))


def test_canonical_l_residue_fallback():
    # characteristic divides the degree: falls back to span reduction
    c = Chain(2, {(1, 2, 2): 1})
    lie = canonical_l(c, char=3)
    assert lie.method == "span"
    # still decides equivalence: a fold relation dies
    rel = fold_l(2, c) - c
    assert canonical_l(rel, char=3).is_zero()


def test_canonical_l_residue_regular_degree():
    lie = canonical_l(Chain.of_word(2, (1, 2)), char=5)
    assert lie.method == "dynkin"
    assert not lie.is_zero()


def test_relation_span_examples():
    assert relation_span(2, 2, "prime").rank == 1
    assert relation_span(2, 2, "prime").quotient_dim() == 3
    assert relation_span(1, 2, "prime").rank == 2
    assert relation_span(3, 2, "l").quotient_dim() == 2


def test_relation_span_resource_guard():
    with pytest.raises(ResourceLimitError):
        relation_span(30, 3, "l", max_words=1000)


def test_relation_span_basis_is_independent_and_homogeneous():
    span = relation_span(3, 2, "l")
    chains = span.basis_chains()
    assert len(chains) == span.rank
    probe = RowSpace()
    for c in chains:
        assert c.degree() == 3
        assert probe.insert(dict(c.terms))


def test_relation_span_reduce_decides_membership():
    span = relation_span(3, 2, "l")
    rel = fold_l(3, Chain.of_word(2, (1, 2, 2))) - Chain.of_word(2, (1, 2, 2))
    assert span.contains(rel)
    assert not span.contains(Chain.of_word(2, (1, 2, 2)))


def test_canonical_prime_degree_one_dies():
    assert canonical_prime(Chain.of_word(2, (1,))).is_zero()


def test_canonical_prime_strut_symmetry():
    c = Chain.of_word(2, (1, 2)) - Chain.of_word(2, (2, 1))
    assert canonical_prime(c).is_zero()
    assert not canonical_prime(Chain.of_word(2, (2, 2))).is_zero()


def test_canonical_prime_y_relation_with_context():
    w = Chain.of_word(2, (1, 2))
    v = w * eta(w) * Chain.of_word(2, (1,))
    assert canonical_prime(v).is_zero()


def test_canonical_prime_matches_span_oracle():
    for p in (2, 3):
        for n in range(2, 6):
            span = relation_span(n, p, "prime")
            for basis_chain in span.basis_chains():
                assert canonical_prime(basis_chain).is_zero()
            space = RowSpace()
            for w in words(p, n):
                space.insert(dict(canonical_prime(Chain.of_word(p, w)).image.terms))
            assert space.rank == span.quotient_dim()


def test_g_prime_map_splits_prefix_and_last_letter():
    # mirrored reading: canonical prefix tensor the final letter
    t = g_prime_map(Chain.of_word(3, (1, 2, 3)))
    expected = {(w, 3): c * Fraction(-1, 2)
                for w, c in eta(Chain.of_word(3, (1, 2))).terms.items()}
    assert t.terms == expected


def test_g_prime_map_linear():
    a = Chain.of_word(2, (1, 2, 2))
    b = Chain.of_word(2, (2, 1, 2))
    assert g_prime_map(a + b) == g_prime_map(a) + g_prime_map(b)


def test_g_prime_map_needs_degree_two():
    with pytest.raises(InputError):
        g_prime_map(Chain.of_word(2, (1,)))


def test_ell_of_g_vanishes():
    for p in (2, 3):
        for n in (2, 3, 4):
            for w in words(p, n):
                assert ell_map(g_map(Chain.of_word(p, w))).is_zero()


def test_ell_reattaches_letter():
    t = TensorElement(2, 2, {((2,), 1): 1})
    assert ell_map(t) == canonical_l(Chain.of_word(2, (2, 1)))
    assert ell_map(TensorElement.zero(2, 3)).is_zero()


def test_g_tilde_scales_by_degree():
    for w in ((1, 2), (1, 2, 3), (1, 2, 2, 1)):
        p = max(w)
        c = Chain.of_word(p, w)
        assert g_tilde(g_map(c)).image == canonical_prime(c).image.scale(len(w))
    assert g_tilde(TensorElement.zero(2, 4)).is_zero()


def test_g_of_prime_relation_vanishes():
    span = relation_span(4, 2, "prime")
    for basis_chain in span.basis_chains():
        assert g_map(basis_chain).is_zero()


def test_choose_head_examples():
    w = (1, 2, 3)
    assert choose_head(w, 1, 3) == Chain.of_word(3, w)
    assert choose_head(w, 3, 3) == fold_l(3, Chain.of_word(3, w))
    with pytest.raises(InputError):
        choose_head(w, 4, 3)


def test_choose_head_by_letter_requires_unique_occurrence():
    with pytest.raises(InputError):
        choose_head_by_letter(Chain.of_word(2, (1, 1, 2)), 1)


def test_choose_head_round_trip():
    c = Chain.of_word(4, (1, 2, 3, 4))
    state = fold_l(3, fold_l(2, fold_l(4, c)))
    assert choose_head_by_letter(state, 1) == c


def test_fold_absorption_degree7_exhaustive_two_letters():
    for w in words(2, 7):
        c = Chain.of_word(2, w)
        folded = {j: fold_l(j, c) for j in range(2, 8)}
        for j in range(2, 7):
            for i in range(j + 1, 8):
                assert fold_l(i, folded[j]) == folded[i], (w, i, j)


def test_head_independence_degree7_exhaustive_two_letters():
    for n1 in range(1, 7):
        n2 = 7 - n1
        sign = 1  # (-1)^(7-1)
        for w1 in words(2, n1):
            for w2 in words(2, n2):
                lhs = canonical_l(Chain.of_word(2, w1) * eta(Chain.of_word(2, w2)))
                rhs = canonical_l(
                    (Chain.of_word(2, w2) * eta(Chain.of_word(2, w1))).scale(sign))
                assert lhs == rhs, (w1, w2)


random_words = st.lists(st.integers(min_value=1, max_value=3),
                        min_size=2, max_size=6).map(tuple)


@given(random_words, st.integers(min_value=2, max_value=6))
def test_left_fold_moves_die_in_left_quotient(w, k):
    from swingwords.moves import fold_prime

    c = Chain.of_word(3, w)
    assert canonical_l(fold_l(k, c)) == canonical_l(c)
    assert canonical_prime(fold_prime(k, c)) == canonical_prime(c)


@given(random_words, st.integers(min_value=-3, max_value=3))
def test_canonical_maps_are_linear(w, scalar):
    c = Chain.of_word(3, w)
    assert canonical_l(c.scale(scalar)).chain == canonical_l(c).chain.scale(scalar)
    assert canonical_prime(c.scale(scalar)).image == canonical_prime(c).image.scale(scalar)


def test_tensor_element_grouping_and_zero():
    t = TensorElement(2, 3, {((1, 2), 1): 1, ((2, 1), 1): -1, ((1, 2), 2): 2})
    grouped = dict(t.grouped())
    assert grouped[1] == Chain(2, {(1, 2): 1, (2, 1): -1})
    assert grouped[2] == Chain(2, {(1, 2): 2})
    assert (t - t).is_zero()
    assert TensorElement.zero(2, 3) == TensorElement.zero(3, 5)
