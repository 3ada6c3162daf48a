from copy import deepcopy
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from swingwords import quotients
from swingwords.chains import Chain, accumulate, word_multidegree
from swingwords.linalg import RowSpace
from swingwords.moves import eta, eta_word, fold_l, fold_l_word, fold_prime_word
from swingwords.quotients import (PrimeCanonical, RelationSpan, canonical_l,
                                  canonical_prime, choose_head, choose_head_by_letter,
                                  ell_map, g_map, g_prime_map, g_tilde, relation_span)
from swingwords.textio import render_tensor
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
        relation_span(30, 3, "l")


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


def test_relation_span_reduce_refuses_letters_outside_its_alphabet():
    span = relation_span(3, 2, "l")
    with pytest.raises(InputError, match="alphabet 1..2"):
        span.reduce(Chain(3, {(3, 1, 2): 1}))
    # a wider chain alphabet is fine when its words stay inside the span's,
    # and the normal form keeps the chain's alphabet
    chain = Chain(3, {(2, 1, 2): 1, (1, 2, 2): 1})
    normal = span.reduce(chain)
    assert normal.p == 3
    assert normal.terms == span.reduce(Chain(2, chain.terms)).terms
    assert span.contains(chain - normal)


def _all_index_blocks(degree, p, family, char):
    """Reference construction: every fold relation at every index 2..n of
    every word, eliminated from scratch."""
    fold_word = fold_l_word if family == "l" else fold_prime_word
    blocks = {}
    for word in words(p, degree):
        block = blocks.setdefault(word_multidegree(word, p), RowSpace(char))
        if degree == 1:
            if family == "prime":
                block.insert({word: 1})
            continue
        for k in range(2, degree + 1):
            block.insert(accumulate([(word, -1)], dict(fold_word(k, word))))
    return blocks


@pytest.mark.parametrize("family", ["l", "prime"])
@pytest.mark.parametrize("char", [None, 3, 5, 7])
def test_relation_span_matches_all_index_construction(family, char):
    # the span inserts left folds of non-pivot prefixes only, and one primed
    # relation per reversal pair; degree 7 at p = 3 runs over Q, over F_3
    # (3 | n - 1) and over F_7 (7 | n)
    cases = [(n, p) for n in range(1, 7) for p in (1, 2, 3)]
    cases += [(n, 4) for n in range(1, 6)]
    if char == 7:
        cases.append((7, 2))
    if char in (None, 3, 7):
        cases.append((7, 3))
    for degree, p in cases:
        span = RelationSpan(degree, p, family, char)
        blocks = _all_index_blocks(degree, p, family, char)
        assert span.blocks == blocks, (degree, p)
        assert span.rank == sum(block.rank for block in blocks.values())
        expected = [Chain(p, row, char) for md in sorted(blocks) for row in blocks[md].rows()]
        assert span.basis_chains() == expected, (degree, p)


def test_relation_span_memoizes_only_the_requested_span(monkeypatch):
    monkeypatch.setattr(quotients, "_SPAN_MEMO", {})
    span = relation_span(8, 3, "prime", 17)
    assert quotients._SPAN_MEMO == {(8, 3, "prime", 17): span}
    assert relation_span(8, 3, "prime", 17) is span


def test_relation_span_starts_from_a_memoized_left_span(monkeypatch):
    monkeypatch.setattr(quotients, "_SPAN_MEMO", {})
    fresh = RelationSpan(8, 3, "prime", 17)
    left = relation_span(7, 3, "l", 17)
    before = deepcopy(left.blocks)
    calls = []
    monkeypatch.setattr(quotients, "fold_l_word", lambda n, w: calls.append(w))
    built = RelationSpan(8, 3, "prime", 17)
    # only the top-index primed relations were inserted: no left fold ran
    assert calls == []
    assert built.blocks == fresh.blocks
    assert left.blocks == before


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
    # mirrored reading: canonical prefix tensor the final letter, stored as
    # the prefix's words with the letter re-attached
    t = g_prime_map(Chain.of_word(3, (1, 2, 3)))
    expected = {w + (3,): c * Fraction(-1, 2)
                for w, c in eta(Chain.of_word(3, (1, 2))).terms.items()}
    assert t.terms == expected
    assert render_tensor(t) == "1/2*([1,2] (x) 3) - 1/2*([2,1] (x) 3)"


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
                assert canonical_l(g_map(Chain.of_word(p, w))).is_zero()


def test_ell_reattaches_letter():
    # the tensor [2] (x) 1 is the chain [2,1], so ell is canonical_l on it
    t = Chain.of_word(2, (2, 1))
    assert render_tensor(t) == "1*([2] (x) 1)"
    assert canonical_l(t) == canonical_l(Chain(2, {(2, 1): 1}))
    assert canonical_l(Chain.zero(2)).is_zero()
    assert ell_map is canonical_l and g_tilde is canonical_prime


def test_g_tilde_scales_by_degree():
    for w in ((1, 2), (1, 2, 3), (1, 2, 2, 1)):
        p = max(w)
        c = Chain.of_word(p, w)
        assert canonical_prime(g_map(c)).image == canonical_prime(c).image.scale(len(w))
    assert canonical_prime(Chain.zero(2)).is_zero()


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


def _rotations(n, k):
    """The sum of the first k rotations of the word 1..n."""
    word = tuple(range(1, n + 1))
    return Chain(n, {word[i:] + word[:i]: 1 for i in range(k)})


@pytest.mark.parametrize("apply, total", [
    # g' builds eta of the first 9 letters of each word: 2^8 terms apiece
    (g_prime_map, 4 << 8),
    # letter 10 sits at positions 10, 9, 8, 7: eta of 9, 8, 7, 6 letters
    (lambda chain: choose_head_by_letter(chain, 10), (1 << 8) + (1 << 7) + (1 << 6) + (1 << 5)),
])
@pytest.mark.parametrize("over", [0, 1])
def test_chain_bound_of_the_tensor_and_head_maps(monkeypatch, apply, total, over):
    # with the bound at the sum of the words' bounds the map answers; one
    # below it the chain is refused before any word is mapped
    import swingwords.moves
    import swingwords.scalars

    monkeypatch.setattr(swingwords.scalars, "MAX_WORDS", total - over)
    monkeypatch.setattr(swingwords.moves, "MAX_WORDS", total - over)
    chain = _rotations(10, 4)
    if over:
        with pytest.raises(ResourceLimitError, match=f"chain of 4 words would build up to {total} "):
            apply(chain)
    else:
        assert 0 < len(apply(chain).terms) <= total


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


def test_prime_canonical_zero_classes_agree_across_degree_and_alphabet():
    relation = Chain.of_word(2, (1, 2)) - Chain.of_word(2, (2, 1))
    zeros = [canonical_prime(relation), canonical_prime(Chain.of_word(3, (1,))),
             PrimeCanonical(5, Chain.zero(3)), canonical_prime(Chain.zero(2))]
    assert all(z.is_zero() for z in zeros)
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) for z in zeros)
    t = g_map(Chain.of_word(3, (1, 2, 3)))
    assert not t.is_zero() and (t - t).is_zero()
    nonzero = canonical_prime(Chain.of_word(2, (2, 2)))
    assert nonzero != zeros[0]
    assert nonzero != PrimeCanonical(3, nonzero.image)


# Reference: the tensor images keyed by (prefix word, letter) pairs and their
# rendering, as computed before the images became chains of words.

def _ref_split(word, coeff):
    return (((u, word[-1]), coeff * c) for u, c in eta_word(word[:-1]).items())


def _ref_scale(chain):
    n = chain.degree()
    return n, next(iter(chain.terms.values())) * 0 + Fraction(1, n - 1)


def _ref_g_prime(chain):
    n, scale = _ref_scale(chain)
    sign = 1 if n % 2 == 0 else -1
    out = {}
    for word, coeff in chain.terms.items():
        accumulate(_ref_split(word, sign * coeff), out)
    return {k: v * scale for k, v in out.items()}


def _ref_g(chain):
    n, scale = _ref_scale(chain)
    sign = 1 if n % 2 == 0 else -1
    out = {}
    for word, coeff in chain.terms.items():
        accumulate(_ref_split(word, sign * coeff), out)
        for w, c in fold_l_word(n, word).items():
            accumulate(_ref_split(w, -sign * coeff * c), out)
    return {k: v * scale for k, v in out.items()}


def _ref_render(pairs):
    terms = sorted(pairs.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    text = " + ".join(f"{coeff}*([{','.join(map(str, word))}] (x) {letter})"
                      for (word, letter), coeff in terms)
    return text.replace("+ -", "- ") or "0"


def _assert_images_match_reference(chain):
    g = _ref_render(_ref_g(chain))
    assert render_tensor(canonical_prime(chain).image) == g
    assert render_tensor(g_map(chain)) == g
    assert render_tensor(g_prime_map(chain)) == _ref_render(_ref_g_prime(chain))


def test_tensor_images_match_pair_keyed_reference_on_every_word():
    for p in (1, 2, 3):
        for n in range(2, 7):
            for w in words(p, n):
                _assert_images_match_reference(Chain.of_word(p, w))


fraction_chains = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.dictionaries(
        st.tuples(*[st.integers(min_value=1, max_value=3)] * n),
        st.fractions(max_denominator=6).filter(bool), min_size=1, max_size=5))


@given(fraction_chains)
def test_tensor_images_match_pair_keyed_reference_on_fraction_chains(terms):
    _assert_images_match_reference(Chain(3, terms))
