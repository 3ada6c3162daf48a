"""The primed class key as integer terms over one scale.

`canonical_prime` keeps (n - 1) * g(chain) as integer terms over one scale,
normalised by their gcd over Q and reduced mod q over F_q; equality and hashing
read those integers, and `.image` divides once, on first use. The reference
image below is the earlier one: the g-image expanded over the fold of every
word and divided by the scale in the chain's field. Keys built from an image
with `PrimeCanonical(degree, image)` must equal and hash like the keys of
`canonical_prime`, and a residue chain of degree n with q | n - 1 stays
refused, whatever its image.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from swingwords.chains import Chain, accumulate
from swingwords.moves import eta_word, fold_l_word, fold_prime, linear_extension, linear_image
from swingwords.quotients import PrimeCanonical, _g_image_scaled, canonical_prime
from swingwords.textio import render_chain, render_tensor

FIELDS = (None, 5, 7)


def _ref_split(word, coeff):
    last = word[-1:]
    return ((u + last, coeff * c) for u, c in eta_word(word[:-1]).items())


def _ref_g_image_scaled(word):
    n = len(word)
    sign = 1 if n % 2 == 0 else -1
    out = accumulate(_ref_split(word, sign))
    for w, c in fold_l_word(n, word).items():
        accumulate(_ref_split(w, -sign * c), out)
    return out


def ref_image(chain):
    return linear_extension(chain, _ref_g_image_scaled, chain.degree() - 1)


def _kinds(chain):
    return chain.char, {w: type(c) for w, c in chain.terms.items()}


def _coefficient(q, numerator, denominator):
    if q is not None:
        return numerator
    return Fraction(numerator, denominator) if denominator > 1 else numerator


@st.composite
def chains(draw, fields=FIELDS, degrees=(2, 7)):
    q = draw(st.sampled_from(fields))
    p = draw(st.integers(1, 3))
    degree = draw(st.integers(*degrees))
    words = draw(st.lists(st.tuples(*[st.integers(1, p)] * degree), min_size=1, max_size=4))
    terms = {}
    for w in words:
        numerator = draw(st.integers(-7, 7).filter(bool))
        terms[w] = _coefficient(q, numerator, draw(st.integers(1, 6)))
    return q, Chain(p, terms, q)


def _refused(q, chain):
    return q is not None and (chain.degree() - 1) % q == 0


@given(chains())
def test_key_from_the_image_equals_the_key_of_canonical_prime(case):
    q, chain = case
    if chain.is_zero():
        return
    if _refused(q, chain):
        with pytest.raises(ZeroDivisionError, match=f"division by zero mod {q}"):
            canonical_prime(chain)
        return
    key = canonical_prime(chain)
    rebuilt = PrimeCanonical(chain.degree(), key.image)
    assert rebuilt == key and hash(rebuilt) == hash(key)
    assert rebuilt.is_zero() == key.is_zero() == key.image.is_zero()
    assert key.image is key.image


@given(chains())
def test_image_renders_as_before_with_the_same_coefficient_types(case):
    q, chain = case
    if chain.is_zero() or _refused(q, chain):
        return
    image, ref = canonical_prime(chain).image, ref_image(chain)
    assert render_tensor(image) == render_tensor(ref)
    assert render_chain(image) == render_chain(ref)
    assert _kinds(image) == _kinds(ref)


@given(chains(fields=(None,)), st.sampled_from((5, 7)))
def test_rational_and_residue_keys_differ_unless_both_are_zero(case, q):
    _, chain = case
    residues = Chain(chain.p, {w: c for w, c in chain.terms.items()
                               if Fraction(c).denominator % q}, q)
    if chain.is_zero() or residues.is_zero() or _refused(q, residues):
        return
    rational, residue = canonical_prime(chain), canonical_prime(residues)
    assert (rational == residue) == (rational.is_zero() and residue.is_zero())
    if rational == residue:
        assert hash(rational) == hash(residue)
    # comparing and hashing read the integer key, not the divided image
    assert rational._chain is None and residue._chain is None


@given(chains(), st.integers(2, 7))
def test_zero_classes_are_equal_across_degree_alphabet_and_field(case, k):
    q, chain = case
    relation = chain - fold_prime(k, chain)
    if relation.is_zero() or _refused(q, relation):
        return
    zero = canonical_prime(relation)
    others = [PrimeCanonical(5, Chain.zero(3)), canonical_prime(Chain.zero(2)),
              canonical_prime(Chain.of_word(1, (1,))),
              canonical_prime(Chain(2, {(1, 2, 1): 3}, 7))]
    assert zero.is_zero() and all(z.is_zero() for z in others)
    assert all(zero == z and hash(zero) == hash(z) for z in others)


@pytest.mark.parametrize("q, word", [(3, (1, 1, 1, 1)), (3, (2, 1, 1, 2)), (5, (1,) * 6),
                                     (5, (1, 2, 1, 2, 2, 1))])
def test_residue_chain_with_q_dividing_n_minus_one_is_refused_whatever_its_image(q, word):
    one = Chain(2, {word: 1}, q)
    relation = one - fold_prime(2, one)
    assert not relation.is_zero()
    for chain in (one, relation):
        with pytest.raises(ZeroDivisionError, match=f"division by zero mod {q}"):
            canonical_prime(chain)
    # the relation's g-image is zero, and so is the single word's for 1^n
    def scaled_image(chain):  # (n - 1) g(chain) mod q
        return {w: r for w, v in linear_image(chain.terms, _g_image_scaled).items()
                if (r := v % q)}
    assert scaled_image(relation) == {}
    assert (scaled_image(one) == {}) == (len(set(word)) == 1)
