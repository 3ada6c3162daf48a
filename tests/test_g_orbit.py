"""The orbit of a word under the single-word moves that g kills
(`quotients._g_orbit`).

g kills every primed fold relation. Two of them act on one word: for n >= 3
the fold at index 2 swaps the first two letters with sign -1, and the top
fold reverses the word with sign (-1)^n, so swapping the last two letters
costs -1 too; at n = 2 the top fold is the only one, with sign +1.
`_g_orbit` returns the least word of the orbit with the sign relating the
two images, or None when a move of sign -1 fixes a word of the orbit, so
that the image is 0. The reference below walks the orbit move by move, and
the g-image reference checks g(w) = sign * g(rep) itself. `canonical_prime`
images each orbit once, so its results are checked against the reference
image over Q, F_5 and F_7, and its memo must hold representatives only.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

import swingwords.quotients
from g_image_reference import ref_g_image_scaled
from swingwords.chains import Chain
from swingwords.moves import linear_extension
from swingwords.quotients import PrimeCanonical, _g_orbit, canonical_prime


def _moves(n):
    """The moves g kills at degree n >= 2, with their signs."""
    def reverse(w):
        return w[::-1]
    if n == 2:
        return [(reverse, 1)]

    def swap_first(w):
        return (w[1], w[0]) + w[2:]

    def swap_last(w):
        return w[:-2] + (w[-1], w[-2])
    return [(swap_first, -1), (swap_last, -1), (reverse, 1 if n % 2 == 0 else -1)]


def ref_orbit(word):
    """The least word of the orbit and its sign, walking the orbit; None
    when some word of it is reached with both signs."""
    signs = {word: 1}
    todo = [word]
    while todo:
        w = todo.pop()
        for move, s in _moves(len(word)):
            v, sign = move(w), s * signs[w]
            if v not in signs:
                signs[v] = sign
                todo.append(v)
            elif signs[v] != sign:
                return None
    rep = min(signs)
    return rep, signs[rep]


@pytest.mark.parametrize("p, degrees", [(3, range(2, 7)), (4, range(2, 6))])
def test_orbit_matches_the_walk_on_every_short_word(p, degrees):
    for n in degrees:
        for word in product(range(1, p + 1), repeat=n):
            assert _g_orbit(word) == ref_orbit(word), word


def test_small_degrees():
    # n = 2: the reversal alone, with sign +1, and g(aa) = 2 aa is not 0
    assert _g_orbit((2, 1)) == ((1, 2), 1)
    assert _g_orbit((2, 2)) == ((2, 2), 1)
    assert ref_g_image_scaled((2, 2)) == {(2, 2): 2}
    # n = 3: S3 with the sign of the permutation, 0 when a letter repeats
    assert _g_orbit((3, 1, 2)) == ((1, 2, 3), 1)
    assert _g_orbit((2, 1, 3)) == ((1, 2, 3), -1)
    assert _g_orbit((1, 2, 1)) is None
    # a single letter is its own orbit
    assert _g_orbit((3,)) == ((3,), 1)


def test_odd_palindromes_and_zero_ends():
    assert _g_orbit((1, 2, 3, 2, 1)) is None
    assert _g_orbit((1, 2, 3, 3, 2, 1)) == ((1, 2, 3, 3, 1, 2), -1)
    assert _g_orbit((1, 1, 2, 3)) is None and _g_orbit((1, 2, 3, 3)) is None


@st.composite
def words(draw):
    """A word of degree 2 to 9 over p <= 5 letters."""
    p = draw(st.integers(1, 5))
    return draw(st.tuples(*[st.integers(1, p)] * draw(st.integers(2, 9))))


@given(words())
def test_image_is_the_signed_image_of_the_representative(word):
    orbit = _g_orbit(word)
    assert orbit == ref_orbit(word)
    image = ref_g_image_scaled(word)
    if orbit is None:
        assert image == {}
    else:
        rep, sign = orbit
        assert image == {w: sign * c for w, c in ref_g_image_scaled(rep).items()}


def ref_image(chain):
    return linear_extension(chain, ref_g_image_scaled, chain.degree() - 1)


@st.composite
def orbit_chains(draw):
    """Chains over Q, F_5 or F_7 whose words are a few orbit-mates of a few
    words, so that their terms merge or cancel before any image."""
    q = draw(st.sampled_from((None, 5, 7)))
    p = draw(st.integers(1, 4))
    n = draw(st.integers(2, 8))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        word = draw(st.tuples(*[st.integers(1, p)] * n))
        for _ in range(draw(st.integers(1, 4))):
            for move, _ in draw(st.lists(st.sampled_from(_moves(n)), max_size=3)):
                word = move(word)
            numerator = draw(st.integers(-7, 7).filter(bool))
            denominator = 1 if q else draw(st.integers(1, 4))
            terms[word] = terms.get(word, 0) + Fraction(numerator, denominator)
    return Chain(p, terms, q)


@given(orbit_chains())
def test_canonical_prime_of_orbit_chains_matches_the_reference(chain):
    if chain.is_zero():
        return
    q, n = chain.char, chain.degree()
    if q is not None and (n - 1) % q == 0:
        with pytest.raises(ZeroDivisionError):
            canonical_prime(chain)
        return
    image = ref_image(chain)
    key = canonical_prime(chain)
    assert key.image == image
    assert key == PrimeCanonical(n, image)


def test_orbit_mates_cancel_before_any_image(monkeypatch):
    monkeypatch.setattr(swingwords.quotients, "_PRIME_IMAGE_MEMO", {})
    # (2,1,3,4) = -(1,2,3,4) and (4,3,2,1) = +(1,2,3,4) in the image
    chain = Chain(4, {(1, 2, 3, 4): 2, (2, 1, 3, 4): 1, (4, 3, 2, 1): -1})
    assert canonical_prime(chain).is_zero()
    assert swingwords.quotients._PRIME_IMAGE_MEMO == {}


def test_prime_image_memo_holds_representatives_only(monkeypatch):
    monkeypatch.setattr(swingwords.quotients, "_PRIME_IMAGE_MEMO", {})
    rng = random.Random(28)
    for _ in range(200):
        p, n = rng.randint(1, 4), rng.randint(2, 7)
        terms = {tuple(rng.randint(1, p) for _ in range(n)): rng.choice((1, -1, 2, Fraction(1, 3)))
                 for _ in range(rng.randint(1, 5))}
        # neither 7 nor 11 divides n - 1 <= 6, so no residue chain is refused
        canonical_prime(Chain(p, terms, rng.choice((None, 7, 11))))
    memo = swingwords.quotients._PRIME_IMAGE_MEMO
    assert len(memo) > 50
    assert all(_g_orbit(word) == (word, 1) for word in memo)
