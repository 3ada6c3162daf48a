"""The g-image by bracket recursion against its fold-expansion form.

`quotients._g_image_scaled` computes (n - 1) * g(w) by the right-nested
bracket recursion in its docstring, one bracket [E_{k-1}, Z_k] per position.
The reference (`g_image_reference`) is the earlier implementation: it splits w, then splits
every term of fold_l(n, w), running eta on the prefix of each, which costs
4^(n-2) dict updates at degree n. Both must give the same integer vector on
every word, and both must refuse the empty word.
"""

import random
from itertools import product

import pytest

from g_image_reference import ref_g_image_scaled
from swingwords.quotients import _g_image_scaled
from swingwords.scalars import InputError


def _assert_same(words):
    for word in words:
        assert _g_image_scaled(word) == ref_g_image_scaled(word), word


@pytest.mark.parametrize("degree", range(1, 8))
def test_every_word_over_three_letters_up_to_degree_seven(degree):
    # words over 1..p for p <= 3 are among these
    _assert_same(product((1, 2, 3), repeat=degree))


def test_every_degree_eight_word_over_two_letters():
    words = list(product((1, 2), repeat=8))
    assert len(words) == 256
    _assert_same(words)


@pytest.mark.parametrize("degree", [8, 9])
def test_seeded_words_over_four_letters_past_the_memo(degree):
    rng = random.Random(1000 + degree)
    words = {tuple(rng.randint(1, 4) for _ in range(degree)) for _ in range(40)}
    assert any(len(set(w)) == 4 for w in words)
    _assert_same(sorted(words))


def test_single_letters_have_image_zero_and_the_empty_word_is_refused():
    for a in (1, 2, 3):
        assert _g_image_scaled((a,)) == {} == ref_g_image_scaled((a,))
    for fn in (_g_image_scaled, ref_g_image_scaled):
        with pytest.raises(InputError):
            fn(())
