"""The output path: renderers, `divided`, `cleared`, `accumulate` and
`linear_image`, each against a plain reference that builds every term on its
own (the join-based renderers, one Fraction per term, one accumulate call per
product)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from swingwords.chains import Chain, accumulate
from swingwords.moves import eta_word, fold_l_word, linear_image
from swingwords.quotients import _g_image_scaled, canonical_l, canonical_prime
from swingwords.scalars import cleared, divided
from swingwords.textio import parse_chain, render_chain, render_tensor


def _ref_signed_sum(terms) -> str:
    pieces = []
    for coeff, suffix in terms:
        text = str(coeff)
        if text[0] == "-":
            pieces.append(("- " if pieces else "-") + text[1:] + suffix)
        else:
            pieces.append(("+ " if pieces else "") + text + suffix)
    return " ".join(pieces) or "0"


def ref_render_chain(chain: Chain) -> str:
    return _ref_signed_sum((coeff, "*[" + ",".join(map(str, word)) + "]" if word else "")
                           for word, coeff in chain.iter_terms())


def ref_render_tensor(chain: Chain) -> str:
    terms = sorted(chain.terms.items(), key=lambda kv: (kv[0][-1], kv[0][:-1]))
    return _ref_signed_sum((coeff, "*([" + ",".join(map(str, word[:-1])) + f"] (x) {word[-1]})")
                           for word, coeff in terms)


FIELDS = (None, 5)
COEFFS = (1, -1, 2, -7, 10, Fraction(1, 2), Fraction(-3, 4), Fraction(22, 7))


def _random_chain(rng: random.Random, p: int, char, lengths, size: int) -> Chain:
    terms = {}
    for _ in range(size):
        word = tuple(rng.randint(1, p) for _ in range(rng.choice(lengths)))
        terms[word] = rng.choice(COEFFS)
    return Chain(p, terms, char)


@pytest.mark.parametrize("char", FIELDS)
@pytest.mark.parametrize("p", [1, 2, 9, 10, 12])
def test_renderers_match_the_join_based_reference(char, p):
    rng = random.Random(f"{p}:{char}")
    for lengths in ([0], [1], [2], [0, 1, 2, 3], list(range(1, 41)), [9, 10, 11, 40]):
        for size in (1, 2, 7, 30):
            chain = _random_chain(rng, p, char, lengths, size)
            assert render_chain(chain) == ref_render_chain(chain)
            if chain.terms and min(map(len, chain.terms)) >= 1:
                assert render_tensor(chain) == ref_render_tensor(chain)


@pytest.mark.parametrize("char", FIELDS)
def test_render_of_every_length_through_40(char):
    # one word of each length: every template is built and used once
    p = 12
    terms = {tuple((i * 5 + n) % p + 1 for i in range(n)): (-1) ** n * n for n in range(41)}
    chain = Chain(p, terms, char)
    assert render_chain(chain) == ref_render_chain(chain)
    del terms[()]
    chain = Chain(p, terms, char)
    assert render_tensor(chain) == ref_render_tensor(chain)


def test_render_edge_cases():
    assert render_chain(Chain(3, {(): 2})) == "2"
    assert render_chain(Chain(3, {(): Fraction(-1, 3), (3,): 1})) == "-1/3 + 1*[3]"
    assert render_chain(Chain(12, {(12, 10, 1): 1})) == "1*[12,10,1]"
    assert render_tensor(Chain(3, {(2,): -1, (1,): 1})) == "1*([] (x) 1) - 1*([] (x) 2)"
    assert render_tensor(Chain(12, {(11, 12): Fraction(1, 2)})) == "1/2*([11] (x) 12)"
    assert render_chain(Chain(12, {}, 5)) == render_tensor(Chain(12, {}, 5)) == "0"


def test_render_tensor_with_mixed_lengths_keeps_the_b_u_order():
    # by word (1,2,1,2) comes first; by (b, u) [1,2] (x) 2 does
    chain = Chain(2, {(1, 2, 1, 2): 1, (1, 2, 2): -1})
    assert render_tensor(chain) == "-1*([1,2] (x) 2) + 1*([1,2,1] (x) 2)"
    chain = Chain(3, {(1, 3): 2, (1,): 1, (1, 2, 3): -1, (2, 3, 1): -1})
    assert render_tensor(chain) == (
        "1*([] (x) 1) - 1*([2,3] (x) 1) + 2*([1] (x) 3) - 1*([1,2] (x) 3)")


@pytest.mark.parametrize("char", FIELDS)
@pytest.mark.parametrize("lengths", [[1], [1, 2], [3, 4], [7, 8], [1, 5, 9]])
def test_render_tensor_mixed_lengths_where_word_order_differs(char, lengths):
    # each word u.b comes with u.x.b for a letter x < b, which sorts before
    # it by word and after it by (b, u)
    rng = random.Random(f"mixed:{lengths}:{char}")
    for size in (1, 4, 20, 60):
        terms = {}
        for _ in range(size):
            word = tuple(rng.randint(1, 4) for _ in range(rng.choice(lengths) - 1))
            b = rng.randint(2, 4)
            # no coefficient here vanishes mod 5, so every word stays
            terms[word + (b,)] = rng.choice((1, -7, Fraction(1, 2)))
            terms[word + (rng.randint(1, b - 1), b)] = rng.choice((-1, 2, Fraction(22, 7)))
        chain = Chain(4, terms, char)
        words = sorted(chain.terms)
        words.sort(key=lambda w: w[-1])
        assert words != sorted(chain.terms, key=lambda w: (w[-1], w[:-1]))
        assert render_tensor(chain) == ref_render_tensor(chain)


@pytest.mark.parametrize("char", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_render_tensor_one_length_matches_the_reference(char, n):
    rng = random.Random(f"one:{n}:{char}")
    for size in (1, 3, 40, 200):
        chain = _random_chain(rng, 4, char, [n], size)
        assert render_tensor(chain) == ref_render_tensor(chain)


words = st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=14).map(tuple)
coeffs = st.one_of(st.integers(min_value=-30, max_value=30),
                   st.fractions(min_value=-9, max_value=9, max_denominator=12)
                   .filter(lambda c: c.denominator % 5))  # each has a residue mod 5


@given(st.dictionaries(words, coeffs, max_size=12), st.sampled_from(FIELDS))
def test_renderers_match_on_random_chains(terms, char):
    chain = Chain(12, terms, char)
    assert render_chain(chain) == ref_render_chain(chain)
    assert render_tensor(chain) == ref_render_tensor(chain)
    assert parse_chain(render_chain(chain), 12, char) == chain


@pytest.mark.parametrize("word", [(1, 2, 3, 4, 1, 2, 3, 4), (4, 3, 3, 1, 2, 4, 1, 2),
                                  (1, 1, 2, 2, 1, 2, 3)])
def test_class_renderings_match_the_reference(word):
    chain = Chain(4, {word: Fraction(2, 3), word[::-1]: -1})
    image = canonical_prime(chain).image
    assert render_tensor(image) == ref_render_tensor(image)
    lie = canonical_l(chain).chain
    assert render_chain(lie) == ref_render_chain(lie)


def _ref_divided(terms, scale):
    return {k: Fraction(v, scale) for k, v in terms.items()}


@pytest.mark.parametrize("scale", [1, 2, 3, 12, 840])
def test_divided_matches_one_fraction_per_term(scale):
    rng = random.Random(scale)
    for _ in range(20):
        terms = {(i,): rng.choice((-scale, scale, 2 * scale, 1, -1, 5, 7 * scale + 1))
                 for i in range(rng.randint(0, 12))}
        out = divided(terms, scale)
        assert out == _ref_divided(terms, scale)
        for k, v in terms.items():
            # an int wherever the quotient is integral
            assert type(out[k]) is (int if v % scale == 0 else Fraction)


def test_divided_shares_nothing_between_calls():
    # the same words over new numerators and scales: nothing kept from before
    a = divided({(1,): 3, (2,): 3, (3,): -3}, 6)
    b = divided({(1,): 5, (2,): 3, (3,): 6}, 6)
    c = divided({(1,): 5, (2,): 3, (3,): 6}, 4)
    assert a == {(1,): Fraction(1, 2), (2,): Fraction(1, 2), (3,): Fraction(-1, 2)}
    assert b == {(1,): Fraction(5, 6), (2,): Fraction(1, 2), (3,): 1}
    assert c == {(1,): Fraction(5, 4), (2,): Fraction(3, 4), (3,): Fraction(3, 2)}
    assert type(b[(3,)]) is int


def test_divided_over_a_residue_field():
    assert divided({(1,): 3, (2,): 10, (3,): -1}, 2, 5) == {(1,): 4, (3,): 2}
    with pytest.raises(ZeroDivisionError):
        divided({}, 10, 5)


def test_cleared_integer_terms_are_fresh_and_over_scale_one():
    terms = {(1,): 3, (2,): 0, (1, 2): -4}
    out, scale = cleared(terms)
    assert (out, scale) == ({(1,): 3, (1, 2): -4}, 1)
    out[(1,)] = 99  # the row reduction mutates what it is given
    assert terms == {(1,): 3, (2,): 0, (1, 2): -4}
    out, scale = cleared({(1,): Fraction(1, 2), (2,): Fraction(2, 3), (3,): 5})
    assert (out, scale) == ({(1,): 3, (2,): 4, (3,): 30}, 6)
    assert cleared({(1,): Fraction(4, 2)}) == ({(1,): 2}, 1)
    assert cleared({(1,): 7, (2,): Fraction(1, 2)}, 5) == ({(1,): 2, (2,): 3}, 1)


def test_accumulate_drops_a_zero_on_an_absent_key():
    out = {(1,): 2}
    assert accumulate([((2,), 0)], out) is out and out == {(1,): 2}
    assert accumulate([((2,), 5)], out, 0) == {(1,): 2}
    assert accumulate([((1,), 1), ((3,), 0)], out, -2) == {}
    assert accumulate([((3,), 0)]) == {}


def test_accumulate_scales_every_pair():
    out = accumulate([((1,), 1), ((2,), Fraction(1, 2))], {(1,): 3}, -3)
    assert out == {(2,): Fraction(-3, 2)}


def _ref_linear_image(terms, word_map):
    out = {}
    for word, coeff in terms.items():
        for w, c in word_map(word).items():
            accumulate([(w, coeff * c)], out)
    return out


@pytest.mark.parametrize("char", [None, 3, 5])
def test_linear_image_matches_a_termwise_sum(char):
    rng = random.Random(f"image:{char}")
    maps = (eta_word, _g_image_scaled, lambda w: fold_l_word(3, w))
    for word_map in maps:
        for _ in range(15):
            p, n = rng.randint(2, 3), rng.randint(3, 6)
            terms = {tuple(rng.randint(1, p) for _ in range(n)): rng.choice((1, -1, 2, 4))
                     for _ in range(rng.randint(1, 6))}
            chain = Chain(p, terms, char)
            integer_terms, _ = cleared(chain.terms, char)
            assert (linear_image(integer_terms, word_map)
                    == _ref_linear_image(integer_terms, word_map))


def _relation(word, move):
    """move(word) - word: a relation of the move's quotient, as integer terms."""
    return accumulate([(word, -1)], dict(move(word)))


def test_linear_image_of_terms_whose_images_cancel():
    # eta kills every left relation and the g-image every primed one, and
    # below the top index a left relation is a primed one
    rng = random.Random("cancel")
    for n in (3, 4, 5, 6):
        for _ in range(5):
            w = tuple(rng.randint(1, 3) for _ in range(n))
            k = rng.randint(2, n - 1)
            left = _relation(w, lambda v: fold_l_word(k, v))
            primed = _relation(w, lambda v: {v[::-1]: (-1) ** n})
            for terms, word_map in ((left, eta_word), (primed, _g_image_scaled),
                                    (accumulate(left.items(), dict(primed), 3), _g_image_scaled)):
                for coeff in (1, -2, 7):
                    scaled = {v: coeff * c for v, c in terms.items()}
                    assert linear_image(scaled, word_map) == {}
                    assert _ref_linear_image(scaled, word_map) == {}
    # (-1)^(n-1) eta / n is idempotent
    lie = eta_word((1, 2, 1, 3))
    assert linear_image(lie, eta_word) == {w: -4 * c for w, c in lie.items()}
    assert linear_image({}, eta_word) == {}
    # the first word's image is a copy: the memoized image is left as it was
    before = dict(eta_word((2, 1, 3)))
    linear_image({(2, 1, 3): 5, (3, 1, 2): 1}, eta_word)
    assert eta_word((2, 1, 3)) == before


@pytest.mark.parametrize("char", [None, 5, 7])
def test_relations_have_zero_class_in_every_field(char):
    # over F_q, 4 (fold(w) - w) clears to residues whose integer image is
    # zero only once it is read mod q
    w = (1, 2, 3, 1, 2)
    for k in (2, 3, 5):
        chain = Chain(3, {v: 4 * c for v, c in _relation(w, lambda v: fold_l_word(k, v)).items()},
                      char)
        assert canonical_l(chain).chain.is_zero()
        assert render_chain(canonical_l(chain).chain) == "0"
    chain = Chain(3, {w: 4, w[::-1]: 4}, char)
    image = canonical_prime(chain).image
    assert image.is_zero() and render_tensor(image) == "0"
