import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from swingwords.chains import Chain
from swingwords.quotients import canonical_prime
from swingwords.scalars import InputError
from swingwords.textio import (ChainSyntaxError, parse_chain, parse_magma,
                               parse_swingword, render_chain, render_magma,
                               render_swingword, render_tensor)
from swingwords.trees import SwingWord


def test_parse_simple_difference():
    c = parse_chain("1*[1,2] - 1*[2,1]", 2)
    assert c == Chain(2, {(1, 2): 1, (2, 1): -1})


def test_parse_merges_terms():
    assert parse_chain("2*[1,2] + 3*[1,2]", 2) == Chain(2, {(1, 2): 5})


def test_parse_letter_out_of_range():
    with pytest.raises(ChainSyntaxError):
        parse_chain("[1,5]", 3)


def test_parse_fractions_and_bare_words():
    c = parse_chain("3*[1,2,1] - 1/2*[2,1,1]", 2)
    assert c.terms[(1, 2, 1)] == 3
    assert c.terms[(2, 1, 1)] == Fraction(-1, 2)
    assert parse_chain("[1]", 2) == Chain.of_word(2, (1,))


def test_parse_scalars_and_zero():
    assert parse_chain("3", 2) == Chain(2, {(): 3})
    assert parse_chain("0", 2).is_zero()
    assert parse_chain("-2/4", 2) == Chain(2, {(): Fraction(-1, 2)})


def test_parse_syntax_error_position():
    with pytest.raises(ChainSyntaxError) as err:
        parse_chain("1*[1,", 2)
    assert "position" in str(err.value)


def test_parse_residue_mode():
    c = parse_chain("1/2*[1] - 4*[2]", 2, char=5)
    assert c == Chain(2, {(1,): 3, (2,): 1}, 5)
    assert c.char == 5 and c.terms == {(1,): 3, (2,): 1}
    assert render_chain(c) == "3*[1] + 1*[2]"


def test_render_canonical_forms():
    c = Chain(2, {(1, 2): Fraction(-1, 2), (2, 1): 2, (): 1})
    assert render_chain(c) == "1 - 1/2*[1,2] + 2*[2,1]"
    assert render_chain(Chain.zero(2)) == "0"


words = st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=4).map(tuple)
coeffs = st.one_of(st.integers(min_value=-9, max_value=9),
                   st.fractions(min_value=-4, max_value=4, max_denominator=6))
chain_strategy = st.dictionaries(words, coeffs, max_size=5).map(lambda d: Chain(3, d))


@given(chain_strategy)
def test_parse_render_round_trip(c):
    assert parse_chain(render_chain(c), 3) == c


@given(chain_strategy)
def test_render_parse_render_fixed_point(c):
    text = render_chain(c)
    assert render_chain(parse_chain(text, 3)) == text


def test_magma_round_trip():
    term = ((1, (2, 3)), 2)
    assert parse_magma(render_magma(term)) == term
    assert parse_magma("3") == 3
    assert render_magma((1, 2)) == "(1 2)"
    with pytest.raises(InputError):
        parse_magma("(1")
    with pytest.raises(InputError):
        parse_magma("(1 2) 3")


def test_swingword_round_trip():
    sw = SwingWord(tail=1, beads=((2, 3), 1), head=4, sign=-1)
    text = render_swingword(sw)
    assert text == "-<1 | (2 3) 1 | 4>"
    assert parse_swingword(text) == sw
    assert parse_swingword("<1 |  | 2>") == SwingWord(tail=1, beads=(), head=2)
    assert parse_swingword("<3>") == SwingWord(tail=3, beads=(), head=None)
    with pytest.raises(InputError):
        parse_swingword("1 | 2 | 3")


@pytest.mark.parametrize("text, message", [
    ("   (1 x)", "expected a letter at position 6"),
    ("  (1 2", "expected ')' at position 6"),
    (" ((1 2) 3", "expected ')' at position 9"),
])
def test_parse_magma_reports_positions_in_the_text_as_given(text, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_magma(text)


@pytest.mark.parametrize("text, message", [
    ("<1 | (1 2) x | 2>", "expected a letter at position 11"),
    ("<1 | (1 2 | 2>", "expected ')' at position 10"),
    ("  - <1 |x| 2>", "expected a letter at position 8"),
    ("<1|(2 3) (1 ) |2>", "expected a letter at position 12"),
])
def test_parse_swingword_reports_bead_positions_in_the_text_as_given(text, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_swingword(text)


def test_tensor_render_format():
    image = canonical_prime(Chain.of_word(2, (1, 2))).image
    text = render_tensor(image)
    assert "(x)" in text and text.count("*([") == len(image.terms)
    assert render_tensor(canonical_prime(Chain.of_word(2, (1,))).image) == "0"


@pytest.mark.parametrize("q", [5, 1_000_000_007])
def test_characteristic_is_checked_once_per_parse(monkeypatch, q):
    import swingwords.scalars

    calls = []
    is_prime = swingwords.scalars.is_prime
    monkeypatch.setattr(swingwords.scalars, "is_prime",
                        lambda n: calls.append(n) or is_prime(n))

    def checks(terms):
        calls.clear()
        text = " + ".join(f"{k + 2}/3*[{1 + k % 2},{2 - k % 2},{k % 3 + 1}]"
                          for k in range(terms))
        parse_chain(text, 3, q)
        return len(calls)
    assert checks(50) == checks(1) <= 2
