"""The chain reader against the token-by-token reader it replaced.

`textio.parse_chain` reads each well-formed term with one regex match and
hands the rest of the text to the token reader at the first thing the match
does not take. The reference below is the earlier reader, which took every
term one token at a time. On every text, over Q and over F_5, both must give
the same chain, with the same coefficient types, or raise the same exception
with the same message and position.
"""

from hypothesis import given, settings, strategies as st
import pytest

from swingwords.chains import Chain, accumulate
from swingwords.scalars import make_coefficient
from swingwords.textio import ChainSyntaxError, _TOKEN, parse_chain

P = 3
FIELDS = (None, 5)


class _RefTokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self._peeked = (-1, None, 0)

    def peek(self):
        if self._peeked[0] != self.pos:
            m = _TOKEN.match(self.text, self.pos)
            if m is None:
                rest = self.text[self.pos:].strip()
                if rest:
                    raise ChainSyntaxError(f"unexpected character {rest[0]!r}", self.pos)
                self._peeked = (self.pos, None, self.pos)
            else:
                self._peeked = (self.pos, m.group("num") or m.group("sym"), m.end())
        return self._peeked[1]

    def next(self):
        tok = self.peek()
        self.pos = self._peeked[2]
        return tok

    def accept(self, sym):
        if self.peek() != sym:
            return False
        self.next()
        return True

    def number(self, what):
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ChainSyntaxError(f"expected {what}", self.pos)
        self.next()
        return int(tok)


def ref_parse_chain(text, p, char=None):
    tokens = _RefTokens(text)
    if tokens.peek() is None:
        raise ChainSyntaxError("empty chain", tokens.pos)
    terms = {}
    sign = 1
    while True:
        word, coeff = _ref_term(tokens, p, char)
        accumulate([(word, coeff if sign == 1 else -coeff)], terms)
        tok = tokens.peek()
        if tok is None:
            return Chain(p, terms, char)
        if tok not in "+-":
            raise ChainSyntaxError(f"expected '+' or '-', got {tok!r}", tokens.pos)
        sign = 1 if tokens.next() == "+" else -1


def _ref_term(tokens, p, char):
    if tokens.peek() == "[":
        return _ref_word(tokens, p), 1
    sign = -1 if tokens.accept("-") else 1
    numerator = sign * tokens.number("a coefficient")
    denominator = 1
    if tokens.accept("/"):
        denominator = tokens.number("a denominator")
        if denominator == 0:
            raise ChainSyntaxError("zero denominator", tokens.pos)
    coeff = make_coefficient(numerator, denominator, char)
    return (_ref_word(tokens, p) if tokens.accept("*") else ()), coeff


def _ref_word(tokens, p):
    if not tokens.accept("["):
        raise ChainSyntaxError("expected '['", tokens.pos)
    letters = []
    while True:
        letter = tokens.number("a letter")
        if not 1 <= letter <= p:
            raise ChainSyntaxError(f"letter {letter} outside alphabet 1..{p}", tokens.pos)
        letters.append(letter)
        if tokens.accept("]"):
            return tuple(letters)
        if not tokens.accept(","):
            raise ChainSyntaxError("expected ',' or ']'", tokens.pos)


def _outcome(parse, text, char):
    try:
        chain = parse(text, P, char)
    except Exception as exc:  # both readers must refuse alike
        return type(exc), str(exc)
    return chain.p, chain.char, {w: (type(c), c) for w, c in chain.terms.items()}


def _assert_same(text):
    for char in FIELDS:
        assert _outcome(parse_chain, text, char) == _outcome(ref_parse_chain, text, char), \
            (text, char)


TOKENS = ("0", "1", "2", "3", "4", "10", "[", "]", ",", "+", "-", "*", "/",
          " ", "\t", "٣", "x")
_noise = st.lists(st.sampled_from(TOKENS), max_size=24).map("".join)

# mostly well-formed chains, so that the one-match path is exercised too
_space = st.sampled_from(("", "", " ", "\t"))
_number = st.sampled_from(("0", "1", "2", "3", "10", "٣", "007"))
_letters = st.lists(st.sampled_from(("1", "2", "3", "4", "0", "٣", "")),
                    min_size=1, max_size=4)
_word = st.builds(lambda a, ls, b: "[" + a + ",".join(ls) + b + "]", _space, _letters, _space)
_coeff = st.builds(lambda neg, num, den: neg + num + den,
                   st.sampled_from(("", "", "-", "- ")), _number,
                   st.sampled_from(("", "", "/2", " / 3", "/0", "/10")))
_term = st.one_of(_word, _coeff,
                  st.builds(lambda c, s, w: c + s + "*" + s + w, _coeff, _space, _word))
_chain = st.builds(
    lambda first, rest, tail: first + "".join(sep + term for sep, term in rest) + tail,
    _term, st.lists(st.tuples(st.sampled_from((" + ", " - ", "-", "+", " -- ")), _term),
                    max_size=4),
    st.sampled_from(("",) * 6 + tuple(TOKENS)))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_noise, _chain))
def test_parse_chain_matches_token_reader(text):
    _assert_same(text)


# a one-match reader that lets a bare coefficient be followed by "*" or "/",
# or lets a digit run be cut short, misreads the first five; the rest pin each
# way the match hands the text over to the token reader
@pytest.mark.parametrize("text", ["2*", "2 * ", "14*01", "0310*", "1*[1,2", "2/3/4",
                                  "1/0*[1]", "[1]x", "3*[1] + ", "", " \t ", "-[1]",
                                  "[1] -- 2/4", "[ 1 , 2 ]", "[1 2]", "[]", "[1,]",
                                  "٣*[٣,1]", "10/10*[3]", "2*[1,4]", "[0]", "[1] - 1/10"])
def test_parse_chain_pinned_cases(text):
    _assert_same(text)
