"""Text forms: the chain grammar, magma s-expressions, swing-word brackets,
and the tensor rendering of a tensor image (a chain of words u.b read as
u (x) b; see `quotients`).

Chain grammar:
    chain ::= term (("+"|"-") term)*
    term  ::= [coeff "*"] "[" letter ("," letter)* "]" | coeff
    coeff ::= ["-"] digits ["/" digits]
A bare coefficient is a multiple of the empty word. Rendering is canonical
(terms sorted by length then lexicographically, explicit coefficients), so
parse and render are mutually inverse on normal forms.

Reading a chain: each well-formed term, together with the sign or the end of
text that follows it, is read by one match of `_TERM` at the current
position; its letters come from one split on "," and a range check. Because
the match must end at a sign or at the end of the text, a bare coefficient
followed by "*" or "/" ("2*") and a digit run cut short ("14*01") fail to
match instead of being misread. At the first text the pattern does not
match, at a letter outside the alphabet, at a zero denominator and at a
number longer than the interpreter converts to an int, the rest of the text
goes to the token reader `_Tokens`, one token at a time. It is the one place
that names an error and its position, and it reads any well-formed text it
is given, so the result never depends on where the match stopped. The
residue characteristic is checked once, before the first term.
"""

from __future__ import annotations

import re
import sys

from .chains import Chain, Word, accumulate
from .moves import MagmaTerm
from .scalars import InputError, check_characteristic, make_coefficient


class ChainSyntaxError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# groups: sign of the coefficient, numerator, denominator, letters after a
# coefficient, letters of a bare word, then the sign of the next term or ""
_TERM = re.compile(r"""\s*(?:
    (-)?\s*(\d+)(?:\s*/\s*(\d+))?(?:\s*\*\s*\[([\d\s,]+)\])?
  | \[([\d\s,]+)\]
  )\s*([+-]|\Z)""", re.VERBOSE)
_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<sym>[\[\],+\-*/]))")
_SPACES = re.compile(r"\s*")
_LETTER = re.compile(r"\d+")


def _int(digits: str, what: str, position: int | None = None) -> int:
    """int(digits), refusing a number longer than the interpreter converts,
    at `position` if it is given."""
    try:
        return int(digits)
    except ValueError:
        message = (f"{what} has {len(digits)} digits; at most "
                   f"{sys.get_int_max_str_digits()} are read")
        raise (InputError(message) if position is None
               else ChainSyntaxError(message, position)) from None


class _Tokens:
    """The tokens of a text from position `pos` on: `peek` at the next one,
    or take it with `next`, `accept` or `number`."""

    def __init__(self, text: str, pos: int = 0):
        self.text = text
        self.pos = pos

    def _match(self) -> tuple[str | None, int]:
        """The next token and its end; None and `pos` at the end of the text."""
        m = _TOKEN.match(self.text, self.pos)
        if m is not None:
            return m.group("num") or m.group("sym"), m.end()
        rest = self.text[self.pos:].strip()
        if rest:
            raise ChainSyntaxError(f"unexpected character {rest[0]!r}", self.pos)
        return None, self.pos

    def peek(self):
        return self._match()[0]

    def next(self):
        tok, self.pos = self._match()
        return tok

    def accept(self, sym: str) -> bool:
        """Take the next token if it is `sym`."""
        if self.peek() != sym:
            return False
        self.next()
        return True

    def number(self, what: str) -> int:
        """Take the next token as a number, or refuse with 'expected <what>'."""
        tok = self.peek()
        if tok is None or not tok.isdigit():
            raise ChainSyntaxError(f"expected {what}", self.pos)
        value = _int(tok, what, self.pos)
        self.next()
        return value


def parse_chain(text: str, p: int, char: int | None = None) -> Chain:
    """Parse the chain grammar into a normalized Chain over the alphabet 1..p."""
    if char is not None:
        check_characteristic(char)
    pairs = []
    pos, sign = 0, 1
    while m := _TERM.match(text, pos):
        neg, num, den, letters, bare, sep = m.groups()
        letters = letters or bare
        try:
            # from a list, so the tuple is allocated at its size: words live
            # on as memo keys, and tuple(map(...)) starts at 10 slots and may
            # keep that block when it shrinks
            word = () if letters is None else tuple([*map(int, letters.split(","))])
            if num is not None:
                numerator = -int(num) if neg else int(num)
                denominator = int(den) if den else 1
        except ValueError:  # an empty letter, two numbers in one, or a number
            break           # longer than the interpreter converts
        if word and (min(word) < 1 or max(word) > p):
            break
        if num is None:
            coeff = 1
        elif not denominator:
            break
        else:
            coeff = (numerator if den is None and char is None
                     else make_coefficient(numerator, denominator, char))
        pairs.append((word, coeff if sign == 1 else -coeff))
        if not sep:
            return Chain(p, accumulate(pairs), char)
        pos, sign = m.end(), 1 if sep == "+" else -1
    _read_tokens(_Tokens(text, pos), p, char, pairs, sign)
    return Chain(p, accumulate(pairs), char)


def _read_tokens(tokens: _Tokens, p: int, char: int | None, pairs: list, sign: int) -> None:
    """Read the rest of a chain token by token, appending its signed terms to
    `pairs`; `sign` is the sign already read before the next term."""
    if tokens.pos == 0 and tokens.peek() is None:
        raise ChainSyntaxError("empty chain", tokens.pos)
    while True:
        word, coeff = _parse_term(tokens, p, char)
        pairs.append((word, coeff if sign == 1 else -coeff))
        tok = tokens.peek()
        if tok is None:
            return
        if tok not in "+-":
            raise ChainSyntaxError(f"expected '+' or '-', got {tok!r}", tokens.pos)
        sign = 1 if tokens.next() == "+" else -1


def _parse_term(tokens: _Tokens, p: int, char: int | None):
    if tokens.peek() == "[":
        return _parse_word(tokens, p), 1
    coeff = _parse_coeff(tokens, char)
    return (_parse_word(tokens, p) if tokens.accept("*") else ()), coeff


def _parse_coeff(tokens: _Tokens, char: int | None):
    sign = -1 if tokens.accept("-") else 1
    numerator = sign * tokens.number("a coefficient")
    denominator = 1
    if tokens.accept("/"):
        denominator = tokens.number("a denominator")
        if denominator == 0:
            raise ChainSyntaxError("zero denominator", tokens.pos)
    return make_coefficient(numerator, denominator, char)


def _parse_word(tokens: _Tokens, p: int) -> Word:
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


def _signed_sum(terms) -> str:
    """Join (coefficient, suffix) terms as 'c1*x - c2*y + ...', the first sign
    attached and later ones spaced; '0' when there are no terms."""
    pieces = []
    for coeff, suffix in terms:
        text = str(coeff)  # the sign comes off the text: no comparison, no negation
        if text[0] == "-":
            pieces.append(("- " if pieces else "-") + text[1:] + suffix)
        else:
            pieces.append(("+ " if pieces else "") + text + suffix)
    return " ".join(pieces) or "0"


def render_chain(chain: Chain) -> str:
    """Canonical text: sorted terms, explicit coefficients, '0' for zero."""
    return _signed_sum((coeff, "*[" + ",".join(map(str, word)) + "]" if word else "")
                       for word, coeff in chain.iter_terms())


def render_tensor(chain: Chain) -> str:
    """Tensor text of a tensor image: each word u.b of the chain is the term
    u (x) b, printed as coeff*([u] (x) b) and ordered by (b, u); '0' when zero.
    This is the one place that splits the last letter off again."""
    terms = sorted(chain.terms.items(), key=lambda kv: (kv[0][-1], kv[0][:-1]))
    return _signed_sum((coeff, "*([" + ",".join(map(str, word[:-1])) + f"] (x) {word[-1]})")
                       for word, coeff in terms)


def parse_magma(text: str) -> MagmaTerm:
    """Parse a magma s-expression: a leaf is a letter, a node is '(a b)'."""
    term, rest = _parse_magma(text.strip(), 0)
    if text[rest:].strip():
        raise InputError(f"trailing input after magma term: {text[rest:]!r}")
    return term


def _parse_magma(text: str, pos: int):
    pos = _SPACES.match(text, pos).end()
    if pos >= len(text):
        raise InputError("unexpected end of magma term")
    if text[pos] == "(":
        left, pos = _parse_magma(text, pos + 1)
        right, pos = _parse_magma(text, pos)
        pos = _SPACES.match(text, pos).end()
        if pos >= len(text) or text[pos] != ")":
            raise InputError(f"expected ')' at position {pos}")
        return (left, right), pos + 1
    m = _LETTER.match(text, pos)
    if not m:
        raise InputError(f"expected a letter at position {pos}")
    return _int(m.group(), "a letter", pos), m.end()


def render_magma(term: MagmaTerm) -> str:
    if isinstance(term, int):
        return str(term)
    return f"({render_magma(term[0])} {render_magma(term[1])})"


def parse_swingword(text: str):
    """Parse '<tail | bead bead ... | head>'; '<letter>' is the degenerate
    single-letter form. An optional leading '-' flips the sign."""
    from .trees import SwingWord

    body = text.strip()
    sign = 1
    while body and body[0] in "+-":
        if body[0] == "-":
            sign = -sign
        body = body[1:].lstrip()
    if not (body.startswith("<") and body.endswith(">")):
        raise InputError(f"swing word must be wrapped in <...>: {text!r}")
    inner = body[1:-1]
    parts = inner.split("|")
    if len(parts) == 1:
        value = parts[0].strip()
        if not value.isdecimal():
            raise InputError(f"degenerate swing word needs a single letter: {text!r}")
        return SwingWord(tail=_int(value, "the letter"), beads=(), head=None, sign=sign)
    if len(parts) != 3:
        raise InputError(f"swing word needs 'tail | beads | head': {text!r}")
    tail_text, beads_text, head_text = (part.strip() for part in parts)
    if not tail_text.isdecimal() or not head_text.isdecimal():
        raise InputError(f"swing word tail and head must be letters: {text!r}")
    beads = []
    pos = 0
    while pos < len(beads_text):  # stripped, so a term follows any space
        term, pos = _parse_magma(beads_text, pos)
        beads.append(term)
    return SwingWord(tail=_int(tail_text, "the tail"), beads=tuple(beads),
                     head=_int(head_text, "the head"), sign=sign)


def render_swingword(sw) -> str:
    prefix = "-" if sw.sign < 0 else ""
    if sw.head is None:
        return f"{prefix}<{sw.tail}>"
    beads = " ".join(render_magma(b) for b in sw.beads)
    return f"{prefix}<{sw.tail} | {beads} | {sw.head}>"
