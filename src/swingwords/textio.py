"""Text forms: the chain grammar, magma s-expressions, swing-word brackets,
and the tensor rendering.

Chain grammar:
    chain ::= term (("+"|"-") term)*
    term  ::= [coeff "*"] "[" letter ("," letter)* "]" | coeff
    coeff ::= ["-"] digits ["/" digits]
A bare coefficient is a multiple of the empty word. Rendering is canonical
(terms sorted by length then lexicographically, explicit coefficients), so
parse and render are mutually inverse on normal forms.
"""

from __future__ import annotations

import re

from .chains import Chain, Word, accumulate
from .moves import MagmaTerm
from .scalars import InputError, ModInt, coeff_str, make_coefficient


class ChainSyntaxError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+)|(?P<sym>[\[\],+\-*/]))")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            rest = self.text[self.pos:].strip()
            if rest:
                raise ChainSyntaxError(f"unexpected character {rest[0]!r}", self.pos)
            return None, self.pos
        return (m.group("num") or m.group("sym")), m.end()

    def next(self):
        tok, end = self.peek()
        if tok is not None:
            self.pos = end
        return tok


def parse_chain(text: str, p: int, char: int | None = None) -> Chain:
    """Parse the chain grammar into a normalized Chain over the alphabet 1..p."""
    tokens = _Tokens(text)
    terms: dict[Word, object] = {}
    sign = 1
    first = True
    while True:
        tok, _ = tokens.peek()
        if tok is None:
            if first:
                raise ChainSyntaxError("empty chain", tokens.pos)
            break
        if not first:
            if tok not in "+-":
                raise ChainSyntaxError(f"expected '+' or '-', got {tok!r}", tokens.pos)
            tokens.next()
            sign = 1 if tok == "+" else -1
        word, coeff = _parse_term(tokens, p, char)
        accumulate([(word, coeff if sign == 1 else -coeff)], terms)
        first = False
    return Chain(p, terms)


def _parse_term(tokens: _Tokens, p: int, char: int | None):
    tok, _ = tokens.peek()
    if tok == "[":
        return _parse_word(tokens, p), make_coefficient(1, char=char)
    coeff = _parse_coeff(tokens, char)
    tok, _ = tokens.peek()
    if tok == "*":
        tokens.next()
        return _parse_word(tokens, p), coeff
    return (), coeff


def _parse_coeff(tokens: _Tokens, char: int | None):
    sign = 1
    tok, _ = tokens.peek()
    if tok == "-":
        tokens.next()
        sign = -1
    tok, pos = tokens.peek()
    if tok is None or not tok.isdigit():
        raise ChainSyntaxError("expected a coefficient", tokens.pos)
    tokens.next()
    numerator = sign * int(tok)
    denominator = 1
    tok, _ = tokens.peek()
    if tok == "/":
        tokens.next()
        den, _ = tokens.peek()
        if den is None or not den.isdigit():
            raise ChainSyntaxError("expected a denominator", tokens.pos)
        tokens.next()
        denominator = int(den)
        if denominator == 0:
            raise ChainSyntaxError("zero denominator", tokens.pos)
    return make_coefficient(numerator, denominator, char)


def _parse_word(tokens: _Tokens, p: int) -> Word:
    tok, _ = tokens.peek()
    if tok != "[":
        raise ChainSyntaxError("expected '['", tokens.pos)
    tokens.next()
    letters = []
    while True:
        tok, _ = tokens.peek()
        if tok is None or not tok.isdigit():
            raise ChainSyntaxError("expected a letter", tokens.pos)
        tokens.next()
        letter = int(tok)
        if not 1 <= letter <= p:
            raise ChainSyntaxError(f"letter {letter} outside alphabet 1..{p}", tokens.pos)
        letters.append(letter)
        tok, _ = tokens.peek()
        if tok == ",":
            tokens.next()
            continue
        if tok == "]":
            tokens.next()
            return tuple(letters)
        raise ChainSyntaxError("expected ',' or ']'", tokens.pos)


def _abs_coeff(c):
    if isinstance(c, ModInt):
        return c, False
    return (-c, True) if c < 0 else (c, False)


def render_chain(chain: Chain) -> str:
    """Canonical text: sorted terms, explicit coefficients, '0' for zero."""
    if chain.is_zero():
        return "0"
    pieces = []
    for word, coeff in chain.iter_terms():
        mag, negative = _abs_coeff(coeff)
        body = coeff_str(mag)
        if word:
            body += "*[" + ",".join(str(a) for a in word) + "]"
        if not pieces:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


def render_tensor(tensor) -> str:
    """Flattened tensor text: coeff*([word] (x) letter) terms, '0' when zero."""
    if tensor.is_zero():
        return "0"
    pieces = []
    for (word, letter), coeff in tensor.iter_terms():
        mag, negative = _abs_coeff(coeff)
        body = f"{coeff_str(mag)}*([" + ",".join(str(a) for a in word) + f"] (x) {letter})"
        if not pieces:
            pieces.append(("-" if negative else "") + body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


def parse_magma(text: str) -> MagmaTerm:
    """Parse a magma s-expression: a leaf is a letter, a node is '(a b)'."""
    term, rest = _parse_magma(text.strip(), 0)
    if text[rest:].strip():
        raise InputError(f"trailing input after magma term: {text[rest:]!r}")
    return term


def _parse_magma(text: str, pos: int):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        raise InputError("unexpected end of magma term")
    if text[pos] == "(":
        left, pos = _parse_magma(text, pos + 1)
        right, pos = _parse_magma(text, pos)
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text) or text[pos] != ")":
            raise InputError(f"expected ')' at position {pos}")
        return (left, right), pos + 1
    m = re.match(r"\d+", text[pos:])
    if not m:
        raise InputError(f"expected a letter at position {pos}")
    return int(m.group()), pos + m.end()


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
        if not value.isdigit():
            raise InputError(f"degenerate swing word needs a single letter: {text!r}")
        return SwingWord(tail=int(value), beads=(), head=None, sign=sign)
    if len(parts) != 3:
        raise InputError(f"swing word needs 'tail | beads | head': {text!r}")
    tail_text, beads_text, head_text = (part.strip() for part in parts)
    if not tail_text.isdigit() or not head_text.isdigit():
        raise InputError(f"swing word tail and head must be letters: {text!r}")
    beads = []
    pos = 0
    while pos < len(beads_text):
        if beads_text[pos].isspace():
            pos += 1
            continue
        term, pos = _parse_magma(beads_text, pos)
        beads.append(term)
    return SwingWord(tail=int(tail_text), beads=tuple(beads), head=int(head_text), sign=sign)


def render_swingword(sw) -> str:
    prefix = "-" if sw.sign < 0 else ""
    if sw.head is None:
        return f"{prefix}<{sw.tail}>"
    beads = " ".join(render_magma(b) for b in sw.beads)
    return f"{prefix}<{sw.tail} | {beads} | {sw.head}>"
