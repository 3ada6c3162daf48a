"""Words over the alphabet 1..p and exact-coefficient formal sums of them.

A Word is a tuple of letters. A Chain is a finite map word -> coefficient over
the field it records, `char`: None for Q (int and Fraction coefficients) or an
odd prime q for F_q (int residues in 0..q-1). Zeros are pruned after every
step, so equality (of alphabet, field and terms) is exact equality of normal
forms; arithmetic that mixes two fields is refused. Chains are immutable and
every operation is a pure function, so concurrent evaluation on independent
inputs is safe and bit-identical to sequential evaluation.

`accumulate` is the one place that sums keyed coefficients and prunes zeros;
every linear map of the package (chain arithmetic, eta, the folds, bead
expansion, the tensor images, tree expansion) builds its result through it.
It scales each coefficient by its `scale` argument on the way in, so the
linear extension of a word map (`moves.linear_image`) copies the first
word's image times its coefficient into a new dict and adds every later
word's memoized image into that dict in place, with no scaled copy of it.
Those maps wrap their pruned terms over valid words with `Chain._make`, which
skips the checks that `Chain(p, terms, char)` applies to outside input. They
accumulate integers: coefficients are cleared to one scale on the way in and
divided once on the way out (`scalars.cleared`, `scalars.divided`).

Each kind of caller input has one check here, applied once where the input
enters the package: `check_word` for letters (a magma leaf and a tree label
pass their own noun for the message), `check_alphabet` for the alphabet
bound p, `check_degree` for a word length n, `check_multidegree` for
letter contents, and `check_integer` for any other integer argument, such
as a fold index or a suite size, whose range its caller tests. An integer
is an object of type int: `bool` is refused, since `True` is not the
letter 1.
The field's characteristic has its check in `scalars.check_characteristic`.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator, Mapping

from .scalars import InputError, check_characteristic, field_coefficient

Word = tuple[int, ...]
Multidegree = tuple[int, ...]

def check_word(word: Iterable[int], p: int, what: str = "letter") -> Word:
    """The word as a tuple, refused unless each letter is an int of 1..p;
    `what` names a letter in the message."""
    try:
        w = tuple(word)
    except TypeError:
        raise InputError(f"a word must be a sequence of letters, got {word!r}") from None
    for a in w:
        if type(a) is not int or not 1 <= a <= p:
            raise InputError(f"{what} {a!r} outside alphabet 1..{p}")
    return w


def check_integer(x: int, what: str) -> int:
    """An integer argument such as an index or a size, refused unless it is
    an int (so not a bool or a float); `what` names it in the message. The
    caller then tests its range, with a message of its own."""
    if type(x) is not int:
        raise InputError(f"{what} must be an integer, got {x!r}")
    return x


def _positive_int(x: int, what: str) -> int:
    if check_integer(x, what) < 1:
        raise InputError(f"{what} must be >= 1, got {x}")
    return x


def check_alphabet(p: int) -> int:
    """The alphabet bound, refused unless it is an int >= 1."""
    return _positive_int(p, "alphabet bound")


def check_degree(n: int) -> int:
    """A word length (degree), refused unless it is an int >= 1."""
    return _positive_int(n, "degree")


def check_multidegree(m: Iterable[int]) -> Multidegree:
    """The letter content as a tuple, refused unless it is nonempty and each
    entry is a non-negative int."""
    md = tuple(m)
    if not md or any(type(x) is not int or x < 0 for x in md):
        raise InputError(f"multidegree must be non-negative integers, got {m!r}")
    return md


def word_multidegree(word: Word, p: int) -> Multidegree:
    counts = [0] * p
    for a in word:
        counts[a - 1] += 1
    return tuple(counts)


def word_count(md) -> int:
    """The number of words with letter counts md: the multinomial
    (sum md)! / prod(m!), as a product of binomials with the largest part
    first, so each later factor is a small binomial."""
    total, count = 0, 1
    for x in sorted(md, reverse=True):
        total += x
        count *= comb(total, x)
    return count


def accumulate(pairs: Iterable[tuple[object, object]], out: dict | None = None,
               scale=1) -> dict:
    """Sum (key, scale * coefficient) pairs into `out`, dropping keys that
    reach zero."""
    if out is None:
        out = {}
    for key, coeff in pairs:
        acc = out.get(key, 0) + scale * coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


class Chain:
    """A finite formal sum of words with exact coefficients in Q (char None)
    or in F_q (char q)."""

    __slots__ = ("p", "terms", "char")

    def __init__(self, p: int, terms: Mapping[Word, object] | None = None,
                 char: int | None = None):
        check_alphabet(p)
        if char is not None:
            check_characteristic(char)
        self.p = p
        pruned = {}
        if terms:
            try:
                items = terms.items()
            except AttributeError:
                raise InputError("chain terms must be a mapping of words to "
                                 f"coefficients, got {type(terms).__name__}") from None
            for word, coeff in items:
                coeff = field_coefficient(coeff, char)
                if coeff:
                    pruned[check_word(word, p)] = coeff
        self.terms = pruned
        self.char = char

    @classmethod
    def _make(cls, p: int, terms: dict[Word, object], char: int | None = None) -> "Chain":
        """A chain over pruned terms in the field `char` whose words are already
        valid over 1..p."""
        chain = cls.__new__(cls)
        chain.p = p
        chain.terms = terms
        chain.char = char
        return chain

    def _in_field(self, terms: dict[Word, object]) -> "Chain":
        """Terms (pruned over Q, read mod q over F_q) as a chain in this field."""
        q = self.char
        if q is not None:
            terms = {w: r for w, c in terms.items() if (r := c % q)}
        return Chain._make(self.p, terms, q)

    @classmethod
    def zero(cls, p: int) -> "Chain":
        return cls(p, {})

    @classmethod
    def of_word(cls, p: int, word: Iterable[int], coeff=1) -> "Chain":
        return cls(p, {tuple(word): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def iter_terms(self) -> Iterator[tuple[Word, object]]:
        """Terms in the canonical order: by length, then lexicographically."""
        return iter(sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])))

    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def degree(self) -> int | None:
        """Common word length of a homogeneous chain; None for the zero chain."""
        lengths = {len(w) for w in self.terms}
        if not lengths:
            return None
        if len(lengths) > 1:
            raise InputError("chain is not homogeneous")
        return lengths.pop()

    def multidegree(self) -> Multidegree | None:
        mds = {word_multidegree(w, self.p) for w in self.terms}
        if not mds:
            return None
        if len(mds) > 1:
            raise InputError("chain is not multidegree-homogeneous")
        return mds.pop()

    def _check_compatible(self, other: "Chain") -> None:
        if not isinstance(other, Chain):
            raise InputError(f"expected a Chain, got {type(other).__name__}")
        if self.p != other.p:
            raise InputError(f"mismatched alphabet bounds {self.p} and {other.p}")
        if self.char != other.char:
            raise InputError("mixed residue characteristics")

    def __add__(self, other: "Chain") -> "Chain":
        self._check_compatible(other)
        return self._in_field(accumulate(other.terms.items(), dict(self.terms)))

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __neg__(self) -> "Chain":
        return self._in_field({w: -c for w, c in self.terms.items()})

    def scale(self, coeff) -> "Chain":
        """coeff times the chain; by 1 it is the chain itself, by -1 over Q a
        termwise negation, the two signs every move comparison scales by."""
        coeff = field_coefficient(coeff, self.char)
        if coeff == 1:
            return self
        if coeff == -1:  # over Q: a residue is never negative
            return Chain._make(self.p, {w: -c for w, c in self.terms.items()})
        return self._in_field({w: v for w, c in self.terms.items() if (v := coeff * c)})

    def __mul__(self, other: "Chain") -> "Chain":
        """Concatenation product, extended bilinearly; the empty word is 1."""
        self._check_compatible(other)
        return self._in_field(accumulate((w1 + w2, c1 * c2)
                                         for w1, c1 in self.terms.items()
                                         for w2, c2 in other.terms.items()))

    def reverse(self) -> "Chain":
        return Chain._make(self.p, {w[::-1]: c for w, c in self.terms.items()}, self.char)

    def coefficient(self, word: Iterable[int]):
        return self.terms.get(tuple(word), 0)

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self.p == other.p and self.char == other.char and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, self.char, frozenset(self.terms.items())))

    def __repr__(self):
        from .textio import render_chain

        field = "" if self.char is None else f", char={self.char}"
        return f"Chain({self.p}, {render_chain(self)!r}{field})"


def concat(a: Chain, b: Chain) -> Chain:
    """Concatenation product of two chains over the same alphabet."""
    return a * b


def reverse(value):
    """Reverse a word, or a chain termwise."""
    if isinstance(value, Chain):
        return value.reverse()
    return tuple(value)[::-1]
