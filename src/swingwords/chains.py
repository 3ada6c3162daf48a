"""Words over the alphabet 1..p and exact-coefficient formal sums of them.

A Word is a tuple of letters. A Chain is a finite map word -> coefficient with
zero coefficients pruned after every arithmetic step, so equality of chains is
exact equality of normal forms. Chains are immutable after construction and
every operation is a pure function, so concurrent evaluation on independent
inputs is safe and bit-identical to sequential evaluation.

`accumulate` is the one place that sums keyed coefficients and prunes zeros;
every linear map of the package (chain arithmetic, eta, the folds, bead
expansion, the tensor images, tree expansion) builds its result through it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .scalars import InputError

Word = tuple[int, ...]
Multidegree = tuple[int, ...]

EMPTY_WORD: Word = ()


def check_word(word: Iterable[int], p: int) -> Word:
    w = tuple(word)
    for a in w:
        if not isinstance(a, int) or not 1 <= a <= p:
            raise InputError(f"letter {a!r} outside alphabet 1..{p}")
    return w


def word_multidegree(word: Word, p: int) -> Multidegree:
    counts = [0] * p
    for a in word:
        counts[a - 1] += 1
    return tuple(counts)


def reverse_word(word: Word) -> Word:
    return word[::-1]


def accumulate(pairs: Iterable[tuple[object, object]], out: dict | None = None) -> dict:
    """Sum (key, coefficient) pairs into `out`, dropping keys that reach zero."""
    if out is None:
        out = {}
    for key, coeff in pairs:
        acc = out.get(key, 0) + coeff
        if acc:
            out[key] = acc
        else:
            out.pop(key, None)
    return out


class Chain:
    """A finite formal sum of words with exact field coefficients."""

    __slots__ = ("p", "terms", "_frozen")

    def __init__(self, p: int, terms: Mapping[Word, object] | None = None):
        if p < 1:
            raise InputError(f"alphabet bound must be >= 1, got {p}")
        self.p = p
        pruned = {}
        if terms:
            for word, coeff in terms.items():
                if coeff:
                    pruned[check_word(word, p)] = coeff
        self.terms = pruned
        self._frozen = None

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

    def frozen(self) -> tuple:
        if self._frozen is None:
            self._frozen = tuple(self.iter_terms())
        return self._frozen

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

    def __add__(self, other: "Chain") -> "Chain":
        self._check_compatible(other)
        return Chain(self.p, accumulate(other.terms.items(), dict(self.terms)))

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def __neg__(self) -> "Chain":
        return Chain(self.p, {w: -c for w, c in self.terms.items()})

    def scale(self, coeff) -> "Chain":
        if not coeff:
            return Chain.zero(self.p)
        return Chain(self.p, {w: coeff * c for w, c in self.terms.items()})

    def __mul__(self, other: "Chain") -> "Chain":
        """Concatenation product, extended bilinearly; the empty word is 1."""
        self._check_compatible(other)
        return Chain(self.p, accumulate((w1 + w2, c1 * c2) for w1, c1 in self.terms.items()
                                        for w2, c2 in other.terms.items()))

    def reverse(self) -> "Chain":
        return Chain(self.p, {w[::-1]: c for w, c in self.terms.items()})

    def coefficient(self, word: Iterable[int]):
        return self.terms.get(tuple(word), 0)

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        return self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, self.frozen()))

    def __repr__(self):
        from .textio import render_chain

        return f"Chain({self.p}, {render_chain(self)!r})"


def concat(a: Chain, b: Chain) -> Chain:
    """Concatenation product of two chains over the same alphabet."""
    return a * b


def reverse(value):
    """Reverse a word, or a chain termwise."""
    if isinstance(value, Chain):
        return value.reverse()
    return reverse_word(tuple(value))
