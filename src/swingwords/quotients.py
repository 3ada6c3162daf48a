"""Canonical forms in the two fold-move quotients and the exact-sequence maps.

The left-fold quotient of degree-n chains is decided by the idempotent
projector P_n = (-1)^(n-1) * eta / n: two chains are equivalent exactly when
their projections coincide. The primed quotient is decided by the tensor image
g(w) = g'(w) - g'(fold_l(n, w)) with g'(b1..bn) = canonical_l(b1..b_{n-1})
tensor bn; the letter is re-attached on the right by ell and by g_tilde.
Fold relations extend on the right (a relation times a suffix is again a
relation), which is what makes the prefix factor the canonicalizable one.

The relation spans materialize both move families as row-reduced blocks per
multidegree and serve as the independent equality oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Literal

from .chains import Chain, Multidegree, Word, accumulate, word_multidegree
from .linalg import RowSpace
from .moves import eta, eta_word, fold_l, fold_l_word, fold_prime_word
from .scalars import (InputError, ModInt, ResourceLimitError, check_characteristic,
                      invert_integer)

Family = Literal["l", "prime"]

DEFAULT_MAX_WORDS = 2_000_000

_SPAN_MEMO: dict[tuple, "RelationSpan"] = {}
_PRIME_IMAGE_MEMO: dict[Word, dict[tuple[Word, int], int]] = {}
_PRIME_IMAGE_MEMO_MAX_DEGREE = 7


@dataclass(frozen=True)
class LieCanonical:
    """Canonical representative of a chain in the left-fold quotient."""

    degree: int
    chain: Chain
    method: str = "dynkin"

    def is_zero(self) -> bool:
        return self.chain.is_zero()

    def __eq__(self, other):
        if not isinstance(other, LieCanonical):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.chain == other.chain

    def __hash__(self):
        if self.is_zero():
            return hash(())
        return hash((self.degree, self.chain))


class TensorElement:
    """An element of (degree n-1 Lie part) tensor (letters), stored flat.

    Terms are kept as a map (word, letter) -> coefficient over the words of the
    left factors; this embeds the tensor space into word-coordinates so that
    linear combinations merge exactly.
    """

    __slots__ = ("p", "degree", "terms")

    def __init__(self, p: int, degree: int, terms: dict[tuple[Word, int], object] | None = None):
        self.p = p
        self.degree = degree
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def zero(cls, p: int, degree: int) -> "TensorElement":
        return cls(p, degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def iter_terms(self):
        return iter(sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0])))

    def __add__(self, other: "TensorElement") -> "TensorElement":
        if not self.terms:
            return TensorElement(other.p, other.degree, other.terms)
        if not other.terms:
            return TensorElement(self.p, self.degree, self.terms)
        if self.p != other.p or self.degree != other.degree:
            raise InputError("mismatched tensor elements")
        return TensorElement(self.p, self.degree,
                             accumulate(other.terms.items(), dict(self.terms)))

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        return self + other.scale(-1)

    def scale(self, coeff) -> "TensorElement":
        if not coeff:
            return TensorElement.zero(self.p, self.degree)
        return TensorElement(self.p, self.degree, {k: coeff * v for k, v in self.terms.items()})

    def appended_chain(self) -> Chain:
        """The chain obtained by re-attaching each letter after its left factor."""
        return Chain(self.p, accumulate((word + (letter,), coeff)
                                        for (word, letter), coeff in self.terms.items()))

    def grouped(self) -> list[tuple[int, Chain]]:
        """Per-letter left-factor chains, for display and interop."""
        per_letter: dict[int, dict[Word, object]] = {}
        for (word, letter), coeff in self.terms.items():
            per_letter.setdefault(letter, {})[word] = coeff
        return [(b, Chain(self.p, terms)) for b, terms in sorted(per_letter.items())]

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        if not self.terms and not other.terms:
            return True
        return self.p == other.p and self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        if not self.terms:
            return hash(())
        return hash((self.p, self.degree, tuple(self.iter_terms())))

    def __repr__(self):
        from .textio import render_tensor

        return f"TensorElement({self.p}, {self.degree}, {render_tensor(self)!r})"


@dataclass(frozen=True)
class PrimeCanonical:
    """Canonical key of a chain in the primed-fold quotient: its g-image."""

    degree: int
    image: TensorElement

    def is_zero(self) -> bool:
        return self.image.is_zero()

    def __eq__(self, other):
        if not isinstance(other, PrimeCanonical):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.image == other.image

    def __hash__(self):
        if self.is_zero():
            return hash(())
        return hash((self.degree, self.image))


class RelationSpan:
    """Row-reduced span of the fold-move relations of one degree.

    Blocks are kept per multidegree (the moves preserve multidegrees), with
    words as column labels, so membership and rank queries stay small.
    """

    def __init__(self, degree: int, p: int, family: Family, char: int | None = None,
                 max_words: int = DEFAULT_MAX_WORDS):
        if degree < 1 or p < 1:
            raise InputError("degree and alphabet bound must be >= 1")
        if family not in ("l", "prime"):
            raise InputError(f"unknown relation family {family!r}")
        if char is not None:
            check_characteristic(char)
        if p ** degree > max_words:
            raise ResourceLimitError(
                f"{p}^{degree} = {p ** degree} words exceeds the bound {max_words}")
        self.degree = degree
        self.p = p
        self.family = family
        self.char = char
        self.blocks: dict[Multidegree, RowSpace] = {}
        fold_word = fold_l_word if family == "l" else fold_prime_word
        for word in product(range(1, p + 1), repeat=degree):
            md = word_multidegree(word, p)
            block = self.blocks.get(md)
            if block is None:
                block = self.blocks[md] = RowSpace(char)
            if degree == 1:
                if family == "prime":
                    block.insert({word: 1})
                continue
            for k in range(2, degree + 1):
                block.insert(accumulate([(word, -1)], dict(fold_word(k, word))))

    @property
    def rank(self) -> int:
        return sum(block.rank for block in self.blocks.values())

    def quotient_dim(self) -> int:
        return self.p ** self.degree - self.rank

    def basis_chains(self) -> list[Chain]:
        """The reduced relation basis as chains, in a deterministic order."""
        chains = []
        for md in sorted(self.blocks):
            for row in self.blocks[md].rows():
                chains.append(Chain(self.p, row))
        return chains

    def reduce(self, chain: Chain) -> Chain:
        """Normal form of a degree-homogeneous chain modulo the relations.

        Over F_q residue and rational coefficients are first mapped to their
        integer residues mod q, so every kind of chain reduces alike.
        """
        if chain.is_zero():
            return chain
        if chain.degree() != self.degree:
            raise InputError("chain degree does not match the relation span")
        per_md: dict[Multidegree, dict[Word, object]] = {}
        for word, coeff in chain.terms.items():
            if self.char is not None and not isinstance(coeff, int):
                coeff = (ModInt(0, self.char) + coeff).value
            per_md.setdefault(word_multidegree(word, self.p), {})[word] = coeff
        out: dict[Word, object] = {}
        for md, row in per_md.items():
            out.update(self.blocks[md].reduce(row))
        return Chain(self.p, out)

    def contains(self, chain: Chain) -> bool:
        return self.reduce(chain).is_zero()


def relation_span(degree: int, p: int, family: Family, char: int | None = None,
                  max_words: int = DEFAULT_MAX_WORDS) -> RelationSpan:
    """Memoized relation span; repeated requests return the same object."""
    key = (degree, p, family, char)
    span = _SPAN_MEMO.get(key)
    if span is None:
        span = RelationSpan(degree, p, family, char, max_words)
        _SPAN_MEMO[key] = span
    return span


def canonical_l(chain: Chain, char: int | None = None) -> LieCanonical:
    """Project a homogeneous chain onto its left-fold canonical representative.

    In characteristic zero (and whenever the characteristic does not divide the
    degree) this applies the idempotent projector; otherwise it falls back to
    normal-form reduction against the relation span and flags the result.
    """
    if not chain.is_homogeneous():
        raise InputError("canonical form requires a homogeneous chain")
    degree = chain.degree()
    if degree is None or degree == 0:
        return LieCanonical(degree or 0, chain)
    if char is not None and degree % char == 0:
        span = relation_span(degree, chain.p, "l", char)
        return LieCanonical(degree, span.reduce(chain), method="span")
    scale = invert_integer(degree if (degree - 1) % 2 == 0 else -degree, char)
    return LieCanonical(degree, eta(chain).scale(scale))


def _split(word: Word, coeff) -> Iterable[tuple[tuple[Word, int], object]]:
    """coeff * (eta(prefix) tensor last letter): the unscaled split of a word."""
    last = word[-1]
    return (((u, last), coeff * c) for u, c in eta_word(word[:-1]).items())


def _g_image_scaled(word: Word) -> dict[tuple[Word, int], int]:
    """g(word) scaled by (degree - 1): an integer tensor-coordinate vector."""
    cached = _PRIME_IMAGE_MEMO.get(word)
    if cached is not None:
        return cached
    n = len(word)
    sign = 1 if n % 2 == 0 else -1
    out = accumulate(_split(word, sign))
    for w, c in fold_l_word(n, word).items():
        accumulate(_split(w, -sign * c), out)
    if n <= _PRIME_IMAGE_MEMO_MAX_DEGREE:
        _PRIME_IMAGE_MEMO[word] = out
    return out


def g_image_key(chain: Chain) -> dict[tuple[Word, int], object]:
    """The integer-scaled primed class key: (degree - 1) * g(chain) in tensor
    coordinates. Chains of one degree are equal in the primed quotient exactly
    when their keys are equal."""
    out: dict[tuple[Word, int], object] = {}
    for word, coeff in chain.terms.items():
        accumulate(((key, coeff * c) for key, c in _g_image_scaled(word).items()), out)
    return out


def _split_scale(chain: Chain) -> tuple[int, object]:
    """The degree n >= 2 of a chain and 1/(n - 1) in its coefficient field;
    over F_q with q dividing n - 1 this raises ZeroDivisionError for every
    nonzero chain, whether or not its image vanishes."""
    degree = chain.degree()
    if degree is None:
        raise InputError("the zero chain has no well-defined degree")
    if degree < 2:
        raise InputError("the tensor image requires degree >= 2")
    return degree, next(iter(chain.terms.values())) * 0 + Fraction(1, degree - 1)


def g_prime_map(chain: Chain) -> TensorElement:
    """Split each word into (canonical prefix) tensor (last letter)."""
    degree, scale = _split_scale(chain)
    sign = 1 if degree % 2 == 0 else -1
    out: dict[tuple[Word, int], object] = {}
    for word, coeff in chain.terms.items():
        accumulate(_split(word, sign * coeff), out)
    return TensorElement(chain.p, degree, {k: v * scale for k, v in out.items()})


def g_map(chain: Chain) -> TensorElement:
    """g = g' - g' after the top left-fold; kills every primed relation."""
    degree, scale = _split_scale(chain)
    return TensorElement(chain.p, degree,
                         {k: v * scale for k, v in g_image_key(chain).items()})


def canonical_prime(chain: Chain) -> PrimeCanonical:
    """Canonical key in the primed quotient: zero below degree 2, else the
    g-image with canonicalized left factors."""
    if not chain.is_homogeneous():
        raise InputError("canonical form requires a homogeneous chain")
    degree = chain.degree()
    if degree is None or degree <= 1:
        return PrimeCanonical(degree or 0, TensorElement.zero(chain.p, degree or 0))
    return PrimeCanonical(degree, g_map(chain))


def ell_map(t: TensorElement, char: int | None = None) -> LieCanonical:
    """Re-attach each letter after its left factor and canonicalize."""
    return canonical_l(t.appended_chain(), char)


def g_tilde(t: TensorElement) -> PrimeCanonical:
    """Re-attach each letter after its left factor, into the primed quotient."""
    chain = t.appended_chain()
    if chain.is_zero():
        return PrimeCanonical(t.degree, TensorElement.zero(t.p, t.degree))
    return canonical_prime(chain)


def choose_head(word: Iterable[int], position: int, p: int | None = None) -> Chain:
    """Re-express a word with the letter at the given position moved to the
    front by the appropriate fold move; position 1 is the identity."""
    w = tuple(word)
    if p is None:
        p = max(w, default=1)
    if not 1 <= position <= len(w):
        raise InputError(f"position {position} out of range for a word of length {len(w)}")
    if position == 1:
        return Chain.of_word(p, w)
    return fold_l(position, Chain.of_word(p, w))


def choose_head_by_letter(chain: Chain, letter: int) -> Chain:
    """Apply choose_head to every summand, locating the marked letter.

    The letter must occur exactly once in each word, else the marking is
    ambiguous and an input error is raised.
    """
    out = Chain.zero(chain.p)
    for word, coeff in chain.iter_terms():
        positions = [i for i, a in enumerate(word, start=1) if a == letter]
        if len(positions) != 1:
            raise InputError(
                f"letter {letter} occurs {len(positions)} times in {list(word)}; "
                "head choice needs a unique occurrence")
        out = out + choose_head(word, positions[0], chain.p).scale(coeff)
    return out
