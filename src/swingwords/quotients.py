"""Canonical forms in the two fold-move quotients and the exact-sequence maps.

The left-fold quotient of degree-n chains is decided by the idempotent
projector P_n = (-1)^(n-1) * eta / n: two chains are equivalent exactly when
their projections coincide. The primed quotient is decided by the tensor image
g(w) = g'(w) - g'(fold_l(n, w)) with g'(b1..bn) = canonical_l(b1..b_{n-1})
tensor bn. A term u tensor b is stored as the word u.b (the free Lie algebra
embeds in the tensor algebra), so a tensor image is a Chain of degree-n words
and the re-attachment maps ell and g_tilde are canonical_l and canonical_prime
on it. Fold relations extend on the right (a relation times a suffix is again
a relation), which is what makes the prefix factor the canonicalizable one.

The relation spans materialize both move families as row-reduced blocks per
multidegree and serve as the independent equality oracle. They are built by
that same right extension: for k < n, fold_k(w.b) - w.b = (fold_k(w) - w).b,
and the primed move agrees with the left one below the top index, so the
degree-n span of either family is the degree-(n-1) left span with each letter
appended, plus the family's top-index relations. A spanning subset of those
suffices. On degree-d words u.b the top left relation is
R(u) = fold_d(u.b) - u.b = (-1)^(d-1) b.eta(u) - u.b, linear in u, and eta
kills every left relation r (Dynkin-Specht-Wever, over Z and so mod q), so
R(r) = -r.b is an appended row. Every pivot word of the degree-(d-1) left
span is a combination of its non-pivot words modulo that span, so the
relations of the non-pivot prefixes span the rest. The primed top relations
pair up: with R'(w) = (-1)^n rev(w) - w, R'(rev(w)) = -(-1)^n R'(w), so one
of each pair suffices, and a palindrome's, -2w at odd n, stays.

The scaled g-image (n - 1) g(w) of a word is an integer vector computed by
a right-nested bracket recursion (Reutenauer, Free Lie Algebras, ch. 1): one
bracket [eta(a_1..a_{k-1}), Z_k] per position k, where Z_k = eta(a_n..a_{k+1})
is the right-nested bracket of the letters after a_k, both read from the eta
memo. That is about n 2^(n-2) products in place of the 4^(n-2) of running g'
on every word of fold_l(n, w); `_g_image_scaled` gives the formula and its
derivation. g kills the primed relations, and two of them act on a single
word: the fold at index 2 swaps the first two letters with sign -1, and the
top fold reverses the word with sign (-1)^n. So g(w) is +-g of the least word
of an orbit of at most 8, and 0 when a move of sign -1 fixes a word of the
orbit (`_g_orbit`). `canonical_prime` moves each term to that representative
before any image is built, so orbit-mates merge or cancel first and the
memo of word images holds representatives only; `bases.h_basis` builds a
row for representatives only.

Both canonical forms clear a chain to integer terms over one scale, sum the
memoized integer word images, and keep the sum as one kind of key
(`_ClassKey`): integer terms over a positive scale, the chain's scale times
(-1)^(n-1) n for the left form and times n - 1 for the primed form,
normalised by their gcd over Q and reduced mod q over F_q. Keys compare and
hash those integers and divide once, when `.chain` or `.image` is first read.
A residue chain takes the same path with scale 1. The primed form refuses it
when q divides n - 1; the left form falls back to the relation span when q
divides n, and the span reads residues on entry to the row reduction.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import gcd
from typing import Iterable, Literal

from .chains import (Chain, Multidegree, Word, accumulate, check_alphabet, check_degree,
                     check_integer, check_sequence, check_word, word_count, word_multidegree)
from .linalg import RowSpace
from .moves import (eta_bound, eta_word, fold_bound, fold_l, fold_l_word,
                    fold_prime_word, linear_extension, linear_image, shared_words)
from .scalars import (MAX_WORDS, InputError, ResourceLimitError, check_characteristic,
                      check_work, cleared, divided)

Family = Literal["l", "prime"]

_SPAN_MEMO: dict[tuple, "RelationSpan"] = {}
_PRIME_IMAGE_MEMO: dict[Word, dict[Word, int]] = {}
_PRIME_IMAGE_MEMO_MAX_DEGREE = 7


class _ClassKey:
    """A class in a fold-move quotient, held as integer terms over a positive
    scale: chain = terms / scale, over Q with gcd(scale, terms) = 1, over F_q
    as residues with scale 1. Equality and hashing read these integers, and
    the chain is divided once, the first time it is read. Two keys of one
    kind over different degrees, fields or alphabets differ, unless both are
    zero: all zero classes of one kind are equal. A key never equals a key of
    the other kind.
    """

    __slots__ = ("degree", "p", "_terms", "_scale", "_q", "_chain")

    def __init__(self, degree: int, chain: Chain):
        self._set(degree, chain.p, *cleared(chain.terms, chain.char), chain.char)
        self._chain = chain

    @classmethod
    def _scaled(cls, degree: int, p: int, terms: dict[Word, int], scale: int,
                q: int | None):
        """The class whose chain is terms / scale, read mod q over F_q."""
        key = cls.__new__(cls)
        key._set(degree, p, terms, scale, q)
        key._chain = None
        return key

    def _set(self, degree: int, p: int, terms: dict[Word, int], scale: int,
             q: int | None) -> None:
        # over F_q no gcd is taken: dividing by the scale is what refuses a
        # scale that q divides, whatever the terms
        if q is not None:
            terms, scale = divided(terms, scale, q), 1
        else:
            common = gcd(scale, *terms.values()) * (1 if scale > 0 else -1)
            if common != 1:
                terms = {w: v // common for w, v in terms.items()}
                scale //= common
        self.degree, self.p, self._terms, self._scale, self._q = degree, p, terms, scale, q

    def _divided(self) -> Chain:
        if self._chain is None:
            self._chain = Chain._make(self.p, divided(self._terms, self._scale, self._q), self._q)
        return self._chain

    def is_zero(self) -> bool:
        return not self._terms

    def _key(self) -> tuple:
        return () if self.is_zero() else (self.degree, self.p, self._q, self._scale)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key() and self._terms == other._terms

    def __hash__(self):
        return hash((self._key(), frozenset(self._terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.degree}, {self._divided()!r})"


class LieCanonical(_ClassKey):
    """Canonical key of a chain in the left-fold quotient: its projection, a
    chain of degree-n words, found by the Dynkin projector or, with
    method "span", by reduction against the relation span."""

    method = "dynkin"  # also for the keys canonical_l builds from integers

    def __init__(self, degree: int, chain: Chain, method: str = "dynkin"):
        super().__init__(degree, chain)
        self.method = method

    chain = property(_ClassKey._divided)


class PrimeCanonical(_ClassKey):
    """Canonical key of a chain in the primed-fold quotient: its g-image, a
    chain of degree-n words. `canonical_prime` builds it over the scale times
    n - 1, so a residue chain of degree n with q | n - 1 is refused whatever
    its image."""

    __slots__ = ()

    image = property(_ClassKey._divided)


class RelationSpan:
    """Row-reduced span of the fold-move relations of one degree.

    Blocks are kept per multidegree (the moves preserve multidegrees), with
    words as column labels, so membership and rank queries stay small.

    The span is built upward from degree 1 by right extension (see the module
    docstring): each stored row of the degree-(d-1) left span, re-keyed by
    appending a letter b, is a stored row of the degree-d span. Appending b
    keeps the column order, and different letters give disjoint supports, so
    the re-keyed rows stay in stored form and need no elimination. Then a
    spanning subset of the top-index relations of degree d is inserted (see
    the module docstring): at a left step the fold of u.b only for prefixes u
    that are not pivot columns of the degree-(d-1) left span, p times its
    quotient dimension and at most p^d rows; at the primed top step the
    relation of w only for w <= rev(w), at most (p^d + p^ceil(d/2)) / 2 rows.
    The stored form is a fixed multiple of the reduced echelon form of the
    span, so it is the same as with every top-index relation inserted, in any
    order. The MAX_WORDS bound on p^n bounds the work done.
    When the degree-(n-1) left span over the same alphabet and field is
    already memoized, the build starts from its blocks; `_appended` copies
    every row, so the memoized span is left as it was.
    """

    def __init__(self, degree: int, p: int, family: Family, char: int | None = None):
        check_degree(degree)
        check_alphabet(p)
        if family not in ("l", "prime"):
            raise InputError(f"unknown relation family {family!r}")
        if char is not None:
            check_characteristic(char)
        if p ** degree > MAX_WORDS:
            raise ResourceLimitError(
                f"{p}^{degree} = {p ** degree} words exceeds the bound {MAX_WORDS}")
        self.degree = degree
        self.p = p
        self.family = family
        self.char = char
        left = _SPAN_MEMO.get((degree - 1, p, "l", char))
        blocks: dict[Multidegree, RowSpace] = left.blocks if left else {}
        for d in range(degree if left else 1, degree + 1):
            # the left span one degree up, then a spanning subset of the
            # top-index relations of this degree: the primed ones of the pairs
            # w <= rev(w) at the last step, else left folds of non-pivot prefixes
            pivots = {c for block in blocks.values() for c in block.pivots}
            blocks = _appended(blocks, p, char)
            top = family == "prime" and d == degree
            fold_word = fold_prime_word if top else fold_l_word
            for word in product(range(1, p + 1), repeat=d):
                if (word > word[::-1]) if top else (word[:-1] in pivots):
                    continue
                md = word_multidegree(word, p)
                block = blocks.get(md)
                if block is None:
                    block = blocks[md] = RowSpace(char)
                block.insert(accumulate([(word, -1)], dict(fold_word(d, word))))
        self.blocks = blocks

    @property
    def rank(self) -> int:
        return sum(block.rank for block in self.blocks.values())

    def quotient_dim(self) -> int:
        return self.p ** self.degree - self.rank

    def basis_chains(self) -> list[Chain]:
        """The reduced relation basis as chains over the span's field, in a
        deterministic order."""
        return [Chain._make(self.p, row, self.char)
                for md in sorted(self.blocks) for row in self.blocks[md].rows()]

    def reduce(self, chain: Chain) -> Chain:
        """Normal form of a degree-homogeneous chain modulo the relations,
        over the chain's own alphabet (the moves keep each word's letters).

        A span over F_q reads a rational chain as its residues mod q
        (`scalars.cleared`), and the normal form is a chain over F_q.
        """
        if chain.char is not None and chain.char != self.char:
            raise InputError("mixed residue characteristics")
        if chain.is_zero():
            return Chain._make(chain.p, {}, self.char)
        if chain.degree() != self.degree:
            raise InputError("chain degree does not match the relation span")
        if chain.p > self.p:
            for word in chain.terms:
                check_word(word, self.p)
        per_md: dict[Multidegree, dict[Word, object]] = {}
        for word, coeff in chain.terms.items():
            per_md.setdefault(word_multidegree(word, self.p), {})[word] = coeff
        out: dict[Word, object] = {}
        for md, row in per_md.items():
            out.update(self.blocks[md].reduce(row))
        return Chain._make(chain.p, out, self.char)

    def contains(self, chain: Chain) -> bool:
        return self.reduce(chain).is_zero()


def _appended(blocks: dict[Multidegree, RowSpace], p: int,
              char: int | None) -> dict[Multidegree, RowSpace]:
    """Every stored row of every block times each letter b, as stored rows of
    the blocks one degree up. A re-keyed row keeps its pivot and is zero at
    every other pivot of its new block, so it is stored without elimination.
    The appended column labels are made once per column and letter and shared
    by every row that has that column."""
    out: dict[Multidegree, RowSpace] = {}
    for md, block in blocks.items():
        columns = {c for row in block.pivots.values() for c in row}
        for b in range(p):
            target = md[:b] + (md[b] + 1,) + md[b + 1:]
            space = out.get(target)
            if space is None:
                space = out[target] = RowSpace(char)
            tail = (b + 1,)
            keyed = {c: c + tail for c in columns}
            for col, row in block.pivots.items():
                space.pivots[keyed[col]] = {keyed[c]: v for c, v in row.items()}
    return out


def relation_span(degree: int, p: int, family: Family,
                  char: int | None = None) -> RelationSpan:
    """Memoized relation span; repeated requests return the same object."""
    # checked before the lookup: a bool or float equals an int key
    key = (check_degree(degree), check_alphabet(p), family, char)
    span = _SPAN_MEMO.get(key)
    if span is None:
        span = RelationSpan(degree, p, family, char)
        _SPAN_MEMO[key] = span
    return span


def canonical_l(chain: Chain, char: int | None = None) -> LieCanonical:
    """Project a homogeneous chain onto its left-fold canonical representative.

    The result lies over F_char, else over the chain's field; a rational chain
    is read mod char after eta. Over Q, and over an F_q with q not dividing the
    degree, this applies the idempotent projector, whose integer image is the
    key; otherwise it falls back to normal-form reduction against the relation
    span and flags the result. Applied to a tensor image it is the
    re-attachment ell.
    """
    q = chain.char if char is None else char
    if q != chain.char:
        if chain.char is not None:
            raise InputError("mixed residue characteristics")
        check_characteristic(q)
    degree = chain.degree()
    if degree is None or degree == 0:
        return LieCanonical(degree or 0, Chain(chain.p, chain.terms, q))
    if q is not None and degree % q == 0:
        span = relation_span(degree, chain.p, "l", q)
        return LieCanonical(degree, span.reduce(chain), method="span")
    terms, scale = cleared(chain.terms, chain.char)
    terms = linear_image(terms, eta_word, eta_bound)
    if q != chain.char:
        # a rational chain: eta over Q, read mod q, then the projector's 1/n
        terms, scale = cleared(divided(terms, scale), q)
    return LieCanonical._scaled(degree, chain.p, terms,
                                scale * (degree if (degree - 1) % 2 == 0 else -degree), q)


def _g_prime_scaled(word: Word) -> dict[Word, int]:
    """g'(word) scaled by (degree - 1): (-1)^n eta(prefix) (x) last letter,
    with each u (x) b stored as the word u.b."""
    last = word[-1:]
    sign = 1 if len(word) % 2 == 0 else -1
    return {u + last: sign * c for u, c in eta_word(word[:-1]).items()}


def _g_image_scaled(word: Word) -> dict[Word, int]:
    """g(word) scaled by (degree - 1): an integer vector over degree-n words.

    With w = a_1..a_n, E_k = eta(a_1..a_k), Z_k = eta(a_n a_{n-1}..a_{k+1})
    (the right-nested bracket [a_{k+1}, [.., [a_{n-1}, a_n]]]), [x, y] = xy - yx
    and a trailing .a the stored tensor (x) a, it is the bracket recursion

        (n-1) g(w) = (-1)^n E_{n-1}.a_n
                     + sum_{k=2}^{n-1} (-1)^(k+1) [E_{k-1}, Z_k].a_k + Z_1.a_1.

    The first term is (n-1) g'(w); the rest is -(n-1) g'(fold_l(n, w)), by
    three facts:
    - fold_l(n, w) = (-1)^(n-1) a_n.E_{n-1}, and sorting the words of E_{n-1}
      by their last letter gives E_{n-1} = a_{n-1}..a_1
      - sum_{k=2}^{n-1} a_{n-1}..a_{k+1}.E_{k-1}.a_k;
    - (n-1) g' takes a word a_n.x.b to (-1)^n eta(a_n.x).b, and
      eta(a.x_1..x_m) = ad_{x_m}..ad_{x_1}(a) with ad_x(y) = [x, y], so the
      word a_{n-1}..a_{k+1} takes a_n to Z_k;
    - by the Jacobi identity the words of a Lie element P of degree d act
      as (-1)^(d-1) ad_P, and E_{k-1} is one.
    The k-th bracket takes 2^(n-2) products of memoized eta terms, so a word
    costs about n 2^(n-2) dict updates, where running g' on each of the
    2^(n-2) words of the fold takes 4^(n-2). A single letter gets image 0,
    as eta of the empty word is 0; the empty word itself is refused.

    A word builds at most n 2^(n-2) terms here, counting g'(w), and at most
    2(n - 1) per word with its letters (`_g_image_bound`); past MAX_WORDS it
    is refused before any is built.
    """
    cached = _PRIME_IMAGE_MEMO.get(word)
    if cached is not None:
        return cached
    n = len(word)
    if n == 0:
        raise InputError("the empty word has no tensor image")
    if n > 1 and n << (n - 2) > MAX_WORDS:
        check_work(_g_image_bound(word), f"the g-image of a degree-{n} word")
    terms = [(v + word[:1], d) for v, d in eta_word(word[1:][::-1]).items()]
    for k in range(2, n):
        a = word[k - 1:k]
        right = [(v, v + a, d) for v, d in eta_word(word[k:][::-1]).items()]
        for u, c in eta_word(word[:k - 1]).items():
            if k % 2 == 0:
                c = -c
            ua = u + a
            for v, va, d in right:
                terms.append((u + va, c * d))
                terms.append((v + ua, -c * d))
    out = accumulate(terms, _g_prime_scaled(word))
    if n <= _PRIME_IMAGE_MEMO_MAX_DEGREE:
        out = _PRIME_IMAGE_MEMO[word] = shared_words(out)
    return out


def _g_orbit(word: Word) -> tuple[Word, int] | None:
    """(rep, sign) with g(word) = sign * g(rep) and rep the least word of the
    orbit of word under the moves g kills, or None when g(word) = 0.

    g kills every primed relation, g(fold'_k(w)) = g(w). Two of the moves act
    on a single word a_1..a_n. For n >= 3 the fold at index 2, below the top,
    is -a_2.a_1.a_3..a_n, so swapping the first two letters (s) costs a sign
    -1; the top fold reverses (r) with sign (-1)^n, and t = r s r, swapping
    the last two letters, costs -1. For n >= 4 s and t commute and r swaps
    them: the orbit is {s^i t^j w} and their reversals, at most 8 words, and
    the signs make a character of that group. Its least word either sorts the
    first two and the last two letters, keeping the middle M (forward), or
    is the reversal of that with both ends sorted again, t s r of forward
    (backward), at sign (-1)^n times forward's. A move of sign -1 that fixes
    a word gives g(w) = -g(w), so g(w) = 0, over Z and so mod every q: the
    moves s when a_1 = a_2, t when a_{n-1} = a_n, and t s r when backward is
    forward at odd n (every other move that fixes a word is one of those or
    of sign +1). At n = 3 the three moves are the transpositions of S3 and
    the sign is the permutation's: the image is 0 when a letter repeats, and
    rep sorts the letters. At n = 2 the fold at index 2 is the top one, so
    only r applies, with sign +1, and g(aa) = 2 aa. A single letter, or the
    empty word, is its own orbit.
    """
    n = len(word)
    if n < 3:
        return min(word, word[::-1]), 1
    if n == 3:
        if len(set(word)) < 3:
            return None
        a, b, c = word
        return tuple(sorted(word)), -1 if ((a > b) + (a > c) + (b > c)) % 2 else 1
    x, y, z, u = word[0], word[1], word[-2], word[-1]
    if x == y or z == u:
        return None
    sign = 1
    if x > y:
        x, y, sign = y, x, -sign
    if z > u:
        z, u, sign = u, z, -sign
    forward = (x, y) + word[2:-2] + (z, u)
    backward = (z, u) + word[-3:1:-1] + (x, y)
    if backward < forward:
        return backward, sign if n % 2 == 0 else -sign
    if backward == forward and n % 2:
        return None
    return forward, sign


def _g_image_bound(word: Word) -> int:
    """The most terms `_g_image_scaled` builds for a word: n 2^(n-2) at
    length n, and at most 2(n - 1) per word with its letters."""
    n = len(word)
    if n < 2:
        return 0
    return min(n << (n - 2), 2 * (n - 1) * word_count(Counter(word).values()))


def _tensor_degree(chain: Chain) -> int:
    """The degree n of a chain whose tensor image is asked for; n >= 2."""
    degree = chain.degree()
    if degree is None:
        raise InputError("the zero chain has no well-defined degree")
    if degree < 2:
        raise InputError("the tensor image requires degree >= 2")
    return degree


def g_prime_map(chain: Chain) -> Chain:
    """Split each word into (canonical prefix) tensor (last letter)."""
    return linear_extension(chain, _g_prime_scaled, _tensor_degree(chain) - 1,
                            bound=_g_prime_bound)


def _g_prime_bound(word: Word) -> int:
    """The bound (see `linear_image`) of g': eta of all but the last letter."""
    return eta_bound(word[:-1])


def g_map(chain: Chain) -> Chain:
    """g = g' - g' after the top left-fold; kills every primed relation. Over
    F_q with q | n - 1 it refuses every nonzero chain, whatever its image."""
    _tensor_degree(chain)
    return canonical_prime(chain).image


def canonical_prime(chain: Chain) -> PrimeCanonical:
    """Canonical key in the primed quotient: zero below degree 2, else the
    g-image with canonicalized left factors, kept as integer terms over one
    scale (see PrimeCanonical). Applied to a tensor image it is the
    re-attachment g_tilde into the primed quotient.

    Each cleared term c w is first moved to sign * c rep (`_g_orbit`), and
    dropped when the image of w is 0, so orbit-mates merge or cancel before
    any image is built. The work bound counts the words actually imaged, and
    the memo keeps representatives only."""
    degree = chain.degree()
    if degree is None or degree <= 1:
        return PrimeCanonical(degree or 0, Chain._make(chain.p, {}, chain.char))
    terms, scale = cleared(chain.terms, chain.char)
    reps = accumulate((orbit[0], orbit[1] * c) for w, c in terms.items()
                      if (orbit := _g_orbit(w)) is not None)
    return PrimeCanonical._scaled(degree, chain.p,
                                  linear_image(reps, _g_image_scaled, _g_image_bound),
                                  scale * (degree - 1), chain.char)


# the re-attachment maps of the exact sequence, on an image's chain of words
ell_map = canonical_l
g_tilde = canonical_prime


def choose_head(word: Iterable[int], position: int, p: int | None = None) -> Chain:
    """Re-express a word with the letter at the given position moved to the
    front by the appropriate fold move; position 1 is the identity."""
    w = check_sequence(word)
    if p is None:
        p = max(w, default=1)
    if not 1 <= check_integer(position, "position") <= len(w):
        raise InputError(f"position {position} out of range for a word of length {len(w)}")
    return fold_l(position, Chain.of_word(p, w))


def choose_head_by_letter(chain: Chain, letter: int) -> Chain:
    """Apply choose_head to every summand, locating the marked letter.

    The letter must occur exactly once in each word, else the marking is
    ambiguous and an input error is raised.
    """
    def head_first(word: Word) -> dict[Word, int]:
        positions = [i for i, a in enumerate(word, start=1) if a == letter]
        if len(positions) != 1:
            raise InputError(
                f"letter {letter} occurs {len(positions)} times in {list(word)}; "
                "head choice needs a unique occurrence")
        return fold_l_word(positions[0], word)

    def bound(word: Word) -> int:
        # the fold at the letter's position; for a word without the letter,
        # which `head_first` refuses, the fold at the top index
        k = word.index(letter) + 1 if letter in word else len(word)
        return fold_bound(k)(word)
    return linear_extension(chain, head_first, bound=bound)
