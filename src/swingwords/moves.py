"""The eta antisymmetrization, the two fold-move families, and bead expansion.

All three operations are defined per word with integer coefficients and extend
linearly, so the word-level results are memoized as plain integer dicts and
shared across coefficient modes.
"""

from __future__ import annotations

from collections import Counter
from typing import Union

from .chains import Chain, Word, accumulate, check_alphabet, check_integer, check_word, word_count
from .scalars import MAX_WORDS, InputError, check_work, cleared, divided

MagmaTerm = Union[int, tuple]
# A magma term is a letter (leaf) or a pair (left, right) of magma terms:
# the binary rooted trees with letter leaves.

_ETA_MEMO: dict[Word, dict[Word, int]] = {}
_EXPAND_MEMO: dict[MagmaTerm, dict[Word, int]] = {}
# one tuple per word across the memos' entries, so that they share it
_WORDS: dict[Word, Word] = {}


def eta_word(word: Word) -> dict[Word, int]:
    """eta on a single word, as an integer-coefficient term dict.

    eta(a1..an) = an * eta(a1..a_{n-1}) - eta(a1..a_{n-1}) * an, with a single
    letter fixed and the empty word sent to zero. A word whose first two
    letters agree is sent to zero with no recursion: eta(aa) = aa - aa, and
    each later step is linear in the prefix's eta. A word whose eta may have
    more than MAX_WORDS terms (`expansion_bound`) is refused before any is
    built.
    """
    cached = _ETA_MEMO.get(word)
    if cached is not None:
        return cached
    n = len(word)
    if n == 1:
        result: dict[Word, int] = {word: 1}
    elif n == 0 or word[1] == word[0]:
        result = {}
    else:
        if 1 << (n - 1) > MAX_WORDS:
            check_work(expansion_bound(word), f"eta of a degree-{n} word")
        last = word[-1:]
        prefix = eta_word(word[:-1]).items()
        # prepending one letter to distinct words keeps them distinct
        result = {last + w: c for w, c in prefix}
        result = shared_words(accumulate(((w + last, c) for w, c in prefix), result, -1))
    _ETA_MEMO[word] = result
    return result


def shared_words(terms: dict[Word, object]) -> dict[Word, object]:
    """The terms keyed by the one tuple of each word kept in `_WORDS`."""
    share = _WORDS.setdefault
    return {share(w, w): c for w, c in terms.items()}


def eta_bound(word: Word) -> int:
    """The most terms eta builds for a word: 2^(n-1) at length n, and at most
    one per word with its letters (`expansion_bound`)."""
    return expansion_bound(word) if word else 0


def linear_image(terms: dict[Word, int], word_map, bound=None) -> dict[Word, int]:
    """The image of integer terms under the linear extension of a word map:
    the first word's image times its coefficient, then each later word's image
    added in place, scaled by its coefficient (`accumulate`). The terms'
    coefficients are nonzero, as `cleared` leaves them.

    With `bound`, the most terms the map builds for one word (`bound(word)`),
    a chain whose words' bounds sum past MAX_WORDS is refused before any word
    is mapped. The sum is taken only when the number of words times n 2^n,
    with n the length of the longest word, passes MAX_WORDS. That is valid
    for every map here, since none builds more than n 2^n terms for a word
    of length n: eta builds at most 2^(n-1), a fold or g' at most 2^(n-2)
    (a fold 1 where it is the identity or reverses the word) and the g-image
    at most n 2^(n-2). So the sum, when it passes MAX_WORDS, is always taken.
    A single word is left to the word map, which refuses it past the same
    bound.
    """
    if bound is not None and len(terms) > 1:
        n = max(map(len, terms))
        if len(terms) * n << n > MAX_WORDS:
            check_work(sum(map(bound, terms)), f"the image of a chain of {len(terms)} words")
    items = iter(terms.items())
    first = next(items, None)
    if first is None:
        return {}
    word, coeff = first
    out = {w: coeff * c for w, c in word_map(word).items()}
    for word, coeff in items:
        accumulate(word_map(word).items(), out, coeff)
    return out


def linear_extension(chain: Chain, word_map, divisor: int = 1, bound=None) -> Chain:
    """The image of a chain under an integer word map, over `divisor`, in its
    field; `bound` guards the work as in `linear_image`."""
    q = chain.char
    terms, scale = cleared(chain.terms, q)
    image = linear_image(terms, word_map, bound)
    return Chain._make(chain.p, divided(image, scale * divisor, q), q)


def eta(chain: Chain) -> Chain:
    """Linear extension of eta; preserves degree and multidegree."""
    return linear_extension(chain, eta_word, bound=eta_bound)


def fold_l_word(n: int, word: Word) -> dict[Word, int]:
    """The left fold move at index n on a single word.

    For 2 <= n <= len(word) this is (-1)^(n-1) * a_n * eta(a_1..a_{n-1}) *
    (a_{n+1}..); for any other n the word is returned unchanged.
    """
    if not 2 <= n <= len(word):
        return {word: 1}
    sign = 1 if (n - 1) % 2 == 0 else -1
    head = (word[n - 1],)
    suffix = word[n:]
    return {head + w + suffix: sign * c for w, c in eta_word(word[: n - 1]).items()}


def fold_l(n: int, chain: Chain) -> Chain:
    if check_integer(n, "fold index") < 1:
        raise InputError(f"fold index must be positive, got {n}")
    return linear_extension(chain, lambda w: fold_l_word(n, w), bound=fold_bound(n))


def fold_bound(k: int, reverses: bool = False):
    """The bound (see `linear_image`) of the fold at index k: eta of the first
    k - 1 letters, and one term where the fold is the identity or, for the
    primed fold, reverses the word."""
    def bound(word: Word) -> int:
        n = len(word)
        return 1 if not 2 <= k <= n or (reverses and k == n) else eta_bound(word[:k - 1])
    return bound


def fold_prime_word(n: int, word: Word) -> dict[Word, int]:
    """The primed fold move: kills single letters, reverses at the top index."""
    if len(word) == 1:
        return {}
    if n == len(word) and n > 1:
        sign = 1 if n % 2 == 0 else -1
        return {word[::-1]: sign}
    return fold_l_word(n, word)


def fold_prime(n: int, chain: Chain) -> Chain:
    if check_integer(n, "fold index") < 1:
        raise InputError(f"fold index must be positive, got {n}")
    return linear_extension(chain, lambda w: fold_prime_word(n, w), bound=fold_bound(n, True))


def magma_leaves(term: MagmaTerm) -> tuple[int, ...]:
    if not isinstance(term, tuple):  # a leaf, a letter once `check_magma` passes it
        return (term,)
    try:
        left, right = term
    except ValueError:
        raise InputError(f"a magma node must be a pair, got {term!r}") from None
    return magma_leaves(left) + magma_leaves(right)


def magma_nodes(term: MagmaTerm, path: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """Paths (0/1 steps from the root) of the non-leaf nodes of a magma term."""
    if isinstance(term, int):
        return []
    left, right = term
    return [path] + magma_nodes(left, path + (0,)) + magma_nodes(right, path + (1,))


def check_magma(term: MagmaTerm, p: int) -> tuple[int, ...]:
    """The leaves of a magma term, each checked to be a letter of 1..p."""
    return check_word(magma_leaves(term), p, "magma leaf")


def expansion_bound(leaves) -> int:
    """The most terms the commutator expansion of a magma term over these
    leaves can have, and so eta of a word over these letters: each bracket
    at most doubles them, and there is at most one per word that uses exactly
    these leaves."""
    return min(1 << (len(leaves) - 1), word_count(Counter(leaves).values()))


def expand_word(term: MagmaTerm) -> dict[Word, int]:
    """Commutator expansion of a magma term as an integer term dict; a node
    whose bracket would build more than MAX_WORDS terms is refused. Only the
    whole term is memoized: the inner nodes of a deep term hold far more
    letters than its expansion."""
    cached = _EXPAND_MEMO.get(term)
    if cached is None:
        cached = _EXPAND_MEMO[term] = _expansion(term)
    return cached


def _expansion(term: MagmaTerm) -> dict[Word, int]:
    if isinstance(term, int):
        return {(term,): 1}
    left, right = _expansion(term[0]), _expansion(term[1]).items()
    check_work(2 * len(left) * len(right), "the expansion of a magma term")
    pairs = [(w1, w2, c1 * c2) for w1, c1 in left.items() for w2, c2 in right]
    result = accumulate((w1 + w2, c) for w1, w2, c in pairs)
    return accumulate(((w2 + w1, -c) for w1, w2, c in pairs), result)


def commutator_expand(term: MagmaTerm, p: int) -> Chain:
    """Expand a magma term into the word algebra: a leaf is its letter and a
    node goes to left*right - right*left. The multidegree of the result equals
    the leaf multiset."""
    check_alphabet(p)
    check_magma(term, p)
    return Chain._make(p, dict(expand_word(term)))
