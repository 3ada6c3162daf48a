"""The eta antisymmetrization, the two fold-move families, and bead expansion.

All three operations are defined per word with integer coefficients and extend
linearly, so the word-level results are memoized as plain integer dicts and
shared across coefficient modes.
"""

from __future__ import annotations

from typing import Union

from .chains import Chain, Word, accumulate
from .scalars import InputError

MagmaTerm = Union[int, tuple]
# A magma term is a letter (leaf) or a pair (left, right) of magma terms:
# the binary rooted trees with letter leaves.

_ETA_MEMO: dict[Word, dict[Word, int]] = {}
_EXPAND_MEMO: dict[MagmaTerm, dict[Word, int]] = {}


def eta_word(word: Word) -> dict[Word, int]:
    """eta on a single word, as an integer-coefficient term dict.

    eta(a1..an) = an * eta(a1..a_{n-1}) - eta(a1..a_{n-1}) * an, with a single
    letter fixed and the empty word sent to zero.
    """
    cached = _ETA_MEMO.get(word)
    if cached is not None:
        return cached
    n = len(word)
    if n == 0:
        result: dict[Word, int] = {}
    elif n == 1:
        result = {word: 1}
    else:
        last = word[-1:]
        prefix = eta_word(word[:-1]).items()
        result = accumulate((last + w, c) for w, c in prefix)
        accumulate(((w + last, -c) for w, c in prefix), result)
    _ETA_MEMO[word] = result
    return result


def _linear_extension(chain: Chain, word_map) -> Chain:
    return Chain(chain.p, accumulate((w, coeff * c) for word, coeff in chain.terms.items()
                                     for w, c in word_map(word).items()))


def eta(chain: Chain) -> Chain:
    """Linear extension of eta; preserves degree and multidegree."""
    return _linear_extension(chain, eta_word)


def fold_l_word(n: int, word: Word) -> dict[Word, int]:
    """The left fold move at index n on a single word.

    For 2 <= n <= len(word) this is (-1)^(n-1) * a_n * eta(a_1..a_{n-1}) *
    (a_{n+1}..); for any other n the word is returned unchanged.
    """
    if n < 1:
        raise InputError(f"fold index must be positive, got {n}")
    if not 2 <= n <= len(word):
        return {word: 1}
    sign = 1 if (n - 1) % 2 == 0 else -1
    head = (word[n - 1],)
    suffix = word[n:]
    return {head + w + suffix: sign * c for w, c in eta_word(word[: n - 1]).items()}


def fold_l(n: int, chain: Chain) -> Chain:
    return _linear_extension(chain, lambda w: fold_l_word(n, w))


def fold_prime_word(n: int, word: Word) -> dict[Word, int]:
    """The primed fold move: kills single letters, reverses at the top index."""
    if n < 1:
        raise InputError(f"fold index must be positive, got {n}")
    if len(word) == 1:
        return {}
    if n == len(word) and n > 1:
        sign = 1 if n % 2 == 0 else -1
        return {word[::-1]: sign}
    return fold_l_word(n, word)


def fold_prime(n: int, chain: Chain) -> Chain:
    return _linear_extension(chain, lambda w: fold_prime_word(n, w))


def magma_leaves(term: MagmaTerm) -> tuple[int, ...]:
    if isinstance(term, int):
        return (term,)
    left, right = term
    return magma_leaves(left) + magma_leaves(right)


def magma_nodes(term: MagmaTerm, path: tuple[int, ...] = ()) -> list[tuple[int, ...]]:
    """Paths (0/1 steps from the root) of the non-leaf nodes of a magma term."""
    if isinstance(term, int):
        return []
    left, right = term
    return [path] + magma_nodes(left, path + (0,)) + magma_nodes(right, path + (1,))


def check_magma(term: MagmaTerm, p: int) -> MagmaTerm:
    for a in magma_leaves(term):
        if not isinstance(a, int) or not 1 <= a <= p:
            raise InputError(f"magma leaf {a!r} outside alphabet 1..{p}")
    return term


def expand_word(term: MagmaTerm) -> dict[Word, int]:
    """Commutator expansion of a magma term as an integer term dict."""
    cached = _EXPAND_MEMO.get(term)
    if cached is not None:
        return cached
    if isinstance(term, int):
        result = {(term,): 1}
    else:
        left, right = expand_word(term[0]), expand_word(term[1]).items()
        pairs = [(w1, w2, c1 * c2) for w1, c1 in left.items() for w2, c2 in right]
        result = accumulate((w1 + w2, c) for w1, w2, c in pairs)
        accumulate(((w2 + w1, -c) for w1, w2, c in pairs), result)
    _EXPAND_MEMO[term] = result
    return result


def commutator_expand(term: MagmaTerm, p: int) -> Chain:
    """Expand a magma term into the word algebra: a leaf is its letter and a
    node goes to left*right - right*left. The multidegree of the result equals
    the leaf multiset."""
    check_magma(term, p)
    return Chain(p, dict(expand_word(term)))


def eta_comb(word: Word) -> MagmaTerm:
    """The magma term whose commutator expansion equals eta of the word."""
    if not word:
        raise InputError("empty word has no bracketing")
    term: MagmaTerm = word[0]
    for a in word[1:]:
        term = (a, term)
    return term
