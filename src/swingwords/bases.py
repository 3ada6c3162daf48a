"""Explicit bases of the graded quotients, the 5373540-element table of the
9-letter degree-9 diagram space, and the even-run experiment.

Basis selection is greedy over lexicographic word order with exact rank
updates; the rank can never exceed the formula dimension, so the row spaces
involved stay small even when the word blocks are large.

An h basis is certified by the dimension of the kernel of the re-attachment
map ell on (Lie part) tensor (letters), an exact rank computation over Q
(`ell_ranks`): the ambient rows that raise the rank span the ambient space, so
by linearity their images span the image of ell, and by the Dynkin-Specht-Wever
theorem each image is a rational multiple -(n - 1)/n of a bracket row, which
needs no degree-n eta; every row is a Lie element, read at its Lyndon words
only. That multiple can vanish mod q, so the certificate is computed over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .chains import Multidegree, Word, accumulate
from .dims import h_dim_multidegree, h_dim_total, witt_multidegree
from .linalg import RowSpace
from .moves import eta_word
from .quotients import _g_image_scaled
from .scalars import InputError, ResourceLimitError

DEFAULT_MAX_BLOCK = 2_000_000


def enum_words(m, max_block: int = DEFAULT_MAX_BLOCK) -> list[Word]:
    """All words with the given multidegree, in lexicographic order."""
    md = tuple(m)
    if not md or any(x < 0 for x in md):
        raise InputError(f"bad multidegree {m!r}")
    total = sum(md)
    count = factorial(total)
    for x in md:
        count //= factorial(x)
    if count > max_block:
        raise ResourceLimitError(
            f"multidegree {md} has {count} words, over the bound {max_block}")
    letters = []
    for letter, x in enumerate(md, start=1):
        letters.extend([letter] * x)
    return list(_multiset_permutations(letters))


def _multiset_permutations(letters: list[int]):
    """The distinct permutations of a sorted list, in lexicographic order, at
    constant amortized cost each (Knuth, TAOCP 4A, Algorithm L)."""
    a = list(letters)
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


@dataclass
class BasisSet:
    """Selected representatives with the rank data certifying them."""

    multidegree: Multidegree
    space: str
    words: list[Word]
    certificate: dict

    def to_dict(self) -> dict:
        return {
            "multidegree": list(self.multidegree),
            "space": self.space,
            "dimension": len(self.words),
            "words": [list(w) for w in self.words],
            "certificate": self.certificate,
        }


def lie_basis(m) -> BasisSet:
    """Greedy lexicographic selection of words with independent left-fold
    canonical forms; the count matches the necklace number."""
    md = tuple(m)
    target = witt_multidegree(md)
    space = RowSpace()
    chosen: list[Word] = []
    for word in enum_words(md):
        if space.rank == target:
            break
        if space.insert(eta_word(word)):
            chosen.append(word)
    if len(chosen) != target:
        raise ArithmeticError(
            f"basis selection found {len(chosen)} words, formula says {target}")
    return BasisSet(md, "lie", chosen, {"rank": len(chosen), "target": target})


def h_basis(m) -> BasisSet:
    """Greedy lexicographic selection of words with independent primed
    canonical forms, their g-images scaled by n - 1; certified against the
    re-attachment kernel dimension."""
    md = tuple(m)
    target = h_dim_multidegree(md)
    space = RowSpace()
    chosen: list[Word] = []
    for word in enum_words(md):
        if space.rank == target:
            break
        if space.insert(_g_image_scaled(word)):
            chosen.append(word)
    if len(chosen) != target:
        raise ArithmeticError(
            f"basis selection found {len(chosen)} words, formula says {target}")
    certificate = {"rank": len(chosen), "target": target,
                   "ell_kernel_dim": _ell_kernel_dim(md)}
    if certificate["ell_kernel_dim"] != target:
        raise ArithmeticError("re-attachment kernel dimension disagrees with the formula")
    return BasisSet(md, "h", chosen, certificate)


def ell_ranks(pairs, p: int) -> tuple[int, int]:
    """Ranks of the span of eta(u) (x) letter over the given (u, letter) pairs
    in the tensor space over 1..p, and of its image under the re-attachment
    map ell, both over Q. A tensor u (x) b is stored as the word u.b.

    - Spanning set: one full pass inserts every ambient row, with no early
      break and no rank taken from a formula. The pairs whose rows raised the
      rank span the ambient space, so by linearity their images span the
      image of ell.
    - Bracket rows: eta sends a Lie element x of degree d to (-1)^(d-1) d x
      (Dynkin-Specht-Wever; Reutenauer, Free Lie Algebras, 1993, Thm 1.4)
      and eta(x.b) = b.eta(x) - eta(x).b, so ell(eta(u).b) = -(n - 1)/n *
      (b.eta(u) - eta(u).b): the bracket spans the line of the image row
      with no degree-n eta.
    - Lyndon columns: a Lie element is determined by its coefficients at
      Lyndon words, since the Lyndon basis element P_l is l plus
      lexicographically larger words (Lothaire, Combinatorics on Words,
      1983, Ch. 5). Ambient rows (eta(u) with b appended) and bracket rows
      are read there only: the same ranks, raised by the same rows, over
      about 1/n of the columns.

    Over F_q the multiple needs q to divide neither n nor n - 1, so the
    certificate stays over Q.
    """
    ambient = RowSpace()
    image = RowSpace()
    lyndon: dict[Word, bool] = {}

    def is_lyndon(word: Word) -> bool:
        known = lyndon.get(word)
        if known is None:
            # strictly below each of its proper suffixes, lexicographically
            known = lyndon[word] = all(word < word[i:] for i in range(1, len(word)))
        return known

    for u, letter in pairs:
        lie = eta_word(u).items()
        if ambient.insert({w + (letter,): c for w, c in lie if is_lyndon(w)}):
            head = (letter,)
            bracket = accumulate(((w + head, -c) for w, c in lie),
                                 {head + w: c for w, c in lie})
            image.insert({w: c for w, c in bracket.items() if is_lyndon(w)})
    return ambient.rank, image.rank


def _ell_kernel_dim(md: Multidegree) -> int:
    """dim ker of the re-attachment map on (Lie part) tensor (letters), per
    multidegree: ambient rank minus image rank, both by exact row reduction
    over Q of the rows `ell_ranks` builds (a spanning set of the ambient rows
    and one bracket row per member of it)."""
    pairs = ((u, letter) for letter, count in enumerate(md, start=1) if count
             for u in enum_words(md[:letter - 1] + (count - 1,) + md[letter:]))
    ambient, image = ell_ranks(pairs, len(md))
    return ambient - image


# The degree-9, 9-letter table: letter-usage patterns (zeros suppressed,
# sorted ascending) with their printed aggregate counts. An aggregate is
# (number of ways to assign distinct letters to the pattern) times the
# per-assignment dimension.
SECTION4_LINES: list[tuple[tuple[int, ...], int]] = [
    ((1, 1, 1, 1, 1, 1, 1, 1, 1), 5040),
    ((1, 1, 1, 1, 1, 1, 1, 2), 181440),
    ((1, 1, 1, 1, 1, 1, 3), 211680),
    ((1, 1, 1, 1, 1, 4), 105840),
    ((1, 1, 1, 1, 5), 26460),
    ((1, 1, 1, 6), 3528),
    ((1, 1, 7), 252),
    ((1, 1, 1, 1, 1, 2, 2), 952560),
    ((1, 1, 1, 1, 2, 3), 1058400),
    ((1, 1, 1, 2, 4), 264600),
    ((1, 1, 2, 5), 31752),
    ((1, 1, 1, 2, 2, 2), 1058400),
    ((1, 1, 2, 2, 3), 793800),
    ((1, 1, 1, 3, 3), 176400),
    ((1, 1, 3, 4), 52920),
    ((1, 2, 2, 2, 2), 196560),
    ((1, 2, 2, 4), 77112),
    ((1, 2, 6), 1512),
    ((1, 2, 3, 3), 105840),
    ((1, 3, 5), 3528),
    ((1, 4, 4), 2016),
    ((2, 2, 2, 3), 51408),
    ((2, 2, 5), 2268),
    ((2, 3, 4), 8064),
    ((3, 3, 3), 2016),
    ((3, 6), 72),
    ((4, 5), 72),
]

SECTION4_TOTAL = 5373540


def pattern_assignments(pattern: tuple[int, ...], p: int = 9) -> int:
    """Ways to assign distinct letters from 1..p to the parts of a pattern."""
    if len(pattern) > p:
        raise InputError("pattern has more parts than letters")
    count = factorial(p) // factorial(p - len(pattern))
    for value in set(pattern):
        count //= factorial(pattern.count(value))
    return count


def section4_table(p: int = 9, n: int = 9) -> dict:
    """Recompute every line of the degree-9 table and its grand total.

    Each line is checked as assignments(pattern) * per-assignment dimension
    against the printed aggregate, and the grand total against both the
    printed 5373540 and the closed formula.
    """
    if (p, n) != (9, 9):
        raise InputError("the tabulated computation is the degree-9, 9-letter one")
    lines = []
    grand = 0
    for pattern, printed in SECTION4_LINES:
        per = h_dim_multidegree(pattern)
        ways = pattern_assignments(pattern, p)
        computed = ways * per
        grand += computed
        lines.append({
            "pattern": list(pattern),
            "assignments": ways,
            "per_assignment": per,
            "computed": computed,
            "printed": printed,
            "match": computed == printed,
        })
    formula_total = h_dim_total(n, p)
    return {
        "lines": lines,
        "grand_total": grand,
        "printed_total": SECTION4_TOTAL,
        "formula_total": formula_total,
        "match": grand == SECTION4_TOTAL == formula_total and all(l["match"] for l in lines),
    }


@dataclass(frozen=True)
class RunPredicate:
    """One normalization variant of the even-run condition on words.

    leading_one: the word must start with letter 1.
    interior_only: only runs of 2s strictly between two smaller letters are
    constrained (boundary runs exempt); otherwise every maximal run counts.
    generalized: constrain runs of every letter value larger than both
    neighbours, not just runs of 2s.
    """

    name: str
    leading_one: bool = False
    interior_only: bool = False
    generalized: bool = False

    def accepts(self, word: Word) -> bool:
        if self.leading_one and (not word or word[0] != 1):
            return False
        if self.generalized:
            return not self._has_even_general_run(word)
        return not self._has_even_two_run(word)

    def _has_even_two_run(self, word: Word) -> bool:
        i = 0
        n = len(word)
        while i < n:
            if word[i] != 2:
                i += 1
                continue
            j = i
            while j < n and word[j] == 2:
                j += 1
            interior = i > 0 and j < n
            if (j - i) % 2 == 0 and (interior or not self.interior_only):
                return True
            i = j
        return False

    def _has_even_general_run(self, word: Word) -> bool:
        # a block of letters, every one larger than both flanking letters,
        # whose length is even; both flanks must exist, so this form is
        # interior-only by construction
        n = len(word)
        for i in range(n):
            for j in range(i + 2, n):
                block = word[i + 1:j]
                if (j - i - 1) % 2:
                    continue
                if all(x > word[i] and x > word[j] for x in block):
                    return True
        return False


EVENRUN_VARIANTS: list[RunPredicate] = [
    RunPredicate("all_runs_odd"),
    RunPredicate("all_runs_odd_leading_1", leading_one=True),
    RunPredicate("interior_runs_odd", interior_only=True),
    RunPredicate("interior_runs_odd_leading_1", leading_one=True, interior_only=True),
    RunPredicate("general_interior_runs_odd", interior_only=True, generalized=True),
]


def evenrun_experiment(m, variants: list[RunPredicate] | None = None) -> dict:
    """Count predicate-passing two-letter words against the necklace number
    and rank-test their canonical forms. Reports matches; asserts nothing."""
    md = tuple(m)
    if len(md) != 2:
        raise InputError("the even-run experiment is about two-letter words")
    target = witt_multidegree(md)
    words = enum_words(md)
    results = []
    for predicate in variants or EVENRUN_VARIANTS:
        passing = [w for w in words if predicate.accepts(w)]
        space = RowSpace()
        for w in passing:
            space.insert(eta_word(w))
        results.append({
            "variant": predicate.name,
            "count": len(passing),
            "target_dimension": target,
            "rank": space.rank,
            "independent": space.rank == len(passing),
            "spanning": space.rank == target,
            "matches_dimension": len(passing) == target and space.rank == target,
        })
    return {"multidegree": list(md), "target_dimension": target, "variants": results}
