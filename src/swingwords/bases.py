"""Explicit bases of the graded quotients, the 5373540-element table of the
9-letter degree-9 diagram space, and the even-run experiment.

Basis selection is greedy over lexicographic word order with exact rank
updates; the rank can never exceed the formula dimension, so the row spaces
involved stay small even when the word blocks are large.

Every row ranked here is a Lie element, read at its Lyndon words only
(`lyndon_words`): eta(w) lies in Lie_n, and the g-image in Lie_{n-1} (x) V,
stored as words u.b. A Lie element is determined by its coefficients at
Lyndon words, since the Lyndon basis element P_l is l plus lexicographically
larger words (Chen-Fox-Lyndon 1958; Lothaire, Combinatorics on Words, 1983,
Ch. 5). So restriction to those columns is a linear map injective on the span
of the rows: an insert raises the rank exactly when the full row would, the
same words are chosen and the same ranks reported, over about 1/n of the
columns.

Each row is built at its columns only, from memoized images one degree down
or lower, and the whole top-degree image is never built or memoized:
- eta(u.a) = a.eta(u) - eta(u).a, so `eta_at` reads each term of the
  memoized eta(u) once and keeps the two words it gives that are columns;
- the g-image is a sum of products of memoized eta terms (the bracket
  recursion of `quotients._g_image_scaled`), and `g_image_rows` splits each
  column at each cut and looks up only the products that land on it.
Both give exactly the restriction of the full image, term for term.

An h basis is certified by the dimension of the kernel of the re-attachment
map ell on (Lie part) tensor (letters), an exact rank computation over Q
(`ell_ranks`): the ambient rows that raise the rank span the ambient space, so
by linearity their images span the image of ell, and by the Dynkin-Specht-Wever
theorem each image is a rational multiple -(n - 1)/n of a bracket row, which
needs no degree-n eta. That multiple can vanish mod q, so the certificate is
computed over Q. Only its ranks are read, and a rank depends neither on the
order of the rows nor on rows past full column rank: the ambient rows are
inserted in word order, one letter at a time, each letter stopping at its
number of columns, and the bracket rows sparsest first, stopping at theirs
(`linalg.rank`). The greedy scans read which rows raise the rank, so they
keep the lexicographic order and insert until the formula dimension. Both are
the one scan `linalg.independent`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import groupby

from .chains import (MULTIDEGREE_REFUSAL, Multidegree, Word, accumulate, check_multidegree,
                     check_sequence, word_count)
from .dims import h_dim_multidegree, h_dim_total, witt_multidegree
from .linalg import independent, rank
from .moves import eta_word
from .quotients import _g_orbit
from .scalars import MAX_WORDS, InputError, ResourceLimitError


def _word_block(m) -> Multidegree:
    """The multidegree, checked (`chains.check_multidegree`), refused unless
    it has at most MAX_WORDS words.

    The bound is checked before any count or formula: a block with
    n - max(md) >= MAX_WORDS.bit_length() has at least 2^(n - max md) words
    (see `dims._refuse_before`) and is refused at once; below that,
    `word_count` is a product of small binomials."""
    md = check_multidegree(m)
    if sum(md) - max(md) >= MAX_WORDS.bit_length() or word_count(md) > MAX_WORDS:
        raise ResourceLimitError(
            f"multidegree {md} has more words than the bound {MAX_WORDS}")
    return md


def enum_words(m) -> list[Word]:
    """All words with the given multidegree, in lexicographic order, refused
    before any is built when together they hold more letters than
    MAX_WORDS words of MAX_WORDS.bit_length() letters each: the word bound
    alone admits a few words of many letters, such as one of 10^9."""
    md = _word_block(m)
    limit = MAX_WORDS * MAX_WORDS.bit_length()
    if word_count(md) * sum(md) > limit:
        raise ResourceLimitError(
            f"the words of multidegree {md} hold more letters than the bound {limit}")
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


def lyndon_words(m) -> list[Word]:
    """The Lyndon words of a multidegree, in lexicographic order: the words
    strictly below each of their proper suffixes. Their coefficients fix a
    Lie element of that multidegree, so they are the columns every Lie row is
    ranked on.

    They are generated directly by the FKM walk over the prenecklaces of
    that content (Fredricksen-Kessler-Maiorana; with fixed content, Sawada,
    Theoret. Comput. Sci. 301, 2003). Position t takes, in increasing order,
    each letter from a_{t-p} up that has copies left, where p is the period
    of a_1..a_{t-1}: the period stays p when the letter is a_{t-p} and
    becomes t when it is larger. A full word is Lyndon exactly when its
    period is its length. Two kinds of branch that complete no Lyndon word
    are never entered: a first letter above the smallest letter present (no
    later letter may lie below a_1), and, for n >= 2, a prefix after which
    only copies of a_1 remain (a Lyndon word of length >= 2 ends above its
    first letter). The walk keeps its own stack, so a long content needs no
    recursion, and it cuts those branches at once, so a content such as
    (m, 1) takes O(m) steps."""
    md = _word_block(m)
    n = sum(md)
    if n == 0:
        return [()]
    k = len(md)
    first = next(b for b, x in enumerate(md, start=1) if x)
    above = n - md[first - 1]  # copies of the letters above the first not yet placed
    if not above:  # one letter, n times
        return [(first,)] if n == 1 else []
    left = [0, *md]  # copies of each letter not yet placed
    left[first] -= 1
    a = [0] * (n + 1)  # a[t] = 0: nothing placed at t yet
    a[1] = first
    period = [1] * (n + 1)  # period[t]: the period of a_1..a_{t-1}
    out: list[Word] = []
    t = 2
    while t > 1:
        j = a[t]
        if j:  # take back the letter at t and try the next one
            left[j] += 1
            above += j != first
            j += 1
        else:
            j = a[t - period[t]]
        while j <= k and not left[j]:
            j += 1
        if j > k:
            a[t] = 0
            t -= 1
            continue
        a[t] = j
        left[j] -= 1
        above -= j != first
        p = period[t] if j == a[t - period[t]] else t
        if t == n:
            if p == n:
                out.append(tuple(a[1:]))
        elif above:
            t += 1
            period[t] = p
    return out


def lyndon_columns(m, tail: Word = ()) -> dict[Word, Word]:
    """The column map of every Lie row: each Lyndon word l of a multidegree,
    mapped to the key l + tail that every row of one scan is keyed by, so
    that row reduction matches keys by identity. With a letter b as the tail
    these are the columns l.b of (Lie part) tensor b."""
    return {l: l + tail for l in lyndon_words(m)}


def eta_at(word: Word, columns: dict[Word, Word]) -> dict[Word, int]:
    """eta(word) at the given columns only, read off the memoized eta of the
    word's prefix: eta(u.a) = a.eta(u) - eta(u).a, so each term c x of eta(u)
    gives c at a.x and -c at x.a, kept when they are columns. The image of
    the whole word is neither built nor memoized. A letter is its own eta,
    and the empty word's is 0.

    `columns` maps each column to the one tuple that the rows are keyed by
    (`lyndon_columns`)."""
    if len(word) < 2:
        return {columns[word]: 1} if word and word in columns else {}
    last = word[-1:]
    prefix = eta_word(word[:-1]).items()
    column = columns.get
    row = {w: c for x, c in prefix if (w := column(last + x)) is not None}
    return accumulate(((w, c) for x, c in prefix if (w := column(x + last)) is not None),
                      row, -1)


def _removals(md: Multidegree) -> list[tuple[int, Multidegree]]:
    """(b, md - e_b) for each letter b that occurs in md."""
    return [(b, md[:b - 1] + (x - 1,) + md[b:]) for b, x in enumerate(md, start=1) if x]


def g_image_rows(md: Multidegree):
    """A function taking each word of md to its scaled g-image at the h
    columns l.b only, with l a Lyndon word of md - e_b: the row
    `quotients._g_image_scaled(word)` restricted to those columns, built
    without the full image.

    The bracket recursion there (its docstring derives it) sums, at each cut
    2 <= k < n, the products u.v.a_k and -v.u.a_k over the terms u of
    E_{k-1} and v of Z_k, times (-1)^(k+1). So a column x = l.a_k receives
    u.v exactly when l splits as u.v with |u| = k - 1, and v.u when it
    splits as v.u with |v| = n - k. The columns are indexed once per call by
    their last letter and, at each cut, by both splits (a letter that ends
    no column gets no index); each bracket then reads the terms of E_{k-1}
    and of Z_k once and looks up the columns they begin, about
    sum_k (|E_{k-1}| + |Z_k|) steps plus the matches, against the 2^(n-2)
    products of each full bracket. The two boundary terms, (-1)^n
    E_{n-1}.a_n and Z_1.a_1, are read at each column directly."""
    n = sum(md)
    tails: dict[int, dict[Word, Word]] = {}
    cuts: dict[tuple[int, int], tuple[dict, dict]] = {}
    for b, rest in _removals(md):
        columns = tails[b] = lyndon_columns(rest, (b,))
        if not columns:  # md - e_b is one letter, twice or more
            continue
        for k in range(2, n):
            fronts: dict[Word, list] = {}
            backs: dict[Word, list] = {}
            for l, x in columns.items():
                fronts.setdefault(l[:k - 1], []).append((l[k - 1:], x))
                backs.setdefault(l[:n - k], []).append((l[n - k:], x))
            cuts[b, k] = fronts, backs
    sign = 1 if n % 2 == 0 else -1

    def row(word: Word) -> dict[Word, int]:
        prefix = eta_word(word[:-1])
        terms = [(x, sign * c) for l, x in tails[word[-1]].items() if (c := prefix.get(l))]
        right = eta_word(word[1:][::-1])
        terms += [(x, c) for l, x in tails[word[0]].items() if (c := right.get(l))]
        for k in range(2, n):
            split = cuts.get((word[k - 1], k))
            if split is None:  # no column ends in a_k
                continue
            fronts, backs = split
            left = eta_word(word[:k - 1])
            right = eta_word(word[k:][::-1])
            s = -1 if k % 2 == 0 else 1
            for u, c in left.items():
                for v, x in fronts.get(u, ()):
                    d = right.get(v)
                    if d:
                        terms.append((x, s * c * d))
            for v, d in right.items():
                for u, x in backs.get(v, ()):
                    c = left.get(u)
                    if c:
                        terms.append((x, -s * c * d))
        return accumulate(terms)
    return row


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


def _greedy(words: list[Word], target: int, row) -> list[Word]:
    """The words, in order, whose rows raise the rank, up to the formula
    dimension `target`; a count that disagrees with the formula is refused."""
    chosen = [words[i] for i in independent(map(row, words), target)]
    if len(chosen) != target:
        raise ArithmeticError(
            f"basis selection found {len(chosen)} words, formula says {target}")
    return chosen


def lie_basis(m) -> BasisSet:
    """Greedy lexicographic selection of words with independent left-fold
    canonical forms; the count matches the necklace number.

    Each eta(w) lies in Lie_n and is ranked at the Lyndon words of md only:
    that restriction is injective on Lie_n, so it raises the rank exactly
    when the full row would and the same words are chosen. Each row is built
    at those columns only (`eta_at`)."""
    md = _word_block(m)
    target = witt_multidegree(md)
    lyndon = lyndon_columns(md)
    chosen = _greedy(enum_words(md), target, lambda word: eta_at(word, lyndon))
    return BasisSet(md, "lie", chosen, {"rank": len(chosen), "target": target})


def h_basis(m) -> BasisSet:
    """Greedy lexicographic selection of words with independent primed
    canonical forms, their g-images scaled by n - 1; certified against the
    re-attachment kernel dimension.

    Each g-image lies in Lie_{n-1} (x) V, stored as words u.b, and is ranked
    at the words l.b with l a Lyndon word of md - e_b only: that restriction
    is injective on Lie_{n-1} (x) V, one letter b at a time, so it raises the
    rank exactly when the full row would and the same words are chosen.
    Each row is built at those columns only (`g_image_rows`).

    A row is built for the representative of each orbit (`quotients._g_orbit`)
    only. Any other word gets an empty row: its image is 0, or its orbit's
    least word has the same letters, so it comes earlier in the same block,
    and its row is +- this one. That row raised the rank or was dependent on
    earlier rows, so this one would not raise it, and the chosen words are
    the same."""
    md = _word_block(m)
    target = h_dim_multidegree(md)
    # the words first: their bound is checked before the columns are indexed
    words = enum_words(md)
    row = g_image_rows(md)
    chosen = _greedy(words, target, lambda word: row(word) if _g_orbit(word) == (word, 1) else {})
    certificate = {"rank": len(chosen), "target": target,
                   "ell_kernel_dim": _ell_kernel_dim(md)}
    if certificate["ell_kernel_dim"] != target:
        raise ArithmeticError("re-attachment kernel dimension disagrees with the formula")
    return BasisSet(md, "h", chosen, certificate)


def ell_ranks(md: Multidegree) -> tuple[int, int]:
    """Ranks of the tensor space (Lie part) (x) (letters) at multidegree md,
    and of its image under the re-attachment map ell, both over Q. A tensor
    u (x) b is stored as the word u.b.

    - Spanning set: for each letter b of md, the ambient rows eta(u) (x) b of
      the words u of md - e_b are inserted in lexicographic order into one
      row space per letter (`linalg.independent`); rows of different letters
      share no column, since their columns end in b. A letter's inserts stop
      once its rank equals its number of columns, the Lyndon words of
      md - e_b: no rank can pass the number of columns, so no later row could
      raise it, and the rank is counted, not taken from a formula. The words
      whose rows raised the rank span the ambient space, so by linearity
      their images span the image of ell. The words beginning with the least
      letter of md - e_b usually reach that rank, so most ambient rows are
      never built.
    - Bracket rows: eta sends a Lie element x of degree d to (-1)^(d-1) d x
      (Dynkin-Specht-Wever; Reutenauer, Free Lie Algebras, 1993, Thm 1.4)
      and eta(x.b) = b.eta(x) - eta(x).b, so ell(eta(u).b) = -(n - 1)/n *
      (b.eta(u) - eta(u).b) = -(n - 1)/n * eta(u.b): the bracket spans the
      line of the image row.
    - Image rank: the rank of a set of rows does not depend on their order,
      so the bracket rows of the words that raised an ambient rank are ranked
      sparsest first, stopping at their number of columns, the Lyndon words
      of md (`linalg.rank`). Sparse rows first keep the fill-in of the stored
      rows low.
    - Lyndon columns: ambient rows and bracket rows are Lie elements, read at
      the Lyndon words of their multidegree only (see the module docstring):
      the same ranks, raised by the same rows, over about 1/n of the columns.
      Both are built at those columns from the memoized eta one degree down
      (`eta_at`), so no degree-n eta is built, and both are keyed by the
      tuples of `lyndon_columns`: l.b for an ambient row, l for a bracket row.

    Rows of different multidegrees share no column, so the ranks of a sum of
    multidegrees are the sums of theirs. Over F_q the multiple needs q to
    divide neither n nor n - 1, so the certificate stays over Q.
    """
    ambient = 0
    brackets = lyndon_columns(md)
    spanning = []
    for b, rest in _removals(md):
        tail = (b,)
        columns = lyndon_columns(rest, tail)
        words = enum_words(rest)
        raised = independent((eta_at(u, columns) for u in words), len(columns))
        spanning += (eta_at(words[i] + tail, brackets) for i in raised)
        ambient += len(raised)
    return ambient, rank(spanning, columns=len(brackets))


def _ell_kernel_dim(md: Multidegree) -> int:
    """dim ker of the re-attachment map on (Lie part) tensor (letters), per
    multidegree: ambient rank minus image rank (`ell_ranks`)."""
    ambient, image = ell_ranks(md)
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
    pattern = check_sequence(pattern, "a pattern must be a sequence of part sizes")
    if len(pattern) > p:
        raise InputError("pattern has more parts than letters")
    # the unused letters, then the letters of each part size
    return word_count((p - len(pattern), *Counter(pattern).values()))


def section4_table() -> dict:
    """Recompute every line of the degree-9 table and its grand total.

    Each line is checked as assignments(pattern) * per-assignment dimension
    against the printed aggregate, and the grand total against both the
    printed 5373540 and the closed formula.
    """
    lines = []
    grand = 0
    for pattern, printed in SECTION4_LINES:
        per = h_dim_multidegree(pattern)
        ways = pattern_assignments(pattern)
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
    formula_total = h_dim_total(9, 9)
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
        start = 0
        for letter, run in groupby(word):
            end = start + len(list(run))
            interior = start > 0 and end < len(word)
            if letter == 2 and (end - start) % 2 == 0 and (interior or not self.interior_only):
                return True
            start = end
        return False

    def _has_even_general_run(self, word: Word) -> bool:
        # a block of letters, every one larger than both flanking letters,
        # whose length is even; both flanks must exist, so this form is
        # interior-only by construction. The stack holds the open left
        # flanks: the positions whose letter is below every later one read so
        # far. Letters rise up the stack, so the one just above a flank is the
        # least of its block, and a letter x that pops a larger one closes a
        # block at the flank below it. Each position is pushed and popped at
        # most once, so the walk is linear.
        stack: list[int] = []
        for j, x in enumerate(word):
            while stack and word[stack[-1]] >= x:
                least = word[stack.pop()]
                if stack and least > x and (j - stack[-1]) % 2:
                    return True
            stack.append(j)
        return False


EVENRUN_VARIANTS: list[RunPredicate] = [
    RunPredicate("all_runs_odd"),
    RunPredicate("all_runs_odd_leading_1", leading_one=True),
    RunPredicate("interior_runs_odd", interior_only=True),
    RunPredicate("interior_runs_odd_leading_1", leading_one=True, interior_only=True),
    RunPredicate("general_interior_runs_odd", interior_only=True, generalized=True),
]


def evenrun_experiment(m) -> dict:
    """Count predicate-passing two-letter words against the necklace number
    and rank-test their canonical forms. Reports matches; asserts nothing."""
    md = check_sequence(m, MULTIDEGREE_REFUSAL)
    if len(md) != 2:
        raise InputError("the even-run experiment is about two-letter words")
    md = _word_block(md)
    target = witt_multidegree(md)
    words = enum_words(md)
    lyndon = lyndon_columns(md)
    results = []
    for predicate in EVENRUN_VARIANTS:
        passing = [w for w in words if predicate.accepts(w)]
        r = rank((eta_at(word, lyndon) for word in passing), columns=len(lyndon))
        results.append({
            "variant": predicate.name,
            "count": len(passing),
            "target_dimension": target,
            "rank": r,
            "independent": r == len(passing),
            "spanning": r == target,
            "matches_dimension": len(passing) == target and r == target,
        })
    return {"multidegree": list(md), "target_dimension": target, "variants": results}
