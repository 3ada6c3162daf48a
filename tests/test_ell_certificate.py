"""The re-attachment-kernel certificate against its all-pairs form.

`bases.ell_ranks(md)` takes the pairs (u, b) with u a word of md - e_b and
inserts the bracket row b.eta(u) - eta(u).b of each pair whose ambient row
raised the rank, read at its Lyndon words. The reference below is the earlier
implementation: it inserts every ambient row eta(u).b of a stream of pairs and
the image of every one under `canonical_l`, a full eta of degree n, over all
words. Both must give the same (ambient, image) ranks.

The two facts that make this exact are checked on their own, with no
certificate code: the identity ell(eta(u).b) = -(n - 1)/n * (b.eta(u) -
eta(u).b), and that Lie elements keep their rank when read at Lyndon words.
"""

from fractions import Fraction
from itertools import product

import pytest

import swingwords.bases
from swingwords.bases import _ell_kernel_dim, ell_ranks, enum_words, lyndon_columns
from swingwords.chains import Chain
from swingwords.dims import h_dim_multidegree, witt_multidegree
from swingwords.linalg import RowSpace, rank
from swingwords.moves import eta, eta_word
from swingwords.quotients import canonical_l


def ref_ell_ranks(pairs, p):
    ambient = RowSpace()
    image = RowSpace()
    for u, letter in pairs:
        row = {w + (letter,): c for w, c in eta_word(u).items()}
        if not row:
            continue
        ambient.insert(row)
        image.insert(dict(canonical_l(Chain(p, row)).chain.terms))
    return ambient.rank, image.rank


def kernel_pairs(md):
    """The (u, letter) pairs of `_ell_kernel_dim`: every u of multidegree
    md - e_letter, letter by letter."""
    return [(u, letter) for letter, count in enumerate(md, start=1) if count
            for u in enum_words(md[:letter - 1] + (count - 1,) + md[letter:])]


def multidegrees(p, max_total):
    return [md for md in product(range(max_total + 1), repeat=p) if 1 <= sum(md) <= max_total]


CERTIFIED = ([md for p in (1, 2, 3) for md in multidegrees(p, 7)]
             + multidegrees(4, 6))


def test_ell_ranks_match_the_all_pairs_reference_per_multidegree():
    nonzero = 0
    for md in CERTIFIED:
        pairs = kernel_pairs(md)
        ambient, image = ref_ell_ranks(pairs, len(md))
        assert ell_ranks(md) == (ambient, image), md
        assert _ell_kernel_dim(md) == ambient - image == h_dim_multidegree(md), md
        nonzero += ambient > image > 0
    # about half the cases have both a nonzero image and a nonzero kernel
    assert (len(CERTIFIED), nonzero) == (370, 180)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_ell_ranks_match_the_reference_on_the_exactness_streams(p):
    # `suite_exactness` sums ell_ranks over the multidegrees of degree n; the
    # reference ranks the whole stream at once: every word of degree n - 1,
    # every letter. They agree when rows of different multidegrees are
    # independent, as their disjoint columns make them.
    for n in range(2, 7):
        pairs = [(u, b) for u in product(range(1, p + 1), repeat=n - 1)
                 for b in range(1, p + 1)]
        by_md = [ell_ranks(md) for md in product(range(n + 1), repeat=p) if sum(md) == n]
        summed = tuple(sum(ranks) for ranks in zip(*by_md))
        assert summed == ref_ell_ranks(pairs, p), (n, p)


def _recorded_inserts(monkeypatch):
    """Spy on every row inserted into any row space, `linalg.rank`'s too, and
    on every column map that `bases` makes: returns the list of column maps
    and the list of (space, rank before the insert, row) triples."""
    made, inserts = [], []
    insert = RowSpace.insert

    def recorded_columns(m, tail=()):
        columns = lyndon_columns(m, tail)
        made.append(columns)
        return columns

    def recorded_insert(space, row):
        inserts.append((space, space.rank, dict(row)))
        return insert(space, row)

    monkeypatch.setattr(swingwords.bases, "lyndon_columns", recorded_columns)
    monkeypatch.setattr(RowSpace, "insert", recorded_insert)
    return made, inserts


def test_certificate_rows_are_keyed_by_the_column_tuples(monkeypatch):
    # every key of every ambient and bracket row is the very tuple that
    # lyndon_columns made, so the rows of one space share their keys
    made, inserts = _recorded_inserts(monkeypatch)
    md = (2, 2, 1)
    assert _ell_kernel_dim(md) == h_dim_multidegree(md)
    keys = {id(w) for columns in made for w in columns.values()}
    # one ambient space per letter, and the image space inside linalg.rank
    assert len({id(space) for space, _, _ in inserts}) == len(md) + 1
    assert any(row for _, _, row in inserts)
    assert all(id(w) in keys for _, _, row in inserts for w in row)


@pytest.mark.parametrize("md", [(2, 2, 1), (3, 2, 2), (2, 2, 2, 1)])
def test_no_row_is_inserted_into_a_space_at_full_column_rank(monkeypatch, md):
    # each ambient space stops at its letter's number of columns and the
    # image space at the Lyndon words of md; both stops are reached here
    made, inserts = _recorded_inserts(monkeypatch)
    _, image = ell_ranks(md)
    width = {id(w): len(columns) for columns in made for w in columns.values()}
    spaces = {}
    for space, before, row in inserts:
        for w in row:
            assert before < width[id(w)], (md, before, row)
            spaces[id(space)] = space, width[id(w)]
    # every space ends at full column rank, so every stop was reached
    assert len(spaces) == len(md) + 1
    assert all(space.rank == columns for space, columns in spaces.values())
    assert image == witt_multidegree(md)


def test_bracket_rows_are_multiples_of_the_image_rows():
    p = 3
    for n in range(2, 8):
        multiple = Fraction(-(n - 1), n)
        for u in product(range(1, p + 1), repeat=n - 1):
            lie = eta(Chain.of_word(p, u))
            for b in range(1, p + 1):
                letter = Chain.of_word(p, (b,))
                image = canonical_l(lie * letter)
                assert image.chain == (letter * lie - lie * letter).scale(multiple), (u, b)


def test_lie_elements_keep_their_rank_at_lyndon_words():
    for md in multidegrees(3, 7):
        words = enum_words(md)
        # a Lyndon word is strictly below each of its proper rotations
        lyndon = {w for w in words if all(w < w[i:] + w[:i] for i in range(1, len(w)))}
        rows = [eta_word(w) for w in words]
        at_lyndon = [{w: c for w, c in row.items() if w in lyndon} for row in rows]
        assert rank(at_lyndon) == rank(rows) == witt_multidegree(md), md
