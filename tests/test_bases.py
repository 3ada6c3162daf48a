import inspect
import random
from itertools import permutations, product
from math import factorial

import pytest

import swingwords.bases
import swingwords.moves
import swingwords.quotients
from swingwords.bases import (EVENRUN_VARIANTS, SECTION4_LINES, RunPredicate, _removals,
                              enum_words, eta_at, evenrun_experiment, g_image_rows, h_basis,
                              lie_basis, lyndon_columns, lyndon_words, pattern_assignments,
                              section4_table)
from swingwords.chains import Chain
from swingwords.dims import h_dim_multidegree, witt_multidegree
from swingwords.linalg import RowSpace, rank
from swingwords.moves import eta_word
from swingwords.quotients import _g_image_scaled, _g_orbit, canonical_prime
from swingwords.scalars import InputError, ResourceLimitError


def test_enum_words_examples():
    assert enum_words((1, 1)) == [(1, 2), (2, 1)]
    assert enum_words((2, 0)) == [(1, 1)]
    assert len(enum_words((2, 2, 1))) == 30


def test_enum_words_resource_guard():
    with pytest.raises(ResourceLimitError):
        enum_words((20, 20))


def test_lie_basis_small():
    basis = lie_basis((1, 1))
    assert basis.words == [(1, 2)]
    assert basis.certificate["rank"] == 1


def test_lie_basis_section4_values():
    assert len(lie_basis((3, 5)).words) == 7
    assert len(lie_basis((4, 4)).words) == 8


def test_lie_basis_matches_formula_small():
    for p in (2, 3):
        for total in range(1, 6):
            for md in product(range(total + 1), repeat=p):
                if sum(md) != total:
                    continue
                basis = lie_basis(md)
                assert len(basis.words) == witt_multidegree(md)


def test_h_basis_matches_formula_small():
    for p in (2, 3):
        for total in range(2, 6):
            for md in product(range(total + 1), repeat=p):
                if sum(md) != total:
                    continue
                basis = h_basis(md)
                assert len(basis.words) == h_dim_multidegree(md)
                assert basis.certificate["ell_kernel_dim"] == len(basis.words)


def test_h_basis_section4_multidegrees():
    assert len(h_basis((4, 5)).words) == 1
    assert len(h_basis((3, 6)).words) == 1
    assert len(h_basis((2, 2, 5)).words) == 9


def test_h_basis_333_is_24():
    basis = h_basis((3, 3, 3))
    assert len(basis.words) == 24
    assert basis.certificate == {"rank": 24, "target": 24, "ell_kernel_dim": 24}


def test_greedy_selection_is_deterministic():
    assert lie_basis((2, 3)).words == lie_basis((2, 3)).words
    assert h_basis((2, 2)).words == h_basis((2, 2)).words


def test_four_degree9_words_span_one_dimension():
    # the four candidate words: images are proportional with the frozen
    # pattern 1, 1/2, 0, 1/2 against the first, so the span is 1-dimensional
    ws = [(1, 2, 1, 1, 2, 2, 2, 2, 1), (1, 2, 1, 2, 1, 2, 2, 2, 1),
          (1, 2, 1, 2, 2, 1, 2, 2, 1), (1, 2, 2, 1, 1, 2, 2, 2, 1)]
    images = [canonical_prime(Chain.of_word(2, w)).image for w in ws]
    from fractions import Fraction

    assert images[1] == images[0].scale(Fraction(1, 2))
    assert images[2].is_zero()
    assert images[3] == images[0].scale(Fraction(1, 2))
    space = RowSpace()
    for image in images:
        space.insert(dict(image.terms))
    assert space.rank == 1 == h_dim_multidegree((4, 5))


def test_pattern_assignments():
    assert pattern_assignments((1,) * 9) == 1
    assert pattern_assignments((1, 1, 1, 1, 1, 1, 1, 2)) == 72
    assert pattern_assignments((1, 2, 2, 2, 2)) == 630
    assert pattern_assignments((3, 3, 3)) == 84
    # p! / (p - parts)! over the factorial of each part size's multiplicity
    for pattern, _ in SECTION4_LINES:
        for p in (9, 10, len(pattern)):
            expected = factorial(p) // factorial(p - len(pattern))
            for size in set(pattern):
                expected //= factorial(pattern.count(size))
            assert pattern_assignments(pattern, p) == expected, (pattern, p)


def test_section4_table_every_line_and_total():
    table = section4_table()
    assert table["match"]
    assert table["grand_total"] == 5373540
    assert table["formula_total"] == 5373540
    printed = [line["printed"] for line in table["lines"]]
    assert printed[:7] == [5040, 181440, 211680, 105840, 26460, 3528, 252]
    for line in table["lines"]:
        assert line["computed"] == line["printed"]


def test_run_predicate_examples():
    basic = RunPredicate("all_runs_odd")
    assert basic.accepts((1, 2, 2, 2))
    assert not basic.accepts((1, 2, 2, 1))
    interior = RunPredicate("interior", interior_only=True)
    assert interior.accepts((2, 2, 1))
    assert not interior.accepts((1, 2, 2, 1))
    general = RunPredicate("general", interior_only=True, generalized=True)
    assert general.accepts((1, 3, 2, 3))
    assert not general.accepts((1, 3, 2, 3, 3, 1))
    assert not general.accepts((1, 3, 3, 1))
    assert general.accepts((1, 2, 2, 2, 1))
    leading = RunPredicate("leading", leading_one=True)
    assert not leading.accepts((2, 1, 2))


def _has_even_general_run_by_pairs(word):
    """The general even-run test read off its definition, over every pair
    of flanks: the reference for the linear walk."""
    n = len(word)
    for i in range(n):
        for j in range(i + 2, n):
            block = word[i + 1:j]
            if (j - i - 1) % 2:
                continue
            if all(x > word[i] and x > word[j] for x in block):
                return True
    return False


def test_general_even_run_walk_matches_every_pair_of_flanks():
    general = RunPredicate("general", interior_only=True, generalized=True)
    rng = random.Random(20060906)
    seen = set()
    for _ in range(20000):
        word = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 12)))
        expected = _has_even_general_run_by_pairs(word)
        seen.add(expected)
        assert general.accepts(word) == (not expected), word
    assert seen == {True, False}


def _has_even_two_run_by_scan(word, interior_only):
    """The run-of-2s test as an index scan: the reference for the groupby walk."""
    i, n = 0, len(word)
    while i < n:
        if word[i] != 2:
            i += 1
            continue
        j = i
        while j < n and word[j] == 2:
            j += 1
        if (j - i) % 2 == 0 and (i > 0 and j < n or not interior_only):
            return True
        i = j
    return False


def test_two_run_walk_matches_the_index_scan():
    every = RunPredicate("all_runs_odd")
    interior = RunPredicate("interior_runs_odd", interior_only=True)
    rng = random.Random(20060906)
    for _ in range(20000):
        word = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 12)))
        assert every.accepts(word) == (not _has_even_two_run_by_scan(word, False)), word
        assert interior.accepts(word) == (not _has_even_two_run_by_scan(word, True)), word


def test_general_even_run_walk_on_long_runs():
    # two-letter words as the experiment reads them, far past the lengths that
    # the pairwise reference reads in reasonable time
    general = RunPredicate("general", interior_only=True, generalized=True)
    assert general.accepts((1,) + (2,) * 3001 + (1,))
    assert not general.accepts((1,) + (2,) * 3000 + (1,))
    assert general.accepts((2,) * 3000 + (1,) * 3000)


def test_evenrun_experiment_reports():
    report = evenrun_experiment((3, 5))
    assert report["target_dimension"] == 7
    names = [v["variant"] for v in report["variants"]]
    assert names == [p.name for p in EVENRUN_VARIANTS]
    for variant in report["variants"]:
        assert set(variant) >= {"count", "rank", "independent", "spanning",
                                "matches_dimension"}
    report44 = evenrun_experiment((4, 4))
    assert report44["target_dimension"] == 8


@pytest.mark.parametrize("md", [(1,), (0, 2), (2, 1), (1, 2, 0), (2, 2, 1),
                                (3, 1, 2), (0, 2, 0, 2), (1, 1, 1, 1)])
def test_enum_words_matches_sorted_distinct_permutations(md):
    letters = [letter for letter, x in enumerate(md, start=1) for _ in range(x)]
    assert enum_words(md) == sorted(set(permutations(letters)))


def test_enum_words_6_6_without_walking_all_permutations():
    # 12! = 479001600 permutations collapse to C(12, 6) = 924 words
    words = enum_words((6, 6))
    assert len(words) == 924
    assert words == sorted(set(words))


# every multidegree of degree 1-7 over at most 4 letters: 329 of them
SMALL_MULTIDEGREES = [md for md in product(range(8), repeat=4) if 1 <= sum(md) <= 7]


def _full_row_greedy(md, image, target):
    """The greedy scan on full rows: the reference for the Lyndon-column
    selection."""
    space = RowSpace()
    chosen = []
    for word in enum_words(md):
        if space.rank == target:
            break
        if space.insert(image(word)):
            chosen.append(word)
    return chosen


def test_lie_basis_matches_the_full_row_greedy():
    for md in SMALL_MULTIDEGREES + [(2, 2, 2, 2)]:
        assert lie_basis(md).words == _full_row_greedy(md, eta_word, witt_multidegree(md)), md


def test_h_basis_matches_the_full_row_greedy():
    # the reference ranks every word's full g-image; h_basis builds a row
    # for orbit representatives only
    for md in SMALL_MULTIDEGREES + [(1, 1), (1, 1, 1), (2, 1), (2, 2, 2, 2), (3, 3, 2), (3, 3, 3)]:
        expected = _full_row_greedy(md, _g_image_scaled, h_dim_multidegree(md))
        assert h_basis(md).words == expected, md


def test_h_basis_builds_no_row_for_a_word_with_an_earlier_orbit_mate(monkeypatch):
    built = []
    original = swingwords.bases.g_image_rows

    def spying(md):
        row = original(md)

        def spy(word):
            built.append(word)
            return row(word)
        return spy
    monkeypatch.setattr(swingwords.bases, "g_image_rows", spying)
    for md in ((2, 2, 1), (2, 2, 2, 1), (3, 3, 2)):
        built.clear()
        chosen = h_basis(md).words
        assert set(chosen) <= set(built)
        assert all(_g_orbit(word) == (word, 1) for word in built), md
        # the words the scan drew without building a row have an image of 0
        # or an earlier orbit-mate
        drawn = [w for w in enum_words(md) if w <= built[-1]]
        skipped = [w for w in drawn if w not in set(built)]
        assert skipped, md
        assert all(_g_orbit(w) is None or _g_orbit(w)[0] < w for w in skipped), md


def test_evenrun_ranks_match_the_full_rows():
    for md in {md[:2] for md in SMALL_MULTIDEGREES if sum(md[:2])} | {(3, 5), (4, 4)}:
        report = evenrun_experiment(md)
        words = enum_words(md)
        for predicate, variant in zip(EVENRUN_VARIANTS, report["variants"]):
            full = rank(eta_word(w) for w in words if predicate.accepts(w))
            assert variant["rank"] == full, (md, predicate.name)


def _is_lyndon_by_rotation(word):
    # strictly below each of its proper rotations
    return all(word < word[i:] + word[:i] for i in range(1, len(word)))


def test_lyndon_words_match_the_rotation_definition():
    for p in (1, 2, 3):
        for n in range(1, 8):
            by_md = {}
            for word in product(range(1, p + 1), repeat=n):
                if _is_lyndon_by_rotation(word):
                    md = tuple(word.count(a) for a in range(1, p + 1))
                    by_md.setdefault(md, []).append(word)
            for md in product(range(n + 1), repeat=p):
                if sum(md) == n:
                    assert lyndon_words(md) == by_md.get(md, []), md


def test_lyndon_word_count_is_the_necklace_number():
    for md in product(range(9), repeat=4):
        if 1 <= sum(md) <= 8:
            assert len(lyndon_words(md)) == witt_multidegree(md), md


def test_lyndon_words_of_a_long_content_need_no_recursion():
    assert lyndon_words((5000,)) == [] == lyndon_words((10**9,))
    assert lyndon_words((1, 5000)) == [(1,) + (2,) * 5000]
    assert lyndon_words((5000, 1)) == [(1,) * 5000 + (2,)]


def test_g_image_rows_index_no_letter_that_ends_no_column():
    # when md - e_b is one letter twice or more it has no Lyndon word, so no
    # column ends in b and no index per cut is built for b
    def indexed_letters(md):
        cuts = inspect.getclosurevars(g_image_rows(md)).nonlocals["cuts"]
        return {b for b, _ in cuts}
    assert indexed_letters((10**6,)) == set()
    assert indexed_letters((3, 1)) == {1}
    assert indexed_letters((2, 2)) == {1, 2}


def test_lyndon_words_edge_contents():
    assert lyndon_words((0,)) == [()] == lyndon_words((0, 0, 0))
    assert lyndon_words((0, 1)) == [(2,)]
    assert lyndon_words((0, 2, 0, 1)) == [(2, 2, 4)]
    with pytest.raises(InputError):
        lyndon_words((1, -1))
    with pytest.raises(InputError):
        lyndon_words(())


@pytest.mark.parametrize("build", [enum_words, lyndon_words, lie_basis, h_basis])
def test_oversized_blocks_are_refused_before_any_count(build):
    for md in ((30000, 30000), (200000, 200000), (12, 12)):
        with pytest.raises(ResourceLimitError, match="bound 2000000"):
            build(md)


# every multidegree through degree 7 over 3 letters, through degree 6 over 4,
# and (3, 3, 3)
ROW_MULTIDEGREES = ([md for md in product(range(8), repeat=3) if 1 <= sum(md) <= 7]
                    + [md for md in product(range(7), repeat=4) if 1 <= sum(md) <= 6]
                    + [(3, 3, 3)])


def _restricted(terms, columns):
    return {w: c for w, c in terms.items() if w in columns}


def test_eta_at_is_the_restricted_eta_word():
    for md in ROW_MULTIDEGREES:
        columns = lyndon_columns(md)
        for word in enum_words(md):
            row = eta_at(word, columns)
            assert row == _restricted(eta_word(word), columns), word
            # keyed by the column tuples themselves, shared by every row
            assert all(w is columns[w] for w in row), word


def test_eta_at_every_column_is_eta_word():
    # with every word a column, a.x and y.a can coincide and must cancel
    for md in ((2, 2), (2, 1, 1), (1, 2, 2), (3, 2)):
        columns = {w: w for w in enum_words(md)}
        for word in columns:
            assert eta_at(word, columns) == eta_word(word), word
    assert eta_at((), {(): ()}) == {}
    assert eta_at((2,), {(2,): (2,)}) == {(2,): 1}
    assert eta_at((2,), {(1,): (1,)}) == {}


def test_g_image_rows_are_the_restricted_g_image():
    for md in ROW_MULTIDEGREES:
        columns = {l + (b,) for b, rest in _removals(md) for l in lyndon_words(rest)}
        row = g_image_rows(md)
        for word in enum_words(md):
            assert row(word) == _restricted(_g_image_scaled(word), columns), word


def test_basis_scans_memoize_no_top_degree_image(monkeypatch):
    monkeypatch.setattr(swingwords.moves, "_ETA_MEMO", {})
    monkeypatch.setattr(swingwords.quotients, "_PRIME_IMAGE_MEMO", {})
    for md in ((2, 2, 2, 1), (3, 3, 1)):
        lie_basis(md)
        h_basis(md)
        assert swingwords.moves._ETA_MEMO
        assert max(map(len, swingwords.moves._ETA_MEMO)) < sum(md), md
    assert swingwords.quotients._PRIME_IMAGE_MEMO == {}
