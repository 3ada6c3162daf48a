from itertools import permutations, product

import pytest

from swingwords.bases import (EVENRUN_VARIANTS, RunPredicate, enum_words,
                              evenrun_experiment, h_basis, lie_basis,
                              pattern_assignments, section4_table)
from swingwords.chains import Chain
from swingwords.dims import h_dim_multidegree, witt_multidegree
from swingwords.linalg import RowSpace
from swingwords.quotients import canonical_prime
from swingwords.scalars import ResourceLimitError


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
