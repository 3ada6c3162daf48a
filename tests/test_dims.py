import sys
from contextlib import nullcontext
from itertools import product

import pytest

from swingwords.bases import enum_words
from swingwords.dims import (_moebius_divisors, _refuse_before, dimension_report,
                             h_dim_multidegree, h_dim_total, mobius, rank_oracle,
                             witt_multidegree, witt_total)
from swingwords.scalars import InputError, ResourceLimitError


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(4) == 0
    assert mobius(6) == 1
    assert [mobius(d) for d in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    with pytest.raises(InputError):
        mobius(0)


def test_witt_total_values():
    assert witt_total(1, 5) == 5
    assert witt_total(9, 9) == 43046640
    assert witt_total(8, 9) == 5380020
    assert 9 * witt_total(8, 9) == 48420180


def test_witt_multidegree_values():
    assert witt_multidegree((2, 2, 2, 2)) == 312
    assert witt_multidegree((4, 4)) == 8
    assert witt_multidegree((3, 5)) == 7
    assert witt_multidegree((2, 2, 4)) == 51
    assert witt_multidegree((1, 1)) == 1


def test_multidegree_zeros_are_harmless():
    assert witt_multidegree((3, 0, 5)) == witt_multidegree((3, 5))


def test_h_dim_total_values():
    assert h_dim_total(9, 9) == 5373540
    assert h_dim_total(1, 7) == 0
    assert h_dim_total(2, 2) == 3
    assert h_dim_total(7, 2) == 0


def test_h_dim_multidegree_values():
    assert h_dim_multidegree((3, 3, 3)) == 24
    assert h_dim_multidegree((2, 2, 2, 3)) == 102
    assert h_dim_multidegree((4, 5)) == 7 + 8 - 14 == 1
    assert h_dim_multidegree((2, 2, 5)) == 9
    assert h_dim_multidegree((2, 3, 4)) == 16
    assert h_dim_multidegree((1,)) == 0


def test_necklace_formula_matches_lyndon_counts():
    # every multidegree of total 1..8 over at most four letters; a Lyndon word
    # is strictly smaller than each of its proper rotations
    for md in product(range(9), repeat=4):
        if not 1 <= sum(md) <= 8:
            continue
        lyndon = sum(all(w < w[i:] + w[:i] for i in range(1, len(w)))
                     for w in enum_words(md))
        assert witt_multidegree(md) == lyndon, md


def test_witt_total_matches_lyndon_counts():
    from itertools import product as iproduct

    for p in (2, 3):
        for n in range(1, 7):
            count = 0
            for w in iproduct(range(1, p + 1), repeat=n):
                if all(w < w[i:] + w[:i] for i in range(1, n)):
                    count += 1
            assert witt_total(n, p) == count


def test_multidegree_sums_match_totals():
    for p in range(1, 5):
        for n in range(1, 10):
            mds = [md for md in product(range(n + 1), repeat=p) if sum(md) == n]
            assert sum(witt_multidegree(md) for md in mds) == witt_total(n, p)
            if n >= 2:
                assert sum(h_dim_multidegree(md) for md in mds) == h_dim_total(n, p)


def test_rank_oracle_examples():
    assert rank_oracle(3, 2, "l") == 2 == witt_total(3, 2)
    assert rank_oracle(2, 2, "prime") == 3 == h_dim_total(2, 2)
    assert rank_oracle(1, 3, "prime") == 0


@pytest.mark.parametrize("n,p", [(8, 3), (7, 3), (6, 4)])
def test_rank_oracle_agrees_with_the_formulas_past_degree_six(n, p):
    # the spans insert a spanning subset of their relations; over Q a
    # subset that spans too little shows as a larger quotient here
    assert rank_oracle(n, p, "l") == witt_total(n, p)
    assert rank_oracle(n, p, "prime") == h_dim_total(n, p)


def test_rank_oracle_resource_guard():
    with pytest.raises(ResourceLimitError):
        rank_oracle(40, 2, "l")


def test_dimension_report_both_methods():
    report = dimension_report("witt", n=4, p=2, oracle=True)
    assert report.value == 3
    assert report.method == "both"
    assert report.extra["rank_oracle"] == 3
    as_dict = report.to_dict()
    assert as_dict["query"] == "witt(n=4, p=2)"
    assert as_dict["value"] == 3


def test_dimension_report_necklace_and_h():
    assert dimension_report("necklace", multidegree=(4, 4)).value == 8
    assert dimension_report("h", multidegree=(3, 3, 3)).value == 24
    assert dimension_report("h", n=9, p=9).value == 5373540


def test_bad_queries():
    with pytest.raises(InputError):
        dimension_report("witt")
    with pytest.raises(InputError):
        witt_multidegree((0, 0))
    with pytest.raises(InputError):
        witt_total(0, 3)


def test_divisors_from_the_factorisation():
    for n in range(1, 400):
        assert sorted(_moebius_divisors(n)) == [(d, mobius(d)) for d in range(1, n + 1)
                                                if n % d == 0 and mobius(d)]
    # a prime near 10^12 takes one trial division pass up to its square root
    assert witt_total(999_999_999_989, 1) == 0


def _refused_early(query, n, low_bits):
    try:
        _refuse_before(query, n, low_bits)
    except ResourceLimitError:
        return True
    return False


def test_early_refusal_only_of_values_past_the_digit_limit(monkeypatch):
    """With a 3-digit print limit, every query refused before computing has a
    value of at least 10^3, and `dimension_report` refuses exactly those."""
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 3)
    early = 0
    for n in range(1, 11):
        for k in range(1, 41, 3):
            for p in {2 ** k - 1, 2 ** k, 2 ** k + 1} - {0}:
                for kind, value in (("witt", witt_total(n, p)), ("h", h_dim_total(n, p))):
                    if _refused_early("q", n, (n - 1) * (p.bit_length() - 1)):
                        early += 1
                        assert value >= 1000, (kind, n, p)
                    try:
                        report = dimension_report(kind, n=n, p=p)
                    except ResourceLimitError:
                        assert value >= 1000
                    else:
                        assert report.value == value < 1000
    for md in [(40, 40, 40, 40), (60, 60, 60), (120, 2), (100, 100), (30,) * 7, (1, 1, 1)]:
        for kind, value in (("necklace", witt_multidegree(md)), ("h", h_dim_multidegree(md))):
            if _refused_early("q", sum(md), sum(md) - max(md)):
                early += 1
                assert value >= 1000, (kind, md)
            with pytest.raises(ResourceLimitError) if value >= 1000 else nullcontext():
                dimension_report(kind, multidegree=md)
    assert early >= 50
