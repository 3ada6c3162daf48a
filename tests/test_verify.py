from itertools import count

import pytest

import swingwords.verify
from swingwords.chains import Chain
from swingwords.quotients import PrimeCanonical
from swingwords.scalars import InputError
from swingwords.verify import (Report, kernel_matches_relations, run_suite,
                               suite_exactness, suite_lemmas, suite_maxlen,
                               suite_rho)


def test_lemma_suite_small():
    report = suite_lemmas(max_total=4, p=2, spot_count=5)
    assert report.status == "pass"
    assert report.exit_code == 0
    anchors = [r.anchor for r in report.records]
    assert any("fold_l(i, fold_l(j, w))" in a for a in anchors)
    assert any(r.status == "info" for r in report.records)


def test_exactness_suite_small():
    report = suite_exactness(max_degree=3, p_max=2, kernel_max_degree=3)
    assert report.status == "pass"
    assert any("rank oracle" in r.anchor for r in report.records)


def test_rho_suite_small():
    report = suite_rho(max_bead_leaves=3, max_legs=5, exhaustive_legs=5,
                       samples_at_max=0)
    assert report.status == "pass"


def test_maxlen_suite_is_informational():
    report = suite_maxlen(chars=(3,), max_degree=7)
    assert report.status == "pass"
    assert all(r.status == "info" for r in report.records)
    beyond = [r for r in report.records if "[n=5" in r.anchor]
    assert beyond and "claimed bound" in beyond[0].expected
    # frozen observation: over F_3 the quotient stays at the char-0 dimension
    # at every degree <= 7, so the records report the vanishing bound unmet
    for record in report.records:
        assert "matches char-0: True" in record.computed
        if any(f"[n={n}," in record.anchor for n in (5, 6, 7)):
            assert "matches claimed bound: False" in record.computed


def test_kernel_matches_relations_small():
    for p in (1, 2):
        for n in (1, 2, 3, 4):
            assert kernel_matches_relations(n, p)


def test_run_suite_dispatch():
    assert run_suite("maxlen", chars=(3,), max_degree=3).name == "maxlen"
    with pytest.raises(InputError):
        run_suite("nope")


def test_report_exit_codes():
    report = Report("demo")
    report.add("anchor", True, "x", "x")
    assert report.exit_code == 0
    report.add("anchor2", False, "x", "y")
    assert report.status == "fail"
    assert report.exit_code == 1
    payload = report.to_dict()
    assert payload["records"][1]["status"] == "fail"


def test_report_tally_statuses():
    report = Report("demo")
    report.tally("holds", "cases", [True, True])
    report.tally("breaks", "pairs", iter([True, False, False, True]))
    report.tally("empty", "trees", (ok for ok in ()))
    assert [(r.status, r.expected, r.computed) for r in report.records] == [
        ("pass", "0 failures over 2 cases", "0 failures"),
        ("fail", "0 failures over 4 pairs", "2 failures"),
        ("skip", "0 failures over 0 trees", "0 failures"),
    ]
    assert (report.status, report.exit_code) == ("fail", 1)


def test_report_of_skips_exits_zero():
    report = Report("demo")
    report.tally("empty", "cases", [])
    report.tally("empty too", "pairs", [])
    assert (report.status, report.exit_code) == ("pass", 0)
    assert [r["status"] for r in report.to_dict()["records"]] == ["skip", "skip"]


def test_sampled_tree_failing_twice_counts_once(monkeypatch):
    # every class differs and is nonzero, and the space is reported zero: each
    # sampled tree breaks both conditions of its check but is one failing case
    fresh = count(1)
    monkeypatch.setattr(swingwords.verify, "canonical_prime",
                        lambda chain: PrimeCanonical(2, Chain(1, {(1, 1): next(fresh)})))
    monkeypatch.setattr(swingwords.verify, "rank_oracle", lambda *args: 0)
    report = suite_rho(max_bead_leaves=1, max_legs=7, p=1, exhaustive_legs=3,
                       samples_at_max=3)
    sampled = [r for r in report.records if r.anchor.startswith("sampled 7-leg")]
    assert [(r.status, r.expected, r.computed) for r in sampled] == [
        ("fail", "0 failures over 3 trees", "3 failures")]


def test_suites_are_deterministic():
    a = suite_lemmas(max_total=3, p=2, spot_count=5).to_dict()
    b = suite_lemmas(max_total=3, p=2, spot_count=5).to_dict()
    assert a == b
