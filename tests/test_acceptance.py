"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line (directly to the real stdout so the
lines survive pytest capture) and enforces the stated runtime budget.
"""

import hashlib
import json
import sys
import time

import pytest

from swingwords.bases import evenrun_experiment, section4_table
from swingwords.cli import main
from swingwords.dims import h_dim_total, rank_oracle, witt_total
from swingwords.verify import (kernel_matches_relations, suite_exactness,
                               suite_lemmas, suite_maxlen, suite_rho)

CRITERION2_VALUES = [5040, 181440, 211680, 105840, 26460, 3528, 252, 952560,
                     1058400, 264600, 31752, 1058400, 793800, 176400, 52920,
                     196560, 77112, 1512, 105840, 3528, 2016, 51408, 2268,
                     8064, 2016, 72, 72]


def announce(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status}: {detail}", file=sys.__stdout__)
    assert ok, detail


@pytest.fixture(scope="module")
def lemmas_run():
    start = time.perf_counter()
    report = suite_lemmas(max_degree=6, p=3)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def rho_run():
    start = time.perf_counter()
    report = suite_rho(max_degree=7, p=2)
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def exactness_run():
    start = time.perf_counter()
    report = suite_exactness(max_degree=6, p=3)
    return report, time.perf_counter() - start


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode()).hexdigest()[:8]


def test_default_suite_reports_are_unchanged(lemmas_run, rho_run, exactness_run):
    # sha256 prefixes of the default-size reports; a change to how classes are
    # compared must leave every record, and its case count, as it was
    assert [_digest(run[0]) for run in (lemmas_run, rho_run, exactness_run)] == [
        "bc7829af", "950820cb", "27bf1da1"]
    assert _digest(suite_maxlen()) == "2430c596"


def test_criterion_1_headline_dimensions(capsys):
    start = time.perf_counter()
    assert main(["dims", "witt", "--n", "9", "--p", "9"]) == 0
    assert main(["dims", "h", "--n", "9", "--p", "9"]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    ok = ("43046640" in out and "5373540" in out
          and witt_total(9, 9) == 43046640 and h_dim_total(9, 9) == 5373540
          and elapsed < 1.0)
    announce(1, ok, f"witt(9,9)=43046640, h(9,9)=5373540 via the CLI in {elapsed:.2f}s")


def test_criterion_2_full_table(capsys):
    start = time.perf_counter()
    table = section4_table()
    cli_code = main(["section4"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    printed = [line["printed"] for line in table["lines"]]
    computed = [line["computed"] for line in table["lines"]]
    ok = (printed == CRITERION2_VALUES and computed == CRITERION2_VALUES
          and table["grand_total"] == 5373540 and table["match"]
          and cli_code == 0 and "grand total: 5373540" in out
          and elapsed < 10.0)
    announce(2, ok, f"all 27 table lines and the 5373540 total in {elapsed:.2f}s")


def test_criterion_3_spot_dimensions():
    from swingwords.dims import h_dim_multidegree, witt_multidegree

    start = time.perf_counter()
    necklaces = (witt_multidegree((2, 2, 2, 2)) == 312
                 and witt_multidegree((4, 4)) == 8
                 and witt_multidegree((3, 5)) == 7
                 and witt_multidegree((2, 2, 4)) == 51)
    h_spots = (h_dim_multidegree((3, 3, 3)) == 24
               and h_dim_multidegree((2, 2, 2, 3)) == 102
               and h_dim_multidegree((2, 2, 5)) == 9
               and h_dim_multidegree((2, 3, 4)) == 16
               and h_dim_multidegree((4, 5)) == 1)
    elapsed = time.perf_counter() - start
    ok = necklaces and h_spots and elapsed < 1.0
    announce(3, ok, f"necklace and per-multidegree spot values in {elapsed:.2f}s")


def test_criterion_4_rank_oracle_agreement():
    start = time.perf_counter()
    ok = True
    for p in (1, 2, 3):
        for n in range(1, 7):
            ok = ok and rank_oracle(n, p, "l") == witt_total(n, p)
            ok = ok and rank_oracle(n, p, "prime") == h_dim_total(n, p)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    announce(4, ok, f"rank oracle equals both formulas for n<=6, p<=3 in {elapsed:.1f}s")


def test_criterion_5_kernel_identification():
    start = time.perf_counter()
    ok = all(kernel_matches_relations(n, p)
             for p in (1, 2, 3) for n in range(1, 6))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    announce(5, ok, f"ker(eta) equals the left relation span for n<=5, p<=3 "
                    f"in {elapsed:.1f}s")


def test_criterion_6_lemma_suite(lemmas_run):
    report, elapsed = lemmas_run
    ok = report.status == "pass" and elapsed < 300.0
    failing = [r.anchor for r in report.records if r.status == "fail"]
    announce(6, ok, f"lemma suite exhaustive at degree<=6, p<=3 with degree-7 "
                    f"spot checks in {elapsed:.1f}s"
                    + (f"; failing: {failing}" if failing else ""))


def test_criterion_7_rho_well_definedness(rho_run):
    report, elapsed = rho_run
    wanted = [r for r in report.records
              if "breakdown schedule" in r.anchor or "head/tail" in r.anchor
              or "7-leg" in r.anchor]
    ok = (len(wanted) >= 4 and all(r.status == "pass" for r in wanted)
          and elapsed < 300.0)
    announce(7, ok, f"schedule independence and head/tail independence "
                    f"(every shape through 6 legs read at distinct letters, 7 legs "
                    f"by the zero-dimension argument "
                    f"plus sampling) in {elapsed:.1f}s")


def test_criterion_8_move_compatibility(rho_run):
    report, elapsed = rho_run
    wanted = [r for r in report.records
              if "orientation swaps" in r.anchor or "internal-edge" in r.anchor]
    ok = (len(wanted) == 2 and all(r.status == "pass" for r in wanted)
          and elapsed < 300.0)
    announce(8, ok, f"orientation-swap negation and edge-expansion additivity, "
                    f"on every shape through 6 legs read at distinct letters, "
                    f"in {elapsed:.1f}s")


def test_criterion_9_exact_sequence(exactness_run):
    report, elapsed = exactness_run
    ok = report.status == "pass" and elapsed < 120.0
    failing = [r.anchor for r in report.records if r.status == "fail"]
    announce(9, ok, f"composite vanishing, rank identities, and the section "
                    f"scaling for n<=6, p<=3 in {elapsed:.1f}s"
                    + (f"; failing: {failing}" if failing else ""))


def test_criterion_10_experiments():
    start = time.perf_counter()
    maxlen = suite_maxlen(max_degree=7, p=2)
    structured = (maxlen.status == "pass"
                  and all(r.status == "info" for r in maxlen.records)
                  and all("matches" in r.computed for r in maxlen.records))
    baselines = {}
    for a in range(1, 9):
        for b in range(1, 10 - a):
            report = evenrun_experiment((a, b))
            baselines[(a, b)] = report["target_dimension"]
            structured = structured and all(
                set(v) >= {"variant", "count", "rank", "independent", "spanning",
                           "matches_dimension"}
                for v in report["variants"])
    elapsed = time.perf_counter() - start
    ok = (structured and baselines[(3, 5)] == 7 and baselines[(4, 4)] == 8
          and elapsed < 120.0)
    announce(10, ok, f"finite-characteristic and even-run reports with the "
                     f"7 and 8 baselines in {elapsed:.1f}s")
