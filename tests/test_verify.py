from itertools import count, product
from types import SimpleNamespace

import pytest

import swingwords.verify
from swingwords.chains import Chain, accumulate
from swingwords.linalg import row_space
from swingwords.moves import eta_word, linear_image
from swingwords.quotients import PrimeCanonical, canonical_prime, relation_span
from swingwords.scalars import InputError
from swingwords.trees import enumerate_topologies, relabel_legs, tree_chain
from swingwords.verify import (SAMPLED_TREES, Report, kernel_matches_relations,
                               run_suite, suite_exactness, suite_lemmas, suite_maxlen,
                               suite_rho)


def test_lemma_suite_small():
    report = suite_lemmas(max_degree=4, p=2)
    assert report.status == "pass"
    assert report.exit_code == 0
    anchors = [r.anchor for r in report.records]
    assert any("fold_l(i, fold_l(j, w))" in a for a in anchors)
    assert any(r.status == "info" for r in report.records)


def test_exactness_suite_small():
    report = suite_exactness(max_degree=3, p=2)
    assert report.status == "pass"
    assert any("rank oracle" in r.anchor for r in report.records)


def test_rho_suite_small():
    report = suite_rho(max_degree=5)
    assert report.status == "pass"


def test_maxlen_suite_is_informational():
    report = suite_maxlen(max_degree=7)
    assert report.status == "pass"
    assert all(r.status == "info" for r in report.records)
    beyond = [r for r in report.records if "[n=5" in r.anchor]
    assert beyond and "claimed bound" in beyond[0].expected
    # frozen observation: over F_3 the quotient stays at the char-0 dimension
    # at every degree <= 7, so the records report the vanishing bound unmet
    over_f3 = [r for r in report.records if "over F_3 " in r.anchor]
    assert len(over_f3) == 7
    for record in over_f3:
        assert "matches char-0: True" in record.computed
        if any(f"[n={n}," in record.anchor for n in (5, 6, 7)):
            assert "matches claimed bound: False" in record.computed


def test_kernel_matches_relations_small():
    for p in (1, 2):
        for n in (1, 2, 3, 4):
            assert kernel_matches_relations(n, p)


def test_kernel_check_fails_on_a_wrong_span_block(monkeypatch):
    # degree 3 over two letters: the block of 112, 121, 211 holds two relations
    span = relation_span(3, 2, "l")
    md = (2, 1)
    rows = span.blocks[md].rows()
    assert len(rows) == 2

    def patched(block):
        blocks = {**span.blocks, md: block}
        monkeypatch.setattr(swingwords.verify, "relation_span",
                            lambda n, p, family: SimpleNamespace(blocks=blocks))
        return kernel_matches_relations(3, 2)

    # a stored row dropped: the span still dies under eta but is too small
    assert not patched(row_space(rows[1:]))
    # a row replaced by a word outside ker(eta), keeping the rank: only the
    # containment step sees it
    outside = next(w for w in ((1, 2, 1), (2, 1, 1), (1, 1, 2))
                   if eta_word(w) and row_space(rows[1:] + [{w: 1}]).rank == 2)
    assert linear_image({outside: 1}, eta_word)
    assert not patched(row_space(rows[1:] + [{outside: 1}]))
    assert patched(row_space(rows))


def test_kernel_check_ranks_whole_eta_rows(monkeypatch):
    # the image rows come from bases.eta_at: a helper that drops the -x.a
    # half of eta(u.a) = a.eta(u) - eta(u).a leaves the image rank short
    assert kernel_matches_relations(5, 2) and kernel_matches_relations(4, 3)

    def half_eta_at(word, columns):
        last = word[-1:]
        return {w: c for x, c in eta_word(word[:-1]).items() if (w := last + x) in columns}
    monkeypatch.setattr(swingwords.verify, "eta_at", half_eta_at)
    assert not kernel_matches_relations(3, 2)


def test_head_tail_failures_leave_the_move_records_standing(monkeypatch):
    # every (head, tail) choice but to_vertebrate's reads twice the chain: the
    # head/tail records fail, and the swap and expansion records still pass,
    # because their base is each tree's first choice, its diagram class
    real = swingwords.verify.tree_chain

    def doubled_off_the_first_choice(tree, head=None, tail=None):
        chain = real(tree, head, tail)
        legs = tree.leg_vertices()
        return chain if head is None or (head, tail) == tuple(legs[:2]) else chain.scale(2)
    monkeypatch.setattr(swingwords.verify, "tree_chain", doubled_off_the_first_choice)
    report = suite_rho(max_degree=5)
    status = {r.anchor.split(" (")[0]: r.status for r in report.records}
    assert status["head/tail choices agree on every shape through 5 legs"] == "fail"
    assert status["orientation swaps negate the class"] == "pass"
    assert status["internal-edge expansions sum to the class"] == "pass"


def test_run_suite_dispatch():
    assert run_suite("maxlen", max_degree=3).name == "maxlen"
    with pytest.raises(InputError):
        run_suite("nope")


@pytest.mark.parametrize("name, sizes, message", [
    ("lemmas", {"max_degree": 2}, "suite lemmas needs max_degree >= 3; at 2 "),
    ("exactness", {"max_degree": 1}, "suite exactness needs max_degree >= 2; at 1 "),
    ("exactness", {"p": 0}, "suite exactness needs p >= 1; at 0 "),
    ("rho", {"p": 0}, "suite rho needs p >= 1; at 0 "),
    ("maxlen", {"max_degree": 0}, "suite maxlen needs max_degree >= 1; at 0 "),
])
def test_run_suite_refusals_name_the_size(name, sizes, message):
    with pytest.raises(InputError, match=f"^{message}"):
        run_suite(name, **sizes)


@pytest.mark.parametrize("max_degree, read_as", [(0, 3), (2, 3), (9, 7)])
def test_rho_suite_reads_its_degree_as_3_to_7_legs(max_degree, read_as):
    assert (suite_rho(max_degree=max_degree, p=1).to_dict()
            == suite_rho(max_degree=read_as, p=1).to_dict())


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
    report = suite_rho(max_degree=7, p=1)
    sampled = [r for r in report.records if r.anchor.startswith("sampled 7-leg")]
    assert [(r.status, r.expected, r.computed) for r in sampled] == [
        ("fail", f"0 failures over {SAMPLED_TREES} trees", f"{SAMPLED_TREES} failures")]


def test_suites_are_deterministic():
    a = suite_lemmas(max_degree=3, p=2).to_dict()
    b = suite_lemmas(max_degree=3, p=2).to_dict()
    assert a == b


def test_tree_classes_commute_with_letter_specialisation():
    # the rho suite reads each shape once, at distinct letters; this is why
    # that is enough: lettering a tree by sigma and taking its class is sigma
    # applied letterwise to its class at distinct letters, for every choice of
    # head and tail, every p = 2 lettering and every 3- to 5-leg shape
    cases = 0
    for legs in (3, 4, 5):
        for shape in enumerate_topologies(legs):
            distinct = relabel_legs(shape, range(1, legs + 1), legs)
            leg_ids = distinct.leg_vertices()
            images = {(h, t): canonical_prime(tree_chain(distinct, h, t)).image.terms
                      for h in leg_ids for t in leg_ids if h != t}
            for sigma in product((1, 2), repeat=legs):
                tree = relabel_legs(shape, sigma, 2)
                for (h, t), image in images.items():
                    specialised = accumulate((tuple(sigma[a - 1] for a in w), c)
                                             for w, c in image.items())
                    assert canonical_prime(tree_chain(tree, h, t)).image.terms == specialised
                    cases += 1
    assert cases == 10224
