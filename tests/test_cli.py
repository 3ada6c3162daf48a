import json
import sys
import time

import pytest

import swingwords.bases
import swingwords.dims
import swingwords.moves
import swingwords.scalars
from swingwords.cli import main
from swingwords.textio import render_chain, render_tensor
from swingwords.trees import JacobiTree, relabel_legs, tree_to_json
from swingwords.quotients import canonical_l, canonical_prime
from swingwords.chains import Chain


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_witt(capsys):
    code, out, _ = run(capsys, "dims", "witt", "--n", "9", "--p", "9")
    assert code == 0
    assert "43046640" in out


def test_dims_h_with_oracle(capsys):
    code, out, _ = run(capsys, "dims", "h", "--n", "4", "--p", "2", "--oracle",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1
    assert payload["method"] == "both"
    assert payload["rank_oracle"] == 1


def test_eta_command(capsys):
    code, out, _ = run(capsys, "eta", "--chain", "1*[1,2]", "-p", "2")
    assert code == 0
    assert out.strip() == "-1*[1,2] + 1*[2,1]"


def test_fold_out_of_range_warns(capsys):
    code, out, err = run(capsys, "fold", "--kind", "l", "--n", "9",
                         "--chain", "[1,2]", "-p", "2")
    assert code == 0
    assert out.strip() == "1*[1,2]"
    assert "identity" in err


@pytest.mark.parametrize("n", ["1", "7"])
def test_primed_fold_of_a_single_letter_is_zero_without_a_note(capsys, n):
    # the primed fold kills a single letter at every index, so it is not the identity
    code, out, err = run(capsys, "fold", "--kind", "prime", "--n", n, "--chain", "[1]")
    assert (code, out, err) == (0, "0\n", "")


@pytest.mark.parametrize("chain, expected, note", [
    ("[1,2]", "1*[1,2]", True),
    ("[1] + [1,2]", "1*[1,2]", False),
])
def test_primed_fold_notes_the_identity_only_when_no_term_is_a_letter(capsys, chain,
                                                                      expected, note):
    code, out, err = run(capsys, "fold", "--kind", "prime", "--n", "1", "--chain", chain)
    assert (code, out.strip()) == (0, expected)
    assert (err == "note: fold index 1 is out of range for every term; "
                   "the move is the identity there\n") is note
    assert note or err == ""


def test_rho_reports_a_bead_error_at_its_position_in_the_text(capsys):
    code, out, err = run(capsys, "rho", "--swingword", "<1 | (1 2) x | 2>")
    assert (code, out, err) == (2, "", "error: expected a letter at position 11\n")


@pytest.mark.parametrize("argv, message", [
    (["eta", "--chain", "[1]", "-p", "0"], "alphabet bound must be >= 1, got 0"),
    (["dims", "witt", "--n", "3", "--p", "2", "--char", "4"],
     "only the rank oracle reads a characteristic; --char needs --oracle"),
    (["dims", "witt", "--n", "3", "--p", "2", "--oracle", "--char", "4"],
     "characteristic must be an odd prime, got 4"),
    (["reduce", "--space", "l", "--chain", "[1] + [1,2]"], "chain is not homogeneous"),
    (["reduce", "--space", "prime", "--chain", "[1] + [1,2]"], "chain is not homogeneous"),
    (["enumerate", "--space", "lie", "--multidegree=-1,2"],
     "multidegree must be non-negative integers, got (-1, 2)"),
    (["dims", "witt", "--n", "0", "--p", "3"], "degree must be >= 1, got 0"),
    (["dims", "h", "--n", "3", "--p", "0"], "alphabet bound must be >= 1, got 0"),
    (["dims", "h", "--n", "-1", "--p", "2", "--oracle"], "degree must be >= 1, got -1"),
])
def test_each_input_is_refused_by_its_one_check(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_reduce_prime_single_letter_is_zero(capsys):
    code, out, _ = run(capsys, "reduce", "--space", "prime", "--chain", "1*[1]",
                       "-p", "2")
    assert code == 0
    assert out.strip() == "0"


def test_reduce_l_canonical(capsys):
    code, out, _ = run(capsys, "reduce", "--space", "l", "--chain", "[2,1]", "-p", "2")
    assert code == 0
    assert out.strip() == "-1/2*[1,2] + 1/2*[2,1]"


def test_rho_command(capsys):
    code, out, _ = run(capsys, "rho", "--swingword", "<1 | (2 3) | 4>", "-p", "4")
    assert code == 0
    assert out.strip() == "1*[1,2,3,4] - 1*[1,3,2,4]"


def test_class_command(tmp_path, capsys):
    tree = {"vertices": [1, 2], "edges": [[1, 2]], "cyclic": {}, "legs": {"1": 1, "2": 2},
            "p": 2}
    path = tmp_path / "strut.json"
    path.write_text(json.dumps(tree))
    code, out, _ = run(capsys, "class", "--tree", str(path))
    assert code == 0
    expected = render_tensor(canonical_prime(Chain.of_word(2, (2, 1))).image)
    assert out.strip() == expected


def test_class_round_trips_from_library(tmp_path, capsys):
    tree = JacobiTree([1, 2, 3, 4], [(1, 4), (2, 4), (3, 4)], {4: (0, 1, 2)},
                      {1: 1, 2: 2, 3: 2}, 2)
    path = tmp_path / "y.json"
    path.write_text(tree_to_json(tree))
    code, out, _ = run(capsys, "class", "--tree", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["degree"] == 3


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--space", "h", "--multidegree", "2,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["space"] == "h"
    assert payload["dimension"] == len(payload["words"]) == 1
    assert payload["certificate"]["rank"] == 1
    code, out, _ = run(capsys, "enumerate", "--space", "lie", "--multidegree", "2,2")
    payload = json.loads(out)
    assert payload["certificate"]["rank"] == payload["dimension"] == 1
    assert payload["words"] == [[1, 2, 1, 2]]


def test_verify_suite_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "maxlen", "--max-degree", "4")
    assert code == 0
    assert "suite maxlen: PASS" in out


def test_verify_lemmas_small_via_cli(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--max-degree", "3",
                       "--p", "2")
    assert code == 0
    assert "suite lemmas: PASS" in out
    assert "PASS" in out and "INFO" in out
    # equal-length pairs need total length 4: an empty family reads SKIP
    assert ("SKIP | eta(eta(w1)eta(w2) + eta(w2)eta(w1)) = 0 for equal lengths | "
            "expected: 0 failures over 0 pairs | computed: 0 failures") in out.splitlines()


def test_verify_rho_small_via_cli(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "rho", "--max-degree", "4",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert all(r["status"] in ("pass", "info") for r in payload["records"])


def test_section4_passes(capsys):
    code, out, _ = run(capsys, "section4")
    assert code == 0
    assert "grand total: 5373540" in out


def test_evenruns_report(capsys):
    code, out, _ = run(capsys, "evenruns", "--multidegree", "3,5")
    assert code == 0
    assert "target dimension 7" in out


def test_input_error_exit_two(capsys):
    code, _, err = run(capsys, "reduce", "--space", "l", "--chain", "[1,5]", "-p", "3")
    assert code == 2
    assert "error:" in err


def test_char_dividing_required_scale_exits_two(capsys):
    code, _, err = run(capsys, "reduce", "--space", "prime",
                       "--chain", "[1,2,3,4]", "-p", "4", "--char", "3")
    assert code == 2
    assert "characteristic" in err


@pytest.mark.parametrize("chain", ["[1,1,1,1]", "[1,2,1,2] + [2,1,1,2]"])
def test_char_dividing_scale_refused_whatever_the_image(capsys, chain):
    # 3 divides n - 1 = 3; the first image is empty and the second chain is a
    # fold relation, yet both are refused as every degree-4 chain over F_3 is
    code, _, err = run(capsys, "reduce", "--space", "prime",
                       "--chain", chain, "-p", "2", "--char", "3")
    assert code == 2
    assert "characteristic" in err


@pytest.mark.parametrize("argv", [
    ("rho", "--swingword", "<1 | (1 2) | 2>", "-p", "2", "--char", "5"),
    ("class", "--tree", "tests/golden/cli/inputs/readme_tree.json", "--char", "3"),
])
def test_char_is_refused_where_no_chain_is_parsed(capsys, argv):
    # only eta, fold and reduce read coefficients in a residue field
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: --char" in capsys.readouterr().err


def test_coefficient_denominator_divisible_by_char_exits_two(capsys):
    code, out, err = run(capsys, "reduce", "--space", "l", "--char", "3", "-p", "2",
                         "--chain", "1/3*[1,2]")
    assert (code, out) == (2, "")
    assert "denominator 3" in err and "characteristic 3" in err
    assert "scale this computation inverts" not in err


@pytest.mark.parametrize("char, reason", [
    ("561", "odd prime"), ("2047", "odd prime"), ("3215031751", "odd prime"),
    ("1000000000000000001", "odd prime"), ("618970019642690137449562111", "decided exactly"),
])
def test_composite_or_undecided_char_exits_two(capsys, char, reason):
    code, out, err = run(capsys, "eta", "--chain", "[1,2]", "-p", "2", "--char", char)
    assert (code, out) == (2, "")
    assert reason in err


def test_large_prime_char_is_checked_quickly(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "eta", "--chain", "[1,2]", "-p", "2",
                       "--char", "1000000000000000003")
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "1000000000000000002*[1,2] + 1*[2,1]\n")


@pytest.mark.parametrize("argv", [("dims", "witt", "--n", "5000", "--p", "9"),
                                  ("dims", "necklace", "--multidegree", "8000,8000")])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_dims_value_too_long_to_print_exits_two(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "decimal digits, too many to print" in err


@pytest.mark.parametrize("argv, reason", [
    (("dims", "witt", "--n", "20000000", "--p", "1"), "dims computes degrees up to 1000000"),
    (("dims", "witt", "--n", "2000000", "--p", "2"), "decimal digits, too many to print"),
    (("dims", "witt", "--n", "1000000000", "--p", "2"), "decimal digits, too many to print"),
    (("dims", "h", "--n", "1000000000", "--p", "2"), "decimal digits, too many to print"),
    (("dims", "necklace", "--multidegree", "1000000000,1000000000"),
     "decimal digits, too many to print"),
    (("dims", "necklace", "--multidegree", "1000000000,1"), "dims computes degrees up to"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_dims_refuses_large_queries_before_computing(capsys, argv, reason, fmt):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and reason in err


@pytest.mark.parametrize("argv", [("enumerate", "--space", "lie"), ("enumerate", "--space", "h"),
                                  ("evenruns",)])
@pytest.mark.parametrize("md", ["30000,30000", "200000,200000"])
def test_oversized_word_blocks_exit_two_before_counting(capsys, monkeypatch, argv, md):
    # the word count has over 4,300 digits: it is never computed, and the
    # refusal names the bound only
    def no_count(md):
        raise AssertionError(f"counted the words of {md}")
    monkeypatch.setattr(swingwords.bases, "word_count", no_count)
    monkeypatch.setattr(swingwords.dims, "word_count", no_count)
    code, out, err = run(capsys, *argv, "--multidegree", md)
    assert (code, out) == (2, "")
    assert err == f"error: multidegree ({md.replace(',', ', ')}) has more words than the bound 2000000\n"


@pytest.mark.parametrize("argv", [
    ("enumerate", "--space", "lie", "--multidegree", "1000000000"),
    ("enumerate", "--space", "h", "--multidegree", "1000000000"),
    ("enumerate", "--space", "lie", "--multidegree", "1,20000"),
    ("enumerate", "--space", "h", "--multidegree", "1,20000"),
    ("evenruns", "--multidegree", "1,20000")])
def test_words_of_many_letters_exit_two_before_any_is_built(capsys, monkeypatch, argv):
    # one word of 10^9 letters, or 20,001 words of 20,001: under the word
    # bound, over the letters bound, and refused before any word is built
    def no_words(letters):
        raise AssertionError(f"built words of {len(letters)} letters")
    monkeypatch.setattr(swingwords.bases, "_multiset_permutations", no_words)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: ") and err.endswith("than the bound 42000000\n")


def test_one_letter_contents_need_no_recursion(capsys):
    # eta of one letter repeated is 0, read without recursing once per letter
    code, out, err = run(capsys, "enumerate", "--space", "h", "--multidegree", "2000",
                         "--format", "text")
    assert (code, err) == (0, "")
    assert out.startswith("h basis at multidegree (2000,): dimension 0\n")
    code, out, _ = run(capsys, "reduce", "--space", "l", "-p", "1",
                       "--chain", "[" + ",".join(["1"] * 2000) + "]")
    assert (code, out) == (0, "0\n")


def test_dims_necklace_needs_a_multidegree(capsys):
    code, out, err = run(capsys, "dims", "necklace", "--n", "3", "--p", "2")
    assert (code, out, err) == (2, "", "error: necklace needs --multidegree\n")


def test_char_two_rejected(capsys):
    code, _, err = run(capsys, "eta", "--chain", "[1]", "-p", "2", "--char", "2")
    assert code == 2
    assert "characteristic 2" in err


def test_residue_mode_chain(capsys):
    code, out, _ = run(capsys, "reduce", "--space", "l", "--chain", "[2,1]",
                       "-p", "2", "--char", "5")
    assert code == 0
    # 1/2 mod 5 is 3: the projection of [2,1] is 3*[2,1] - 3*[1,2] over F_5
    assert out.strip() == "2*[1,2] + 3*[2,1]"


def test_span_fallback_takes_residue_chains(capsys):
    # 3 divides the degree, so canonical_l reduces against the relation span;
    # the CLI parses residue coefficients; the library call below passes a
    # rational chain, which the span reads mod 3
    code, out, _ = run(capsys, "reduce", "--space", "l", "--char", "3", "-p", "2",
                       "--chain", "[1,2,1,2,1,2]")
    assert (code, out) == (0, "2*[2,1,2,1,1,2]\n")
    code, out, _ = run(capsys, "reduce", "--space", "l", "--char", "3", "-p", "2",
                       "--chain", "[1,2,2]")
    assert (code, out) == (0, "2*[2,1,2]\n")
    library = canonical_l(Chain.of_word(2, (1, 2, 2)), 3)
    assert library.method == "span"
    assert render_chain(library.chain) == "2*[2,1,2]"


@pytest.mark.parametrize("payload", [
    '{"vertices": [1, 2], "edges": [[1, 2]], "legs": {"a": 1, "2": 2}}',
    '{"vertices": [1, 2, 3, 4], "edges": [[1, 4], [2, 4], [3, 4]], '
    '"cyclic": {"x": [0, 1, 2]}, "legs": {"1": 1, "2": 2, "3": 2}}',
    '{"vertices": 4, "edges": [[1, 2]], "legs": {"1": 1, "2": 2}}',
    '{"vertices": [1, [2]], "edges": [[1, 2]], "legs": {"1": 1, "2": 2}}',
    '{"vertices": [1, 2], "edges": {"0": [1, 2]}, "legs": {"1": 1, "2": 2}}',
    '{"vertices": [1, 2], "edges": [[1, 2, 3]], "legs": {"1": 1, "2": 2}}',
    '{"vertices": [1, 2], "edges": [1, 2], "legs": {"1": 1, "2": 2}}',
    '{"vertices": [1, 2], "edges": [[1, 2]], "legs": [1, 2]}',
    '{"vertices": [1, 2, 3, 4], "edges": [[1, 4], [2, 4], [3, 4]], '
    '"cyclic": {"4": 7}, "legs": {"1": 1, "2": 2, "3": 2}}',
    '{"vertices": [1, 2], "edges": [[1, 2]], "legs": {"1": "a", "2": 2}}',
    '{"vertices": [1, 2], "edges": [[1, 2]], "legs": {"1": 1, "2": 2}, "p": "x"}',
    '"vertices edges legs"',
])
def test_malformed_tree_json_exits_two(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code, out, err = run(capsys, "class", "--tree", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("field, value, named", [
    ("p", 0, "'p' must be a positive integer"),
    ("p", True, "'p' must be a positive integer"),
    ("vertices", [True, 2, 3, 4], "'vertices' must be a list of integers"),
    ("edges", [[True, 4], [2, 4], [3, 4]], "each edge must be a list of integers"),
    ("cyclic", {"4": [0, True, 2]}, "each cyclic order must be a list of integers"),
    ("legs", {"1": True, "2": 2, "3": 2}, "leg letters must be integers"),
])
def test_tree_json_refuses_zero_p_and_booleans(tmp_path, capsys, field, value, named):
    # bool is a subclass of int, so true would otherwise be read as 1
    tree = {"vertices": [1, 2, 3, 4], "edges": [[1, 4], [2, 4], [3, 4]],
            "cyclic": {"4": [0, 1, 2]}, "legs": {"1": 1, "2": 2, "3": 2}, "p": 2}
    tree[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(tree))
    code, out, err = run(capsys, "class", "--tree", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: tree JSON: {named}\n"


@pytest.mark.parametrize("key, extra", [("legs", {"9": 1}), ("cyclic", {"7": [0, 1, 2]})])
def test_tree_json_keys_naming_no_vertex_exit_two(tmp_path, capsys, key, extra):
    tree = {"vertices": [1, 2], "edges": [[1, 2]], "cyclic": {}, "legs": {"1": 1, "2": 2},
            "p": 2}
    tree[key].update(extra)
    path = tmp_path / "strut.json"
    path.write_text(json.dumps(tree))
    code, out, err = run(capsys, "class", "--tree", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {key}: key {next(iter(extra))} names no vertex of the tree\n"


@pytest.mark.parametrize("argv", [
    ["eta", "--chain=--", "-p", "2"],
    ["rho", "--swingword=--"],
    ["class", "--tree=--"],
    ["fold", "--kind", "l", "--n=--", "--chain", "[1,2]"],
])
def test_double_dash_option_value_exits_two(capsys, argv):
    # argparse hands the command an empty list here, which no parser takes
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: '--' is not a value for any option\n"


def test_dims_oracle_residue_mode(capsys):
    code, out, _ = run(capsys, "dims", "witt", "--n", "4", "--p", "2",
                       "--oracle", "--char", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["rank_oracle"] == 3


def test_byte_identical_repeated_invocations(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "maxlen", "--max-degree", "5",
                     "--format", "json")
    _, out2, _ = run(capsys, "verify", "--suite", "maxlen", "--max-degree", "5",
                     "--format", "json")
    assert out1 == out2
    _, out3, _ = run(capsys, "enumerate", "--space", "lie", "--multidegree", "2,2")
    _, out4, _ = run(capsys, "enumerate", "--space", "lie", "--multidegree", "2,2")
    assert out3 == out4


def test_oracle_disagreement_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(swingwords.dims, "rank_oracle", lambda *args, **kwargs: 99)
    code, out, err = run(capsys, "dims", "h", "--n", "4", "--p", "2", "--oracle")
    assert (code, out) == (1, "")
    assert err == "error: rank oracle disagrees with the formula: 99 != 1\n"


@pytest.mark.parametrize("argv", [
    ["dims", "witt", "--multidegree", "2,2", "--oracle"],
    ["dims", "h", "--multidegree", "2,2,1", "--oracle"],
    ["dims", "necklace", "--multidegree", "2,2", "--oracle"],
])
def test_oracle_with_multidegree_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "does not take a multidegree" in err


@pytest.mark.parametrize("argv", [
    ["dims", "witt", "--n", "3", "--p", "2", "--char", "5"],
    ["dims", "h", "--n", "4", "--p", "2", "--char", "3"],
    ["dims", "necklace", "--multidegree", "2,2", "--char", "5"],
])
def test_char_without_oracle_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: only the rank oracle reads a characteristic; --char needs --oracle\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "exactness", "--p", "0"],
    ["verify", "--suite", "lemmas", "--max-degree", "0"],
    ["verify", "--suite", "lemmas", "--max-degree", "2"],
    ["verify", "--suite", "maxlen", "--max-degree", "0"],
    ["verify", "--suite", "rho", "--p", "0"],
])
def test_verify_over_no_case_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "over no case" in err


@pytest.mark.parametrize("kind", ["l", "prime"])
def test_fold_index_below_one_errors_without_note(capsys, kind):
    code, out, err = run(capsys, "fold", "--kind", kind, "--n", "0",
                         "--chain", "[1,2]", "-p", "2")
    assert (code, out) == (2, "")
    assert err == "error: fold index must be positive, got 0\n"


@pytest.mark.parametrize("kind", ["l", "prime"])
def test_fold_index_below_one_errors_on_the_zero_chain_without_note(capsys, kind):
    code, out, err = run(capsys, "fold", "--kind", kind, "--n", "0", "--chain", "0", "-p", "2")
    assert (code, out) == (2, "")
    assert err == "error: fold index must be positive, got 0\n"


def _comb_tree(depth: int) -> JacobiTree:
    """Tail leg 1, head leg 2 and column vertex 3, carrying one bead that is a
    comb `depth` vertices deep: vertex 4 + 2k has a leaf and the next vertex."""
    edges = [(1, 3), (3, 2), (3, 4)]
    for inner in range(4, 4 + 2 * depth, 2):
        edges += [(inner, inner + 1), (inner, inner + 2)]
    vertices = list(range(1, 5 + 2 * depth))
    incident = {v: [i for i, edge in enumerate(edges) if v in edge] for v in vertices}
    cyclic = {v: tuple(at) for v, at in incident.items() if len(at) == 3}
    legs = {v: 1 + v % 2 for v, at in incident.items() if len(at) == 1}
    return JacobiTree(vertices, edges, cyclic, legs, 2)


def test_deep_nesting_exits_two_without_traceback(tmp_path, capsys):
    depth = 1200
    swingword = "<1 | " + "(" * depth + "1" + " 2)" * depth + " | 2>"
    path = tmp_path / "comb.json"
    path.write_text(tree_to_json(_comb_tree(1500)))
    for argv in (["rho", "--swingword", swingword, "-p", "2"],
                 ["class", "--tree", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: input nested too deeply; nesting depth")
        assert "Traceback" not in err


def _word(n: int) -> str:
    return "[" + ",".join(str(a) for a in range(1, n + 1)) + "]"


def _comb(letters) -> str:
    term = str(letters[0])
    for a in letters[1:]:
        term = f"({term} {a})"
    return term


@pytest.mark.parametrize("argv", [
    ("eta", "-p", "22", "--chain", _word(22)),
    ("reduce", "--space", "prime", "-p", "19", "--chain", _word(19)),
    # one comb bead over 24 distinct letters, then two beads of 12 whose
    # expansions are small but whose product is not
    ("rho", "-p", "26", "--swingword", f"<1 | {_comb(range(2, 26))} | 26>"),
    ("rho", "-p", "26", "--swingword", f"<1 | {_comb(range(2, 14))} {_comb(range(14, 26))} | 26>"),
    "class",
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_work_past_the_word_bound_exits_two_quickly(tmp_path, capsys, argv, fmt):
    if argv == "class":
        # the bead of a 23-level comb carries 24 leaves; every leg gets its own letter
        tree = _comb_tree(23)
        path = tmp_path / "comb.json"
        path.write_text(tree_to_json(relabel_legs(tree, range(1, 27), 26)))
        argv = ("class", "--tree", str(path))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith("terms, over the bound 2000000\n")
    assert "Traceback" not in err


def _rotations(n: int, k: int) -> str:
    """The sum of the first k rotations of the word 1..n."""
    letters = [str(a) for a in range(1, n + 1)]
    return " + ".join("[" + ",".join(letters[i:] + letters[:i]) + "]" for i in range(k))


@pytest.mark.parametrize("argv, total", [
    # each word's image is under the bound; the four together are not
    (("eta", "-p", "20", "--chain", _rotations(20, 4)), 4 << 19),
    (("reduce", "--space", "l", "-p", "20", "--chain", _rotations(20, 4)), 4 << 19),
    (("reduce", "--space", "prime", "-p", "17", "--chain", _rotations(17, 4)), 4 * (17 << 15)),
    (("fold", "--kind", "l", "--n", "21", "-p", "21", "--chain", _rotations(21, 4)), 4 << 19),
    (("fold", "--kind", "prime", "--n", "21", "-p", "22", "--chain", _rotations(22, 4)), 4 << 19),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_chain_past_the_word_bound_exits_two_quickly(capsys, argv, total, fmt):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert time.perf_counter() - start < 2
    assert (code, out) == (2, "")
    assert err == (f"error: the image of a chain of 4 words would build up to {total} "
                   "terms, over the bound 2000000\n")


def test_primed_top_fold_of_a_long_chain_is_not_refused(capsys):
    # the primed fold at the top index reverses each word: one term apiece
    code, out, err = run(capsys, "fold", "--kind", "prime", "--n", "22", "-p", "22",
                         "--chain", _rotations(22, 4))
    assert (code, err) == (0, "")
    assert out.count("[") == 4


@pytest.mark.parametrize("limit, code", [(4 << 9, 0), ((4 << 9) - 1, 2)])
def test_chain_bound_sums_the_bounds_of_its_words(monkeypatch, capsys, limit, code):
    # four rotations of 1..10: eta builds at most 2^9 terms per word
    monkeypatch.setattr(swingwords.scalars, "MAX_WORDS", limit)
    monkeypatch.setattr(swingwords.moves, "MAX_WORDS", limit)
    result = run(capsys, "eta", "-p", "10", "--chain", _rotations(10, 4))
    assert result[0] == code
    assert "Traceback" not in result[2]
    if code == 0:
        assert 0 < result[1].count("[") <= 4 << 9


@pytest.mark.parametrize("space", ["eta", "l", "prime"])
def test_long_word_with_few_arrangements_is_not_refused(capsys, space):
    # 40 letters, but only 40 words use them: the bound reads letters, not length
    chain = "[2" + ",1" * 39 + "]"
    argv = ("eta",) if space == "eta" else ("reduce", "--space", space)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "-p", "2", "--chain", chain)
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert out.count("*[") <= 2 * 40


LONG = "1" * (sys.get_int_max_str_digits() + 700)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no limit on integer digits")
@pytest.mark.parametrize("argv, named", [
    (("eta", "-p", "2", "--chain", f"{LONG}*[1,2]"), "a coefficient has"),
    (("eta", "-p", "2", "--chain", f"1/{LONG}*[1,2]"), "a denominator has"),
    (("eta", "-p", "2", "--chain", f"[{LONG}]"), "a letter has"),
    (("rho", "--swingword", f"<1|{LONG}|2>"), "a letter has"),
    (("rho", "--swingword", f"<{LONG}|1|2>"), "the tail has"),
    ("class", "invalid tree JSON"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_number_past_the_digit_limit_exits_two(tmp_path, capsys, argv, named, fmt):
    if argv == "class":
        path = tmp_path / "long.json"
        path.write_text('{"vertices": [1, 2], "edges": [[1, 2]], '
                        f'"legs": {{"1": {LONG}, "2": 2}}}}')
        argv = ("class", "--tree", str(path))
        named += f": a number has {len(LONG)} digits"
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
    assert "set_int_max_str_digits" not in err
