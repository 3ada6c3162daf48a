import json
import sys
import time

import pytest

import swingwords.dims
from swingwords.cli import main
from swingwords.textio import render_chain, render_tensor
from swingwords.trees import JacobiTree, tree_to_json
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
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err
