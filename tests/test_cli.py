import json

import pytest

from swingwords.cli import main
from swingwords.textio import render_chain, render_tensor
from swingwords.trees import tree_to_json
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
    from swingwords.trees import JacobiTree

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
    # the CLI parses ModInt coefficients, the library call below uses ints
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
