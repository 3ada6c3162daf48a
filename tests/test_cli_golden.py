"""Golden CLI corpus: stdout, stderr and exit code of each case, byte for byte.

The corpus covers every command in the README, in text and JSON, plus
residue-mode and error cases. Commands that take longer than a few seconds
run at a smaller size, named in the case: `enumerate --space h` at (2,2,3)
instead of (3,3,3), `verify --suite rho` at `--max-degree 5`, and the JSON
forms of the lemma and exactness suites at `--max-degree 5`.

`PYTHONPATH=src python tests/test_cli_golden.py NAME...` re-records the named
cases from the given source tree, and with no names every case; a recording
changes only when the CLI's behaviour does, so name the cases a deliberate
change is meant to alter.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from swingwords.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"
INPUTS = GOLDEN / "inputs"

# commands run in both output formats: name -> argv without --format
BOTH_FORMATS = {
    "eta": ["eta", "--chain", "1*[1,2]", "-p", "2"],
    "fold_prime": ["fold", "--kind", "prime", "--n", "3", "--chain", "[1,2,3]", "-p", "3"],
    "fold_l_out_of_range": ["fold", "--kind", "l", "--n", "9", "--chain", "[1,2]", "-p", "2"],
    "reduce_l": ["reduce", "--space", "l", "--chain", "[2,1]", "-p", "2"],
    "reduce_prime_letter": ["reduce", "--space", "prime", "--chain", "1*[1]", "-p", "2"],
    "reduce_prime_degree3": ["reduce", "--space", "prime", "--chain",
                             "[1,2,3] - 1/2*[2,1,3] + 3*[3,1,2]", "-p", "3"],
    "reduce_l_char5": ["reduce", "--space", "l", "--chain", "[2,1]", "-p", "2",
                       "--char", "5"],
    "eta_char7": ["eta", "--chain", "3*[1,2,1] - 1/2*[2,1,1]", "-p", "2", "--char", "7"],
    "rho": ["rho", "--swingword", "<1 | (2 3) | 4>", "-p", "4"],
    "rho_nested": ["rho", "--swingword", "<1 | (1 2) ((2 1) 2) | 2>", "-p", "2"],
    "class_readme_tree": ["class", "--tree", "{inputs}/readme_tree.json"],
    "class_five_leg_tree": ["class", "--tree", "{inputs}/five_leg_tree.json"],
    "dims_witt": ["dims", "witt", "--n", "9", "--p", "9"],
    "dims_h": ["dims", "h", "--n", "9", "--p", "9"],
    "dims_necklace": ["dims", "necklace", "--multidegree", "2,2,2,2"],
    "dims_h_oracle": ["dims", "h", "--n", "4", "--p", "2", "--oracle"],
    "dims_witt_oracle_char5": ["dims", "witt", "--n", "4", "--p", "2", "--oracle",
                               "--char", "5"],
    "enumerate_h_223": ["enumerate", "--space", "h", "--multidegree", "2,2,3"],
    "enumerate_lie_222": ["enumerate", "--space", "lie", "--multidegree", "2,2,2"],
    "verify_rho_max_degree_5": ["verify", "--suite", "rho", "--max-degree", "5"],
    "verify_maxlen": ["verify", "--suite", "maxlen"],
    "section4": ["section4"],
    "evenruns": ["evenruns", "--multidegree", "3,5"],
}

# commands run once, as given; the lemma and exactness suites take about 5 s
# each, so their README form runs in text and a smaller size runs in JSON
ONE_FORMAT = {
    "verify_lemmas_text": ["verify", "--suite", "lemmas", "--max-degree", "6", "--p", "3"],
    "verify_lemmas_max_degree_5_json": ["verify", "--suite", "lemmas", "--max-degree", "5",
                                        "--p", "3", "--format", "json"],
    "verify_exactness_text": ["verify", "--suite", "exactness"],
    "verify_exactness_max_degree_5_json": ["verify", "--suite", "exactness",
                                           "--max-degree", "5", "--format", "json"],
    "verify_lemmas_p2": ["verify", "--suite", "lemmas", "--max-degree", "4", "--p", "2"],
    "verify_exactness_p2": ["verify", "--suite", "exactness", "--max-degree", "4",
                            "--p", "2"],
    "verify_rho_clamped": ["verify", "--suite", "rho", "--max-degree", "2", "--p", "2"],
    "verify_maxlen_p3": ["verify", "--suite", "maxlen", "--max-degree", "4", "--p", "3"],
    "error_bad_letter": ["eta", "--chain", "[1,3]", "-p", "2"],
    "error_chain_bare_star": ["eta", "-p", "2", "--chain", "2*", "--format", "text"],
    "error_chain_open_word": ["eta", "-p", "2", "--chain", "1*[1,2", "--format", "text"],
    "error_chain_zero_denominator": ["eta", "-p", "2", "--chain", "1/0*[1]",
                                     "--format", "text"],
    "error_chain_stray_character": ["eta", "-p", "2", "--chain", "[1]x", "--format", "text"],
    "error_chain_trailing_plus": ["eta", "-p", "2", "--chain", "3*[1] + ",
                                  "--format", "text"],
    "error_char_two": ["eta", "--chain", "[1]", "-p", "2", "--char", "2"],
    "error_prime_char3": ["reduce", "--space", "prime", "--char", "3",
                          "--chain", "[1,2,3,4]", "-p", "4"],
    "error_tree_missing_key": ["class", "--tree", "{inputs}/tree_missing_edges.json"],
    "error_bad_multidegree": ["enumerate", "--space", "h", "--multidegree", "a,b"],
    "error_oracle_too_large": ["dims", "h", "--n", "9", "--p", "9", "--oracle"],
    "error_oracle_with_multidegree": ["dims", "witt", "--multidegree", "2,2", "--oracle"],
}

CASES = dict(ONE_FORMAT)
for _name, _argv in BOTH_FORMATS.items():
    CASES[f"{_name}_text"] = _argv + ["--format", "text"]
    CASES[f"{_name}_json"] = _argv + ["--format", "json"]


def run_case(argv) -> dict:
    argv = [arg.replace("{inputs}", str(INPUTS)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden_path(name: str) -> Path:
    return GOLDEN / f"{name}.json"


def test_corpus_has_one_file_per_case():
    recorded = {path.stem for path in GOLDEN.glob("*.json")}
    assert recorded == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_case(name):
    expected = json.loads(_golden_path(name).read_text(encoding="utf-8"))
    assert expected["argv"] == CASES[name]
    got = run_case(CASES[name])
    assert got["exit"] == expected["exit"]
    assert got["stdout"] == expected["stdout"]
    assert got["stderr"] == expected["stderr"]


def record(names=()) -> None:
    """Re-record the named cases, or the whole corpus when none is named."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden case(s): {', '.join(unknown)}")
    if not names:
        for path in GOLDEN.glob("*.json"):
            path.unlink()
    for name in sorted(names or CASES):
        payload = {"argv": CASES[name], **run_case(CASES[name])}
        _golden_path(name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")


if __name__ == "__main__":
    record(sys.argv[1:])
    sys.exit(0)
