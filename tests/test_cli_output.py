"""The CLI's output step: `cli._run` computes a command's JSON payload, text
lines and exit code, and `main` prints one of them once. Every subcommand
takes `--format text|json` (enumerate defaults to json), and each chain or
class result is rendered once for both formats."""

import argparse
import json
from pathlib import Path

import pytest

import swingwords.cli as cli

TREE = str(Path(__file__).resolve().parent / "golden" / "cli" / "inputs" / "readme_tree.json")

# one small call of every subcommand
COMMANDS = {
    "eta": ["eta", "--chain", "3*[1,2,1] - 1/2*[2,1,1]"],
    "fold": ["fold", "--kind", "prime", "--n", "3", "--chain", "[1,2,3]", "-p", "3"],
    "reduce": ["reduce", "--space", "l", "--chain", "[2,1]"],
    "rho": ["rho", "--swingword", "<1 | (2 3) | 4>", "-p", "4"],
    "class": ["class", "--tree", TREE],
    "dims": ["dims", "witt", "--n", "4", "--p", "2"],
    "enumerate": ["enumerate", "--space", "lie", "--multidegree", "2,1"],
    "verify": ["verify", "--suite", "maxlen", "--max-degree", "2"],
    "section4": ["section4"],
    "evenruns": ["evenruns", "--multidegree", "2,2"],
}

# the commands whose result is one rendered chain or class, with the
# payload key that holds it
RENDERED = {
    "eta": (COMMANDS["eta"], "chain"),
    "fold l": (["fold", "--kind", "l", "--n", "2", "--chain", "[1,2] + 2*[2,1,1]"], "chain"),
    "fold prime": (COMMANDS["fold"], "chain"),
    "reduce l": (COMMANDS["reduce"], "canonical"),
    "reduce l over F_5": (["reduce", "--space", "l", "--chain", "[2,1,1]", "--char", "5"],
                          "canonical"),
    "reduce prime": (["reduce", "--space", "prime", "--chain", "[1,2,1] - [2,1,1]"],
                     "canonical"),
    "rho": (COMMANDS["rho"], "chain"),
    "class": (COMMANDS["class"], "class"),
}


def _format_actions() -> dict[str, argparse.Action]:
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: next(a for a in sp._actions if a.dest == "format")
            for name, sp in sub.choices.items()}


def test_the_table_covers_every_subcommand():
    assert set(COMMANDS) == set(_format_actions())


def test_every_subcommand_takes_format_text_or_json():
    for name, action in _format_actions().items():
        assert action.option_strings == ["--format"]
        assert tuple(action.choices) == ("text", "json")
        assert action.default == ("json" if name == "enumerate" else "text"), name


@pytest.mark.parametrize("name", COMMANDS)
def test_both_formats_print_the_same_result(name, capsys):
    code = cli.main([*COMMANDS[name], "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and isinstance(payload, dict)
    assert cli.main([*COMMANDS[name], "--format", "text"]) == 0
    text = capsys.readouterr().out
    dumped = json.dumps(payload, sort_keys=True) + "\n"
    assert text.endswith("\n") and text != dumped
    assert cli.main(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (dumped if name == "enumerate" else text)


def _count_renders(monkeypatch) -> list[str]:
    calls = []
    for attr in ("render_chain", "render_tensor"):
        original = getattr(cli, attr)

        def counted(chain, original=original, attr=attr):
            calls.append(attr)
            return original(chain)
        monkeypatch.setattr(cli, attr, counted)
    return calls


@pytest.mark.parametrize("fmt", ("text", "json"))
@pytest.mark.parametrize("name", RENDERED)
def test_each_result_is_rendered_once(name, fmt, monkeypatch, capsys):
    argv, key = RENDERED[name]
    calls = _count_renders(monkeypatch)
    assert cli.main([*argv, "--format", fmt]) == 0
    out = capsys.readouterr().out
    assert len(calls) == 1, calls
    rendered = json.loads(out)[key] if fmt == "json" else out[:-1]
    assert rendered and "\n" not in rendered


def test_main_prints_once_and_not_on_an_error(monkeypatch, capsys):
    emitted = []
    original = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda *args: (emitted.append(args), original(*args)))
    assert cli.main(COMMANDS["eta"]) == 0
    assert len(emitted) == 1
    assert cli.main(["eta", "--chain", "[3]"]) == 2
    assert cli.main(["verify", "--suite", "lemmas", "--max-degree", "2"]) == 2
    assert len(emitted) == 1
    assert capsys.readouterr().out == emitted[0][2][0] + "\n"


def test_a_failed_suite_prints_its_report_and_exits_one(monkeypatch, capsys):
    from swingwords.verify import Record, Report

    failed = Report("maxlen", [Record("anchor", "fail", "1", "2")])
    monkeypatch.setattr(cli, "run_suite", lambda *args: failed)
    assert cli.main(["verify", "--suite", "maxlen"]) == 1
    assert capsys.readouterr().out == ("FAIL | anchor | expected: 1 | computed: 2\n"
                                       "suite maxlen: FAIL\n")
