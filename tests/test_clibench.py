"""The CLI timing harness on two small commands: it runs both sides in
fresh processes, summarises each, and flags output that differs."""

import importlib.util
import json
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("clibench", ROOT / "tools" / "clibench.py")
clibench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(clibench)

SMALL = {"readme_eta": clibench.COMMANDS["readme_eta"],
         "readme_dims_necklace": clibench.COMMANDS["readme_dims_necklace"]}


def test_same_tree_on_both_sides_matches(tmp_path):
    fragment = tmp_path / "fragment.json"
    names = ["--only", *SMALL]
    assert clibench.main([str(ROOT), str(ROOT), "--pairs", "2", *names,
                          "--json", str(fragment)]) == 0
    commands = json.loads(fragment.read_text())["clibench"]["commands"]
    assert set(commands) == set(SMALL)
    for entry in commands.values():
        assert entry["outputs_match"] and entry["exit_code"] == 0
        assert entry["change_faster_pairs"] + entry["parent_faster_pairs"] == 2
        for side in ("parent", "change"):
            wall = entry[side]["wall_s"]
            assert 0 < wall["q1"] <= wall["median"] <= wall["q3"]
            assert entry[side]["peak_rss_mib"]["median"] > 1


def test_a_changed_output_fails_the_run(tmp_path):
    package = tmp_path / "src" / "swingwords"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("print('something else')\n")
    results = clibench.compare(ROOT, tmp_path, {"readme_eta": SMALL["readme_eta"]}, pairs=1)
    assert not results["readme_eta"]["outputs_match"]


def _readme_cli_block() -> list[str]:
    """The lines of the first shell block after the README's CLI heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


def test_every_readme_command_is_timed():
    commands = list(clibench.COMMANDS.values())
    argvs = [shlex.split(line, comments=True) for line in _readme_cli_block()]
    argvs = [argv[1:] for argv in argvs if argv and argv[0] == "swingwords"]
    assert len(argvs) >= 17
    for argv in argvs:
        # the README's tree.json is the golden README tree
        argv = [clibench._TREE if arg == "tree.json" else arg for arg in argv]
        assert argv in commands, argv


def test_every_ci_command_is_timed():
    commands = list(clibench.COMMANDS.values())
    marker = "python -m swingwords.cli "
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    argvs = [shlex.split(line.split(marker, 1)[1]) for line in workflow.splitlines()
             if marker in line]
    assert len(argvs) >= 9
    for argv in argvs:
        assert argv in commands, argv
