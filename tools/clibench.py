"""Time a fixed list of CLI commands on two source trees, alternately.

Each command runs as `python -m swingwords.cli ...` in a fresh process, with
PYTHONPATH set to the tree's `src` and the tree as working directory. For
each of N pairs the two trees run one after the other, the first of the pair
alternating, so drift of the machine's speed falls on both sides alike. Per
command and side the report gives the median and quartiles of the wall time
and of the child's peak resident memory (`ru_maxrss`, read with `os.wait4`
on that child only), and the number of pairs each side ran faster. Every run
of a command must print the same stdout on both sides, with the same exit
code; its sha256 is reported, and a mismatch fails the run. A run still
going after KILL_AFTER_S seconds is killed.

The command list holds the README commands, the four default verify suites,
the rank-oracle and enumeration steps of CI, and one command whose time goes
to rendering and printing a large result. Run from the repository root, with
the parent commit's files in another directory:

    python3 tools/clibench.py PARENT_TREE CHANGE_TREE [--pairs 5]
        [--only NAME ...] [--json FRAGMENT.json]

The JSON fragment, under the key
`clibench`, is meant to be pasted into a `BENCH_<n>.json` file. The exit
code is 1 when a digest or an exit code differs, 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

_TREE = "tests/golden/cli/inputs/readme_tree.json"
KILL_AFTER_S = 600.0

COMMANDS: dict[str, list[str]] = {
    # the README command list
    "readme_eta": ["eta", "--chain", "1*[1,2]", "-p", "2"],
    "readme_fold": ["fold", "--kind", "prime", "--n", "3", "--chain", "[1,2,3]", "-p", "3"],
    "readme_reduce_l": ["reduce", "--space", "l", "--chain", "[2,1]", "-p", "2"],
    "readme_reduce_prime": ["reduce", "--space", "prime", "--chain", "1*[1]", "-p", "2"],
    "readme_rho": ["rho", "--swingword", "<1 | (2 3) | 4>", "-p", "4"],
    "readme_class": ["class", "--tree", _TREE],
    "readme_dims_witt": ["dims", "witt", "--n", "9", "--p", "9"],
    "readme_dims_h": ["dims", "h", "--n", "9", "--p", "9"],
    "readme_dims_necklace": ["dims", "necklace", "--multidegree", "2,2,2,2"],
    "readme_dims_h_oracle": ["dims", "h", "--n", "4", "--p", "2", "--oracle"],
    "readme_enumerate_h_333": ["enumerate", "--space", "h", "--multidegree", "3,3,3"],
    "readme_lemmas_6_3": ["verify", "--suite", "lemmas", "--max-degree", "6", "--p", "3"],
    "readme_section4": ["section4"],
    "readme_evenruns": ["evenruns", "--multidegree", "3,5"],
    # the four default suites
    "suite_lemmas": ["verify", "--suite", "lemmas"],
    "suite_exactness": ["verify", "--suite", "exactness"],
    "suite_rho": ["verify", "--suite", "rho"],
    "suite_maxlen": ["verify", "--suite", "maxlen"],
    # the CI steps past tier-1
    "ci_oracle_witt_9_3": ["dims", "witt", "--n", "9", "--p", "3", "--oracle"],
    "ci_oracle_h_9_3": ["dims", "h", "--n", "9", "--p", "3", "--oracle"],
    "ci_enumerate_lie_333": ["enumerate", "--space", "lie", "--multidegree", "3,3,3"],
    "ci_enumerate_h_443": ["enumerate", "--space", "h", "--multidegree", "4,4,3"],
    "ci_enumerate_lie_3322": ["enumerate", "--space", "lie", "--multidegree", "3,3,2,2"],
    "ci_rho_p3": ["verify", "--suite", "rho", "--p", "3"],
    # the output path: eta of 1..18 has 131,072 terms, 6.7 MB of stdout
    "output_eta_p18": ["eta", "-p", "18", "--chain", f"[{','.join(map(str, range(1, 19)))}]"],
}


def run_once(tree: Path, argv: list[str]) -> dict:
    """One fresh process: wall time, peak RSS in MiB, exit code, stdout sha256."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "swingwords.cli", *argv], cwd=tree,
                                env=env, stdout=out, stderr=subprocess.DEVNULL)
        killer = threading.Timer(KILL_AFTER_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        digest = hashlib.sha256(out.read()).hexdigest()
    return {"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024,
            "exit_code": proc.returncode, "stdout_sha256": digest}


def _spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def compare(parent: Path, change: Path, commands: dict[str, list[str]], pairs: int,
            log=None) -> dict:
    """Run every command `pairs` times on each tree, alternating the side
    that goes first, and summarise each command."""
    results = {}
    for name, argv in commands.items():
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(parent if side == "parent" else change, argv))
        outcomes = {(r["stdout_sha256"], r["exit_code"])
                    for side in runs.values() for r in side}
        wins = sum(c["wall_s"] < p["wall_s"] for p, c in zip(runs["parent"], runs["change"]))
        entry = {
            "argv": argv,
            "stdout_sha256": runs["parent"][0]["stdout_sha256"],
            "exit_code": runs["parent"][0]["exit_code"],
            "outputs_match": len(outcomes) == 1,
            "pairs": pairs,
            "change_faster_pairs": wins,
            "parent_faster_pairs": pairs - wins,
        }
        for side, side_runs in runs.items():
            entry[side] = {key: _spread([r[key] for r in side_runs])
                           for key in ("wall_s", "peak_rss_mib")}
        results[name] = entry
        if log is not None:
            print(f"{name:<26} wall {entry['parent']['wall_s']['median']:>8.3f} -> "
                  f"{entry['change']['wall_s']['median']:>8.3f} s  "
                  f"rss {entry['parent']['peak_rss_mib']['median']:>7.1f} -> "
                  f"{entry['change']['peak_rss_mib']['median']:>7.1f} MiB  "
                  f"change faster {wins}/{pairs}  "
                  f"{'same output' if entry['outputs_match'] else 'OUTPUT DIFFERS'}",
                  file=log, flush=True)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--only", nargs="+", choices=sorted(COMMANDS), metavar="NAME")
    parser.add_argument("--json", type=Path, help="write the JSON fragment here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    commands = {name: COMMANDS[name] for name in args.only or COMMANDS}
    results = compare(args.parent.resolve(), args.change.resolve(), commands, args.pairs,
                      log=sys.stdout)
    fragment = {"clibench": {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "pairs": args.pairs,
        "commands": results,
    }}
    if args.json is not None:
        args.json.write_text(json.dumps(fragment, indent=2) + "\n")
    return 0 if all(r["outputs_match"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
