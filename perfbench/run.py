"""Benchmark runner for swingwords.

    python3 perfbench/run.py --workload words --seed 1 --seconds 25 --trace 0

Runs rounds of one workload back to back, one at a time (a closed loop with a
single caller), until `--seconds` have passed. Each round is a fresh worker
process (`worker.py`) that imports the library from this checkout, so every
round starts with cold module memos, as a CLI call does. Every job's own check
runs in every round; a job also fails when its output digest differs from the
first round's or, at the default seed, from the committed golden digest.

Every time is scaled to a reference CPU speed (see `worker.py`): the worker
times a fixed pure-Python probe between blocks of jobs, and each latency is
multiplied by the probe's nominal over its measured time. On a shared virtual
machine whose speed moves between levels, that cancels most of the level.
Each metric is computed per round and reported as the median over the run's
rounds, so the number of rounds that fit in `--seconds` does not bias it:
`wall_s` is the sum of a round's scaled job latencies, `job_p50_ms` and
`job_p99_ms` their median and nearest-rank 99th percentile, `setup_s` the
scaled time from spawn to the first job and `peak_rss_mb` the worker's
maximum RSS. The raw, unscaled figures are in the record line.

With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` rounds alternate between plain and traced, and it carries the
median per-layer metrics of the traced rounds plus `trace.overhead_ratio`
(traced over plain `wall_s`, minus 1). Lines before it print each metric with
its unit and a record of the run.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from worker import REF_NOMINAL_S, now, probe  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
GOLDEN_DIR = os.path.join(HERE, "golden")
# The whole run, every round included, must end within this many seconds.
RUN_DEADLINE_S = 170

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("job_p50_ms", "ms"),
              ("job_p99_ms", "ms"), ("peak_rss_mb", "MiB"))


def _read_until(stream, deadline: float) -> bytes:
    chunks = []
    with selectors.DefaultSelector() as sel:
        sel.register(stream, selectors.EVENT_READ)
        while True:
            left = deadline - now()
            if left <= 0 or not sel.select(left):
                raise TimeoutError("benchmark round ran past the run deadline")
            chunk = os.read(stream.fileno(), 1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def spawn_round(workload: str, seed: int, trace: bool, deadline: float,
                tiny: bool = False) -> dict:
    """Run one worker process; add the times and peak RSS measured here."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny
    # a fixed hash seed gives every round the same dict and set layouts
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = probe()
    spawned = now()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out = _read_until(proc.stdout, deadline)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    result = json.loads(out)
    result["setup_s"] = result["ready"] - spawned
    # set-up ran between this process's probe and the worker's first one
    result["setup_scale"] = 2 * REF_NOMINAL_S / (before + result["probes"][0])
    result["wall_s"] = sum(result["latencies"])
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    return result


def round_metrics(result: dict) -> dict:
    """One round's end-to-end metrics, scaled to the reference speed."""
    scaled = sorted(t * k for t, k in zip(result["latencies"], result["scales"]))
    rank = math.ceil(0.99 * len(scaled))  # nearest-rank p99
    return {"wall_s": sum(scaled),
            "setup_s": result["setup_s"] * result["setup_scale"],
            "job_p50_ms": 1000 * statistics.median(scaled),
            "job_p99_ms": 1000 * scaled[rank - 1],
            "peak_rss_mb": result["peak_rss_mb"]}


def end_to_end(rounds: list[dict]) -> dict:
    per_round = [round_metrics(r) for r in rounds]
    return {name: statistics.median(m[name] for m in per_round) for name, _ in END_TO_END}


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def load_golden(workload: str, seed: int) -> list[str] | None:
    if seed != DEFAULT_SEED:
        return None
    with open(golden_path(workload)) as f:
        return json.load(f)["digests"]


def count_failed(rounds: list[dict], golden: list[str] | None) -> int:
    """Jobs whose check failed or whose output digest differs from the golden
    digest, or from the first round's when there is no golden file; a round
    that ran fewer jobs counts one more failure."""
    reference = golden if golden is not None else rounds[0]["digests"]
    failed = 0
    for result in rounds:
        for i, (ok, digest) in enumerate(zip(result["ok"], result["digests"])):
            failed += not ok or i >= len(reference) or digest != reference[i]
        failed += len(result["digests"]) < len(reference)
    return failed


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "swingwords", "*.py"))):
        with open(path, "rb") as f:
            total += f.read().count(b"\n")
    return total


def commit() -> str:
    """The checked-out commit, or 'unknown' outside a git clone."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    start = now()
    deadline = start + RUN_DEADLINE_S
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        traced_turn = trace and len(traced) < len(plain)
        began = now()
        result = spawn_round(workload, seed, traced_turn, deadline)
        (traced if traced_turn else plain).append(result)
        elapsed = now() - start
        done = elapsed >= seconds and (traced or not trace)
        # stop early rather than start a round the deadline cannot hold
        if done or now() + 2 * (now() - began) > deadline:
            break
    rounds = plain + traced
    golden = load_golden(workload, seed)
    attempted = sum(len(r["ok"]) for r in rounds)
    failed = count_failed(rounds, golden)
    plain_metrics = end_to_end(plain)
    if trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        traced_wall = end_to_end(traced)["wall_s"]
        metrics["trace.overhead_ratio"] = traced_wall / plain_metrics["wall_s"] - 1
    else:
        metrics = plain_metrics
    jobs = len(plain[0]["ok"])
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "rounds": len(plain), "traced_rounds": len(traced),
        "jobs_per_round": jobs,
        "samples_beyond_p99": jobs - math.ceil(0.99 * jobs),
        "raw_wall_s": [round(r["wall_s"], 4) for r in plain],
        "raw_setup_s": [round(r["setup_s"], 4) for r in plain],
        "speed": [round(statistics.median(r["scales"]), 4) for r in plain],
        "golden_checked": golden is not None,
        "failed_ratio": failed / attempted,
        "src_lines": src_lines(), "python": platform.python_version(),
        "commit": commit(), "inputs": plain[0]["inputs"],
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def record_golden(workload: str) -> None:
    result = spawn_round(workload, DEFAULT_SEED, False, now() + RUN_DEADLINE_S)
    if not all(result["ok"]):
        raise SystemExit("refusing to record a golden file from failed jobs")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(golden_path(workload), "w") as f:
        json.dump({"seed": DEFAULT_SEED, "digests": result["digests"]}, f, indent=0)
        f.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one swingwords benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite the workload's golden digests at the default seed")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "swingwords")):
        print(f"error: no src/swingwords under {ROOT}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that spawn_round kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        if args.record_golden:
            record_golden(args.workload)
            return 0
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, TimeoutError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    unit = units()
    for name, value in result["metrics"].items():
        print(f"{name:40s} {value:>16.6f} {unit[name]}")
    print(f"{'failed_ratio':40s} {record['failed_ratio']:>16.6f} "
          f"({result['failed']} of {result['attempted']} jobs)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}
                     | {"metrics": {name: {"value": value, "unit": unit[name]}
                                    for name, value in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
