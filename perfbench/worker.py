"""One benchmark round: a fresh process that imports `swingwords` from the
checkout's `src/`, builds one workload's inputs from the seed, runs every job
once and prints one JSON object on stdout.

    python3 perfbench/worker.py --workload trees --seed 1 [--trace] [--tiny]

Times are read from CLOCK_MONOTONIC, which is shared by all processes on the
machine, so the parent can measure set-up from the moment it spawned us.

On a shared virtual machine the speed of the CPU can move between levels far
apart, each lasting from under a second to minutes. So the round also times a
fixed pure-Python reference workload (a *probe*) before the jobs, every
PROBE_EVERY_S while they run (from a timer signal, so a long job is probed
inside) and after them. Each job's `scale` is REF_NOMINAL_S over the median of
the probes from the last one before it starts to the first one after it ends:
a latency times its scale is the latency at the speed at which one probe
takes REF_NOMINAL_S. Probe time is taken out of job time.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Time between probes while jobs run, in seconds.
PROBE_EVERY_S = 0.1
# What one probe takes at the reference speed. The value only fixes the unit
# of the scaled times; it is close to the fastest probe seen on a 2-core x86
# virtual machine under Python 3.11, so scaled times read as seconds there.
REF_NOMINAL_S = 0.0012


def reference_work() -> int:
    """Fixed work of the kind the library does: Fraction sums, tuple-keyed
    dict updates and small sorts."""
    acc, table = Fraction(0), {}
    for i in range(500):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 13, i % 11, i % 3)
        table[key] = table.get(key, 0) + i
        sorted((i, -i, i % 17))
    return acc.numerator + len(table)


def probe() -> float:
    """The fastest of three timings of the reference work, so one preemption
    does not read as a slow machine."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


class Prober:
    """Probes before the jobs, on a timer while they run and after them."""

    def __init__(self):
        self.times: list[float] = []   # perf_counter at each probe's start
        self.probes: list[float] = []  # each probe's duration
        self.spent = 0.0               # time spent probing so far
        self.busy = False

    def sample(self, *_signal) -> None:
        if self.busy:  # a timer signal during a probe on a very slow machine
            return
        self.busy = True
        start = time.perf_counter()
        self.probes.append(probe())
        self.times.append(start)
        self.spent += time.perf_counter() - start
        self.busy = False

    def __enter__(self) -> "Prober":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the median probe from the last one started
        before `start` to the first one started after `end`."""
        first = max(bisect.bisect_right(self.times, start) - 1, 0)
        last = bisect.bisect_left(self.times, end)
        return REF_NOMINAL_S / statistics.median(self.probes[first:last + 1])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def import_library():
    """Import the package from this checkout only, never from site-packages."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import swingwords

    where = os.path.realpath(swingwords.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"swingwords was imported from {where}, not from {src}")
    return swingwords


def run(workload: str, seed: int, trace: bool, tiny: bool) -> dict:
    sw = import_library()
    sys.path.insert(0, HERE)
    import workloads

    tracer = None
    if trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        jobs, inputs, after = workloads.make_jobs(sw, workload, seed, tiny)
        latencies, spans, oks, digests = [], [], [], []
        ready = now()
        with Prober() as prober:
            for name, job in jobs:
                spent = prober.spent
                start = time.perf_counter()
                try:
                    ok, output = job()
                except Exception as exc:  # a raising job is a failed job
                    print(f"job {name} raised {type(exc).__name__}: {exc}", file=sys.stderr)
                    ok, output = False, f"error: {type(exc).__name__}"
                end = time.perf_counter()
                latencies.append(end - start - (prober.spent - spent))
                spans.append((start, end))
                oks.append(bool(ok))
                digests.append(digest(output))
        layers = tracer.metrics() if tracer else {}
    finally:
        if tracer:
            tracer.restore()
    if after is not None:
        inputs.update(after())
    return {"workload": workload, "seed": seed, "ready": ready,
            "latencies": latencies,
            "scales": [prober.scale(start, end) for start, end in spans],
            "probes": prober.probes, "ok": oks, "digests": digests,
            "inputs": inputs, "layers": layers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    json.dump(run(args.workload, args.seed, args.trace, args.tiny), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
