"""Self-tests of the benchmark: `python3 -m pytest perfbench -q`.

Every workload runs at a tiny size through the real worker and check path and
matches its golden digests at full size, a corrupted result is counted as
failed, and tracing leaves no wrapper behind.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
import swingwords  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from worker import now  # noqa: E402


def _tiny_round(workload, trace=False):
    return run.spawn_round(workload, workloads.DEFAULT_SEED, trace, now() + 120, tiny=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_round_passes_every_check(workload):
    result = _tiny_round(workload)
    assert result["ok"] and all(result["ok"])
    assert run.count_failed([result, result], None) == 0
    assert len(result["scales"]) == len(result["latencies"])
    metrics = run.end_to_end([result])
    assert all(metrics[name] > 0 for name, _ in run.END_TO_END)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_default_seed_matches_golden_digests(workload):
    result = run.spawn_round(workload, workloads.DEFAULT_SEED, False, now() + 120)
    golden = run.load_golden(workload, workloads.DEFAULT_SEED)
    assert run.count_failed([result], golden) == 0


def test_traced_tiny_round_reports_every_layer_metric():
    result = _tiny_round("spans", trace=True)
    assert all(result["ok"])
    assert result["layers"]["quotients.RelationSpan.build.calls"] > 0
    assert result["layers"]["quotients.canonical_l.span_fallbacks"] > 0


def test_scale_uses_the_probes_around_and_inside_a_job():
    nominal = worker.REF_NOMINAL_S
    prober = worker.Prober()
    prober.times = [0.0, 1.0, 2.0, 3.0]
    prober.probes = [nominal, nominal, 3 * nominal, 3 * nominal]
    assert prober.scale(0.1, 0.9) == 1.0        # between probes 0 and 1
    assert prober.scale(1.5, 2.5) == 1 / 3      # between probes 1 and 3
    assert prober.scale(0.5, 2.5) == 0.5        # probes 0 to 3: median 2x


def test_corrupted_digest_counts_as_failed():
    result = _tiny_round("trees")
    corrupted = dict(result, digests=["0" * 16] + result["digests"][1:])
    assert run.count_failed([result, corrupted], None) == 1
    assert run.count_failed([result], corrupted["digests"]) == 1
    flipped = dict(result, ok=[False] + result["ok"][1:])
    assert run.count_failed([result, flipped], None) == 1


def test_wrong_library_output_fails_the_job_check(monkeypatch):
    monkeypatch.setattr(swingwords, "render_swingword", lambda sw: "<1 | 2 | 3>")
    jobs, _, _ = workloads.make_jobs(swingwords, "trees", workloads.DEFAULT_SEED, tiny=True)
    oks = [job()[0] for _, job in jobs]
    assert not any(oks)


def _bindings():
    """Every function bound in a swingwords module and every class attribute."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name != "swingwords" and not name.startswith("swingwords."):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type):
                for member, inner in vars(value).items():
                    seen[(name, attr, member)] = inner
    return seen


def test_tracer_restores_every_wrapped_binding():
    before = _bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        # a name imported with `from .x import y` is wrapped where it is bound
        assert getattr(swingwords.h_basis, "perfbench_traced", False)
        assert getattr(swingwords.bases.witt_multidegree, "perfbench_traced", False)
        assert getattr(swingwords.linalg.RowSpace.insert, "perfbench_traced", False)
        jobs, _, _ = workloads.make_jobs(swingwords, "basis", workloads.DEFAULT_SEED, tiny=True)
        assert all(job()[0] for _, job in jobs)
        metrics = tracer.metrics()
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert metrics["bases.h_basis.total_s"] > 0
    assert metrics["linalg.insert.calls"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        layer_names = list(tracer.metrics()) + ["trace.overhead_ratio"]
    finally:
        tracer.restore()
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
