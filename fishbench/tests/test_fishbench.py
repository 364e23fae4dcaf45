"""Tests of the benchmark itself: statistics, seeding, wrapper transparency,
failure accounting and the refusal to run without the package sources.

    python3 -m pytest fishbench/tests
"""

import dataclasses
import gc
import json
import pickle
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fishbench import checks, reference, tracing, workloads
from fishbench.run import (
    latency_metrics, parse_args, percentile, run_all, timed_run, traced_run,
)
from fishdbc import _accel, engine as engine_mod
from fishdbc.distances import euclidean, jaro_winkler
from fishdbc.engine import FISHDBC
from fishdbc.msf import CandidateBuffer
from fishdbc.neighbors import NeighborStore

ROOT = Path(__file__).resolve().parents[2]

TINY_STREAM = workloads.Workload("tiny", "blobs", 300, recluster_every=50)
TINY_BATCH = workloads.Workload("tiny", "blobs", 300)


def test_percentile_interpolates_linearly():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == pytest.approx(50.5)
    assert percentile(xs, 90) == pytest.approx(90.1)
    assert percentile(xs, 99) == pytest.approx(99.01)
    assert percentile([3.0], 99) == 3.0
    assert percentile([4, 1, 3, 2], 0) == 1
    assert percentile([4, 1, 3, 2], 100) == 4
    with pytest.raises(ValueError):
        percentile([], 50)


def test_latency_metrics_report_ms_and_sample_count():
    metrics, count = latency_metrics("add_ms", [0.001 * k for k in range(1, 201)], (50, 99))
    assert count == 200
    assert set(metrics) == {"add_ms_p50", "add_ms_p99"}
    value, unit = metrics["add_ms_p50"]
    assert unit == "ms"
    assert value == pytest.approx(100.5)


def test_reference_corrects_each_call_by_the_probes_around_it():
    ref_s = reference.REFERENCE_S
    # a probe after every call: twice as slow for five calls, then idle
    probes = iter([2 * ref_s] * 5 + [ref_s] * 5)
    ref = reference.Reference(timer=lambda: next(probes), every_s=0.0)
    for k in range(10):
        ref.record("add" if k % 2 else "cluster", 1.0 + k)
    assert ref.raw("add") == [2.0, 4.0, 6.0, 8.0, 10.0]
    assert reference.slowdown(ref.probes) == pytest.approx(1.5)
    # call k has k probes before it; the median of up to three on each side
    # sets its correction
    assert ref.corrected("cluster") == pytest.approx([0.5, 1.5, 2.5, 7.0, 9.0])
    assert ref.corrected("add") == pytest.approx([1.0, 2.0, 4.0, 8.0, 10.0])


def test_probe_takes_steady_time():
    times = sorted(reference.time_probe() for _ in range(21))
    assert 0 < times[0] <= times[10] < 50 * reference.REFERENCE_S


def test_probe_time_is_unmoved_by_a_live_full_size_engine():
    """The probe runs right after engine calls, in the same process. A
    full-size engine must not slow it, or the correction would move with
    the engine as well as with the machine. Short blocks of probes with and
    without a live engine alternate, and each pair is compared, so that
    changes in the load on the machine hit both sides of a pair alike."""
    workload = workloads.WORKLOADS["blobs-add"]
    payloads, _, distance = workloads.make_inputs(workload, 1)
    blob = pickle.dumps(workloads.run_pass(workload, payloads, distance, 1).engine)
    extra, _, _ = workloads.make_inputs(TINY_BATCH, 2)

    def block():
        return statistics.median(reference.time_probe() for _ in range(31))

    ratios = []
    for k in range(15):
        engine = pickle.loads(blob)
        for payload in extra[10 * k:10 * k + 10]:
            engine.add(payload)
        alive = block()
        del engine
        gc.collect()
        ratios.append(alive / block())
    assert statistics.median(ratios) == pytest.approx(1.0, rel=0.1)


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_timed_run_reports_every_end_to_end_metric_and_its_raw_time():
    inputs = workloads.make_inputs(TINY_STREAM, 6)
    out = timed_run(TINY_STREAM, inputs, 6, seconds=0.5)
    declared = _declared("end_to_end")
    del declared["setup_s"]  # measured in fresh processes by main()
    assert {k: u for k, (_, u) in out.metrics.items()} == declared
    assert out.problems == [] and out.failed == 0
    assert out.attempted % (300 + 300 // 50) == 0
    assert all(v != 0 for v, _ in out.metrics.values())
    assert set(out.raw) == {"items_per_s", "add_ms_p50", "add_ms_p99"}


def test_traced_run_reports_every_per_layer_metric_and_its_raw_time():
    inputs = workloads.make_inputs(TINY_STREAM, 6)
    out = traced_run(TINY_STREAM, inputs, 6)
    declared = _declared("per_layer")
    del declared["dataio.generate_s"]  # measured in fresh processes by main()
    assert {k: u for k, (_, u) in out.metrics.items()} == declared
    assert out.problems == [] and out.failed == 0
    assert "engine.cluster_ms_p90" in out.raw and "distances.s" in out.raw


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_and_changes_the_inputs(name):
    small = dataclasses.replace(workloads.WORKLOADS[name], n=200)
    a, truth_a, _ = workloads.make_inputs(small, 1)
    b, truth_b, _ = workloads.make_inputs(small, 1)
    c, _, _ = workloads.make_inputs(small, 2)
    assert len(a) == 200
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert np.array_equal(truth_a, truth_b)
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_string_corpus_is_fixed_noisy_copies_of_ten_prototypes():
    strings, labels = workloads.string_corpus(500)
    assert workloads.string_corpus(500)[0] == strings
    assert set(labels.tolist()) == set(range(10))
    assert all(isinstance(s, str) and s for s in strings)
    assert 12 <= np.mean([len(s) for s in strings]) <= 20
    # copies of one prototype are closer to each other than to the rest
    within, across = [], []
    for i in range(60):
        for j in range(i):
            d = jaro_winkler(strings[i], strings[j])
            (within if labels[i] == labels[j] else across).append(d)
    assert np.median(within) < 0.5 * np.median(across)


def _originals():
    return [
        vars(FISHDBC)["add"], vars(FISHDBC)["cluster"],
        vars(NeighborStore)["observe"], vars(NeighborStore)["core_distance"],
        vars(NeighborStore)["members"], vars(CandidateBuffer)["push"],
        engine_mod.update_msf, engine_mod.build_dendrogram, engine_mod.condense,
        engine_mod.extract_flat, _accel.kruskal_mask, _accel.linkage_merges,
    ]


def test_tracing_is_transparent_and_restores_the_layers():
    payloads, _, distance = workloads.make_inputs(TINY_STREAM, 3)
    before = _originals()
    plain = workloads.run_pass(TINY_STREAM, payloads, distance, 3)
    tracer = tracing.Tracer()
    traced = workloads.run_pass(TINY_STREAM, payloads, distance, 3, tracer=tracer)

    assert checks.same_outcome(
        "traced", checks.fingerprint(plain), checks.fingerprint(traced)) == []
    assert _originals() == before
    assert "insert" not in vars(traced.engine._hnsw)

    calls = traced.engine.distance_calls
    metrics = tracing.layer_metrics(tracer, 300, calls, len(traced.engine.forest_edges()))
    assert metrics["distances.calls"][0] == calls
    assert metrics["msf.forest_edges"][0] == 299
    # one add span per item, one cluster span per cluster() call
    totals = tracer.span_totals()
    assert totals["add"][0] == 300
    assert totals["cluster"][0] == len(traced.cluster_s) == 300 // 50
    for name, (count, total, own, longest) in totals.items():
        assert own <= total + 1e-9, name
    assert 0 < metrics["hnsw.dedup_frac"][0] <= 1
    assert 0 < metrics["engine.repush_frac"][0] < 1


def test_check_pass_matches_oracle_and_stream_matches_batch():
    payloads, _, distance = workloads.make_inputs(TINY_STREAM, 4)
    stream = workloads.run_pass(TINY_STREAM, payloads, distance, 4)
    check = workloads.run_pass(TINY_BATCH, payloads, distance, 4, record_pairs=True)
    assert checks.same_outcome(
        "stream vs batch", checks.fingerprint(stream), checks.fingerprint(check)) == []
    assert checks.against_oracle(check) == []


def test_oracle_check_reports_a_wrong_forest():
    payloads, _, distance = workloads.make_inputs(TINY_BATCH, 4)
    check = workloads.run_pass(TINY_BATCH, payloads, distance, 4, record_pairs=True)
    msf = check.engine._msf
    msf.weight = msf.weight.copy()
    msf.weight[0] += 1.0
    assert checks.against_oracle(check)


def test_failed_calls_are_counted_and_the_pass_goes_on():
    payloads, _, _ = workloads.make_inputs(TINY_BATCH, 5)
    calls = 0

    def flaky(a, b):
        nonlocal calls
        calls += 1
        if calls % 500 == 0:
            return float("nan")
        return euclidean(a, b)

    result = workloads.run_pass(TINY_BATCH, payloads, flaky, 5)
    assert result.failed > 0
    assert result.attempted == 300 + 1
    assert result.engine.n == int(result.inserted.sum()) == 300 - result.failed
    assert result.errors and "DistanceError" in result.errors[0]
    assert result.labels is not None


def test_run_fails_without_package_sources(tmp_path):
    shutil.copytree(ROOT / "fishbench", tmp_path / "fishbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "fishbench/run.py", "--workload", "blobs-add",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_run_all_reports_a_failed_workload():
    args = parse_args(["--workload", "all", "--seconds", "1"])
    assert run_all(["no-such-workload"], args) == 1
