#!/usr/bin/env python3
"""Run one benchmark workload against the fishdbc sources of this checkout.

    python3 fishbench/run.py --workload blobs-add --seed 1 --seconds 10 --trace 0

Run it from any directory; it imports ``fishdbc`` from ``src/`` next to
``fishbench/`` and fails when that is missing. Set-up time is the median of
several fresh processes that import the package, generate the inputs and
build an engine. Every reported time is corrected for contention on the
machine (see ``reference.py``); the uncorrected figures are printed as a
JSON object ``{"raw": {...}}`` on the line before the result.

``--trace 0`` times whole passes of the workload until ``--seconds`` have
passed (at least one) and reports the end-to-end metrics. ``--trace 1``
times one untraced pass, repeats it with every layer wrapped, checks that
both passes agree, and reports the per-layer metrics. Both then run an
untimed check pass with ``record_pairs=True`` and compare it with the exact
oracle. Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
MAX_ERRORS = 5  # failed calls printed

clock = time.perf_counter


def percentile(samples, q):
    """Linearly interpolated q-th percentile (0..100) of a non-empty sample."""
    xs = sorted(samples)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_metrics(prefix, samples_s, quantiles):
    """{prefix_pQ: (milliseconds, "ms")} plus the sample count behind them."""
    ms = [1e3 * s for s in samples_s]
    out = {f"{prefix}_p{q}": (percentile(ms, q), "ms") for q in quantiles}
    return out, len(ms)


def use_checkout_sources():
    """Import fishdbc from this checkout's src/, never from elsewhere."""
    if not (SRC / "fishdbc" / "__init__.py").is_file():
        raise SystemExit(f"fishbench: no fishdbc sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import fishdbc

    if Path(fishdbc.__file__).resolve().parent != SRC / "fishdbc":
        raise SystemExit(f"fishbench: imported fishdbc from {fishdbc.__file__}")


def probe_setup(name, seed):
    """One set-up in this fresh process: import, inputs, engine."""
    t0 = clock()
    use_checkout_sources()
    from fishbench import workloads

    workload = workloads.WORKLOADS[name]
    t1 = clock()
    _, _, distance = workloads.make_inputs(workload, seed)
    t2 = clock()
    workloads.new_engine(distance, seed)
    t3 = clock()
    from fishbench import reference

    slow = reference.slowdown(
        [reference.time_probe() for _ in range(reference.SETUP_PROBES)])
    print(json.dumps({"setup_s": (t3 - t0) / slow, "generate_s": (t2 - t1) / slow,
                      "raw_setup_s": t3 - t0, "raw_generate_s": t2 - t1}))


def measure_setup(name, seed):
    """Median corrected set-up and input-generation seconds, and median raw
    set-up seconds, over fresh processes."""
    runs = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {k: statistics.median(run[k] for run in runs) for k in runs[0]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclasses.dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    raw: dict  # name -> uncorrected value, for every corrected time
    notes: list  # human-readable lines: sample counts, contention
    problems: list
    attempted: int
    failed: int
    errors: list  # first exceptions of failed calls


def check_pass(workload, inputs, seed, measured):
    """Untimed correctness gate: every item added, one cluster(), pairs
    recorded. Its forest, labels and distance calls must equal the
    measured pass's Fingerprint; on stream-recluster that is the
    stream-vs-batch check. Then the forest and labels must match the exact
    oracle."""
    from fishbench import checks
    from fishbench.workloads import run_pass

    payloads, _, distance = inputs
    batch = dataclasses.replace(workload, recluster_every=0)
    check = run_pass(batch, payloads, distance, seed, record_pairs=True)
    return (checks.same_outcome("check pass (batch, record_pairs)", measured,
                                checks.fingerprint(check))
            + checks.against_oracle(check))


def timed_run(workload, inputs, seed, seconds):
    """Whole untraced passes until `seconds` have passed; later passes must
    reproduce the first exactly. Only one engine is alive at a time, and
    peak RSS is read after the first pass, so neither depends on how many
    passes fit."""
    from fishbench import checks, reference
    from fishbench.workloads import run_pass
    from fishdbc import metrics as quality

    payloads, truth, distance = inputs
    n = len(payloads)
    ref = reference.Reference()
    errors, problems = [], []
    attempted = failed = passes = 0
    start = clock()

    def one_pass():
        """Run a pass, add up its calls and return its Fingerprint and
        inserted mask; the engine is freed on return."""
        nonlocal attempted, failed, passes
        result = run_pass(workload, payloads, distance, seed, on_call=ref.record)
        passes += 1
        attempted += result.attempted
        failed += result.failed
        errors.extend(result.errors)
        return checks.fingerprint(result), result.inserted

    first, inserted = one_pass()
    rss = peak_rss_mb()
    while clock() - start < seconds:
        later, _ = one_pass()
        problems += checks.same_outcome(f"pass {passes} vs pass 1", first, later)
    problems += check_pass(workload, inputs, seed, first)

    if first.labels is None:
        ami_star = 0.0
    else:
        ami_star = quality.starred(quality.ami, truth[inserted], first.labels)
    add_s = ref.corrected("add")
    ops_s = sum(add_s) + sum(ref.corrected("cluster"))
    raw_ops_s = sum(ref.raw("add")) + sum(ref.raw("cluster"))
    adds, n_add = latency_metrics("add_ms", add_s, (50, 99))
    raw_adds, _ = latency_metrics("add_ms", ref.raw("add"), (50, 99))
    metrics = {
        "items_per_s": (n * passes / ops_s, "1/s"),
        **adds,
        "distance_calls_per_item": (first.distance_calls / n, "calls/item"),
        "ami_star": (ami_star, "ami"),
        "peak_rss_mb": (rss, "MB"),
        "ops_ok_frac": (1.0 - failed / attempted, "frac"),
    }
    raw = {"items_per_s": n * passes / raw_ops_s,
           **{k: v for k, (v, _) in raw_adds.items()}}
    notes = [
        f"samples: {passes} passes, {n_add} add() calls, "
        f"{len(ref.raw('cluster'))} cluster() calls",
        f"contention: median probe {reference.slowdown(ref.probes):.3f}x the "
        f"reference over {len(ref.probes)} probes",
    ]
    return Outcome(metrics, raw, notes, problems, attempted, failed, errors)


def traced_run(workload, inputs, seed):
    """One untraced and one traced pass; the trace must not change results.
    cluster() latency comes from the untraced pass. Per-layer times are
    scaled by the traced pass's median probe."""
    from fishbench import checks, reference, tracing
    from fishbench.workloads import run_pass

    payloads, _, distance = inputs
    base_ref, traced_ref = reference.Reference(), reference.Reference()
    base = run_pass(workload, payloads, distance, seed, on_call=base_ref.record)
    base_fp = checks.fingerprint(base)
    tracer = tracing.Tracer()
    traced = run_pass(workload, payloads, distance, seed, tracer=tracer,
                      on_call=traced_ref.record)
    problems = checks.same_outcome("traced vs untraced", base_fp,
                                   checks.fingerprint(traced))
    traced_calls = tracer.calls.get("distance", [0])[0]
    if traced_calls != traced.engine.distance_calls:
        problems.append(
            f"trace counted {traced_calls} distance calls, engine "
            f"{traced.engine.distance_calls}"
        )
    layers = tracing.layer_metrics(
        tracer, len(payloads), traced.engine.distance_calls,
        len(traced.engine.forest_edges()),
    )
    attempted = base.attempted + traced.attempted
    failed = base.failed + traced.failed
    errors = base.errors + traced.errors
    del base, traced
    problems += check_pass(workload, inputs, seed, base_fp)

    slow = reference.slowdown(traced_ref.probes)
    timed = [name for name, (_, unit) in layers.items() if unit in ("s", "ms", "us")]
    metrics = {name: (value / slow if name in timed else value, unit)
               for name, (value, unit) in layers.items()}
    raw = {name: layers[name][0] for name in timed}
    clusters, n_cluster = latency_metrics(
        "engine.cluster_ms", base_ref.corrected("cluster"), (50, 90))
    raw_clusters, _ = latency_metrics("engine.cluster_ms", base_ref.raw("cluster"), (50, 90))
    metrics.update(clusters)
    raw.update({k: v for k, (v, _) in raw_clusters.items()})

    def ops(ref):
        return sum(ref.corrected("add")) + sum(ref.corrected("cluster"))

    def raw_ops(ref):
        return sum(ref.raw("add")) + sum(ref.raw("cluster"))

    metrics["trace_overhead_frac"] = (ops(traced_ref) / ops(base_ref) - 1.0, "frac")
    raw["trace_overhead_frac"] = raw_ops(traced_ref) / raw_ops(base_ref) - 1.0
    notes = [
        f"samples: {len(tracer.spans)} traced spans, {n_cluster} untraced cluster() calls",
        f"contention: median probe {slow:.3f}x the reference in the traced pass",
    ]
    return Outcome(metrics, raw, notes, problems, attempted, failed, errors)


def run_all(names, args):
    """Each workload in its own process, one after another, so that none
    inherits another's peak RSS. Non-zero if any run failed or was not
    correct."""
    status = 0
    for name in names:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        print(out.stdout, end="", flush=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode or not lines or not json.loads(lines[-1])["correct"]:
            print(out.stderr, end="", file=sys.stderr)
            status = 1
    return status


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help='a workload name, or "all" to run each in turn')
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    use_checkout_sources()
    from fishbench import workloads

    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        valid = ", ".join(workloads.WORKLOADS)
        raise SystemExit(f"fishbench: unknown workload {args.workload!r}; valid: {valid}")
    workload = workloads.WORKLOADS[args.workload]

    setup = measure_setup(workload.name, args.seed)
    inputs = workloads.make_inputs(workload, args.seed)
    if args.trace:
        out = traced_run(workload, inputs, args.seed)
        out.metrics["dataio.generate_s"] = (setup["generate_s"], "s")
        out.raw["dataio.generate_s"] = setup["raw_generate_s"]
    else:
        out = timed_run(workload, inputs, args.seed, args.seconds)
        out.metrics["setup_s"] = (setup["setup_s"], "s")
        out.raw["setup_s"] = setup["raw_setup_s"]

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for note in out.notes:
        print(f"  {note}")
    for name, (value, unit) in out.metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for error in out.errors[:MAX_ERRORS]:
        print(f"  failed call: {error}")
    for problem in out.problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"raw": out.raw}))
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
