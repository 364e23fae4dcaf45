"""Command-line front end.

Subcommands: ``cluster`` (batch), ``stream`` (chunked with periodic
reclustering), ``eval`` (quality metrics), ``oracle`` (exact quadratic
clustering of a matrix or a masked distance log) and ``generate``
(synthetic datasets).

Exit codes: 0 success, 1 configuration/usage error, 2 data error.
"""

import argparse
import math
import os
import sys
import time

import numpy as np

from . import dataio, distances, metrics, oracle
from .dataio import ParseError
from .engine import FISHDBC
from .hierarchy import check_min_cluster_size

__all__ = ["main"]


def _engine_args(sub):
    sub.add_argument("--minpts", type=int, default=10)
    sub.add_argument("--ef", type=int, default=20)
    sub.add_argument("--min-cluster-size", type=int, default=None)
    sub.add_argument("--seed", type=int, default=0)


def _dataset_args(sub):
    sub.add_argument("--input", required=True, help="dataset file")
    sub.add_argument("--format", required=True, help=f"one of: {', '.join(dataio.FORMATS)}")
    sub.add_argument("--distance", required=True, help="distance function name")


def build_parser():
    parser = argparse.ArgumentParser(prog="fishdbc")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("cluster", help="add every item, cluster once, write results")
    _dataset_args(p)
    _engine_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--log-distances", action="store_true",
                   help="also write the computed-pair log (distances.log)")

    p = subs.add_parser("stream", help="recluster after every chunk of additions")
    _dataset_args(p)
    _engine_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--chunk", type=int, required=True)

    p = subs.add_parser("eval", help="score predictions against reference labels")
    p.add_argument("--pred", required=True, help="predicted labels file")
    p.add_argument("--labels", required=True, help="reference labels file")
    p.add_argument("--input", help="dataset file, enables internal metrics")
    p.add_argument("--format")
    p.add_argument("--distance")
    p.add_argument("--sample-size", type=int, default=10000)
    p.add_argument("--silhouette-cap", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)

    p = subs.add_parser("oracle", help="exact quadratic clustering (small n)")
    p.add_argument("--input", help="dataset file (all pairwise distances computed)")
    p.add_argument("--format")
    p.add_argument("--distance")
    p.add_argument("--matrix", help="distance matrix file")
    p.add_argument("--mask-from", help="distance log; unrecorded pairs become inf")
    p.add_argument("--minpts", type=int, default=10)
    p.add_argument("--min-cluster-size", type=int, default=None)
    p.add_argument("--out", required=True)

    p = subs.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--kind", choices=("blobs", "transactions"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--centers", type=int, default=10, help="blob centers")
    p.add_argument("--std", type=float, default=1.0, help="blob standard deviation")
    p.add_argument("--clusters", type=int, default=5, help="transaction clusters")
    p.add_argument("--fill", type=float, default=0.5, help="transaction fill probability")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def _dataset_distance(args):
    """The distance --distance names, checked against --format."""
    if not args.format or not args.distance:
        raise ValueError("--input requires --format and --distance")
    distance = distances.by_name(args.distance)
    dataio.check_format_distance(args.format, args.distance)
    return distance


def _make_engine(args, record_pairs=False):
    distance = _dataset_distance(args)
    # Applied by cluster(), but checked before any item is read.
    if args.min_cluster_size is not None:
        check_min_cluster_size(args.min_cluster_size)
    return FISHDBC(
        distance,
        minpts=args.minpts,
        ef=args.ef,
        rng_seed=args.seed,
        record_pairs=record_pairs,
    )


def _add(engine, payload, path):
    """engine.add, with a distance error on the item reported as bad data."""
    try:
        return engine.add(payload)
    except ValueError as exc:
        # A failed add changes nothing, so engine.n is the item's index.
        raise ParseError(f"{path}: item {engine.n}: {exc}") from None


def _require_items(n, path):
    if n == 0:
        raise ParseError(f"{path}: no items to cluster")


def _read_labels(path):
    """dataio.read_labels, with fewer than two rows reported as bad data."""
    labels = dataio.read_labels(path)
    if len(labels) < 2:
        raise ParseError(f"{path}: need at least two labeled items (got {len(labels)})")
    return labels


def _print_summary(summary):
    for key, value in summary.items():
        print(f"{key}={value}")


def cmd_cluster(args):
    engine = _make_engine(args, record_pairs=args.log_distances)
    t0 = time.perf_counter()
    for payload in dataio.read_dataset(args.format, args.input):
        _add(engine, payload, args.input)
    build_seconds = time.perf_counter() - t0
    _require_items(engine.n, args.input)
    t0 = time.perf_counter()
    result = engine.cluster(min_cluster_size=args.min_cluster_size)
    cluster_seconds = time.perf_counter() - t0
    summary = dataio.write_result(
        result,
        args.out,
        extra={
            "distance_calls": engine.distance_calls,
            "build_seconds": f"{build_seconds:.3f}",
            "cluster_seconds": f"{cluster_seconds:.3f}",
        },
    )
    if args.log_distances:
        dataio.write_distance_log(
            os.path.join(args.out, "distances.log"), engine.n, engine.pair_log()
        )
    _print_summary(summary)
    return 0


def cmd_stream(args):
    if args.chunk < 1:
        raise ValueError(f"chunk size must be >= 1 (got {args.chunk})")
    engine = _make_engine(args)
    os.makedirs(args.out, exist_ok=True)
    series_path = os.path.join(args.out, "calls.csv")
    step = 0
    in_chunk = 0
    build_seconds = 0.0
    prev_calls = 0

    def snapshot():
        nonlocal step, prev_calls
        step += 1
        t0 = time.perf_counter()
        result = engine.cluster(min_cluster_size=args.min_cluster_size)
        cluster_seconds = time.perf_counter() - t0
        out_dir = os.path.join(args.out, f"step_{step:05d}")
        dataio.write_result(
            result,
            out_dir,
            extra={
                "distance_calls": engine.distance_calls,
                "build_seconds": f"{build_seconds:.3f}",
                "cluster_seconds": f"{cluster_seconds:.3f}",
            },
        )
        chunk_calls = engine.distance_calls - prev_calls
        prev_calls = engine.distance_calls
        with open(series_path, "a", encoding="utf-8") as fh:
            fh.write(
                f"{engine.n},{engine.distance_calls},"
                f"{engine.distance_calls / engine.n:.3f},"
                f"{chunk_calls / max(in_chunk, 1):.3f}\n"
            )

    with open(series_path, "w", encoding="utf-8") as fh:
        fh.write("n,calls,calls_per_item,calls_per_item_chunk\n")
    for payload in dataio.read_dataset(args.format, args.input):
        t0 = time.perf_counter()
        _add(engine, payload, args.input)
        build_seconds += time.perf_counter() - t0
        in_chunk += 1
        if in_chunk == args.chunk:
            snapshot()
            in_chunk = 0
    _require_items(engine.n, args.input)
    if in_chunk or step == 0:
        snapshot()
    print(f"steps={step}")
    print(f"n={engine.n}")
    print(f"distance_calls={engine.distance_calls}")
    return 0


def cmd_eval(args):
    if args.sample_size < 1:
        raise ValueError(f"--sample-size must be >= 1 (got {args.sample_size})")
    # Silhouette needs two clustered items, so a smaller cap could only skip.
    if args.silhouette_cap < 2:
        raise ValueError(f"--silhouette-cap must be >= 2 (got {args.silhouette_cap})")
    distance = _dataset_distance(args) if args.input else None
    ref = _read_labels(args.labels)
    pred = _read_labels(args.pred)
    if ref.shape != pred.shape:
        raise ParseError(
            f"misaligned label files: {ref.shape[0]} reference vs "
            f"{pred.shape[0]} predicted"
        )
    scores = metrics.eval_labels(ref, pred)
    if scores["clustered"] < 2:
        print("warning: everything is noise; plain AMI/ARI reported as 0",
              file=sys.stderr)
    for key in ("n", "clustered", "ami", "ari", "ami_star", "ari_star"):
        value = scores[key]
        print(f"{key}={value:.6f}" if isinstance(value, float) else f"{key}={value}")
    if args.input:
        items = list(dataio.read_dataset(args.format, args.input))
        if len(items) != len(pred):
            raise ParseError(
                f"dataset has {len(items)} items but {len(pred)} predictions"
            )
        rng = np.random.default_rng(args.seed)
        try:
            intra, inter = metrics.sampled_pair_distances(
                items, pred, distance, args.sample_size, rng
            )
            print(f"intra_cluster={intra:.6f}")
            print(f"inter_cluster={inter:.6f}")
        except ValueError as exc:
            print(f"intra_cluster=skipped ({exc})")
            print(f"inter_cluster=skipped ({exc})")
        try:
            sil = metrics.silhouette(items, pred, distance, max_n=args.silhouette_cap)
            print(f"silhouette={sil:.6f}")
        except ValueError as exc:
            print(f"silhouette=skipped ({exc})")
    return 0


def cmd_oracle(args):
    sources = sum(1 for v in (args.input, args.matrix, args.mask_from) if v)
    if sources != 1:
        raise ValueError("oracle needs exactly one of --input, --matrix, --mask-from")
    if args.minpts < 1:
        raise ValueError(f"minpts must be >= 1 (got {args.minpts})")
    m_cs = args.minpts if args.min_cluster_size is None else args.min_cluster_size
    check_min_cluster_size(m_cs)
    calls = 0
    if args.mask_from:
        n, pairs = dataio.read_distance_log(args.mask_from)
        _require_items(n, args.mask_from)
        matrix = oracle.matrix_from_pairs(n, pairs)
    elif args.matrix:
        matrix = dataio.read_matrix(args.matrix)
        _require_items(len(matrix), args.matrix)
    else:
        distance = _dataset_distance(args)
        items = list(dataio.read_dataset(args.format, args.input))
        n = len(items)
        _require_items(n, args.input)
        if n > oracle.MAX_N:
            raise ValueError(f"dataset too large for the oracle: {n} > {oracle.MAX_N}")
        matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                try:
                    d = distance(items[i], items[j])
                except ValueError as exc:
                    raise ParseError(f"{args.input}: items {i}, {j}: {exc}") from None
                matrix[i, j] = d
                matrix[j, i] = d
                calls += 1
    t0 = time.perf_counter()
    result = oracle.exact_cluster(matrix, args.minpts, m_cs)
    seconds = time.perf_counter() - t0
    summary = dataio.write_result(
        result,
        args.out,
        extra={"distance_calls": calls, "cluster_seconds": f"{seconds:.3f}"},
    )
    _print_summary(summary)
    return 0


def cmd_generate(args):
    for flag in ("n", "dim", "centers", "clusters"):
        if getattr(args, flag) < 1:
            raise ValueError(f"--{flag} must be >= 1 (got {getattr(args, flag)})")
    if not 0.0 <= args.std < math.inf:  # catches NaN too
        raise ValueError(f"--std must be finite and >= 0 (got {args.std})")
    if not 0.0 < args.fill <= 1.0:
        raise ValueError(f"--fill must be in (0, 1] (got {args.fill})")
    rng = np.random.default_rng(args.seed)
    os.makedirs(args.out, exist_ok=True)
    if args.kind == "blobs":
        X, labels = dataio.generate_blobs(
            args.n, args.dim, centers=args.centers, std=args.std, rng=rng
        )
        data_path = os.path.join(args.out, "data.csv")
        dataio.write_dataset("dense-csv", data_path, X)
    else:
        payloads, labels = dataio.generate_transactions(
            args.n, dim=args.dim, clusters=args.clusters, fill=args.fill, rng=rng
        )
        data_path = os.path.join(args.out, "data.txt")
        dataio.write_dataset("set-lines", data_path, payloads)
    labels_path = os.path.join(args.out, "labels.csv")
    dataio.write_labels(labels_path, labels)
    print(f"data={data_path}")
    print(f"labels={labels_path}")
    return 0


_COMMANDS = {
    "cluster": cmd_cluster,
    "stream": cmd_stream,
    "eval": cmd_eval,
    "oracle": cmd_oracle,
    "generate": cmd_generate,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (exit 2) or the help (exit 0).
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
