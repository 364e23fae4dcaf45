"""Correctness checks on benchmark passes. Each returns a list of problems;
an empty list means the check passed."""

import hashlib
from dataclasses import dataclass

import numpy as np

from fishdbc import hierarchy, oracle

from .workloads import MINPTS


def labels_digest(labels):
    if labels is None:
        return None
    return hashlib.sha256(np.asarray(labels, dtype=np.int64).tobytes()).hexdigest()[:16]


def forest(engine):
    """The engine's spanning forest as (lo, hi, weight) arrays."""
    edges = engine.forest_edges()
    lo = np.array([e[0] for e in edges], dtype=np.int64)
    hi = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    return lo, hi, w


def _same_forest(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class Fingerprint:
    """What two passes over the same inputs must agree on, without the
    engine that produced it."""

    labels: object  # np.ndarray from the final cluster(), None if it failed
    forest: tuple  # (lo, hi, weight) arrays
    distance_calls: int


def fingerprint(result):
    """The Fingerprint of a workloads.PassResult."""
    return Fingerprint(result.labels, forest(result.engine), result.engine.distance_calls)


def same_outcome(label, ref, other):
    """Two Fingerprints of passes over the same inputs: identical labels,
    forest and distance-call count."""
    problems = []
    if labels_digest(ref.labels) != labels_digest(other.labels):
        problems.append(f"{label}: labels differ")
    if ref.distance_calls != other.distance_calls:
        problems.append(
            f"{label}: distance calls differ "
            f"({ref.distance_calls} vs {other.distance_calls})"
        )
    if not _same_forest(ref.forest, other.forest):
        problems.append(f"{label}: spanning forests differ")
    return problems


def against_oracle(check):
    """The engine's forest must be edge-identical to the exact minimum
    spanning forest of the pairs it computed, and its labels equal to the
    exact clustering. ``check`` is a pass run with record_pairs=True."""
    engine = check.engine
    n = engine.n
    matrix = oracle.matrix_from_pairs(n, engine.pair_log())
    lo, hi, w = oracle.exact_msf(matrix, MINPTS)
    del matrix
    problems = []
    if not _same_forest(forest(engine), (lo, hi, w)):
        problems.append("oracle: forest is not the exact MSF of the computed pairs")
    # oracle.exact_cluster is this pipeline on exact_msf's output; calling
    # it would repeat the quadratic MSF.
    tree = hierarchy.condense(hierarchy.build_dendrogram(lo, hi, w, n), MINPTS)
    exact = hierarchy.extract_flat(tree).labels
    if check.labels is None or not np.array_equal(check.labels, exact):
        problems.append("oracle: labels differ from the exact clustering")
    return problems
