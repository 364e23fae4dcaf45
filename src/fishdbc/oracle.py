"""Exact, non-incremental density-based clustering on a distance matrix.

Ground truth for equivalence testing, quadratic by design. It shares with
the incremental engine only what turns edges into clusters: the forest step
(``msf.spanning_forest``: the (weight, lo, hi) tie rule and Kruskal) and the
hierarchy (dendrogram, condensed tree, flat labels). What it checks stays
independent: core distances are exact over the full matrix, every finite
pair is a candidate edge, and the forest is built in one batch. Matrix
entries may be +inf (unknown / masked pairs); infinite edges never affect
the result. Each public call validates its matrix once.
"""

import math

import numpy as np

from .hierarchy import build_dendrogram, condense, extract_flat
from .msf import spanning_forest

__all__ = [
    "MAX_N",
    "exact_core_distances",
    "mutual_reachability",
    "exact_msf",
    "exact_cluster",
    "matrix_from_pairs",
]

MAX_N = 5000


def _validated(matrix):
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"distance matrix must be square (got shape {m.shape})")
    if m.shape[0] > MAX_N:
        raise ValueError(f"matrix too large: n={m.shape[0]} exceeds cap {MAX_N}")
    if np.isnan(m).any():
        raise ValueError("distance matrix must not contain NaN")
    if (m < 0.0).any():
        raise ValueError("distance matrix entries must be >= 0")
    if (m.diagonal() != 0.0).any():
        raise ValueError("distance matrix diagonal must be zero")
    if not np.array_equal(m, m.T):
        raise ValueError("distance matrix must be symmetric")
    return m


def exact_core_distances(matrix, minpts):
    """Per-item distance to the minpts-th closest other item.

    +inf when fewer than minpts finite neighbors exist.
    """
    m = _validated(matrix)
    n = m.shape[0]
    if minpts < 1:
        raise ValueError(f"minpts must be >= 1 (got {minpts})")
    if minpts > n - 1:
        return np.full(n, math.inf)
    work = m.copy()
    np.fill_diagonal(work, math.inf)
    work.sort(axis=1)
    return work[:, minpts - 1]


def mutual_reachability(matrix, cores):
    """max(d(a, b), core(a), core(b)) entrywise, zero diagonal."""
    m = np.asarray(matrix, dtype=np.float64)
    cores = np.asarray(cores, dtype=np.float64)
    out = np.maximum(m, np.maximum(cores[:, None], cores[None, :]))
    np.fill_diagonal(out, 0.0)
    return out


def exact_msf(matrix, minpts):
    """Minimum spanning forest of the mutual reachability graph over every
    finite pair, as (lo, hi, weight) arrays in (weight, lo, hi) order.
    """
    cores = exact_core_distances(matrix, minpts)  # validates the matrix
    n = cores.shape[0]
    mr = mutual_reachability(matrix, cores)
    lo, hi = np.triu_indices(n, k=1)
    return spanning_forest(lo, hi, mr[lo, hi], n)


def exact_cluster(matrix, minpts, m_cs=None):
    """Full pipeline: reachability MSF, condensed tree, flat labels."""
    lo, hi, w = exact_msf(matrix, minpts)
    n = len(matrix)
    if n < 1:
        raise ValueError("need at least one item")
    if m_cs is None:
        m_cs = minpts
    dend = build_dendrogram(lo, hi, w, n)
    return extract_flat(condense(dend, m_cs))


def matrix_from_pairs(n, pairs):
    """Build the masked matrix: recorded pairs keep their distance, all
    other off-diagonal entries are +inf.
    """
    m = np.full((n, n), math.inf)
    np.fill_diagonal(m, 0.0)
    for (i, j), d in pairs.items():
        m[i, j] = d
        m[j, i] = d
    return m
