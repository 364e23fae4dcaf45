"""Exact, non-incremental density-based clustering on a distance matrix.

Ground truth for equivalence testing: quadratic by design, shares the
hierarchy pipeline with the incremental engine so that comparisons isolate
the spanning-forest construction. Matrix entries may be +inf (unknown /
masked pairs); infinite edges never affect the result.
"""

import math

import numpy as np

from . import _accel
from .hierarchy import build_dendrogram, condense, extract_flat

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
    """Minimum spanning forest of the mutual reachability graph.

    Exhaustive over all finite pairs; ties broken by (weight, lo, hi) to
    mirror the incremental engine. Returns (lo, hi, weight) arrays.
    """
    m = _validated(matrix)
    n = m.shape[0]
    cores = exact_core_distances(m, minpts)
    mr = mutual_reachability(m, cores)
    lo, hi = np.triu_indices(n, k=1)
    w = mr[lo, hi]
    finite = np.isfinite(w)
    lo, hi, w = lo[finite], hi[finite], w[finite]
    order = np.lexsort((hi, lo, w))
    lo = np.ascontiguousarray(lo[order], dtype=np.int64)
    hi = np.ascontiguousarray(hi[order], dtype=np.int64)
    w = np.ascontiguousarray(w[order])
    keep = _accel.kruskal_mask(lo, hi, n)
    return lo[keep], hi[keep], w[keep]


def exact_cluster(matrix, minpts, m_cs=None):
    """Full pipeline: reachability MSF, condensed tree, flat labels."""
    m = _validated(matrix)
    n = m.shape[0]
    if n < 1:
        raise ValueError("need at least one item")
    if m_cs is None:
        m_cs = minpts
    lo, hi, w = exact_msf(m, minpts)
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
