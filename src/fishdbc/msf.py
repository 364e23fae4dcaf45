"""Approximate minimum spanning forest maintenance.

New reachability edges accumulate in a bounded candidate buffer; flushing
runs Kruskal over the union of the current forest and the buffer. Flushing
is safe at any point between insertions: a minimum spanning forest can be
built incrementally from edge batches without changing the final result.
"""

import numpy as np

from . import _accel

__all__ = ["CandidateBuffer", "Msf", "should_flush", "update_msf"]

_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


class CandidateBuffer:
    """Map of canonical undirected edges to their best known weight.

    Weights only ever decrease across pushes for the same pair; +inf weights
    are accepted (they occupy a slot) and dropped when flushed into the
    forest.
    """

    __slots__ = ("_edges",)

    def __init__(self):
        self._edges = {}  # packed (lo << 32 | hi) -> weight

    def __len__(self):
        return len(self._edges)

    def push(self, a, b, w):
        if a == b:
            raise ValueError("self-loops are not valid edges")
        if not w >= 0.0:
            raise ValueError(f"edge weight must be >= 0 (got {w})")
        if a > b:
            a, b = b, a
        key = (a << _SHIFT) | b
        cur = self._edges.get(key)
        if cur is None or w < cur:
            self._edges[key] = w

    def clear(self):
        self._edges.clear()

    def arrays(self):
        """Buffer contents as (lo, hi, weight) numpy arrays."""
        k = len(self._edges)
        keys = np.fromiter(self._edges.keys(), dtype=np.int64, count=k)
        w = np.fromiter(self._edges.values(), dtype=np.float64, count=k)
        return keys >> _SHIFT, keys & _MASK, w


class Msf:
    """Current approximate minimum spanning forest as flat edge arrays."""

    def __init__(self):
        self.lo = np.empty(0, dtype=np.int64)
        self.hi = np.empty(0, dtype=np.int64)
        self.weight = np.empty(0, dtype=np.float64)

    def __len__(self):
        return self.lo.shape[0]

    def edges(self):
        return [
            (int(a), int(b), float(w))
            for a, b, w in zip(self.lo, self.hi, self.weight)
        ]


def should_flush(buffer_len, n, alpha):
    """True when the candidate buffer exceeds alpha * n entries."""
    return buffer_len > alpha * n


def update_msf(msf, buf, n):
    """Replace msf with a minimum spanning forest of msf's edges plus the
    buffer's, then empty the buffer. Infinite-weight edges are discarded:
    they can never affect the extracted clustering.
    """
    blo, bhi, bw = buf.arrays()
    lo = np.concatenate([msf.lo, blo])
    hi = np.concatenate([msf.hi, bhi])
    w = np.concatenate([msf.weight, bw])
    finite = np.isfinite(w)
    if not finite.all():
        lo, hi, w = lo[finite], hi[finite], w[finite]
    order = np.lexsort((hi, lo, w))
    lo, hi, w = lo[order], hi[order], w[order]
    keep = _accel.kruskal_mask(lo, hi, n)
    msf.lo = np.ascontiguousarray(lo[keep])
    msf.hi = np.ascontiguousarray(hi[keep])
    msf.weight = np.ascontiguousarray(w[keep])
    buf.clear()
