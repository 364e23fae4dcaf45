"""Approximate minimum spanning forest maintenance.

Candidate edges are appended to a bounded buffer with their raw
distances, copies of a pair included: one ``push`` per entry, or one
``extend`` for many. A flush first weighs them with the current core
distances (``CandidateBuffer.weigh``), then runs ``spanning_forest``
(Filter-Kruskal) over the current forest plus the buffer, where each
pair's lightest copy wins. Its Kruskal sweep also records the
single-linkage merge rows of the edges it keeps, so the flush leaves the
forest's dendrogram on ``Msf`` and a read needs no second sweep.
Flushing is safe at any point between insertions: a minimum spanning forest
can be built incrementally from edge batches without changing the final
result.
"""

from array import array

import numpy as np

from . import _accel
from .hierarchy import Dendrogram

__all__ = ["CandidateBuffer", "Msf", "spanning_forest", "update_msf"]

_SHIFT = 32
_MASK = (1 << _SHIFT) - 1


class CandidateBuffer:
    """Append-only log of candidate edges: one packed ``lo << 32 | hi`` key
    and one weight per entry, in two typed arrays (16 B an entry). ``add``
    pushes its entries one at a time and the flush appends the dirty rows'
    in bulk (``extend``), all as raw distances; they become mutual
    reachability weights only when ``weigh`` runs at the flush.

    A pair pushed again is appended again, not merged; its lightest copy
    is the one that counts, because the flush's Kruskal sweep meets it
    first and rejects every later copy. ``len`` counts the raw entries,
    copies included, and that is what the flush threshold ``ALPHA * n``
    bounds. +inf weights are accepted and dropped at the flush.

    ``push`` and ``extend`` check no values: each is a distance the HNSW's
    recorder validated (finite, >= 0), between two distinct items, as are
    those the neighbor sets hold from it. ``push`` takes the ends in
    either order.
    """

    __slots__ = ("_keys", "_weights")

    def __init__(self):
        self.clear()

    def __len__(self):
        return len(self._weights)

    def push(self, a, b, w):
        if a > b:
            a, b = b, a
        self._keys.append((a << _SHIFT) | b)
        self._weights.append(w)

    def extend(self, keys, weights):
        """Append entries from a list of packed ``lo << 32 | hi`` keys, with
        lo < hi, and a list of their raw distances, in order; the same as
        one ``push`` per entry."""
        self._keys.fromlist(keys)
        self._weights.fromlist(weights)

    def clear(self):
        # Fresh arrays, not resized old ones: a live numpy view of the old
        # storage would make an in-place resize raise BufferError.
        self._keys = array("q")
        self._weights = array("d")

    def weigh(self, core):
        """Raise each entry's weight w to max(w, core[lo], core[hi]) in place,
        with ``core`` a float64 array indexed by item id. A weight at least
        that heavy is left as it is; +inf cores give +inf weights."""
        keys, w = self._views()
        np.maximum(w, core[keys >> _SHIFT], out=w)
        np.maximum(w, core[keys & _MASK], out=w)

    def _views(self):
        """Packed keys and weights as numpy views of the log's storage.

        The views pin the storage; drop them before the next push.
        """
        return (np.frombuffer(self._keys, dtype=np.int64),
                np.frombuffer(self._weights, dtype=np.float64))


class Msf:
    """Current approximate minimum spanning forest as flat edge arrays, and
    its single-linkage ``dendrogram`` over the item count of the last
    flush (None before the first)."""

    def __init__(self):
        self.lo = np.empty(0, dtype=np.int64)
        self.hi = np.empty(0, dtype=np.int64)
        self.weight = np.empty(0, dtype=np.float64)
        self.dendrogram = None

    def __len__(self):
        return self.lo.shape[0]

    def edges(self):
        return [
            (int(a), int(b), float(w))
            for a, b, w in zip(self.lo, self.hi, self.weight)
        ]


def spanning_forest(lo, hi, w, n, merges=None):
    """Minimum spanning forest of the edges (lo[k], hi[k], w[k]) over nodes
    0..n-1: the one forest step of the engine's flush and of the oracle.

    Non-finite edges are dropped, as they never affect the clustering. The
    rest are swept by Kruskal in (w, lo, hi) order, which fixes how weight
    ties break; the kept int64 lo, hi and float64 w come back in that order.

    The sweep is Filter-Kruskal (Osipov, Sanders & Singler, 2009): while
    more than n edges remain, only those weighing at most the (n+1)-th
    smallest weight are sorted and swept, into a union-find shared across
    chunks, and the heavier edges whose endpoints that chunk already joined
    are dropped unsorted. Kruskal would reject every dropped edge, and the
    chunks are swept in weight order, so the result is that of one sweep
    over all edges. It stops once n-1 edges are kept.

    The kept edges arrive in merge order, so the sweep's single-linkage
    merge rows describe the returned forest; pass a fresh
    ``_accel.Merges(n)`` as ``merges`` to keep them.
    """
    finite = np.isfinite(w)
    if not finite.all():
        lo, hi, w = lo[finite], hi[finite], w[finite]
    parent = list(range(n))
    parts = []
    kept = 0
    while len(w) and kept < n - 1:
        if len(w) > n:
            light = np.flatnonzero(w <= np.partition(w, n)[n])
            clo, chi, cw = lo[light], hi[light], w[light]
        else:
            clo, chi, cw = lo, hi, w
        # (w, lo, hi) order in two sorts: by packed pair, then stably by
        # weight. Many weights tie, so the pair order must survive the
        # second sort.
        order = np.argsort(clo << _SHIFT | chi)
        order = order[np.argsort(cw[order], kind="stable")]
        clo, chi, cw = clo[order], chi[order], cw[order]
        keep = _accel.kruskal_mask(clo, chi, parent, merges)
        parts.append((clo[keep], chi[keep], cw[keep]))
        kept += len(parts[-1][0])
        if len(w) <= n:
            break
        # A swept edge's ends are joined, so this drops the light chunk
        # along with the heavy edges it made redundant. One array at a
        # time, so each old one is freed before the next copy.
        root = _roots(parent)
        cross = root[lo] != root[hi]
        lo = lo[cross]
        hi = hi[cross]
        w = w[cross]
    if not parts:
        return lo, hi, w
    return tuple(np.concatenate(a) for a in zip(*parts))


def _roots(parent):
    """Every node's union-find root, by pointer jumping over a parent list."""
    root = np.array(parent, dtype=np.int64)
    while True:
        up = root[root]
        if (up == root).all():
            return root
        root = up


def update_msf(msf, buf, n):
    """Replace msf with a minimum spanning forest of msf's edges plus the
    buffer's, and its dendrogram with the one the sweep emits, over n
    items; empty the buffer.

    A pair's copies need no reduction: the sweep orders by (w, lo, hi), so
    it keeps a pair's lightest copy first and rejects the later ones, whose
    ends are then joined. The buffer's storage is released before the sweep.
    """
    edges = _joined_edges(msf, buf)
    merges = _accel.Merges(n)
    # Popped rather than unpacked, so that no name here holds the joined
    # arrays and the filter frees each one as it drops edges.
    msf.lo, msf.hi, msf.weight = spanning_forest(
        edges.pop(0), edges.pop(0), edges.pop(0), n, merges
    )
    left, right, size = merges.arrays()
    msf.dendrogram = Dendrogram(n, left, right, msf.weight, size)


def _joined_edges(msf, buf):
    """[lo, hi, w] of msf's edges followed by the buffer's entries; empties
    the buffer."""
    m = len(msf)
    total = m + len(buf)
    lo = np.empty(total, dtype=np.int64)
    hi = np.empty(total, dtype=np.int64)
    w = np.empty(total, dtype=np.float64)
    lo[:m] = msf.lo
    hi[:m] = msf.hi
    w[:m] = msf.weight
    keys, bw = buf._views()
    np.right_shift(keys, _SHIFT, out=lo[m:])
    np.bitwise_and(keys, _MASK, out=hi[m:])
    w[m:] = bw
    del keys, bw  # unpin the log's storage so clear() frees it
    buf.clear()
    return [lo, hi, w]
