"""Per-item bounded max-heaps of the closest discovered neighbors.

Each item keeps its ``minpts`` closest neighbors seen so far; the heap top is
the item's core distance once the heap is full, and +inf before that. That
rule makes core distances monotone non-increasing over the store's lifetime.
"""

import heapq
import math

__all__ = ["NeighborStore"]

INF = math.inf


class NeighborStore:
    def __init__(self, minpts):
        if minpts < 2:
            raise ValueError(f"minpts must be >= 2 (got {minpts})")
        self.minpts = minpts
        # Per item: a heap of (-distance, neighbor) plus a mirror dict
        # neighbor -> distance for O(1) duplicate checks. Others may read
        # ``dists`` (the HNSW reuses its distances) but never write it.
        self._heaps = {}
        self.dists = {}

    def register(self, x):
        if x in self._heaps:
            raise ValueError(f"item {x} already registered")
        self._heaps[x] = []
        self.dists[x] = {}

    def observe(self, x, y, v):
        """Record that d(x, y) = v, updating x's heap only.

        Returns ``(improved, evicted)`` where ``improved`` says whether x's
        top-minpts set changed and ``evicted`` is the ``(neighbor, distance)``
        entry pushed out of the heap, if any. Ties at the top evict only on
        strict improvement.
        """
        if x == y:
            raise ValueError("an item cannot be its own neighbor")
        heap = self._heaps[x]
        dists = self.dists[x]
        old = dists.get(y)
        if old is not None:
            if v >= old:
                return False, None
            # Same pair re-observed with a smaller distance; rebuild.
            heap.remove((-old, y))
            heapq.heapify(heap)
            heapq.heappush(heap, (-v, y))
            dists[y] = v
            return True, None
        if len(heap) < self.minpts:
            heapq.heappush(heap, (-v, y))
            dists[y] = v
            return True, None
        top = -heap[0][0]
        if v >= top:
            return False, None
        neg, evicted_id = heapq.heappushpop(heap, (-v, y))
        dists[y] = v
        del dists[evicted_id]
        return True, (evicted_id, -neg)

    def core_distance(self, x):
        """Distance of x's minpts-th closest known neighbor; +inf if unknown."""
        heap = self._heaps[x]
        if len(heap) < self.minpts:
            return INF
        return -heap[0][0]

    def members(self, x):
        """Current heap entries of x as (neighbor, distance) pairs."""
        return [(y, -neg) for neg, y in self._heaps[x]]
