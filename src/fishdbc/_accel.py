"""Union-find sweeps behind the spanning-forest flush and the dendrogram.

Both run as plain Python over Python ints: reading a numpy array one scalar
at a time costs more than the sweep itself, and so does a helper call per
find, so each find halves the path inline (``parent[a] = a =
parent[parent[a]]`` assigns the slot before the name). ``kruskal_mask``
walks its inputs through memoryviews instead of ``tolist()``, so a sweep
holds no extra per-edge Python lists; the Filter-Kruskal flush calls it
once per light chunk with one shared union-find and one shared
``Merges``, so the flush's sweep also emits the single-linkage dendrogram
of the forest it keeps. ``linkage_merges`` computes the same rows from a
finished forest with a fresh union-find; the oracle's path uses it, which
makes every oracle check a cross-check of the rows the flush emits.
"""

import numpy as np


class Merges:
    """Single-linkage merge rows of one Kruskal sweep over nodes 0..n-1,
    shared across its chunks like the sweep's ``parent``.

    Internal dendrogram nodes are numbered n, n+1, ... in merge order.
    ``node[r]`` and ``count[r]`` are the dendrogram node and the size of
    root r's component. The first ``rows`` entries of ``left``, ``right``
    and ``size`` are the rows of the kept edges, in the order the sweep
    kept them; the lists are allocated once, for the n - 1 merges a forest
    can have, so that the sweep stores into them instead of calling
    ``append``.
    """

    __slots__ = ("node", "count", "left", "right", "size", "rows")

    def __init__(self, n):
        self.node = list(range(n))
        self.count = [1] * n
        self.left = [0] * (n - 1)
        self.right = [0] * (n - 1)
        self.size = [0] * (n - 1)
        self.rows = 0

    def arrays(self):
        """The rows so far as int64 arrays (left, right, size)."""
        k = self.rows
        return tuple(
            np.array(v[:k], dtype=np.int64) for v in (self.left, self.right, self.size)
        )


def kruskal_mask(lo, hi, parent, merges=None):
    """Accept/reject mask for edges already sorted by (weight, lo, hi).

    ``lo`` and ``hi`` are C-contiguous int64 arrays of node ids.
    ``parent`` is the union-find to sweep into, a list of ints indexed by
    node id that the sweep updates in place; ``list(range(n))`` starts
    every node alone. Each kept edge adds its merge row to ``merges`` (a
    fresh ``Merges`` that is dropped when omitted). Sweeping consecutive
    chunks of one sorted edge list into the same ``parent`` and
    ``merges`` gives the masks and rows of one sweep over the whole list.
    """
    if merges is None:
        merges = Merges(len(parent))
    node = merges.node
    count = merges.count
    left = merges.left
    right = merges.right
    size = merges.size
    j = merges.rows
    nxt = len(node) + j
    keep = bytearray(len(lo))
    for k, (a, b) in enumerate(zip(memoryview(lo), memoryview(hi))):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            keep[k] = 1
            left[j] = node[a]
            right[j] = node[b]
            s = count[a] + count[b]
            size[j] = s
            count[a] = s
            node[a] = nxt
            j += 1
            nxt += 1
    merges.rows = j
    return np.frombuffer(keep, dtype=np.bool_)


def linkage_merges(lo, hi, n):
    """Single-linkage merge rows (left, right, size) from an acyclic edge
    list sorted ascending; raises ValueError on a cycle.

    Internal dendrogram nodes are numbered n, n+1, ... in merge order.
    """
    parent = list(range(n))
    node = list(range(n))
    comp_size = [1] * n
    left, right, size = [], [], []
    for a, b in zip(lo.tolist(), hi.tolist()):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            raise ValueError("cyclic input: edge list is not a forest")
        left.append(node[a])
        right.append(node[b])
        merged = comp_size[a] + comp_size[b]
        size.append(merged)
        parent[b] = a
        node[a] = n + len(size) - 1
        comp_size[a] = merged
    left, right, size = (np.array(v, dtype=np.int64) for v in (left, right, size))
    return left, right, size
