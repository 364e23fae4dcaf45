"""Union-find sweeps behind the spanning-forest flush and the dendrogram.

Both run as plain Python over Python ints: reading a numpy array one scalar
at a time costs more than the sweep itself, and so does a helper call per
find, so each find halves the path inline (``parent[a] = a =
parent[parent[a]]`` assigns the slot before the name). ``kruskal_mask``
walks its inputs through memoryviews instead of ``tolist()``, so a sweep
holds no extra per-edge Python lists; the Filter-Kruskal flush calls it
once per light chunk with one shared union-find.
"""

import numpy as np


def kruskal_mask(lo, hi, parent):
    """Accept/reject mask for edges already sorted by (weight, lo, hi).

    ``lo`` and ``hi`` are C-contiguous int64 arrays of node ids.
    ``parent`` is the union-find to sweep into, a list of ints indexed by
    node id that the sweep updates in place; ``list(range(n))`` starts
    every node alone. Sweeping consecutive chunks of one sorted edge list
    into the same ``parent`` gives the masks of one sweep over the whole
    list.
    """
    keep = bytearray(len(lo))
    for k, (a, b) in enumerate(zip(memoryview(lo), memoryview(hi))):
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[b] = a
            keep[k] = 1
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
