"""From a minimum spanning forest to hierarchical and flat clusterings.

The pipeline: a single-linkage dendrogram built by a union-find sweep over
ascending edges, a condensed tree that keeps only splits where both sides
reach the minimum cluster size (smaller sides become per-point fall-out
events), per-cluster stabilities, and a stability-maximizing flat selection
with noise.

Densities are expressed as lambda = 1 / edge weight (+inf for weight 0).
For a forest with several components, each component root acts as a cluster
born at lambda = 0: conceptually they are the children of an all-points root
created by infinite-weight edges, which is never part of the output. When the
forest is a single tree, its root is that all-points root and is excluded
from selection.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _accel

__all__ = [
    "Dendrogram",
    "ClusterRecord",
    "CondensedTree",
    "ClusterResult",
    "build_dendrogram",
    "condense",
    "extract_flat",
    "tree_to_dict",
]

INF = math.inf


@dataclass
class Dendrogram:
    """Single-linkage merge sequence in ascending weight order.

    Leaves are items 0..n-1; merge i creates internal node n + i joining
    ``left[i]`` and ``right[i]`` at ``weight[i]`` with ``size[i]`` items.
    """

    n_points: int
    left: np.ndarray
    right: np.ndarray
    weight: np.ndarray
    size: np.ndarray

    def __len__(self):
        return self.left.shape[0]


@dataclass
class ClusterRecord:
    id: int
    parent: int  # -1 for component roots
    birth_lambda: float
    death_lambda: float
    size: int
    stability: float
    selected: bool = False


@dataclass
class CondensedTree:
    n_points: int
    clusters: list
    # (point, cluster id, lambda) for the moment each point left its cluster;
    # cluster id -1 means the point never belonged to any recorded cluster.
    events: list
    # True when the forest was a single tree whose root is the all-points
    # cluster (excluded from selection); False when several component roots
    # are themselves selectable.
    single_root: bool = True

    def selected_ids(self):
        return [c.id for c in self.clusters if c.selected]


@dataclass
class ClusterResult:
    """Flat labels (-1 = noise) plus the condensed tree they came from."""

    labels: np.ndarray
    condensed: CondensedTree

    @property
    def n_clusters(self):
        return len(self.condensed.selected_ids())

    @property
    def n_clustered(self):
        return int((self.labels >= 0).sum())


def build_dendrogram(lo, hi, weight, n):
    """Union-find sweep over an acyclic edge list.

    Components that never merge stay separate trees, so the result may have
    several roots. Edges are processed by ascending (weight, lo, hi).
    """
    lo = np.ascontiguousarray(lo, dtype=np.int64)
    hi = np.ascontiguousarray(hi, dtype=np.int64)
    weight = np.ascontiguousarray(weight, dtype=np.float64)
    if not np.isfinite(weight).all():
        raise ValueError("dendrogram input must not contain infinite weights")
    order = np.lexsort((hi, lo, weight))
    lo, hi, weight = lo[order], hi[order], weight[order]
    left, right, size = _accel.linkage_merges(lo, hi, n)
    return Dendrogram(n_points=n, left=left, right=right, weight=weight, size=size)


def condense(dend, m_cs):
    """Keep only splits where both sides have at least m_cs items.

    A split with one undersized side sheds that side's points as fall-out
    events and the cluster identity continues down the other side; when both
    sides are undersized, all remaining points fall out and the cluster ends.
    """
    if m_cs < 2:
        raise ValueError(f"min cluster size must be >= 2 (got {m_cs})")
    n = dend.n_points
    left = dend.left.tolist()
    right = dend.right.tolist()
    weight = dend.weight.tolist()
    sizes = [1] * n + dend.size.tolist()  # indexed by node id
    is_child = np.zeros(n + len(dend), dtype=bool)
    is_child[dend.left] = True
    is_child[dend.right] = True
    roots = np.flatnonzero(~is_child).tolist()
    multi = len(roots) > 1

    clusters = []
    events = []

    def new_cluster(parent, birth, size):
        cid = len(clusters)
        clusters.append(
            ClusterRecord(
                id=cid,
                parent=parent,
                birth_lambda=birth,
                death_lambda=birth,
                size=size,
                stability=0.0,
            )
        )
        return cid

    def shed(node, cid, lam):
        # Depth first, left before right: the event order tree.json keeps.
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur < n:
                events.append((cur, cid, lam))
            else:
                stack.append(right[cur - n])
                stack.append(left[cur - n])

    for root in roots:
        if root < n:
            # Isolated item: noise, shed by the implicit all-points root.
            if multi:
                events.append((root, -1, 0.0))
            continue
        if multi and sizes[root] < m_cs:
            shed(root, -1, 0.0)
            continue
        rid = new_cluster(parent=-1, birth=0.0, size=sizes[root])
        todo = deque([(root, rid)])
        while todo:
            node, cid = todo.popleft()
            i = node - n
            w = weight[i]
            lam = INF if w == 0.0 else 1.0 / w
            l, r = left[i], right[i]
            clusters[cid].death_lambda = lam
            if sizes[l] >= m_cs and sizes[r] >= m_cs:
                for child in (l, r):
                    ncid = new_cluster(parent=cid, birth=lam, size=sizes[child])
                    todo.append((child, ncid))
            else:
                for child in (l, r):
                    if sizes[child] >= m_cs:
                        todo.append((child, cid))
                    else:
                        shed(child, cid, lam)

    tree = CondensedTree(
        n_points=n, clusters=clusters, events=events, single_root=not multi
    )
    _fill_stabilities(tree)
    return tree


def _span(lam, birth):
    # inf - inf would be NaN; a point leaving at its cluster's infinite birth
    # density contributes nothing.
    if lam == birth:
        return 0.0
    return lam - birth


def _fill_stabilities(tree):
    """Set each record's stability: the sum over its points of (lambda at
    departure - birth lambda). Points leaving directly contribute their
    fall-out event; points passing into child clusters contribute the
    child's birth density."""
    acc = [0.0] * len(tree.clusters)
    for _, cid, lam in tree.events:
        if cid >= 0:
            acc[cid] += _span(lam, tree.clusters[cid].birth_lambda)
    for rec in tree.clusters:
        if rec.parent >= 0:
            parent = tree.clusters[rec.parent]
            acc[rec.parent] += rec.size * _span(rec.birth_lambda, parent.birth_lambda)
    for rec, s in zip(tree.clusters, acc):
        rec.stability = s


def extract_flat(tree):
    """Select the stability-maximizing antichain of clusters and label items.

    Bottom-up: a cluster beats its descendants only when its stability
    strictly exceeds the sum of the best selections inside it. The selection
    is recorded in the records' ``selected`` flags, in place; the returned
    :class:`ClusterResult` holds the labels and ``tree`` itself.
    """
    k = len(tree.clusters)
    children = [[] for _ in range(k)]
    for rec in tree.clusters:
        if rec.parent >= 0:
            children[rec.parent].append(rec.id)
    # Component roots are only selectable when they are not the all-points
    # root, i.e. when the forest had several components.
    selected = [
        not (tree.single_root and rec.parent == -1) for rec in tree.clusters
    ]
    eff = [rec.stability for rec in tree.clusters]
    for cid in range(k - 1, -1, -1):
        kids = children[cid]
        if not kids:
            continue
        subtree = sum(eff[c] for c in kids)
        if selected[cid] and tree.clusters[cid].stability > subtree:
            stack = list(kids)
            while stack:
                c = stack.pop()
                selected[c] = False
                stack.extend(children[c])
        else:
            selected[cid] = False
            eff[cid] = subtree

    for rec in tree.clusters:
        rec.selected = selected[rec.id]
    label_of = {cid: i for i, cid in enumerate(tree.selected_ids())}

    labels = np.full(tree.n_points, -1, dtype=np.int64)
    resolve = {}
    for point, cid, _ in tree.events:
        if cid < 0:
            continue
        lbl = resolve.get(cid)
        if lbl is None:
            cur = cid
            while cur != -1 and not selected[cur]:
                cur = tree.clusters[cur].parent
            lbl = -1 if cur == -1 else label_of[cur]
            resolve[cid] = lbl
        labels[point] = lbl
    return ClusterResult(labels=labels, condensed=tree)


def tree_to_dict(tree):
    return {
        "n_points": tree.n_points,
        "single_root": tree.single_root,
        "clusters": [
            {
                "id": c.id,
                "parent": c.parent,
                "birth_lambda": c.birth_lambda,
                "death_lambda": c.death_lambda,
                "size": c.size,
                "stability": c.stability,
                "selected": c.selected,
            }
            for c in tree.clusters
        ],
        "point_events": [
            {"point": p, "cluster": c, "lambda": lam} for p, c, lam in tree.events
        ],
    }
