"""From a minimum spanning forest to hierarchical and flat clusterings.

The pipeline: a single-linkage dendrogram built by a union-find sweep over
ascending edges, a condensed tree that keeps only splits where both sides
reach the minimum cluster size (smaller sides become per-point fall-out
events), per-cluster stabilities, and a stability-maximizing flat selection
with noise. The dendrogram reads the forest in the (weight, lo, hi) order
the forest step sorted it in. The selection takes one pass up the cluster
tree to compare stabilities and one pass down to settle flags and labels.

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
    "check_min_cluster_size",
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
    """Single-linkage dendrogram of a forest as ``msf.spanning_forest``
    returns it: int64 ``lo`` and ``hi``, finite float64 ``weight``, in
    ascending (weight, lo, hi) order. The edges are not copied, sorted or
    checked beyond the sweep's cycle check; ``weight`` becomes the
    dendrogram's own array. Components that never merge stay separate
    trees, so the result may have several roots.
    """
    left, right, size = _accel.linkage_merges(lo, hi, n)
    return Dendrogram(n_points=n, left=left, right=right, weight=weight, size=size)


def check_min_cluster_size(m_cs):
    """Raise ValueError unless m_cs >= 2; NaN fails too."""
    if not m_cs >= 2:
        raise ValueError(f"min_cluster_size must be >= 2 (got {m_cs})")


def condense(dend, m_cs):
    """Keep only splits where both sides have at least m_cs items.

    A split with one undersized side sheds that side's points as fall-out
    events and the cluster identity continues down the other side; when both
    sides are undersized, all remaining points fall out and the cluster ends.
    """
    check_min_cluster_size(m_cs)
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

    Two linear passes; ``condense`` gives a parent a lower id than its
    children. Bottom-up, a cluster beats its descendants only when its
    stability strictly exceeds the sum of the best selections inside it.
    Top-down, a cluster under a selected one is deselected and takes its
    label; any other selected cluster takes the next label, in id order.
    The flags are set on the records in place; the returned
    :class:`ClusterResult` holds the labels and ``tree`` itself.
    """
    clusters = tree.clusters
    children = [[] for _ in clusters]
    for rec in clusters:
        if rec.parent >= 0:
            children[rec.parent].append(rec.id)
    # Component roots are only selectable when they are not the all-points
    # root, i.e. when the forest had several components.
    wins = [not (tree.single_root and rec.parent == -1) for rec in clusters]
    eff = [rec.stability for rec in clusters]
    for cid in range(len(clusters) - 1, -1, -1):
        kids = children[cid]
        if not kids:
            continue
        subtree = sum(eff[c] for c in kids)
        if not (wins[cid] and clusters[cid].stability > subtree):
            wins[cid] = False
            eff[cid] = subtree

    # Each cluster's selected ancestor-or-self's label, else -1; the extra
    # entry label[-1] serves parent -1 and events outside any cluster.
    label = [-1] * (len(clusters) + 1)
    n_labels = 0
    for rec in clusters:
        up = label[rec.parent]
        rec.selected = wins[rec.id] and up < 0
        if rec.selected:
            up = n_labels
            n_labels += 1
        label[rec.id] = up

    labels = [-1] * tree.n_points
    for point, cid, _ in tree.events:
        labels[point] = label[cid]
    return ClusterResult(labels=np.array(labels, dtype=np.int64), condensed=tree)


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
