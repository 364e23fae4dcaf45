"""From a minimum spanning forest to hierarchical and flat clusterings.

The pipeline: a single-linkage dendrogram, a condensed tree that keeps only
splits where both sides reach the minimum cluster size (smaller sides become
per-point fall-out events), and a stability-maximizing flat selection with
noise. The engine's dendrogram comes from the flush: the Kruskal sweep that
keeps the forest's edges records their merge rows (``_accel.Merges``).
``build_dendrogram`` makes the same rows with a separate union-find sweep
over a finished forest in the (weight, lo, hi) order the forest step sorted
it in; the oracle and the engine's first read use it. The condensed tree's
breadth-first walk, over index-based lists, sums each cluster's stability
as it records the cluster's fall-out events and split. The selection takes
one pass up the cluster tree, adding each cluster's best selection into its
parent's sum, and one pass down to settle flags and labels.

Densities are expressed as lambda = 1 / edge weight (+inf for weight 0).
For a forest with several components, each component root acts as a cluster
born at lambda = 0: conceptually they are the children of an all-points root
created by infinite-weight edges, which is never part of the output. When the
forest is a single tree, its root is that all-points root and is excluded
from selection.
"""

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
    sizes = [1] * n + dend.size.tolist()  # indexed by node id
    # A leaf is never big enough, since m_cs >= 2.
    big = [False] * n + (dend.size >= m_cs).tolist()
    # 1 / 0 is +inf, and so is 1 / w for a subnormal w; abs() makes a
    # -0.0 weight +0.0, whose lambda is +inf too.
    with np.errstate(divide="ignore", over="ignore"):
        lams = np.divide(1.0, np.abs(dend.weight)).tolist()
    is_child = np.zeros(n + len(dend), dtype=bool)
    is_child[dend.left] = True
    is_child[dend.right] = True
    roots = np.flatnonzero(~is_child).tolist()
    multi = len(roots) > 1

    # One entry per cluster id, made into records at the end. A cluster's
    # stability sums (lambda at departure - birth lambda) over its points:
    # first each point that falls out, in event order, then the points of
    # its two children, left then right, carried to their birth.
    parent, birth, death, size, stab = [], [], [], [], []
    events = []

    def new_cluster(pid, lam, node):
        parent.append(pid)
        birth.append(lam)
        death.append(lam)
        size.append(sizes[node])
        stab.append(0.0)
        return len(parent) - 1

    def shed(node, cid, lam, span):
        # Depth first, left before right: the event order tree.json keeps.
        # Each point adds span to cid's stability, if cid is a cluster.
        s = stab[cid] if cid >= 0 else 0.0
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur < n:
                events.append((cur, cid, lam))
                s += span
            else:
                stack.append(right[cur - n])
                stack.append(left[cur - n])
        if cid >= 0:
            stab[cid] = s

    for root in roots:
        if root < n:
            # Isolated item: noise, shed by the implicit all-points root.
            events.append((root, -1, 0.0))
            continue
        if multi and not big[root]:
            shed(root, -1, 0.0, 0.0)
            continue
        # Breadth first: the loop runs on over the nodes it appends.
        todo = [root]
        owner = [new_cluster(-1, 0.0, root)]
        for k, node in enumerate(todo):
            cid = owner[k]
            i = node - n
            lam = lams[i]
            l, r = left[i], right[i]
            death[cid] = lam
            # inf - inf would be NaN; a point leaving at its cluster's
            # infinite birth density contributes nothing.
            born = birth[cid]
            span = 0.0 if lam == born else lam - born
            if big[l]:
                if big[r]:
                    stab[cid] += sizes[l] * span
                    stab[cid] += sizes[r] * span
                    todo.append(l)
                    owner.append(new_cluster(cid, lam, l))
                    todo.append(r)
                    owner.append(new_cluster(cid, lam, r))
                    continue
                todo.append(l)
                owner.append(cid)
                small = r
            elif big[r]:
                todo.append(r)
                owner.append(cid)
                small = l
            else:
                # Both sides fall out and the cluster ends, left first.
                shed(l, cid, lam, span)
                small = r
            # The small side's points fall out here, after any the left
            # side shed; a big side only joins the queue.
            if small < n:
                events.append((small, cid, lam))
                stab[cid] += span
            else:
                shed(small, cid, lam, span)

    clusters = [
        ClusterRecord(cid, *rec)
        for cid, rec in enumerate(zip(parent, birth, death, size, stab))
    ]
    return CondensedTree(
        n_points=n, clusters=clusters, events=events, single_root=not multi
    )


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
    # Component roots are only selectable when they are not the all-points
    # root, i.e. when the forest had several components.
    wins = [not (tree.single_root and rec.parent == -1) for rec in clusters]
    eff = [rec.stability for rec in clusters]
    # Each cluster's sum of its children's best selections; None when it
    # has no children. A split has two, so the order of their sum is moot.
    subtree = [None] * len(clusters)
    for rec in reversed(clusters):
        cid = rec.id
        below = subtree[cid]
        if below is not None and not (wins[cid] and rec.stability > below):
            wins[cid] = False
            eff[cid] = below
        p = rec.parent
        if p >= 0:
            subtree[p] = eff[cid] if subtree[p] is None else subtree[p] + eff[cid]

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
