import copy
import json
import math

import numpy as np
import pytest

from fishdbc.hierarchy import (
    ClusterRecord,
    CondensedTree,
    _fill_stabilities,
    build_dendrogram,
    condense,
    extract_flat,
    tree_to_dict,
)
from fishdbc.msf import spanning_forest


def dendrogram(lo, hi, w, n):
    """build_dendrogram over a hand-built forest, first put in the form
    spanning_forest returns: a forest is its own minimum spanning forest,
    so this only sorts it by (w, lo, hi) into int64 and float64 arrays."""
    forest = spanning_forest(
        np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64),
        np.array(w, dtype=np.float64), n,
    )
    assert len(forest[0]) == len(lo)
    return build_dendrogram(*forest, n)


def naive_single_linkage(edges, n):
    """Definition-level oracle: repeatedly take the lightest remaining edge
    (ties by (weight, lo, hi)) and merge the two components it joins.
    Returns (weight, merged_size) per merge.
    """
    comps = {i: {i} for i in range(n)}
    owner = {i: i for i in range(n)}
    merges = []
    for w, lo, hi in sorted((w, lo, hi) for lo, hi, w in edges):
        a, b = owner[lo], owner[hi]
        assert a != b, "oracle input must be a forest"
        comps[a] |= comps[b]
        for x in comps[b]:
            owner[x] = a
        del comps[b]
        merges.append((w, len(comps[a])))
    return merges


def reference_condense(dend, m_cs):
    """Recursive definition-level condensing, structured differently from
    the packaged walk. Returns comparable signatures:
      - per-point (event lambda, owning cluster birth, owning cluster size)
      - multiset of (birth, death, size, stability) cluster tuples
    """
    n = dend.n_points
    m = len(dend)

    def kids(node):
        i = node - n
        return int(dend.left[i]), int(dend.right[i]), float(dend.weight[i])

    def size(node):
        return 1 if node < n else int(dend.size[node - n])

    def leaves(node):
        if node < n:
            return [node]
        l, r, _ = kids(node)
        return leaves(l) + leaves(r)

    clusters = []  # dicts with birth, death, size, points: {point: lambda}
    point_sig = {}

    def walk(node, cluster):
        l, r, w = kids(node)
        lam = math.inf if w == 0.0 else 1.0 / w
        cluster["death"] = lam
        big = [c for c in (l, r) if size(c) >= m_cs]
        if len(big) == 2:
            for child in (l, r):
                rec = {"birth": lam, "death": lam, "size": size(child), "points": {}}
                clusters.append(rec)
                walk(child, rec)
        elif len(big) == 1:
            small = r if big[0] == l else l
            for p in leaves(small):
                cluster["points"][p] = lam
            walk(big[0], cluster)
        else:
            for p in leaves(l) + leaves(r):
                cluster["points"][p] = lam

    is_child = set()
    for i in range(m):
        is_child.add(int(dend.left[i]))
        is_child.add(int(dend.right[i]))
    roots = [i for i in range(n + m) if i not in is_child]
    multi = len(roots) > 1
    for root in roots:
        if root < n:
            if multi:
                point_sig[root] = (0.0, None, None)
            continue
        if multi and size(root) < m_cs:
            for p in leaves(root):
                point_sig[p] = (0.0, None, None)
            continue
        rec = {"birth": 0.0, "death": 0.0, "size": size(root), "points": {}}
        clusters.append(rec)
        walk(root, rec)

    return clusters, point_sig


def reference_extract_flat(tree):
    """Reference selection: bottom-up, a winning cluster walks its whole
    subtree to deselect it; each event's cluster then walks up to its
    selected ancestor. Returns (labels, selected flags) and leaves ``tree``
    unchanged."""
    k = len(tree.clusters)
    children = [[] for _ in range(k)]
    for rec in tree.clusters:
        if rec.parent >= 0:
            children[rec.parent].append(rec.id)
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
    label_of = {cid: i for i, cid in enumerate(c for c in range(k) if selected[c])}
    labels = [-1] * tree.n_points
    for point, cid, _ in tree.events:
        cur = cid
        while cur != -1 and not selected[cur]:
            cur = tree.clusters[cur].parent
        if cur != -1:
            labels[point] = label_of[cur]
    return labels, selected


class TestBuildDendrogram:
    def test_two_points(self):
        d = dendrogram([0], [1], [2.5], 2)
        assert len(d) == 1
        assert d.weight[0] == 2.5 and d.size[0] == 2
        assert {int(d.left[0]), int(d.right[0])} == {0, 1}

    def test_three_point_chain(self):
        d = dendrogram([0, 1], [1, 2], [1.0, 2.0], 3)
        assert d.weight.tolist() == [1.0, 2.0]
        assert d.size.tolist() == [2, 3]
        # Second merge joins internal node 3 with leaf 2.
        assert {int(d.left[1]), int(d.right[1])} == {3, 2}

    def test_cyclic_input_rejected(self):
        with pytest.raises(ValueError, match="cyclic"):
            build_dendrogram(
                np.array([0, 1, 0], dtype=np.int64),
                np.array([1, 2, 2], dtype=np.int64),
                np.array([1.0, 2.0, 3.0]),
                3,
            )

    def test_matches_naive_single_linkage(self, rng):
        n = 40
        # Random spanning tree: connect each node to a random earlier one.
        edges = []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            lo, hi = (j, i) if j < i else (i, j)
            edges.append((lo, hi, float(rng.random() * 10)))
        d = dendrogram(
            [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges], n
        )
        got = list(zip(d.weight.tolist(), d.size.tolist()))
        want = naive_single_linkage(edges, n)
        assert got == want

    def test_weights_nondecreasing_and_sizes_consistent(self, rng):
        n = 60
        edges = []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            edges.append((min(i, j), max(i, j), float(rng.random())))
        d = dendrogram(
            [e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges], n
        )
        assert (np.diff(d.weight) >= 0).all()
        sizes = [1] * n + d.size.tolist()
        for i in range(len(d)):
            assert d.size[i] == sizes[d.left[i]] + sizes[d.right[i]]


def chain_edges(weights):
    return (
        list(range(len(weights))),
        list(range(1, len(weights) + 1)),
        list(weights),
    )


class TestCondense:
    def test_two_blobs_single_split(self):
        # Two 20-point chains at weight 0.1 bridged by one weight-10 edge.
        lo, hi, w = [], [], []
        for i in range(19):
            lo.append(i), hi.append(i + 1), w.append(0.1)
        for i in range(20, 39):
            lo.append(i), hi.append(i + 1), w.append(0.1)
        lo.append(0), hi.append(20), w.append(10.0)
        d = dendrogram(lo, hi, w, 40)
        tree = condense(d, 5)
        top = [c for c in tree.clusters if c.parent == -1]
        assert len(top) == 1
        children = [c for c in tree.clusters if c.parent == top[0].id]
        assert len(children) == 2
        assert sorted(c.size for c in children) == [20, 20]
        assert all(c.birth_lambda == pytest.approx(0.1) for c in children)

    def test_mcs_larger_than_n_all_root_fallouts(self):
        lo, hi, w = chain_edges([1.0] * 9)
        d = dendrogram(lo, hi, w, 10)
        tree = condense(d, 20)
        assert len(tree.clusters) == 1  # just the retained root
        assert tree.clusters[0].parent == -1
        assert len(tree.events) == 10
        assert all(cid == tree.clusters[0].id for _, cid, _ in tree.events)

    def test_min_mcs_bound(self):
        lo, hi, w = chain_edges([1.0])
        d = dendrogram(lo, hi, w, 2)
        with pytest.raises(ValueError, match=">= 2"):
            condense(d, 1)

    def test_every_point_has_exactly_one_event(self, rng):
        # n = 1 is a lone leaf root: the item is noise, with one event.
        for n in (1, 2, 50):
            lo, hi, w = [], [], []
            for i in range(1, n):
                j = int(rng.integers(0, i))
                lo.append(min(i, j)), hi.append(max(i, j)), w.append(float(rng.random()))
            d = dendrogram(lo, hi, w, n)
            tree = condense(d, 5)
            assert sorted(p for p, _, _ in tree.events) == list(range(n))

    def test_child_birth_not_before_parent_birth(self, rng):
        n = 80
        lo, hi, w = [], [], []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            lo.append(min(i, j)), hi.append(max(i, j)), w.append(float(rng.random()))
        d = dendrogram(lo, hi, w, n)
        tree = condense(d, 4)
        for c in tree.clusters:
            if c.parent >= 0:
                assert c.birth_lambda >= tree.clusters[c.parent].birth_lambda
            assert c.size >= 4 or c.parent == -1
            assert c.death_lambda >= c.birth_lambda

    def test_matches_definition_level_recomputation(self, rng):
        # 60-point chain with random weights, m_cs = 10.
        n = 60
        weights = [float(rng.random()) for _ in range(n - 1)]
        lo, hi, w = chain_edges(weights)
        d = dendrogram(lo, hi, w, n)
        tree = condense(d, 10)

        ref_clusters, _ = reference_condense(d, 10)
        got_clusters = sorted(
            (c.birth_lambda, c.death_lambda, c.size) for c in tree.clusters
        )
        want_clusters = sorted(
            (c["birth"], c["death"], c["size"]) for c in ref_clusters
        )
        assert got_clusters == pytest.approx(want_clusters)

        # Per-point: the event lambda and the owning cluster's (birth, size).
        got_points = sorted(
            (p, lam, tree.clusters[cid].birth_lambda, tree.clusters[cid].size)
            for p, cid, lam in tree.events
        )
        want_points = []
        for rec in ref_clusters:
            for p, lam in rec["points"].items():
                want_points.append((p, lam, rec["birth"], rec["size"]))
        assert got_points == pytest.approx(sorted(want_points))


class TestStability:
    def build_tree(self, records, events, single_root=True, n_points=None):
        """A CondensedTree over the given records, stabilities filled in."""
        if n_points is None:
            n_points = max((p for p, _, _ in events), default=0) + 1
        tree = CondensedTree(
            n_points=n_points,
            clusters=records,
            events=events,
            single_root=single_root,
        )
        _fill_stabilities(tree)
        return tree

    def test_all_points_fall_at_birth(self):
        rec = ClusterRecord(0, -1, 2.0, 2.0, 3, 0.0)
        tree = self.build_tree([rec], [(0, 0, 2.0), (1, 0, 2.0), (2, 0, 2.0)])
        assert tree.clusters[0].stability == 0.0

    def test_summation(self):
        rec = ClusterRecord(0, -1, 1.0, 4.0, 3, 0.0)
        tree = self.build_tree([rec], [(0, 0, 2.0), (1, 0, 3.0), (2, 0, 4.0)])
        assert tree.clusters[0].stability == 6.0

    def test_child_contribution(self):
        parent = ClusterRecord(0, -1, 1.0, 3.0, 10, 0.0)
        child = ClusterRecord(1, 0, 3.0, 5.0, 4, 0.0)
        tree = self.build_tree([parent, child], [(0, 0, 2.0)], n_points=10)
        # One direct fall-out (2-1) plus 4 points carried to death (3-1).
        assert tree.clusters[0].stability == 1.0 + 4 * 2.0

    def test_infinite_birth_guard(self):
        rec = ClusterRecord(0, -1, math.inf, math.inf, 2, 0.0)
        tree = self.build_tree([rec], [(0, 0, math.inf), (1, 0, math.inf)])
        assert tree.clusters[0].stability == 0.0

    def test_matches_event_log_oracle_on_random_tree(self, rng):
        n = 100
        lo, hi, w = [], [], []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            lo.append(min(i, j)), hi.append(max(i, j)), w.append(float(rng.random()))
        d = dendrogram(lo, hi, w, n)
        tree = condense(d, 5)
        for rec in tree.clusters:
            direct = sum(
                (lam - rec.birth_lambda)
                for p, cid, lam in tree.events
                if cid == rec.id and lam != rec.birth_lambda
            )
            carried = sum(
                c.size * (c.birth_lambda - rec.birth_lambda)
                for c in tree.clusters
                if c.parent == rec.id
            )
            assert rec.stability == pytest.approx(direct + carried)


class TestExtractFlat:
    def two_level_tree(self, parent_stability, child_stabilities):
        # Excluded root (id 0) -> parent (id 1) -> two children (ids 2, 3).
        records = [
            ClusterRecord(0, -1, 0.0, 1.0, 40, 5.0),
            ClusterRecord(1, 0, 1.0, 2.0, 40, parent_stability),
            ClusterRecord(2, 1, 2.0, 3.0, 20, child_stabilities[0]),
            ClusterRecord(3, 1, 2.0, 3.0, 20, child_stabilities[1]),
        ]
        events = []
        for p in range(20):
            events.append((p, 2, 3.0))
        for p in range(20, 40):
            events.append((p, 3, 3.0))
        return CondensedTree(40, records, events, single_root=True)

    def test_single_cluster_selected(self):
        records = [
            ClusterRecord(0, -1, 0.0, 1.0, 5, 0.0),
            ClusterRecord(1, 0, 1.0, 2.0, 5, 3.0),
        ]
        events = [(p, 1, 2.0) for p in range(5)]
        tree = CondensedTree(5, records, events, single_root=True)
        flat = extract_flat(tree)
        assert flat.condensed.selected_ids() == [1]
        assert flat.labels.tolist() == [0] * 5

    def test_children_beat_weak_parent(self):
        tree = self.two_level_tree(1.0, (3.0, 4.0))
        flat = extract_flat(tree)
        assert flat.condensed.selected_ids() == [2, 3]
        assert set(flat.labels[:20]) == {0}
        assert set(flat.labels[20:]) == {1}

    def test_strong_parent_beats_children(self):
        tree = self.two_level_tree(9.0, (3.0, 4.0))
        flat = extract_flat(tree)
        assert flat.condensed.selected_ids() == [1]
        assert set(flat.labels.tolist()) == {0}

    def test_tie_goes_to_children(self):
        tree = self.two_level_tree(7.0, (3.0, 4.0))
        flat = extract_flat(tree)
        assert flat.condensed.selected_ids() == [2, 3]

    def test_excluded_root_never_selected(self):
        records = [ClusterRecord(0, -1, 0.0, 1.0, 5, 100.0)]
        events = [(p, 0, 1.0) for p in range(5)]
        tree = CondensedTree(5, records, events, single_root=True)
        flat = extract_flat(tree)
        assert flat.condensed.selected_ids() == []
        assert flat.labels.tolist() == [-1] * 5

    def test_component_roots_selectable_in_forest(self):
        records = [
            ClusterRecord(0, -1, 0.0, 1.0, 5, 2.0),
            ClusterRecord(1, -1, 0.0, 1.0, 5, 2.0),
        ]
        events = [(p, 0, 1.0) for p in range(5)] + [(p, 1, 1.0) for p in range(5, 10)]
        tree = CondensedTree(10, records, events, single_root=False)
        flat = extract_flat(tree)
        assert flat.condensed.selected_ids() == [0, 1]
        assert set(flat.labels[:5]) == {0} and set(flat.labels[5:]) == {1}

    def test_selected_clusters_not_nested(self, rng):
        n = 120
        lo, hi, w = [], [], []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            lo.append(min(i, j)), hi.append(max(i, j)), w.append(float(rng.random()))
        d = dendrogram(lo, hi, w, n)
        tree = condense(d, 5)
        flat = extract_flat(tree)
        chosen = set(flat.condensed.selected_ids())
        for cid in chosen:
            cur = tree.clusters[cid].parent
            while cur != -1:
                assert cur not in chosen
                cur = tree.clusters[cur].parent

    def test_noise_closure(self, rng):
        n = 150
        lo, hi, w = [], [], []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            lo.append(min(i, j)), hi.append(max(i, j)), w.append(float(rng.random()))
        d = dendrogram(lo, hi, w, n)
        tree = condense(d, 5)
        extract_flat(tree)
        for p, cid, lam in tree.events:
            if cid >= 0 and tree.clusters[cid].selected:
                rec = tree.clusters[cid]
                assert rec.birth_lambda <= lam <= rec.death_lambda


def random_condensed_tree(rng, single_root, k=40, n=120):
    """A condensed tree of k records with random parents (a parent's id is
    lower than its children's, as ``condense`` numbers them) and small
    integer stabilities, so a stability often equals its children's sum
    exactly. Each of the n points has one event, some outside any cluster.
    """
    roots = 1 if single_root else 2  # ids below this are component roots
    records = []
    for cid in range(k):
        if cid < roots or (not single_root and rng.random() < 0.15):
            parent = -1
        else:
            parent = int(rng.integers(0, cid))
        records.append(
            ClusterRecord(cid, parent, 0.0, 1.0, 5, float(rng.integers(0, 5)))
        )
    events = [(p, int(rng.integers(-1, k)), 1.0) for p in rng.permutation(n).tolist()]
    return CondensedTree(n, records, events, single_root=single_root)


class TestExtractFlatMatchesReference:
    """The two-pass selection gives the reference's labels and flags."""

    def check(self, tree):
        want_labels, want_selected = reference_extract_flat(tree)
        flat = extract_flat(copy.deepcopy(tree))
        assert flat.labels.tolist() == want_labels
        assert [c.selected for c in flat.condensed.clusters] == want_selected
        return want_selected

    @pytest.mark.parametrize("single_root", [True, False])
    def test_random_trees(self, rng, single_root):
        ties = parent_wins = 0
        for _ in range(200):
            tree = random_condensed_tree(rng, single_root)
            selected = self.check(tree)
            kids = {}
            for c in tree.clusters:
                if c.parent >= 0:
                    kids.setdefault(c.parent, []).append(c)
            for cid, below in kids.items():
                parent = tree.clusters[cid]
                ties += parent.stability == sum(c.stability for c in below)
                parent_wins += selected[cid]
        # Some parents tie with their children; some win over them.
        assert ties and parent_wins

    @pytest.mark.parametrize("m_cs", [2, 3, 5, 10])
    def test_condensed_forests(self, rng, m_cs):
        # Random forests, most with several trees, with tied weights.
        for _ in range(20):
            n = 80
            lo, hi, w = [], [], []
            for i in range(1, n):
                if rng.random() < 0.03:
                    continue
                j = int(rng.integers(0, i))
                lo.append(j), hi.append(i), w.append(float(rng.integers(1, 6)))
            self.check(condense(dendrogram(lo, hi, w, n), m_cs))


class TestSerialization:
    def test_round_trip_through_json(self, rng):
        n = 30
        lo, hi, w = [], [], []
        for i in range(1, n):
            j = int(rng.integers(0, i))
            weight = 0.0 if rng.random() < 0.2 else float(rng.random())
            lo.append(min(i, j)), hi.append(max(i, j)), w.append(weight)
        d = dendrogram(lo, hi, w, n)
        # With m_cs = 2, weight-0 merges of two leaves shed both at an
        # infinite lambda, which JSON must carry as Infinity.
        tree = condense(d, 2)
        extract_flat(tree)
        doc = tree_to_dict(tree)
        assert any(math.isinf(e["lambda"]) for e in doc["point_events"])
        assert json.loads(json.dumps(doc)) == doc
