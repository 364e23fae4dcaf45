import math
import tracemalloc

import numpy as np
import pytest

from helpers import buffered_entries, buffered_weight
from fishdbc import _accel
from fishdbc.hierarchy import build_dendrogram
from fishdbc.msf import CandidateBuffer, Msf, spanning_forest, update_msf


def simple_kruskal(edges, n):
    """Independent oracle: dict-based union-find, no path compression,
    plain sort. Returns the accepted (lo, hi, weight) list.
    """
    parent = {i: i for i in range(n)}

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    kept = []
    for w, lo, hi in sorted((w, lo, hi) for lo, hi, w in edges):
        if not math.isfinite(w):
            continue
        ra, rb = find(lo), find(hi)
        if ra != rb:
            parent[ra] = rb
            kept.append((lo, hi, w))
    return kept


def prim_total_weight(matrix):
    """Classic O(n^2) exact MST weight for a complete finite graph."""
    n = matrix.shape[0]
    in_tree = np.zeros(n, dtype=bool)
    best = np.full(n, np.inf)
    best[0] = 0.0
    total = 0.0
    for _ in range(n):
        u = int(np.where(in_tree, np.inf, best).argmin())
        total += best[u]
        in_tree[u] = True
        closer = matrix[u] < best
        best[closer & ~in_tree] = matrix[u][closer & ~in_tree]
    return total


class TestCandidateBuffer:
    def test_new_pair_stored(self):
        buf = CandidateBuffer()
        buf.push(3, 1, 4.0)
        assert buffered_weight(buf, 1, 3) == 4.0
        assert len(buf) == 1

    def test_push_higher_keeps_old(self):
        buf = CandidateBuffer()
        buf.push(0, 1, 4.0)
        buf.push(0, 1, 6.0)
        assert buffered_weight(buf, 0, 1) == 4.0

    def test_push_lower_replaces(self):
        buf = CandidateBuffer()
        buf.push(0, 1, 4.0)
        buf.push(0, 1, 2.0)
        assert buffered_weight(buf, 0, 1) == 2.0

    def test_weights_only_decrease(self, rng):
        buf = CandidateBuffer()
        prev = math.inf
        for _ in range(500):
            buf.push(0, 1, float(rng.random() * 100))
            cur = buffered_weight(buf, 0, 1)
            assert cur <= prev
            prev = cur

    def test_infinite_weight_accepted(self):
        buf = CandidateBuffer()
        buf.push(0, 1, math.inf)
        assert buffered_weight(buf, 0, 1) == math.inf
        assert len(buf) == 1

    def test_len_counts_every_push(self):
        buf = CandidateBuffer()
        for k, (a, b, w) in enumerate([(0, 1, 2.0), (1, 0, 2.0), (0, 1, 1.0),
                                       (0, 1, math.inf), (2, 1, 3.0)], 1):
            buf.push(a, b, w)
            assert len(buf) == k
        lo, hi, w = buffered_entries(buf)
        assert list(zip(lo.tolist(), hi.tolist(), w.tolist())) == [
            (0, 1, 2.0), (0, 1, 2.0), (0, 1, 1.0), (0, 1, math.inf), (1, 2, 3.0)]

    def test_push_after_arrays_and_after_flush(self):
        # Numpy views pin the log's storage and make a growing append raise
        # BufferError: a flush must not leave one behind.
        buf = CandidateBuffer()
        msf = Msf()
        for k in range(1001):
            buf.push(k, k + 1, 1.0)
        update_msf(msf, buf, 1002)
        for k in range(1000):
            buf.push(k, k + 2, 2.0)
        update_msf(msf, buf, 1002)
        assert len(buf) == 0 and len(msf) == 1001

    def test_entry_size(self):
        # Typed arrays hold 16 B an entry plus their growth slack; a dict of
        # packed keys to floats held about 90 B.
        count = 200_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            buf = CandidateBuffer()
            for k in range(count):
                buf.push(k, k + 1, 0.5)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(buf) == count
        assert held <= 20 * count


class TestWeigh:
    def test_weight_is_max_of_distance_and_end_cores(self, rng):
        n = 40
        core = rng.random(n) * 2
        edges = [(int(a), int(b), float(rng.random() * 2))
                 for a, b in rng.integers(0, n, size=(300, 2)) if a != b]
        buf = CandidateBuffer()
        for a, b, d in edges:
            buf.push(a, b, d)
        lo, hi, _ = buffered_entries(buf)
        buf.weigh(core)
        got_lo, got_hi, w = buffered_entries(buf)
        # Keys stay as they were, in push order.
        assert got_lo.tolist() == lo.tolist() and got_hi.tolist() == hi.tolist()
        assert w.tolist() == [max(d, core[a], core[b]) for a, b, d in edges]

    def test_infinite_core_gives_infinite_weight_dropped_at_flush(self):
        buf = CandidateBuffer()
        buf.push(0, 1, 1.0)
        buf.push(1, 2, 1.5)
        buf.weigh(np.array([0.5, 2.0, math.inf]))
        assert buffered_entries(buf)[2].tolist() == [2.0, math.inf]
        msf = Msf()
        update_msf(msf, buf, 3)
        assert msf.edges() == [(0, 1, 2.0)]

    def test_heavier_weights_never_lowered(self):
        buf = CandidateBuffer()
        buf.push(0, 1, 5.0)
        buf.push(1, 2, math.inf)
        buf.push(0, 2, 1.0)
        buf.weigh(np.array([2.0, 3.0, 0.0]))
        assert buffered_entries(buf)[2].tolist() == [5.0, math.inf, 2.0]

    def test_push_after_weigh(self):
        # weigh() must not leave a view that pins the log's storage.
        buf = CandidateBuffer()
        buf.push(0, 1, 1.0)
        buf.weigh(np.zeros(2))
        for k in range(1000):
            buf.push(k, k + 1, 1.0)
        assert len(buf) == 1001


class TestUpdateMsf:
    def test_triangle_keeps_two_smallest(self):
        buf = CandidateBuffer()
        buf.push(0, 1, 1.0)
        buf.push(1, 2, 2.0)
        buf.push(0, 2, 3.0)
        msf = Msf()
        update_msf(msf, buf, 3)
        assert sorted(msf.weight.tolist()) == [1.0, 2.0]
        assert len(buf) == 0

    def test_empty_buffer_is_noop(self):
        buf = CandidateBuffer()
        buf.push(0, 1, 1.0)
        msf = Msf()
        update_msf(msf, buf, 2)
        before = msf.edges()
        update_msf(msf, buf, 2)
        assert msf.edges() == before

    def test_infinite_edges_dropped_at_flush(self):
        buf = CandidateBuffer()
        buf.push(0, 1, 1.0)
        buf.push(1, 2, math.inf)
        msf = Msf()
        update_msf(msf, buf, 3)
        assert msf.edges() == [(0, 1, 1.0)]

    def test_batched_equals_oneshot(self, rng):
        n = 30
        all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = rng.choice(len(all_pairs), size=100, replace=False)
        edges = [
            (all_pairs[k][0], all_pairs[k][1], float(rng.random() * 50))
            for k in chosen
        ]
        msf = Msf()
        buf = CandidateBuffer()
        splits = sorted(rng.choice(99, size=6, replace=False).tolist())
        batches = np.split(np.arange(100), [s + 1 for s in splits])
        for batch in batches:
            for k in batch:
                lo, hi, w = edges[k]
                buf.push(lo, hi, w)
            update_msf(msf, buf, n)
        got = sorted(msf.weight.tolist())
        want = sorted(w for _, _, w in simple_kruskal(edges, n))
        assert got == want

    def test_tied_weights_match_kruskal_edge_for_edge(self, rng):
        # Integer weights tie heavily, so only the (w, lo, hi) tie-break
        # decides which edges spanning_forest and a one-shot or a batched
        # flush keep. Trial 0 is a complete graph, trial 1 has no edges.
        # The Filter-Kruskal pivot is the (n+1)-th smallest weight: in
        # trial 2 every weight is equal, so the first chunk takes all edges;
        # in trial 3 one weight's ties run from below the pivot's rank to
        # above it; in trial 4 the edges join two halves only, so the
        # filter loop never keeps n-1 edges; in trial 5 half the pairs come
        # again, as lighter, heavier or identical copies, and all must keep
        # the lightest. Every trial after 1 also holds one infinite edge,
        # which all must drop.
        for trial in range(24):
            n = int(rng.integers(5 if trial < 2 or trial > 4 else 10, 60))
            lo_all, hi_all = np.triu_indices(n, 1)
            if trial == 4:
                apart = (hi_all < n // 2) | (lo_all >= n // 2)
                lo_all, hi_all = lo_all[apart], hi_all[apart]
            if trial == 1:
                m = 0
            elif trial <= 4:
                m = lo_all.size
            else:
                m = int(rng.integers(1, lo_all.size + 1))
            pick = rng.choice(lo_all.size, size=m, replace=False)
            if trial == 2:
                weights = np.ones(m)
            elif trial == 3:
                weights = np.repeat([0.0, 1.0, 2.0], [n // 2, 2 * n, m - n // 2 - 2 * n])
            else:
                weights = rng.integers(0, 4, size=m).astype(float)
            edges = [
                (int(lo_all[k]), int(hi_all[k]), float(v))
                for k, v in zip(pick, weights)
            ]
            if trial == 5:
                again = rng.choice(m, size=m // 2, replace=False)
                edges += [(*edges[k][:2], float(rng.integers(0, 4))) for k in again]
                edges = [edges[k] for k in rng.permutation(len(edges))]
                assert len({e[:2] for e in edges}) < len(edges)
            if trial >= 2:
                k = int(rng.integers(lo_all.size))
                edges.append((int(lo_all[k]), int(hi_all[k]), math.inf))
            want = simple_kruskal(edges, n)
            if trial in (0, 2, 3):
                assert len(want) == n - 1  # a complete graph spans
            if trial == 3:
                ranked = sorted(weights)
                assert ranked[n // 2 - 1] < ranked[n] == 1.0 < ranked[-1]
            if trial == 4:
                assert m > n and len(want) == n - 2
            lo = np.array([e[0] for e in edges], dtype=np.int64)
            hi = np.array([e[1] for e in edges], dtype=np.int64)
            w = np.array([e[2] for e in edges], dtype=np.float64)
            got = spanning_forest(lo, hi, w, n)
            assert list(zip(*(a.tolist() for a in got))) == want
            for a in got[:2]:
                assert a.dtype == np.int64 and a.flags.c_contiguous
            assert got[2].dtype == np.float64
            oneshot, batched = Msf(), Msf()
            buf = CandidateBuffer()
            for edge in edges:
                buf.push(*edge)
            update_msf(oneshot, buf, n)
            for batch in np.array_split(np.arange(len(edges)), int(rng.integers(2, 7))):
                for k in batch:
                    buf.push(*edges[k])
                update_msf(batched, buf, n)
            assert oneshot.edges() == want
            assert batched.edges() == want

    def test_order_matches_lexsort_on_tied_copies(self, rng):
        # Three weights and three copies of each pair on average, some
        # identical: spanning_forest keeps, edge for edge and in order,
        # what one sweep over np.lexsort((hi, lo, w)) keeps. Weight 0 is
        # rare, so the first Filter-Kruskal chunk mixes weights 0 and 1
        # and both its ties and its copies must stay in pair order.
        for _ in range(12):
            n = int(rng.integers(5, 40))
            lo_all, hi_all = np.triu_indices(n, 1)
            pick = rng.integers(lo_all.size, size=3 * lo_all.size)
            lo = lo_all[pick].astype(np.int64)
            hi = hi_all[pick].astype(np.int64)
            w = rng.choice(3, size=pick.size, p=[0.02, 0.3, 0.68]).astype(float)
            order = np.lexsort((hi, lo, w))
            parent = list(range(n))
            want = []
            for a, b, v in zip(lo[order].tolist(), hi[order].tolist(), w[order].tolist()):
                ra, rb = a, b
                while parent[ra] != ra:
                    ra = parent[ra]
                while parent[rb] != rb:
                    rb = parent[rb]
                if ra != rb:
                    parent[ra] = rb
                    want.append((a, b, v))
            assert len(want) == n - 1
            got = spanning_forest(lo, hi, w, n)
            assert list(zip(*(a.tolist() for a in got))) == want

    def test_forest_edge_count_matches_components(self, rng):
        n = 40
        msf = Msf()
        buf = CandidateBuffer()
        # Two halves never connected to each other.
        for _ in range(60):
            i, j = rng.choice(20, size=2, replace=False)
            buf.push(int(i), int(j), float(rng.random()))
            i, j = rng.choice(20, size=2, replace=False)
            buf.push(int(i) + 20, int(j) + 20, float(rng.random()))
        update_msf(msf, buf, n)
        assert len(msf) == n - 2

    def test_cut_optimality_on_complete_graphs(self, rng):
        for trial in range(5):
            n = int(rng.integers(10, 51))
            pts = rng.random((n, 2))
            matrix = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
            msf = Msf()
            buf = CandidateBuffer()
            for i in range(n):
                for j in range(i + 1, n):
                    buf.push(i, j, float(matrix[i, j]))
            update_msf(msf, buf, n)
            assert float(msf.weight.sum()) == pytest.approx(
                prim_total_weight(matrix), rel=1e-12
            )

    def test_copies_flush_to_kruskal_of_lightest_copy(self, rng):
        # A pair pushed heavier after lighter, lighter after heavier, as
        # identical copies or with a +inf copy flushes to the forest of its
        # lightest copy alone.
        copies = [
            (0, 1, 1.0), (0, 1, 3.0),  # heavier after lighter
            (2, 1, 4.0), (1, 2, 1.0),  # lighter after heavier
            (2, 3, 2.0), (3, 2, 2.0), (2, 3, 2.0),  # identical
            (3, 4, math.inf), (3, 4, 2.0), (4, 0, math.inf),  # +inf copies
            (0, 2, 1.0), (0, 2, 0.5),
        ]
        for trial in range(20):
            edges = copies if trial == 0 else [
                copies[k] for k in rng.permutation(len(copies))]
            lightest = {}
            for a, b, w in edges:
                pair = (min(a, b), max(a, b))
                lightest[pair] = min(w, lightest.get(pair, math.inf))
            want = simple_kruskal([(lo, hi, w) for (lo, hi), w in lightest.items()], 5)
            assert want == [(0, 2, 0.5), (0, 1, 1.0), (2, 3, 2.0), (3, 4, 2.0)]
            buf = CandidateBuffer()
            for edge in edges:
                buf.push(*edge)
            msf = Msf()
            update_msf(msf, buf, 5)
            assert msf.edges() == want

    def test_duplicate_pair_across_msf_and_buffer(self):
        # The same pair living in both the forest and the buffer must keep
        # the lower weight after a flush.
        msf = Msf()
        buf = CandidateBuffer()
        buf.push(0, 1, 5.0)
        buf.push(1, 2, 1.0)
        update_msf(msf, buf, 3)
        buf.push(0, 1, 2.0)
        update_msf(msf, buf, 3)
        weights = {(lo, hi): w for lo, hi, w in msf.edges()}
        assert weights[(0, 1)] == 2.0


class TestEmittedDendrogram:
    """A flush leaves on ``Msf`` the dendrogram its Kruskal sweep recorded,
    equal, array for array, to ``build_dendrogram``'s separate sweep over
    the forest it kept."""

    @staticmethod
    def assert_matches_build_dendrogram(msf, n):
        got = msf.dendrogram
        want = build_dendrogram(msf.lo, msf.hi, msf.weight, n)
        assert got.n_points == n
        for field in ("left", "right", "size", "weight"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field

    def test_random_edge_sets_over_several_chunks(self, rng, monkeypatch):
        # m >> n, so Filter-Kruskal sweeps several chunks into one
        # union-find. Ends are drawn within one of up to 3 residue classes,
        # which leaves several components; every third trial's weights are
        # small integers, so they tie and are often 0.
        chunks = []
        sweep = _accel.kruskal_mask

        def counting(*args):
            chunks[-1] += 1
            return sweep(*args)

        monkeypatch.setattr(_accel, "kruskal_mask", counting)
        seen = {"chunks": 0, "components": 0, "zero": 0}
        for trial in range(60):
            n = int(rng.integers(2, 50))
            groups = int(rng.integers(1, 4))
            m = int(rng.integers(5 * n, 20 * n))
            a = rng.integers(0, n, size=m)
            b = rng.integers(0, n, size=m)
            ok = (a != b) & (a % groups == b % groups)
            a, b = a[ok], b[ok]
            if trial % 3 == 0:
                w = rng.integers(0, 4, size=a.size).astype(float)
            else:
                w = rng.random(a.size)
                w[rng.random(a.size) < 0.05] = 0.0
            msf, buf = Msf(), CandidateBuffer()
            for part in np.array_split(np.arange(a.size), int(rng.integers(1, 4))):
                for k in part:
                    buf.push(int(a[k]), int(b[k]), float(w[k]))
                chunks.append(0)
                update_msf(msf, buf, n)
                self.assert_matches_build_dendrogram(msf, n)
                seen["chunks"] += chunks[-1] > 1
            seen["components"] += len(msf) < n - 1
            seen["zero"] += bool((msf.weight == 0.0).any())
        assert min(seen.values()) > 5, seen

    def test_one_item_and_empty_forests(self):
        for n, edges in [(1, []), (4, []), (3, [(0, 2, math.inf)])]:
            msf, buf = Msf(), CandidateBuffer()
            for edge in edges:
                buf.push(*edge)
            update_msf(msf, buf, n)
            assert len(msf) == len(msf.dendrogram) == 0
            self.assert_matches_build_dendrogram(msf, n)
