import numpy as np
import pytest

from fishdbc import _accel, distances


def reference_kruskal_mask(lo, hi, n):
    """Kruskal without union-find: keep an edge unless a search of the
    edges kept so far already joins its ends."""
    adj = [[] for _ in range(n)]
    keep = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        seen = {a}
        stack = [a]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        joined = b in seen
        if not joined:
            adj[a].append(b)
            adj[b].append(a)
        keep.append(not joined)
    return np.array(keep, dtype=np.bool_)


def reference_sweep(lo, hi, parent):
    """kruskal_mask's sweep through a separate find helper that halves
    paths the same way; updates ``parent`` in place."""

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    keep = []
    for a, b in zip(lo.tolist(), hi.tolist()):
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a
        keep.append(a != b)
    return np.array(keep, dtype=np.bool_)


class TestEuclideanKernel:
    """The Euclidean kernels live in ``distances``: ``math.dist`` and
    ``euclidean_dot``, which ``euclidean`` picks between."""

    def test_matches_numpy(self, rng):
        for _ in range(50):
            a = rng.random(int(rng.integers(1, 64)))
            b = rng.random(a.shape[0])
            want = float(np.linalg.norm(a - b))
            assert distances.euclidean(a, b) == pytest.approx(want, rel=1e-12)


class TestKruskalKernel:
    def rand_edges(self, rng, n, m):
        lo_all, hi_all = np.triu_indices(n, 1)
        pick = rng.choice(len(lo_all), size=m, replace=False)
        w = rng.random(m)
        order = np.lexsort((hi_all[pick], lo_all[pick], w))
        return (
            np.ascontiguousarray(lo_all[pick][order], dtype=np.int64),
            np.ascontiguousarray(hi_all[pick][order], dtype=np.int64),
        )

    def test_selected_agrees_with_python_body(self, rng):
        """The one sweep agrees with a Kruskal that uses no union-find."""
        for _ in range(20):
            n = int(rng.integers(5, 60))
            m = int(rng.integers(1, n * (n - 1) // 2 + 1))
            lo, hi = self.rand_edges(rng, n, m)
            got = _accel.kruskal_mask(lo, hi, list(range(n)))
            want = reference_kruskal_mask(lo, hi, n)
            assert np.array_equal(got, want)

    def test_shared_parent_continues_the_sweep(self, rng):
        """Two calls sweeping into one union-find give the mask of one call
        over the concatenated edges."""
        for _ in range(20):
            n = int(rng.integers(5, 60))
            m = int(rng.integers(2, n * (n - 1) // 2 + 1))
            lo, hi = self.rand_edges(rng, n, m)
            cut = int(rng.integers(1, m))
            parent = list(range(n))
            first = _accel.kruskal_mask(lo[:cut].copy(), hi[:cut].copy(), parent)
            second = _accel.kruskal_mask(lo[cut:].copy(), hi[cut:].copy(), parent)
            whole = _accel.kruskal_mask(lo, hi, list(range(n)))
            assert np.array_equal(np.concatenate([first, second]), whole)

    def test_shared_parent_matches_a_find_helper_sweep(self, rng):
        """Chunk after chunk, the inline path halving leaves the same
        union-find, entry for entry, as a sweep with a find helper."""
        for _ in range(20):
            n = int(rng.integers(5, 60))
            m = int(rng.integers(2, n * (n - 1) // 2 + 1))
            lo, hi = self.rand_edges(rng, n, m)
            cut = int(rng.integers(1, m))
            parent, ref = list(range(n)), list(range(n))
            for part in (slice(0, cut), slice(cut, m)):
                got = _accel.kruskal_mask(lo[part].copy(), hi[part].copy(), parent)
                want = reference_sweep(lo[part], hi[part], ref)
                assert np.array_equal(got, want)
                assert parent == ref

    def test_shared_merges_match_linkage_merges(self, rng):
        """Chunk after chunk into one union-find and one ``Merges``, the
        rows of the kept edges are ``linkage_merges`` over those edges."""
        for _ in range(20):
            n = int(rng.integers(5, 60))
            m = int(rng.integers(2, n * (n - 1) // 2 + 1))
            lo, hi = self.rand_edges(rng, n, m)
            cuts = np.sort(rng.choice(np.arange(1, m), size=min(3, m - 1), replace=False))
            parent, merges = list(range(n)), _accel.Merges(n)
            keep = np.concatenate([
                _accel.kruskal_mask(a.copy(), b.copy(), parent, merges)
                for a, b in zip(np.split(lo, cuts), np.split(hi, cuts))
            ])
            want = _accel.linkage_merges(lo[keep], hi[keep], n)
            for g, w in zip(merges.arrays(), want):
                assert np.array_equal(g, w)

    def test_spanning_tree_size(self, rng):
        n = 20
        lo, hi = self.rand_edges(rng, n, n * (n - 1) // 2)
        mask = _accel.kruskal_mask(lo, hi, list(range(n)))
        assert int(mask.sum()) == n - 1


class TestLinkageKernel:
    def test_cycle_flagged(self):
        lo = np.array([0, 1, 0], dtype=np.int64)
        hi = np.array([1, 2, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="cyclic"):
            _accel.linkage_merges(lo, hi, 3)
