import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fishdbc.neighbors import NeighborStore

INF = math.inf


class HeapNeighborStore:
    """The former heap-based store, kept as the reference for NeighborStore."""

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


def make_store(minpts, owner=0, distances=()):
    store = NeighborStore(minpts)
    store.fill(owner, ())
    for i, d in enumerate(distances, start=1000):
        store.observe(owner, i, d)
    return store


class TestObserve:
    def test_underfull_always_improves(self):
        store = NeighborStore(3)
        store.fill(0, ())
        improved, evicted = store.observe(0, 1, 42.0)
        assert improved and evicted is None

    def test_full_heap_worse_value_rejected(self):
        store = make_store(3, distances=[1.0, 2.0, 3.0])
        improved, evicted = store.observe(0, 9, 5.0)
        assert not improved and evicted is None
        assert sorted(d for _, d in store.members(0)) == [1.0, 2.0, 3.0]

    def test_full_heap_eviction(self):
        store = make_store(3, distances=[1.0, 2.0, 5.0])
        improved, evicted = store.observe(0, 9, 3.0)
        assert improved
        assert evicted == (1002, 5.0)
        assert sorted(d for _, d in store.members(0)) == [1.0, 2.0, 3.0]

    def test_tie_at_top_is_not_evicted(self):
        store = make_store(3, distances=[1.0, 2.0, 3.0])
        improved, _ = store.observe(0, 9, 3.0)
        assert not improved

    def test_tied_farthest_evicts_lowest_id(self):
        store = make_store(3, distances=[3.0, 3.0, 1.0])
        improved, evicted = store.observe(0, 9, 2.0)
        assert improved
        assert evicted == (1000, 3.0)
        assert sorted(store.members(0)) == [(9, 2.0), (1001, 3.0), (1002, 1.0)]
        assert store.core_distance(0) == 3.0

    def test_duplicate_neighbor_keeps_smaller(self):
        store = NeighborStore(3)
        store.fill(0, ())
        store.observe(0, 1, 4.0)
        improved, _ = store.observe(0, 1, 4.0)
        assert not improved
        improved, _ = store.observe(0, 1, 2.0)
        assert improved
        assert store.members(0) == [(1, 2.0)]

    def test_infinite_entry_lowered_while_underfull(self):
        store = make_store(3, distances=[math.inf, 1.0])
        improved, _ = store.observe(0, 1000, 2.0)
        assert improved
        assert store.core_distance(0) == math.inf
        store.observe(0, 9, 3.0)
        assert store.core_distance(0) == 3.0

    def test_self_neighbor_rejected(self):
        store = NeighborStore(2)
        store.fill(0, ())
        with pytest.raises(ValueError):
            store.observe(0, 0, 1.0)


class TestCoreDistance:
    def test_empty_heap_is_inf(self):
        store = NeighborStore(3)
        store.fill(0, ())
        assert store.core_distance(0) == math.inf

    def test_underfull_heap_is_inf(self):
        store = make_store(3, distances=[1.0, 2.0])
        assert store.core_distance(0) == math.inf

    def test_full_heap_is_max(self):
        store = make_store(3, distances=[1.0, 2.0, 3.0])
        assert store.core_distance(0) == 3.0

    def test_unknown_id(self):
        store = NeighborStore(2)
        with pytest.raises(KeyError):
            store.core_distance(7)

    def test_saturated_equals_brute_force(self, rng):
        minpts = 5
        points = rng.random((30, 2))
        store = NeighborStore(minpts)
        for i in range(30):
            store.fill(i, ())
        for i in range(30):
            for j in range(30):
                if i != j:
                    store.observe(i, j, float(np.linalg.norm(points[i] - points[j])))
        for i in range(30):
            dists = sorted(
                float(np.linalg.norm(points[i] - points[j]))
                for j in range(30)
                if j != i
            )
            assert store.core_distance(i) == pytest.approx(dists[minpts - 1])

    def test_monotone_under_observation(self, rng):
        store = NeighborStore(4)
        store.fill(0, ())
        prev = store.core_distance(0)
        for i in range(1, 200):
            store.observe(0, i, float(rng.random() * 10))
            cur = store.core_distance(0)
            assert cur <= prev
            prev = cur


# Few owners, few neighbor ids and integer distances 0-4: re-observed pairs
# (with smaller and larger values) and ties at the core distance are common.
steps = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 11), st.integers(0, 4)),
    max_size=80,
)


@settings(deadline=None, max_examples=500)
@given(st.integers(2, 5), steps)
def test_matches_heap_reference(minpts, ops):
    store, ref = NeighborStore(minpts), HeapNeighborStore(minpts)
    for x in range(4):
        store.fill(x, ())
        ref.register(x)
    for x, y, v in ops:
        v = float(v)
        if x == y:
            for s in (store, ref):
                with pytest.raises(ValueError):
                    s.observe(x, y, v)
            continue
        # The engine offers v to x's set only when v < core[x]; any other
        # call must be a no-op that reports no change.
        skippable = v >= store.core[x]
        before = dict(store.dists[x]), store.core[x]
        result = store.observe(x, y, v)
        assert result == ref.observe(x, y, v)
        if skippable:
            assert result == (False, None)
            assert (store.dists[x], store.core[x]) == before
        assert store.core[x] == store.core_distance(x) == ref.core_distance(x)
        assert set(store.members(x)) == set(ref.members(x))


# Distinct neighbor ids, distances from 5 levels: ties at the minpts-th
# smallest offer are common.
offer_lists = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 4)),
    max_size=20,
    unique_by=lambda t: t[0],
)


@settings(deadline=None, max_examples=500)
@given(st.integers(2, 5), offer_lists)
def test_fill_matches_observe_replay(minpts, offers):
    offers = [(y, float(v)) for y, v in offers]
    x = 99
    filled, replayed = NeighborStore(minpts), NeighborStore(minpts)
    filled.fill(x, offers)
    replayed.fill(x, ())
    for y, v in offers:
        replayed.observe(x, y, v)
    assert list(filled.dists[x].items()) == list(replayed.dists[x].items())
    assert filled.core[x] == replayed.core[x]
    with pytest.raises(ValueError):
        filled.fill(x, offers)
