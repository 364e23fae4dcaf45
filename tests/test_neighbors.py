import math

import numpy as np
import pytest

from fishdbc.neighbors import NeighborStore


def make_store(minpts, owner=0, distances=()):
    store = NeighborStore(minpts)
    store.register(owner)
    for i, d in enumerate(distances, start=1000):
        store.observe(owner, i, d)
    return store


class TestObserve:
    def test_underfull_always_improves(self):
        store = NeighborStore(3)
        store.register(0)
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

    def test_duplicate_neighbor_keeps_smaller(self):
        store = NeighborStore(3)
        store.register(0)
        store.observe(0, 1, 4.0)
        improved, _ = store.observe(0, 1, 4.0)
        assert not improved
        improved, _ = store.observe(0, 1, 2.0)
        assert improved
        assert store.members(0) == [(1, 2.0)]

    def test_self_neighbor_rejected(self):
        store = NeighborStore(2)
        store.register(0)
        with pytest.raises(ValueError):
            store.observe(0, 0, 1.0)


class TestCoreDistance:
    def test_empty_heap_is_inf(self):
        store = NeighborStore(3)
        store.register(0)
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
            store.register(i)
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
        store.register(0)
        prev = store.core_distance(0)
        for i in range(1, 200):
            store.observe(0, i, float(rng.random() * 10))
            cur = store.core_distance(0)
            assert cur <= prev
            prev = cur
