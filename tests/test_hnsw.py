import math

import numpy as np
import pytest

from fishdbc import distances
from fishdbc.distances import DistanceError, euclidean
from fishdbc.hnsw import Hnsw, _Recorder


def make_index(items, m=5, m0=10, ef=20, level_mult=None, seed=0, distance=euclidean):
    if level_mult is None:
        level_mult = 1.0 / math.log(m)
    return Hnsw(
        distance,
        items,
        m=m,
        m0=m0,
        ef=ef,
        level_mult=level_mult,
        rng=np.random.default_rng(seed),
    )


class TestAssignLevel:
    def test_zero_multiplier_always_level_zero(self):
        idx = make_index([], level_mult=0.0)
        assert all(idx.assign_level() == 0 for _ in range(1000))

    def test_unit_draw_gives_level_zero(self):
        class UnitRng:
            def random(self):
                return 0.0  # u = 1 - 0 = 1, ln(1) = 0

        idx = make_index([])
        idx._rng = UnitRng()
        assert idx.assign_level() == 0

    def test_level_distribution(self):
        # With m = 10 about 1/10th of draws should land at level >= 1.
        idx = make_index([], m=10, level_mult=1.0 / math.log(10))
        draws = 100_000
        above = sum(idx.assign_level() >= 1 for _ in range(draws))
        assert 0.08 <= above / draws <= 0.12


class TestInsert:
    def test_empty_insert_no_triples(self):
        items = [np.zeros(2)]
        idx = make_index(items)
        triples, raw = idx.insert(0)
        assert triples == [] and raw == 0
        assert idx._entry == 0

    def test_second_insert_single_triple(self):
        items = [np.array([0.0, 0.0]), np.array([3.0, 4.0])]
        idx = make_index(items)
        idx.insert(0)
        triples, raw = idx.insert(1)
        assert raw == 1
        assert triples == [(0, 1, 5.0)]

    def test_duplicate_id_rejected(self):
        items = [np.zeros(2)]
        idx = make_index(items)
        idx.insert(0)
        with pytest.raises(ValueError, match="already"):
            idx.insert(0)

    def test_layer_membership_is_prefix(self, rng):
        items = [rng.random(3) for _ in range(300)]
        idx = make_index(items, seed=3)
        for i in range(300):
            idx.insert(i)
        for level in range(1, len(idx._layers)):
            upper = set(idx._layers[level])
            lower = set(idx._layers[level - 1])
            assert upper <= lower

    def test_adjacency_symmetric_and_degree_capped(self, rng):
        items = [rng.random(3) for _ in range(300)]
        m, m0 = 5, 10
        idx = make_index(items, m=m, m0=m0, seed=4)
        for i in range(300):
            idx.insert(i)
        for level, layer in enumerate(idx._layers):
            cap = m0 if level == 0 else m
            for node, adj in layer.items():
                assert len(adj) <= cap
                for nbr in adj:
                    assert node in layer[nbr]


class TestDescent:
    def test_each_node_evaluated_once_per_insertion(self):
        # Chain 0-1-2 on two layers, entered at 0. The ef=1 descent over
        # layer 1 moves 0 -> 1 -> 2 and never re-evaluates a node it has
        # left: 3 calls there. The search on layer 0 meets 1 and 0 again and
        # answers them from the insertion's memo: no more calls.
        items = [np.array([v]) for v in (0.0, 1.0, 2.0, 2.1)]
        idx = make_index(items, level_mult=0.0)
        chain = {0: {1: 1.0}, 1: {0: 1.0, 2: 1.0}, 2: {1: 1.0}}
        idx._layers = [{node: dict(adj) for node, adj in chain.items()} for _ in range(2)]
        idx._entry = 0
        triples, raw = idx.insert(3)
        assert sorted((a, b) for a, b, _ in triples) == [(0, 3), (1, 3), (2, 3)]
        assert raw == 3


class TestDistanceTap:
    def test_counter_matches_raw_triples(self, rng):
        calls = [0]

        def counting(a, b):
            calls[0] += 1
            return euclidean(a, b)

        items = [rng.random(4) for _ in range(200)]
        idx = make_index(items, distance=counting, seed=5)
        total_raw = 0
        for i in range(200):
            _, raw = idx.insert(i)
            total_raw += raw
        assert calls[0] == total_raw

    def test_each_pair_evaluated_once_per_insertion(self, rng):
        # Payloads carry their id so the log can name the pair evaluated.
        raw_log = []

        def logging_distance(a, b):
            raw_log.append((a[0], b[0]) if a[0] < b[0] else (b[0], a[0]))
            return euclidean(a[1], b[1])

        items = [(i, rng.random(2)) for i in range(120)]
        idx = make_index(items, distance=logging_distance, seed=6)
        for i in range(120):
            raw_log.clear()
            triples, raw = idx.insert(i)
            assert len(raw_log) == raw
            assert len(set(raw_log)) == len(raw_log)
            assert sorted((a, b) for a, b, _ in triples) == sorted(raw_log)
            for a, b, v in triples:
                assert a < b
                assert v == euclidean(items[a][1], items[b][1])

    def test_triple_values_match_distance(self, rng):
        items = [rng.random(3) for _ in range(80)]
        idx = make_index(items, seed=7)
        for i in range(80):
            triples, _ = idx.insert(i)
            for a, b, v in triples:
                assert v == euclidean(items[a], items[b])

    def test_nearest_neighbor_recall(self, rng):
        n = 1000
        points = rng.random((n, 10))
        items = [points[i] for i in range(n)]
        idx = make_index(items, m=10, m0=20, ef=20, seed=8)
        computed = set()
        for i in range(n):
            triples, _ = idx.insert(i)
            for a, b, _ in triples:
                computed.add((a, b))
        # Brute-force true nearest neighbor for every point.
        hits = 0
        for i in range(n):
            d = np.linalg.norm(points - points[i], axis=1)
            d[i] = np.inf
            nn = int(d.argmin())
            pair = (i, nn) if i < nn else (nn, i)
            if pair in computed:
                hits += 1
        assert hits / n >= 0.95

    def test_connectivity_diagnostic(self, rng):
        # Not an assertion target: the triple-log edge set should leave only
        # a handful of components on clusterable data.
        n = 400
        points = rng.random((n, 2))
        items = [points[i] for i in range(n)]
        idx = make_index(items, m=5, m0=10, ef=20, seed=9)
        parent = list(range(n))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for i in range(n):
            triples, _ = idx.insert(i)
            for a, b, _ in triples:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
        components = len({find(i) for i in range(n)})
        print(f"triple-log components on 400 uniform points: {components}")
        assert components >= 1


def scalar_euclidean(a, b):
    # Not the built-in function object, so it has no batched form.
    return euclidean(a, b)


@pytest.fixture
def batches(monkeypatch):
    """Sizes of the batches handed to the built-in Euclidean's batched form."""
    sizes = []
    many = distances.euclidean_many

    def spy(a, bs):
        sizes.append(len(bs))
        return many(a, bs)

    monkeypatch.setitem(distances.MANY, euclidean, spy)
    return sizes


def snapshot(idx):
    return [{node: dict(adj) for node, adj in layer.items()} for layer in idx._layers]


class TestBatchedTap:
    def test_batched_and_scalar_paths_tap_the_same_triples(self, rng, batches):
        items = [rng.random(5) for _ in range(300)]
        batched = make_index(items, seed=9)
        scalar = make_index(items, seed=9, distance=scalar_euclidean)
        for i in range(300):
            assert batched.insert(i) == scalar.insert(i)
        assert snapshot(batched) == snapshot(scalar)
        assert len(batches) > 100 and min(batches) >= 2

    def test_memoized_pairs_are_not_recomputed(self, batches):
        items = [np.array([float(v)]) for v in range(5)]
        rec = _Recorder(euclidean, items)
        assert rec(4, 1) == 3.0
        assert rec.many(4, [0, 1, 2]) == [4.0, 3.0, 2.0]
        assert batches == [2]  # only (4, 0) and (4, 2) were unknown
        assert rec.many(4, [2, 3]) == [2.0, 1.0]  # one unknown: scalar path
        assert batches == [2]
        assert rec.raw == 4
        assert rec.finish()[0] == [(1, 4, 3.0), (0, 4, 4.0), (2, 4, 2.0), (3, 4, 1.0)]

    def test_unhandled_payloads_take_the_scalar_path(self):
        items = [np.zeros(2), np.ones(2), np.ones(3), np.ones(2)]
        rec = _Recorder(euclidean, items)
        with pytest.raises(ValueError, match="dimension mismatch"):
            rec.many(0, [1, 2, 3])
        assert list(rec.memo) == [(0, 1)]

    def test_unhashable_distance_takes_the_scalar_path(self, rng):
        class Unhashable:
            __hash__ = None

            def __call__(self, a, b):
                return euclidean(a, b)

        items = [rng.random(3) for _ in range(50)]
        idx = make_index(items, seed=12, distance=Unhashable())
        reference = make_index(items, seed=12)
        for i in range(50):
            assert idx.insert(i) == reference.insert(i)

    def test_bad_value_in_a_batch_names_the_first_bad_pair(self, rng, batches):
        # One layer, so the search starts by expanding the entry point's
        # layer-0 list. Every stored payload but the entry point's turns
        # NaN: the new item's first distance (to the entry point) is fine
        # and that expansion fails.
        points = rng.random((200, 3))
        errors = []
        for distance in (euclidean, scalar_euclidean):
            items = list(points.copy())
            idx = make_index(items, level_mult=0.0, distance=distance)
            for i in range(199):
                idx.insert(i)
            before = snapshot(idx), idx._entry, idx._rng.bit_generator.state
            for i in range(199):
                if i != idx._entry:
                    items[i][:] = np.nan
            batches.clear()
            with pytest.raises(DistanceError) as exc:
                idx.insert(199)
            errors.append(str(exc.value))
            assert (snapshot(idx), idx._entry, idx._rng.bit_generator.state) == before
            assert 199 not in idx
            # only the built-in function fails inside a batch
            assert bool(batches) == (distance is euclidean)
        assert errors[0] == errors[1]


class TestAtomicity:
    def test_failing_distance_leaves_index_unchanged(self, rng):
        items = [rng.random(2) for _ in range(50)]
        idx = make_index(items, seed=10)
        for i in range(49):
            idx.insert(i)
        layers_before = [
            {node: dict(adj) for node, adj in layer.items()} for layer in idx._layers
        ]
        entry_before = idx._entry
        boom = [0]

        def failing(a, b):
            boom[0] += 1
            if boom[0] > 3:
                return float("nan")
            return euclidean(a, b)

        idx._distance = failing
        with pytest.raises(DistanceError):
            idx.insert(49)
        assert idx._entry == entry_before
        assert 49 not in idx
        got = [
            {node: dict(adj) for node, adj in layer.items()} for layer in idx._layers
        ]
        assert got == layers_before

    def test_negative_distance_rejected(self):
        items = [np.zeros(2), np.ones(2)]
        idx = make_index(items, distance=lambda a, b: -1.0)
        idx.insert(0)
        with pytest.raises(DistanceError):
            idx.insert(1)

    def test_infinite_distance_rejected(self):
        items = [np.zeros(2), np.ones(2)]
        idx = make_index(items, distance=lambda a, b: math.inf)
        idx.insert(0)
        with pytest.raises(DistanceError):
            idx.insert(1)
