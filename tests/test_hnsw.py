import heapq
import math

import numpy as np
import pytest

from helpers import noisy_strings
from fishdbc import FISHDBC, hnsw
from fishdbc.dataio import generate_blobs
from fishdbc.distances import PREPARED, DistanceError, euclidean, jaro_winkler
from fishdbc.hnsw import Hnsw, _Recorder


def make_index(items, m=5, ef=20, seed=0, distance=euclidean):
    return Hnsw(
        distance,
        items,
        m=m,
        ef=ef,
        rng=np.random.default_rng(seed),
        neighbor_dists={},
    )


class TestAssignLevel:
    def test_zero_multiplier_always_level_zero(self):
        idx = make_index([])
        idx._level_mult = 0.0
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
        idx = make_index([], m=10)
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

    # "batched" holds the items in the form the engine prepares them in and
    # measures them with the kernel it picks for that form; "scalar" calls
    # a plain wrapper of the built-in on the raw items.
    @pytest.mark.parametrize("prepared", [True, False], ids=["batched", "scalar"])
    def test_returns_triples_and_their_count(self, rng, prepared):
        # The engine counts distance calls, and a tracer unpacks the pair.
        items = [rng.random(4) for _ in range(200)]
        if prepared:
            prepare, distance = PREPARED[euclidean](items[0])
            items = [prepare(p) for p in items]
        else:
            distance = lambda a, b: euclidean(a, b)
        idx = make_index(items, distance=distance)
        for i in range(200):
            result = idx.insert(i)
            assert len(result) == 2 and result[1] == len(result[0])

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
        m = 5
        idx = make_index(items, m=m, seed=4)
        for i in range(300):
            idx.insert(i)
        for level, layer in enumerate(idx._layers):
            cap = 2 * m if level == 0 else m
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
        idx = make_index(items)
        idx._level_mult = 0.0
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
        idx = make_index(items, m=10, ef=20, seed=8)
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
        idx = make_index(items, m=5, ef=20, seed=9)
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


def snapshot(idx):
    return [{node: dict(adj) for node, adj in layer.items()} for layer in idx._layers]


class TestMemo:
    def test_memoized_pairs_are_not_recomputed(self):
        items = [np.array([float(v)]) for v in range(5)]
        calls = []

        def logging_distance(a, b):
            calls.append((float(a[0]), float(b[0])))
            return euclidean(a, b)

        rec = _Recorder(logging_distance, items, {}, {})
        assert rec(4, 1) == 3.0
        assert [rec(4, b) for b in (0, 1, 2)] == [4.0, 3.0, 2.0]
        assert rec(1, 4) == 3.0
        assert calls == [(4.0, 1.0), (4.0, 0.0), (4.0, 2.0)]
        assert rec.finish() == ([(1, 4, 3.0), (0, 4, 4.0), (2, 4, 2.0)], 3)


@pytest.fixture
def recorders(monkeypatch):
    """Every _Recorder the index builds, newest last."""
    made = []

    class Spy(_Recorder):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(hnsw, "_Recorder", Spy)
    return made


def _held(idx):
    """The pairs an index's cache holds, as packed keys."""
    return {*idx._recent, *idx._older}



class TestPairCache:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_outputs_as_without_the_cache(self, monkeypatch, seed):
        strings = noisy_strings(400, np.random.default_rng(seed))
        taps = {}
        insert = Hnsw.insert

        def tapped(self, x):
            held = _held(self)
            out = insert(self, x)
            taps.setdefault(self, []).append((out[0], held))
            return out

        monkeypatch.setattr(Hnsw, "insert", tapped)
        engine = FISHDBC(jaro_winkler, rng_seed=seed, record_pairs=True)
        reference = FISHDBC(jaro_winkler, rng_seed=seed, record_pairs=True)
        for s in strings:
            engine.add(s)
            reference._hnsw._recent.clear()
            reference._hnsw._older.clear()
            reference.add(s)
        # Each insertion reports what the reference reports, in the same
        # order, less the pairs its cache held; those an earlier
        # insertion reported.
        reported = set()
        served = 0
        for (got, held), (want, _) in zip(taps[engine._hnsw], taps[reference._hnsw]):
            assert got == [t for t in want if t[0] << 32 | t[1] not in held]
            hits = {t[0] << 32 | t[1] for t in want} & held
            assert hits <= reported
            served += len(hits)
            reported |= {t[0] << 32 | t[1] for t in want}
        assert served > 0
        assert engine._neighbors.dists == reference._neighbors.dists
        assert engine.cluster().labels.tolist() == reference.cluster().labels.tolist()
        assert engine.forest_edges() == reference.forest_edges()
        assert engine.pair_log() == reference.pair_log()
        assert engine.distance_calls < reference.distance_calls

    def test_held_pairs_never_reach_the_distance(self, rng, recorders):
        evaluated = []

        def logging_distance(a, b):
            evaluated.append((a[0], b[0]) if a[0] < b[0] else (b[0], a[0]))
            return euclidean(a[1], b[1])

        items = [(i, rng.random(2)) for i in range(300)]
        idx = make_index(items, distance=logging_distance, seed=13)
        served = 0
        for i in range(300):
            held = _held(idx)
            evaluated.clear()
            triples, raw = idx.insert(i)
            assert held.isdisjoint(a << 32 | b for a, b in evaluated)
            assert held.isdisjoint(a << 32 | b for a, b, _ in triples)
            served += len(held & recorders[-1].served.keys())
        assert served > 0

    def test_cache_holds_at_most_eight_n_pairs_plus_one_insertion(self, rng, recorders):
        items = [rng.random(3) for _ in range(400)]
        idx = make_index(items, seed=14)
        rotations = 0
        extra = 0  # pairs of the insertion that made the older generation
        past_2n = False  # the recent generation outgrew 2n without rotating
        for i in range(400):
            older = idx._older
            idx.insert(i)
            n = i + 1
            if idx._older is not older:
                rotations += 1
                extra = len(recorders[-1].served)
                assert not idx._recent
            past_2n = past_2n or len(idx._recent) > 2 * n
            assert len(idx._recent) <= 4 * n
            assert len(idx._recent) + len(idx._older) <= 8 * n + extra
        assert rotations >= 2
        assert past_2n

    def test_failed_add_leaves_the_cache_unchanged(self, recorders):
        strings = noisy_strings(300, np.random.default_rng(3))
        probe = FISHDBC(jaro_winkler, rng_seed=3)
        engine = FISHDBC(jaro_winkler, rng_seed=3)
        for s in strings[:-1]:
            probe.add(s)
            engine.add(s)
        probe.add(strings[-1])
        calls = len(recorders[-1].memo)
        # The last insertion takes pairs from the cache.
        evaluated = {a << 32 | b for a, b in recorders[-1].memo}
        assert recorders[-1].served.keys() - evaluated
        count = [0]

        def fails_last(a, b):
            count[0] += 1
            return math.nan if count[0] == calls else jaro_winkler(a, b)

        recent, older = dict(engine._hnsw._recent), dict(engine._hnsw._older)
        engine._hnsw.distance = fails_last
        with pytest.raises(DistanceError):
            engine.add(strings[-1])
        assert recorders[-1].served  # pairs were collected, not committed
        assert engine._hnsw._recent == recent
        assert engine._hnsw._older == older


class TestAtomicity:
    def test_bad_value_names_the_first_bad_pair_in_neighbor_order(self, rng):
        # One layer, so the search starts by expanding the entry point's
        # layer-0 list. Every stored payload but the entry point's turns
        # NaN: the new item's first distance (to the entry point) is fine
        # and the first neighbor of that expansion fails.
        items = list(rng.random((200, 3)))
        idx = make_index(items)
        idx._level_mult = 0.0
        for i in range(199):
            idx.insert(i)
        before = snapshot(idx), idx._entry, idx._rng.bit_generator.state
        first = next(iter(idx._layers[0][idx._entry]))
        for i in range(199):
            if i != idx._entry:
                items[i][:] = np.nan
        with pytest.raises(DistanceError) as exc:
            idx.insert(199)
        assert str(exc.value) == f"distance(199, {first}) returned nan"
        assert (snapshot(idx), idx._entry, idx._rng.bit_generator.state) == before
        assert 199 not in idx._layers[0]

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

        idx.distance = failing
        with pytest.raises(DistanceError):
            idx.insert(49)
        assert idx._entry == entry_before
        assert 49 not in idx._layers[0]
        got = [
            {node: dict(adj) for node, adj in layer.items()} for layer in idx._layers
        ]
        assert got == layers_before

    def test_failed_heuristic_miss_names_the_pair_and_changes_nothing(self, rng, recorders):
        # A pair of two existing items reaches the distance only through
        # the selection heuristic's miss path. Payloads carry their id.
        log = []

        def logging_distance(a, b):
            log.append((a[0], b[0]))
            return euclidean(a[1], b[1])

        items = list(enumerate(rng.random((200, 2))))
        probe = make_index(items, distance=logging_distance, seed=11)
        for x in range(200):
            log.clear()
            want = probe.insert(x)
            misses = [(a, b) for a, b in log if x not in (a, b)]
            if len(misses) >= 2:
                break
        a, b = misses[-1]  # earlier misses were served before it fails
        idx = make_index(items, distance=logging_distance, seed=11)
        for i in range(x):
            idx.insert(i)
        before = (snapshot(idx), idx._entry, idx._rng.bit_generator.state,
                  list(idx._recent.items()), list(idx._older.items()))

        def fails_on_the_pair(p, q):
            return math.nan if {p[0], q[0]} == {a, b} else euclidean(p[1], q[1])

        idx.distance = fails_on_the_pair
        with pytest.raises(DistanceError) as exc:
            idx.insert(x)
        assert str(exc.value) == f"distance({a}, {b}) returned nan"
        assert recorders[-1].served  # pairs were collected, not committed
        assert (snapshot(idx), idx._entry, idx._rng.bit_generator.state,
                list(idx._recent.items()), list(idx._older.items())) == before
        idx.distance = logging_distance
        assert idx.insert(x) == want

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


class CopyingHnsw(Hnsw):
    """The index as it was when staging copied every linked neighbor's
    adjacency: each copy gains x, each full neighbor's is replaced by its
    pruned set, and each dropped link is popped from both endpoints. The
    in-place commit must leave the very same layers."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.removed = 0

    def insert(self, x):
        rec = _Recorder(self.distance, self._items, self._recent, self._older)
        level = self.assign_level()
        staged = self._stage(x, level, rec)
        for lc, x_adj, backlinks, removals in staged:
            layer = self._layers[lc]
            layer[x] = x_adj
            for node, adj in backlinks.items():
                layer[node] = adj
            for a, b in removals:
                layer[a].pop(b, None)
                layer[b].pop(a, None)
            self.removed += len(removals)
        while len(self._layers) <= level:
            self._layers.append({x: {}})
            self._entry = x
        recent = self._recent
        recent.update(rec.served)
        if len(recent) > 4 * len(self._layers[0]):
            self._older = recent
            self._recent = {}
        return rec.finish()

    def _stage(self, x, level, rec):
        staged = []
        if self._entry is None:
            return staged
        entry_points = [(-rec(x, self._entry), self._entry)]
        for lc in range(len(self._layers) - 1, -1, -1):
            layer = self._layers[lc]
            ef = 1 if lc > level else self._ef
            entry_points = self._beam_search(x, entry_points, layer, ef, rec)
            if lc > level:
                continue
            cap = self._m0 if lc == 0 else self._m
            candidates = sorted((-nd, node) for nd, node in entry_points)
            selected = self._select_heuristic(candidates, cap, rec)
            x_adj = {node: d for d, node in selected}
            backlinks = {}
            removals = []
            for d_xn, node in selected:
                adj = layer[node]
                if len(adj) < cap:
                    merged = dict(adj)
                    merged[x] = d_xn
                    backlinks[node] = merged
                else:
                    pool = sorted([(dd, p) for p, dd in adj.items()] + [(d_xn, x)])
                    pruned = {p: dd for dd, p in self._select_heuristic(pool, cap, rec)}
                    backlinks[node] = pruned
                    if x not in pruned:
                        del x_adj[node]
                    for old in adj:
                        if old not in pruned:
                            removals.append((node, old))
            staged.append((lc, x_adj, backlinks, removals))
        return staged


def ordered_layers(idx):
    """Every layer as nested lists, so that dict order counts too."""
    return [
        [(node, list(adj.items())) for node, adj in layer.items()]
        for layer in idx._layers
    ]


class TestInPlaceCommit:
    @pytest.mark.parametrize("data", ["blobs", "strings"])
    def test_layers_match_the_copying_commit(self, data):
        rng = np.random.default_rng(25)
        if data == "blobs":
            items = list(generate_blobs(600, 10, rng=rng)[0])
            distance, m = euclidean, 10
        else:
            items = noisy_strings(300, rng)
            distance, m = jaro_winkler, 5
        args = dict(m=m, ef=20, neighbor_dists={})
        idx = Hnsw(distance, items, rng=np.random.default_rng(7), **args)
        ref = CopyingHnsw(distance, items, rng=np.random.default_rng(7), **args)
        for i in range(len(items)):
            assert idx.insert(i) == ref.insert(i)
            assert ordered_layers(idx) == ordered_layers(ref)
        assert len(idx._layers) > 1
        assert ref.removed > 0  # full neighbors were pruned


def cached(rec, a, b):
    """``_Recorder.cached`` as it was: ``rec(a, b)`` for a pair of existing
    items, read from the pair cache (``recent``, then ``older``) when it
    holds the pair, and collected in ``served`` either way."""
    packed = a << 32 | b if a < b else b << 32 | a
    v = rec.recent.get(packed)
    if v is None:
        v = rec.older.get(packed)
        if v is None:
            v = rec(a, b)
    rec.served[packed] = v
    return v


class RecorderHnsw(Hnsw):
    """The index as it was when the search and the heuristic went through
    the recorder for every distance. The inline lookups must give the very
    same triples, layers and pair cache."""

    def _beam_search(self, x, entry_points, layer, ef, rec):
        candidates = [(-nd, node) for nd, node in entry_points]
        heapq.heapify(candidates)
        visited = set(node for _, node in entry_points)
        while candidates:
            dist, node = heapq.heappop(candidates)
            worst = -entry_points[0][0]
            if dist > worst:
                break
            fresh = [nbr for nbr in layer[node] if nbr not in visited]
            visited.update(fresh)
            for nbr in fresh:
                d = rec(x, nbr)
                if len(entry_points) < ef:
                    heapq.heappush(candidates, (d, nbr))
                    heapq.heappush(entry_points, (-d, nbr))
                elif d < worst:
                    heapq.heappush(candidates, (d, nbr))
                    heapq.heapreplace(entry_points, (-d, nbr))
                    worst = -entry_points[0][0]
        return entry_points

    def _select_heuristic(self, candidates, cap, rec):
        if len(candidates) <= cap:
            return candidates
        layer0 = self._layers[0]
        near = self._neighbor_dists
        kept = []
        for d_c, c in candidates:
            if len(kept) >= cap:
                break
            adj_c = layer0.get(c, {})
            near_c = near.get(c, {})
            good = True
            for _, k in kept:
                d = adj_c.get(k)
                if d is None:
                    d = near_c.get(k)
                if d is None:
                    d = near.get(k, {}).get(c)
                if d is None:
                    d = cached(rec, c, k)
                if d < d_c:
                    good = False
                    break
            if good:
                kept.append((d_c, c))
        return kept


def tap(idx):
    """The list every later ``idx.insert`` output is appended to."""
    outputs = []
    insert = idx.insert

    def tapped(x):
        outputs.append(insert(x))
        return outputs[-1]

    idx.insert = tapped
    return outputs


class TestInlineRecorder:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("data", ["blobs", "strings"])
    def test_same_as_calling_the_recorder(self, data, seed):
        rng = np.random.default_rng(seed)
        if data == "blobs":  # prepared payloads under euclidean's kernel
            payloads, distance = list(generate_blobs(600, 10, rng=rng)[0]), euclidean
        else:
            payloads, distance = noisy_strings(300, rng), jaro_winkler
        engine = FISHDBC(distance, minpts=5, rng_seed=seed)
        ref = FISHDBC(distance, minpts=5, rng_seed=seed)
        ref._hnsw.__class__ = RecorderHnsw
        idx, ref_idx = engine._hnsw, ref._hnsw
        got, want = tap(idx), tap(ref_idx)
        for p in payloads:
            engine.add(p)
            ref.add(p)
            assert got[-1] == want[-1]
            assert ordered_layers(idx) == ordered_layers(ref_idx)
            assert list(idx._recent.items()) == list(ref_idx._recent.items())
            assert list(idx._older.items()) == list(ref_idx._older.items())
        assert idx._older  # the cache rotated, so both generations were read
        assert len(idx._layers) > 1
