import math
import os
import subprocess
import sys
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import fishdbc
from helpers import (buffered_entries, buffered_weight, canonical_labels, noisy_strings,
                     two_blob_points)
from fishdbc import FISHDBC, DistanceError, dataio, distances
from fishdbc import oracle
from fishdbc.engine import ALPHA
from fishdbc.msf import spanning_forest
from fishdbc.neighbors import NeighborStore
from test_distances import loop_jaro_winkler


class TestConfig:
    def test_defaults(self):
        engine = FISHDBC(distances.euclidean)
        assert engine._neighbors.minpts == 10
        assert engine._hnsw._ef == 20

    @pytest.mark.parametrize("minpts", [2, 5, 10])
    def test_hnsw_settings_follow_from_minpts(self, minpts):
        # HNSW degrees and level multiplier follow from minpts alone.
        engine = FISHDBC(distances.euclidean, minpts=minpts)
        assert engine._hnsw._m == minpts
        assert engine._hnsw._m0 == 2 * minpts
        assert engine._hnsw._level_mult == 1.0 / math.log(minpts)

    def test_mcs_defaults_to_minpts(self, rng):
        engine = FISHDBC(distances.euclidean, minpts=7)
        for row in rng.random((150, 2)):
            engine.add(row)
        trees = {m: engine.cluster(min_cluster_size=m).condensed.clusters
                 for m in (None, 7, 8)}
        assert trees[None] == trees[7] != trees[8]

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"minpts": 1}, "minpts"),
            ({"ef": 0}, "ef"),
            ({"min_cluster_size": 1}, "min_cluster_size"),
            ({"min_cluster_size": 0}, "min_cluster_size"),
            ({"min_cluster_size": -math.inf}, "min_cluster_size"),
            ({"ef": -math.inf}, "ef"),
            ({"ef": math.nan}, "ef"),
            ({"minpts": math.nan}, "minpts"),
            ({"min_cluster_size": math.nan}, "min_cluster_size"),
            ({"minpts": math.inf}, "minpts"),
            ({"minpts": 2.5}, "minpts"),
        ],
    )
    def test_bounds_reported(self, kwargs, fragment):
        # min_cluster_size is a knob of cluster(), which checks it before it
        # flushes; the constructor checks the rest.
        kwargs = dict(kwargs)
        m_cs = kwargs.pop("min_cluster_size", None)
        with pytest.raises(ValueError, match=fragment):
            engine = FISHDBC(distances.euclidean, **kwargs)
            engine.add(np.zeros(2))
            engine.add(np.ones(2))
            engine.cluster(min_cluster_size=m_cs)
        if m_cs is not None:
            assert len(engine._buf) == 1  # rejected before the flush

    def test_numpy_integer_minpts_accepted(self):
        engine = FISHDBC(distances.euclidean, minpts=np.int64(3))
        for row in np.random.default_rng(0).random((20, 2)):
            engine.add(row)
        assert all(len(near) == 3 for near in engine._neighbors.dists.values())


class TestSetup:
    def test_empty_state(self):
        engine = FISHDBC(distances.euclidean)
        assert engine.n == 0
        assert len(engine._buf) == 0
        assert engine.forest_edges() == []
        assert engine.distance_calls == 0

    def test_minpts_one_rejected(self):
        with pytest.raises(ValueError, match="minpts"):
            FISHDBC(distances.cosine, minpts=1)

    def test_counter_semantics(self):
        engine = FISHDBC(distances.jaccard)
        for payload in ({1, 2}, {2, 3}, {3, 4}):
            engine.add(payload)
        assert engine.n == 3

    def test_substructures_agree_on_n(self, rng):
        engine = FISHDBC(distances.euclidean, minpts=3)
        for _ in range(25):
            engine.add(rng.random(2))
        assert len(engine._items) == 25
        assert len(engine._hnsw._layers[0]) == 25
        assert len(engine._neighbors.dists) == 25

    def test_positional_and_removed_knobs_rejected(self):
        # Knobs are keyword-only, and the HNSW ones follow from minpts.
        with pytest.raises(TypeError):
            FISHDBC(distances.euclidean, 10)
        # The flush threshold is the constant ALPHA; min_cluster_size is
        # given to cluster().
        for knob, value in (("hnsw_m", 5), ("hnsw_m0", 10), ("level_mult", 0.5),
                            ("alpha", 32.0), ("min_cluster_size", 10)):
            with pytest.raises(TypeError, match=knob):
                FISHDBC(distances.euclidean, **{knob: value})


class TestAdd:
    def test_first_item(self):
        engine = FISHDBC(distances.euclidean)
        assert engine.add(np.zeros(2)) == 0
        assert engine.distance_calls == 0
        assert len(engine._buf) == 0

    def test_second_item(self):
        engine = FISHDBC(distances.euclidean, minpts=2)
        engine.add(np.array([0.0, 0.0]))
        engine.add(np.array([3.0, 4.0]))
        assert engine.distance_calls == 1
        assert buffered_weight(engine._buf, 0, 1) is not None

    def test_ids_dense_in_insertion_order(self, rng):
        engine = FISHDBC(distances.euclidean, minpts=3)
        ids = [engine.add(rng.random(2)) for _ in range(20)]
        assert ids == list(range(20))

    def test_failing_distance_is_atomic(self, rng):
        engine = FISHDBC(distances.euclidean, minpts=3)
        for _ in range(10):
            engine.add(rng.random(2))
        n_before = engine.n
        calls_before = engine.distance_calls
        cand_before = len(engine._buf)

        bad = object()

        def fragile(a, b):
            if a is bad or b is bad:
                return float("nan")
            return distances.euclidean(a, b)

        engine._hnsw._distance = fragile
        with pytest.raises(DistanceError):
            engine.add(bad)
        assert engine.n == n_before
        assert engine.distance_calls == calls_before
        assert len(engine._buf) == cand_before
        engine._hnsw._distance = distances.euclidean
        assert engine.add(rng.random(2)) == n_before

    def test_failed_add_leaves_later_results_unchanged(self, rng):
        # The failed add must not consume anything later inserts depend on,
        # such as the level draw of the HNSW's random generator.
        data = rng.random((400, 4))
        bad = object()

        def fragile(a, b):
            if a is bad or b is bad:
                return float("nan")
            return distances.euclidean(a, b)

        def run(fail_at):
            engine = FISHDBC(fragile, minpts=5, rng_seed=3)
            for k, row in enumerate(data):
                if k == fail_at:
                    with pytest.raises(DistanceError):
                        engine.add(bad)
                engine.add(row)
            labels = engine.cluster().labels.tolist()
            return engine.distance_calls, engine.forest_edges(), labels

        assert run(fail_at=49) == run(fail_at=None)

    def test_replay_oracle_weights(self, rng):
        # After a flush, the forest must be the minimum spanning forest of
        # every computed pair weighted by the mutual reachability distance
        # that the known distances imply, recomputed by replaying the pair
        # log. A flush after every add puts many flushes in between.
        minpts = 4
        engine = FISHDBC(distances.euclidean, minpts=minpts, ef=20, record_pairs=True)
        for k, row in enumerate(rng.random((120, 2)), 1):
            engine.add(row)
            engine.flush()
            if k % 10:
                continue
            pairs = engine.pair_log()
            # Replay: rebuild each item's neighbor list from the log alone.
            known = {i: [] for i in range(k)}
            for (i, j), d in pairs.items():
                known[i].append(d)
                known[j].append(d)
            cores = {}
            for i, dists in known.items():
                dists.sort()
                cores[i] = dists[minpts - 1] if len(dists) >= minpts else math.inf
            lo, hi = (np.array(ends, dtype=np.int64) for ends in zip(*pairs))
            w = np.array([max(d, cores[i], cores[j]) for (i, j), d in pairs.items()])
            expected = [(int(a), int(b), float(c))
                        for a, b, c in zip(*spanning_forest(lo, hi, w, k))]
            assert engine.forest_edges() == expected, k

    def test_buffer_bound_after_every_add(self, rng):
        # add() flushes whenever the log exceeds ALPHA * n, so the bound is
        # exact, with no slack for the last insertion's pushes. These 10-d
        # points make add() flush several times.
        engine = FISHDBC(distances.euclidean)
        for k in range(300):
            engine.add(rng.random(10))
            assert len(engine._buf) <= ALPHA * engine.n
        assert engine.forest_edges()
        # Stored edges stay linear in n: forest plus buffer.
        total = len(engine.forest_edges()) + len(engine._buf)
        assert total <= (engine.n - 1) + ALPHA * engine.n


class TestCluster:
    def test_single_item_is_noise(self):
        engine = FISHDBC(distances.euclidean, minpts=2)
        engine.add(np.zeros(2))
        result = engine.cluster()
        assert result.labels.tolist() == [-1]
        assert result.condensed.clusters == []
        assert result.condensed.events == [(0, -1, 0.0)]
        assert result.n_clusters == 0

    def test_empty_state_rejected(self):
        engine = FISHDBC(distances.euclidean)
        with pytest.raises(ValueError, match="nothing to cluster"):
            engine.cluster()

    def test_two_blobs_match_brute_force(self, rng):
        data = two_blob_points(rng, per_blob=100, sep=10.0, std=0.05)
        engine = FISHDBC(distances.euclidean, minpts=5, rng_seed=3)
        for row in data:
            engine.add(row)
        result = engine.cluster()
        assert result.n_clusters == 2
        assert result.n_clustered >= 0.9 * 200

        # Full-matrix exact pipeline agrees on the partition.
        diff = data[:, None, :] - data[None, :, :]
        matrix = np.sqrt((diff**2).sum(-1))
        exact = oracle.exact_cluster(matrix, 5, 5)
        assert canonical_labels(result.labels) == canonical_labels(exact.labels)

    def test_repeatable_without_adds(self, rng):
        engine = FISHDBC(distances.euclidean, minpts=3, rng_seed=1)
        for _ in range(60):
            engine.add(rng.random(2))
        first = engine.cluster()
        second = engine.cluster()
        assert first.labels.tolist() == second.labels.tolist()
        assert first.condensed.clusters == second.condensed.clusters

    def test_larger_mcs_never_yields_smaller_clusters(self, rng):
        data = two_blob_points(rng, per_blob=60)
        engine = FISHDBC(distances.euclidean, minpts=5, rng_seed=9)
        for row in data:
            engine.add(row)
        small = engine.cluster(min_cluster_size=5)
        large = engine.cluster(min_cluster_size=20)
        counts = {}
        for lbl in large.labels.tolist():
            if lbl >= 0:
                counts[lbl] = counts.get(lbl, 0) + 1
        assert all(c >= 20 for c in counts.values())
        assert large.n_clusters <= small.n_clusters

    def test_labels_name_selected_clusters_of_min_size(self, rng):
        engine = FISHDBC(distances.euclidean, minpts=4, rng_seed=11)
        for _ in range(150):
            engine.add(rng.random(2))
        result = engine.cluster(min_cluster_size=6)
        selected = result.condensed.selected_ids()
        assert sorted(set(result.labels[result.labels >= 0])) == list(
            range(len(selected))
        )
        for cid in selected:
            assert tree_size_ok(result.condensed, cid, 6)


def tree_size_ok(tree, cid, m_cs):
    return tree.clusters[cid].size >= m_cs


class TestDeterminismAndIncrementality:
    def test_fixed_seed_bit_identical(self, rng):
        data = rng.random((120, 3))

        def run():
            engine = FISHDBC(distances.euclidean, minpts=4, ef=15, rng_seed=77)
            for row in data:
                engine.add(row)
            result = engine.cluster()
            engine.flush()
            return engine.forest_edges(), result.labels.tolist()

        edges1, labels1 = run()
        edges2, labels2 = run()
        assert edges1 == edges2
        assert labels1 == labels2

    def test_interleaved_clustering_preserves_final_forest(self, rng):
        data = rng.random((130, 2))

        def run(interleave):
            engine = FISHDBC(distances.euclidean, minpts=4, ef=15, rng_seed=5)
            for k, row in enumerate(data):
                engine.add(row)
                if interleave and k % 25 == 24:
                    engine.cluster()
            result = engine.cluster()
            weights = sorted(w for _, _, w in engine.forest_edges())
            return weights, result.labels.tolist()

        w_plain, labels_plain = run(False)
        w_inter, labels_inter = run(True)
        assert w_plain == w_inter
        assert canonical_labels(labels_plain) == canonical_labels(labels_inter)

    def test_flush_during_idle_time_is_equivalent(self, rng):
        data = rng.random((80, 2))

        def run(flush_every):
            engine = FISHDBC(distances.euclidean, minpts=3, rng_seed=6)
            for k, row in enumerate(data):
                engine.add(row)
                if flush_every and k % flush_every == 0:
                    engine.flush()
            engine.flush()
            return sorted(w for _, _, w in engine.forest_edges())

        assert run(None) == run(7)


class TestStateSizeInvariant:
    def test_candidate_weights_monotone(self, rng):
        # The weight a flush gives a pair never increases from one flush to
        # the next.
        from fishdbc.msf import CandidateBuffer

        seen = {}

        class CheckingBuffer(CandidateBuffer):
            def weigh(self, core):
                super().weigh(core)
                lo, hi, w = buffered_entries(self)
                for key, v in zip(zip(lo.tolist(), hi.tolist()), w.tolist()):
                    if key in seen:
                        assert v <= seen[key]
                    seen[key] = v

        engine = FISHDBC(distances.euclidean, minpts=3, rng_seed=2)
        engine._buf = CheckingBuffer()
        for _ in range(120):
            engine.add(rng.random(2))
            engine.flush()
        assert seen


def unordered(a, b):
    return (a, b) if a < b else (b, a)


class TestDistanceReuse:
    def test_known_pairs_never_reach_distance(self, rng):
        # Payloads carry their id so the log can name the pair evaluated.
        points = rng.random((300, 3))
        evaluated = []

        def logged(a, b):
            evaluated.append(unordered(a[0], b[0]))
            return distances.euclidean(a[1], b[1])

        engine = FISHDBC(logged, minpts=5, rng_seed=4)
        for i, p in enumerate(points):
            known = set()
            for layer0 in engine._hnsw._layers[:1]:
                for x, adj in layer0.items():
                    known.update(unordered(x, y) for y in adj)
            for x, dists in engine._neighbors.dists.items():
                known.update(unordered(x, y) for y in dists)
            evaluated.clear()
            engine.add((i, p))
            assert len(set(evaluated)) == len(evaluated)
            assert not known.intersection(evaluated)

    def test_duplicates_stay_below_brute_force(self):
        # 5 distinct points, 200 copies each: distance ties everywhere.
        rng = np.random.default_rng(5)
        data = np.repeat(rng.random((5, 4)), 200, axis=0)[rng.permutation(1000)]
        engine = FISHDBC(distances.euclidean, minpts=10, ef=20, rng_seed=5)
        for p in data:
            engine.add(p)
        n = engine.n
        assert engine.distance_calls / n < (n - 1) / 2


class TestBatchedTap:
    """The built-in Euclidean is evaluated a neighbor list at a time; a
    wrapped copy of it takes the scalar path. Both must build the same
    engine."""

    @staticmethod
    def state(engine):
        labels = engine.cluster().labels.tolist()
        return engine.distance_calls, engine.forest_edges(), labels, engine.pair_log()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_batched_and_scalar_paths_build_the_same_engine(self, seed):
        rng = np.random.default_rng(seed)
        X, _ = dataio.generate_blobs(1000, dim=10, centers=5, rng=rng)
        states = []
        for distance in (distances.euclidean, lambda a, b: distances.euclidean(a, b)):
            engine = FISHDBC(distance, rng_seed=seed, record_pairs=True)
            for row in X:
                engine.add(row)
            states.append(self.state(engine))
        assert states[0] == states[1]

    def test_nan_in_a_batch_is_atomic(self, monkeypatch):
        # A NaN payload fails at its first distance, which is to the entry
        # point and scalar. To fail inside a batched neighbor-list
        # expansion instead, every stored payload but the entry point's
        # turns NaN for one add() and is restored after it.
        data = np.random.default_rng(6).random((400, 4))
        batches = []
        many = distances.euclidean_many

        def spy(a, bs):
            values = many(a, bs)
            batches.append(any(math.isnan(v) for v in values))
            return values

        monkeypatch.setitem(distances.MANY, distances.euclidean, spy)

        def unflushed(engine):
            layers = [{x: dict(adj) for x, adj in layer.items()}
                      for layer in engine._hnsw._layers]
            return (engine.n, engine.distance_calls, len(engine._buf),
                    engine.pair_log(), layers)

        def run(fail_at):
            rows = [row.copy() for row in data]
            engine = FISHDBC(distances.euclidean, minpts=5, rng_seed=3, record_pairs=True)
            for k, row in enumerate(rows):
                if k == fail_at:
                    before = unflushed(engine)
                    saved = [r.copy() for r in rows[:k]]
                    for i in range(k):
                        if i != engine._hnsw._entry:
                            rows[i][:] = np.nan
                    batches.clear()
                    with pytest.raises(DistanceError):
                        engine.add(row.copy())
                    assert batches[-1]  # the failure came from a batch
                    for r, s in zip(rows, saved):
                        r[:] = s
                    assert unflushed(engine) == before
                engine.add(row)
            return self.state(engine)

        assert run(fail_at=300) == run(fail_at=None)


class TestJaroWinklerKernel:
    """The built-in Jaro-Winkler scans with ``str.find``; the index-loop
    reference must build the same engine from the same strings."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_find_and_loop_kernels_build_the_same_engine(self, seed):
        strings = noisy_strings(400, np.random.default_rng(seed))
        states = []
        for distance in (distances.jaro_winkler, loop_jaro_winkler):
            engine = FISHDBC(distance, rng_seed=seed, record_pairs=True)
            for s in strings:
                engine.add(s)
            states.append(TestBatchedTap.state(engine))
        assert states[0] == states[1]


class ReferenceFISHDBC(FISHDBC):
    """The former ``add``, kept as the reference for FISHDBC.add: every
    triple is offered to both endpoints' sets, and cores and members are
    read through ``core_distance()`` and ``members()``."""

    def add(self, payload):
        x = len(self._items)
        self._items.append(payload)
        try:
            triples, raw = self._hnsw.insert(x)
        except BaseException:
            self._items.pop()
            raise
        self._distance_calls += raw
        ns = self._neighbors
        ns.fill(x, ())

        changed = {}
        evictions = []
        for a, b, v in triples:
            improved, ev = ns.observe(a, b, v)
            if improved:
                changed[a] = True
                if ev is not None:
                    evictions.append((a, ev[0], ev[1]))
            improved, ev = ns.observe(b, a, v)
            if improved:
                changed[b] = True
                if ev is not None:
                    evictions.append((b, ev[0], ev[1]))

        if self._pairs is not None:
            log = self._pairs
            for a, b, v in triples:
                key = (a << 32) | b
                cur = log.get(key)
                if cur is None or v < cur:
                    log[key] = v

        buf = self._buf
        core = ns.core_distance
        before = len(buf)
        for a, b, v in chain(triples, evictions):
            w = v
            c = core(a)
            if c > w:
                w = c
            c = core(b)
            if c > w:
                w = c
            buf.push(a, b, w)
        for y in changed:
            cy = core(y)
            for z, d in ns.members(y):
                w = d if d > cy else cy
                cz = core(z)
                if cz > w:
                    w = cz
                buf.push(y, z, w)
        self.last_add_pushes = len(buf) - before

        if len(buf) > ALPHA * len(self._items):
            self.flush()
        return x


def blob_rows(seed):
    rows, _ = dataio.generate_blobs(600, dim=10, centers=5, rng=np.random.default_rng(seed))
    return list(rows)


def string_items(seed):
    return noisy_strings(400, np.random.default_rng(seed))


def duplicate_rows(seed):
    """5 distinct 4-d points x 40 copies, shuffled: in most insertions
    more of the new item's triples tie at its core distance than its set
    can keep."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(rng.random((5, 4)), 40, axis=0)
    return list(rows[rng.permutation(len(rows))])


class TestCoreFilter:
    """``add`` offers a distance to a set only when it beats that set's core
    distance, fills the new item's set at once from its own triples, and
    appends raw distances that the flush weighs, with every pair a changed
    row holds re-supplied once per flush. The reference offers every
    distance to both sets and, after every insertion, pushes every triple,
    eviction and changed row's entry with its settled weight. Both must
    hold the same sets, cores and call count after every insertion, and
    the same forest after a flush."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "distance, items",
        [(distances.euclidean, blob_rows), (distances.jaro_winkler, string_items),
         (distances.euclidean, duplicate_rows)],
        ids=["blobs", "strings", "duplicates"],
    )
    def test_same_state_as_reference_after_every_add(self, distance, items, seed):
        engines = [cls(distance, rng_seed=seed, record_pairs=True)
                   for cls in (FISHDBC, ReferenceFISHDBC)]
        for k, item in enumerate(items(seed), 1):
            states = []
            for engine in engines:
                engine.add(item)
                ns = engine._neighbors
                states.append((ns.dists, ns.core, engine.distance_calls))
            assert states[0] == states[1]
            # Several adds between flushes, so that a set can both fill and
            # evict a pair that the last flush dropped at weight +inf.
            if k % 7 == 0:
                for engine in engines:
                    engine.flush()
                assert engines[0].forest_edges() == engines[1].forest_edges()
        got, want = [(e.cluster().labels.tolist(), e.forest_edges(), e.pair_log())
                     for e in engines]
        assert got == want


def repeated_strings(seed):
    """60 noisy strings, each added 3 times, shuffled: zero distances tie."""
    rng = np.random.default_rng(seed)
    strings = noisy_strings(60, rng) * 3
    return [strings[i] for i in rng.permutation(len(strings))]


class TestBufferEntries:
    """``CandidateBuffer.push`` checks no values: the recorder validates
    every distance and the neighbor sets never pair an item with itself.
    On streams with ties and evictions, every entry the buffer holds after
    an add, and every entry a flush is about to weigh, has lo < hi < n and
    a finite raw weight >= 0."""

    @pytest.mark.parametrize(
        "distance, items",
        [(distances.euclidean, duplicate_rows), (distances.jaro_winkler, repeated_strings)],
        ids=["blobs", "strings"],
    )
    def test_entries_are_valid_raw_edges(self, distance, items):
        from fishdbc.msf import CandidateBuffer

        def check(buf, n):
            lo, hi, w = buffered_entries(buf)
            assert ((lo < hi) & (hi < n)).all()
            assert (np.isfinite(w) & (w >= 0.0)).all()

        class CheckingBuffer(CandidateBuffer):
            def weigh(self, core):
                check(self, len(core))
                super().weigh(core)

        engine = FISHDBC(distance, minpts=5, rng_seed=1)
        engine._buf = CheckingBuffer()
        ns = engine._neighbors
        evictions = [0]

        def observe(x, y, v):
            result = NeighborStore.observe(ns, x, y, v)
            evictions[0] += result[1] is not None
            return result

        ns.observe = observe
        for item in items(1):
            engine.add(item)
            check(engine._buf, engine.n)
        engine.flush()
        assert evictions[0] > 0
        # Duplicates tie at distance zero.
        assert any(0.0 in near.values() for near in ns.dists.values())


class TestFlushSchedule:
    """The forest is a minimum spanning forest of every edge pushed so far,
    whenever the flushes ran, so the flush threshold ALPHA leaves no trace:
    flushing after every add gives what the threshold's schedule gives."""

    @pytest.mark.parametrize(
        "distance, items",
        [(distances.euclidean, blob_rows), (distances.jaro_winkler, string_items)],
        ids=["blobs", "strings"],
    )
    def test_alpha_changes_no_output(self, distance, items):
        eager, lazy = (FISHDBC(distance, rng_seed=1, record_pairs=True)
                       for _ in range(2))
        for k, item in enumerate(items(1), 1):
            eager.add(item)
            eager.flush()
            lazy.add(item)
            if k % 25 == 0:
                # Only the lazy engine holds entries unflushed.
                assert len(eager._buf) == 0 < len(lazy._buf)
                got, want = ((e.cluster().labels.tolist(), e.forest_edges(),
                              e.distance_calls, e.pair_log())
                             for e in (eager, lazy))
                assert got == want


def test_no_heavy_runtime_imports():
    """Adding and clustering in a fresh interpreter imports no third-party
    package besides numpy: scipy's import alone costs about 0.35 s and 33 MB.
    """
    script = (
        "import sys\n"
        "import numpy as np\n"
        "points = np.random.default_rng(0).random((40, 2))\n"
        "before = {m.split('.')[0] for m in sys.modules}\n"
        "import fishdbc\n"
        "engine = fishdbc.FISHDBC(fishdbc.distances.euclidean, minpts=3)\n"
        "for p in points:\n"
        "    engine.add(p)\n"
        "assert len(engine.cluster().labels) == 40\n"
        "after = {m.split('.')[0] for m in sys.modules}\n"
        "print(fishdbc.__file__)\n"
        "print(sorted(after - before - set(sys.stdlib_module_names)))\n"
    )
    # The child imports the same package as this process: its root goes
    # first on the inherited PYTHONPATH.
    env = dict(os.environ)
    root = str(Path(fishdbc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    child_file, added = proc.stdout.splitlines()
    assert Path(child_file).resolve() == Path(fishdbc.__file__).resolve()
    assert added == "['fishdbc']"
