import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fishdbc
from helpers import buffered_weight, canonical_labels, noisy_strings, two_blob_points
from fishdbc import FISHDBC, DistanceError, dataio, distances
from fishdbc import oracle
from test_distances import loop_jaro_winkler


class TestConfig:
    def test_defaults(self):
        engine = FISHDBC(distances.euclidean)
        assert engine._neighbors.minpts == 10
        assert engine._hnsw._ef == 20
        assert engine.min_cluster_size == 10
        assert engine.alpha == 32.0
        # HNSW degrees and level multiplier follow from minpts alone.
        assert engine._hnsw._m == 10
        assert engine._hnsw._m0 == 20
        assert engine._hnsw._level_mult == 1.0 / math.log(10)

    def test_mcs_defaults_to_minpts(self):
        assert FISHDBC(distances.euclidean, minpts=7).min_cluster_size == 7

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"minpts": 1}, "minpts"),
            ({"ef": 0}, "ef"),
            ({"min_cluster_size": 1}, "min_cluster_size"),
            ({"alpha": 0.5}, "alpha"),
        ],
    )
    def test_bounds_reported(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            FISHDBC(distances.euclidean, **kwargs)


class TestSetup:
    def test_empty_state(self):
        engine = FISHDBC(distances.euclidean)
        assert engine.n == 0
        assert engine.candidate_count == 0
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
        for knob, value in (("hnsw_m", 5), ("hnsw_m0", 10), ("level_mult", 0.5)):
            with pytest.raises(TypeError, match=knob):
                FISHDBC(distances.euclidean, **{knob: value})


class TestAdd:
    def test_first_item(self):
        engine = FISHDBC(distances.euclidean)
        assert engine.add(np.zeros(2)) == 0
        assert engine.distance_calls == 0
        assert engine.candidate_count == 0

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
        cand_before = engine.candidate_count

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
        assert engine.candidate_count == cand_before
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
        # Every computed pair must appear in candidates plus forest with
        # weight equal to the mutual reachability distance implied by the
        # currently known heaps, recomputed by replaying the pair log.
        minpts = 4
        engine = FISHDBC(distances.euclidean, minpts=minpts, ef=20, record_pairs=True)
        data = rng.random((50, 2))
        for row in data:
            engine.add(row)
        pairs = engine.pair_log()
        # Replay: rebuild each item's neighbor list from the log alone.
        known = {i: [] for i in range(50)}
        for (i, j), d in pairs.items():
            known[i].append(d)
            known[j].append(d)
        cores = {}
        for i, dists in known.items():
            dists.sort()
            cores[i] = dists[minpts - 1] if len(dists) >= minpts else math.inf
        forest = {(lo, hi): w for lo, hi, w in engine.forest_edges()}
        for (i, j), d in pairs.items():
            expected = max(d, cores[i], cores[j])
            stored = buffered_weight(engine._buf, i, j)
            if stored is None:
                stored = forest.get((i, j))
            assert stored == expected, (i, j)

    def test_buffer_bound_after_every_add(self, rng):
        alpha = 2.0
        engine = FISHDBC(distances.euclidean, minpts=3, ef=10, alpha=alpha)
        for k in range(300):
            engine.add(rng.random(2))
            n = engine.n
            assert engine.candidate_count <= alpha * n + engine.last_add_pushes
        # Stored edges stay linear in n: forest plus buffer.
        total = len(engine.forest_edges()) + engine.candidate_count
        assert total <= (engine.n - 1) + alpha * engine.n + engine.last_add_pushes


class TestCluster:
    def test_single_item_is_noise(self):
        engine = FISHDBC(distances.euclidean, minpts=2)
        engine.add(np.zeros(2))
        result = engine.cluster()
        assert result.labels.tolist() == [-1]
        assert result.condensed.clusters == []
        assert result.n_clusters == 0

    def test_empty_state_rejected(self):
        engine = FISHDBC(distances.euclidean)
        with pytest.raises(ValueError, match="nothing to cluster"):
            engine.cluster()

    def test_two_blobs_match_brute_force(self, rng):
        data = two_blob_points(rng, per_blob=100, sep=10.0, std=0.05)
        engine = FISHDBC(distances.euclidean, minpts=5, min_cluster_size=5, rng_seed=3)
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
        # The best-known weight of a pair never increases, flushes included.
        from fishdbc.msf import CandidateBuffer

        seen = {}

        class CheckingBuffer(CandidateBuffer):
            def push(self, a, b, w):
                key = (min(a, b), max(a, b))
                super().push(a, b, w)
                stored = buffered_weight(self, *key)
                if key in seen:
                    assert stored <= seen[key]
                seen[key] = stored

        engine = FISHDBC(distances.euclidean, minpts=3, rng_seed=2)
        engine._buf = CheckingBuffer()
        for _ in range(120):
            engine.add(rng.random(2))
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
            return (engine.n, engine.distance_calls, engine.candidate_count,
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
