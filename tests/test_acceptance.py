"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import canonical_labels
from fishdbc import FISHDBC, dataio, distances, metrics, oracle
from fishdbc.hierarchy import build_dendrogram, condense, extract_flat
from fishdbc.msf import CandidateBuffer, Msf, update_msf

from test_metrics import ami_oracle, ari_pair_oracle


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{name}]: PASS")


def run_engine(payloads, distance, minpts, ef, seed, **kwargs):
    engine = FISHDBC(
        distance, minpts=minpts, ef=ef, rng_seed=seed, record_pairs=True, **kwargs
    )
    for p in payloads:
        engine.add(p)
    return engine


def test_criterion_1_masked_matrix_equivalence():
    """The engine's output is a valid exact clustering of the distance
    matrix restricted to the pairs it actually computed.
    """
    with criterion(1, "masked-matrix equivalence"):
        for trial in range(50):
            rng = np.random.default_rng(4000 + trial)
            n = int(rng.integers(50, 201))
            minpts = int(rng.choice([3, 5, 10]))
            if trial % 2 == 0:
                data = rng.random((n, 2))
                payloads = [data[i] for i in range(n)]
                dist = distances.euclidean
            else:
                payloads = [
                    frozenset(rng.integers(0, 40, size=10).tolist())
                    for _ in range(n)
                ]
                dist = distances.jaccard
            engine = run_engine(payloads, dist, minpts, ef=20, seed=trial)
            result = engine.cluster()
            masked = oracle.matrix_from_pairs(n, engine.pair_log())
            exact = oracle.exact_cluster(masked, minpts, engine.min_cluster_size)

            # Mutual-reachability weights tie through shared core distances;
            # both sides break ties by (w, lo, hi), so the forests must agree
            # edge for edge and the partitions exactly.
            got = sorted((w, lo, hi) for lo, hi, w in engine.forest_edges())
            lo, hi, w = oracle.exact_msf(masked, minpts)
            want = sorted(zip(w.tolist(), lo.tolist(), hi.tolist()))
            assert got == want, f"trial {trial}: forest differs"
            assert canonical_labels(result.labels) == canonical_labels(
                exact.labels
            ), f"trial {trial}: partition differs"


def test_criterion_2_infinite_edge_invariance():
    """Appending infinite-weight edges to the reachability edge list never
    changes the labels the pipeline produces.
    """
    with criterion(2, "infinite-edge invariance"):
        for trial in range(20):
            rng = np.random.default_rng(5000 + trial)
            n = int(rng.integers(30, 120))
            pts = rng.random((n, 2))
            matrix = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
            # Mask a fraction so the reachability graph is not complete.
            for _ in range(n // 3):
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    matrix[i, j] = matrix[j, i] = math.inf
            minpts = int(rng.choice([3, 5]))
            base = oracle.exact_cluster(matrix, minpts, minpts)

            cores = oracle.exact_core_distances(matrix, minpts)
            reach = oracle.mutual_reachability(matrix, cores)
            lo, hi = np.triu_indices(n, 1)
            w = reach[lo, hi]
            finite = np.isfinite(w)
            buf = CandidateBuffer()
            for a, b, weight in zip(lo[finite], hi[finite], w[finite]):
                buf.push(int(a), int(b), float(weight))
            extra = int(rng.integers(1, n + 1))
            for _ in range(extra):
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    buf.push(int(i), int(j), math.inf)
            msf = Msf()
            update_msf(msf, buf, n)
            dend = build_dendrogram(msf.lo, msf.hi, msf.weight, n)
            tree = condense(dend, minpts)
            flat = extract_flat(tree)
            assert canonical_labels(flat.labels) == canonical_labels(base.labels), (
                f"trial {trial}: labels changed after injecting {extra} inf edges"
            )


def test_criterion_3_incremental_msf_correctness():
    """Arbitrary batch splits of an edge stream end in the same forest
    weight multiset as one-shot Kruskal over everything.
    """

    def oneshot(edges, n):
        parent = {i: i for i in range(n)}

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        weights = []
        for w, lo, hi in sorted((w, lo, hi) for lo, hi, w in edges):
            ra, rb = find(lo), find(hi)
            if ra != rb:
                parent[ra] = rb
                weights.append(w)
        return sorted(weights)

    with criterion(3, "incremental forest maintenance"):
        for trial in range(100):
            rng = np.random.default_rng(6000 + trial)
            n = int(rng.integers(10, 201))
            max_edges = n * (n - 1) // 2
            m = int(rng.integers(n, min(1000, max_edges) + 1))
            pair_ids = rng.choice(max_edges, size=m, replace=False)
            lo_all, hi_all = np.triu_indices(n, 1)
            edges = [
                (int(lo_all[k]), int(hi_all[k]), float(rng.random() * 100))
                for k in pair_ids
            ]
            msf = Msf()
            buf = CandidateBuffer()
            k = 0
            while k < m:
                batch = int(rng.integers(1, m - k + 1))
                for lo, hi, w in edges[k : k + batch]:
                    buf.push(lo, hi, w)
                update_msf(msf, buf, n)
                k += batch
            assert sorted(msf.weight.tolist()) == oneshot(edges, n), f"trial {trial}"


def _blob_run(dim, seed, out_dir=None):
    rng = np.random.default_rng(seed)
    X, truth = dataio.generate_blobs(2000, dim, centers=10, std=1.0, rng=rng)
    engine = FISHDBC(
        distances.euclidean, minpts=10, ef=20, rng_seed=seed
    )
    for row in X:
        engine.add(row)
    result = engine.cluster()
    if out_dir is not None:
        dataio.write_result(result, out_dir)
    return metrics.starred(metrics.ami, truth, result.labels)


def test_criterion_4_blob_quality():
    """Ten-center Gaussian blobs at desk scale keep a high noise-penalized
    agreement with the generating labels.
    """
    with criterion(4, "blob quality"):
        for dim in (100, 1000):
            scores = [_blob_run(dim, seed) for seed in range(10)]
            mean = float(np.mean(scores))
            print(f"(criterion 4: dim={dim} mean AMI*={mean:.3f})")
            assert mean >= 0.90, f"dim={dim}: mean AMI* {mean:.3f} < 0.90"


def test_criterion_5_transaction_quality():
    """Disjoint transaction clusters under Jaccard distance."""
    with criterion(5, "set-transaction quality"):
        rng = np.random.default_rng(42)
        payloads, truth = dataio.generate_transactions(
            2000, dim=1024, clusters=5, fill=0.5, rng=rng
        )
        engine = FISHDBC(distances.jaccard, minpts=10, ef=50, rng_seed=7)
        for p in payloads:
            engine.add(p)
        result = engine.cluster()
        score = metrics.starred(metrics.ami, truth, result.labels)
        print(f"(criterion 5: AMI*={score:.3f})")
        assert score >= 0.90


@pytest.fixture(scope="module")
def scaling_run():
    """Shared 20,000-point run for criteria 6 and 7."""
    rng = np.random.default_rng(123)
    data = rng.random((20000, 10))
    alpha = 32.0
    engine = FISHDBC(distances.euclidean, minpts=10, ef=20, alpha=alpha, rng_seed=99)
    per_insert_calls = np.empty(20000, dtype=np.int64)
    bound_ok = True
    max_ratio = 0.0
    prev = 0
    for k in range(20000):
        engine.add(data[k])
        per_insert_calls[k] = engine.distance_calls - prev
        prev = engine.distance_calls
        n = engine.n
        if engine.candidate_count > alpha * n + engine.last_add_pushes:
            bound_ok = False
        ratio = (len(engine._msf) + engine.candidate_count) / n
        if ratio > max_ratio:
            max_ratio = ratio
    return per_insert_calls, bound_ok, max_ratio


def test_criterion_6_distance_call_scaling(scaling_run):
    """Calls per inserted item plateau: the late-stream mean stays within
    twice the early-stream mean.
    """
    with criterion(6, "distance-call scaling"):
        per_insert_calls, _, _ = scaling_run
        early = float(per_insert_calls[2500:5000].mean())
        late = float(per_insert_calls[15000:].mean())
        print(f"(criterion 6: early mean={early:.1f} late mean={late:.1f})")
        assert late <= 2.0 * early
        # Concave trend quartile-to-quartile as well.
        first_quartile = float(per_insert_calls[:5000].mean())
        assert late <= 2.0 * first_quartile


def test_criterion_7_buffer_bound(scaling_run):
    """Candidate buffer stays within alpha * n plus the insertion burst and
    total stored edges stay linear in n.
    """
    with criterion(7, "candidate buffer bound"):
        _, bound_ok, max_ratio = scaling_run
        print(f"(criterion 7: max stored-edges/n ratio={max_ratio:.1f})")
        assert bound_ok, "|candidates| exceeded alpha*n + burst after an add"
        assert max_ratio <= 33.0  # n-1 forest edges plus alpha*n candidates


def test_criterion_8_metric_correctness():
    """AMI/ARI agree with independent pair-enumeration and hypergeometric
    oracles to 1e-9; the starred construction penalizes noise.
    """
    with criterion(8, "metric correctness"):
        rng = np.random.default_rng(2024)
        for trial in range(100):
            n = 200
            ref = rng.integers(0, int(rng.integers(2, 6)), size=n).tolist()
            pred = rng.integers(0, int(rng.integers(2, 6)), size=n).tolist()
            assert metrics.ari(ref, pred) == pytest.approx(
                ari_pair_oracle(ref, pred), abs=1e-9
            )
            assert metrics.ami(ref, pred) == pytest.approx(
                ami_oracle(ref, pred), abs=1e-9
            )
        ref = [0] * 5 + [1] * 5 + [2] * 5 + [3] * 5
        pred = [0] * 5 + [1] * 5 + [-1] * 10
        cref, cpred = metrics.drop_noise(ref, pred)
        assert metrics.ami(cref, cpred) == pytest.approx(1.0)
        assert metrics.starred(metrics.ami, ref, pred) < 1.0


def test_criterion_9_determinism(tmp_path):
    """Re-running a blob experiment with the same seed writes byte-identical
    label files.
    """
    with criterion(9, "determinism"):
        _blob_run(100, seed=3, out_dir=tmp_path / "a")
        _blob_run(100, seed=3, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "labels.csv").read_bytes()
        b = (tmp_path / "b" / "labels.csv").read_bytes()
        assert a == b
