import math

import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet, linkage
from scipy.spatial.distance import squareform

from helpers import canonical_labels, write_matrix
from fishdbc import dataio, oracle
from fishdbc.hierarchy import build_dendrogram

INF = math.inf


def pairwise_euclidean(points):
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff**2).sum(-1))


class TestExactCoreDistances:
    def test_equilateral(self):
        m = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert oracle.exact_core_distances(m, 2).tolist() == [1.0, 1.0, 1.0]

    def test_insufficient_finite_neighbors(self):
        m = np.array(
            [
                [0.0, 2.0, 5.0, INF],
                [2.0, 0.0, INF, INF],
                [5.0, INF, 0.0, INF],
                [INF, INF, INF, 0.0],
            ]
        )
        cores = oracle.exact_core_distances(m, 3)
        assert cores[0] == INF  # finite entries {2, 5} only

    def test_minpts_beyond_n(self):
        m = np.zeros((3, 3))
        assert (oracle.exact_core_distances(m, 5) == INF).all()

    def test_minpts_below_one_rejected(self):
        with pytest.raises(ValueError, match="minpts must be >= 1"):
            oracle.exact_core_distances(np.zeros((3, 3)), 0)

    def test_matches_independent_sort(self, rng):
        points = rng.random((20, 3))
        m = pairwise_euclidean(points)
        minpts = 4
        cores = oracle.exact_core_distances(m, minpts)
        for i in range(20):
            row = sorted(m[i, j] for j in range(20) if j != i)
            assert cores[i] == row[minpts - 1]


class TestMutualReachability:
    def test_distance_dominates(self):
        m = np.array([[0.0, 5.0], [5.0, 0.0]])
        out = oracle.mutual_reachability(m, np.array([3.0, 4.0]))
        assert out[0, 1] == 5.0

    def test_core_dominates(self):
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        out = oracle.mutual_reachability(m, np.array([7.0, 4.0]))
        assert out[0, 1] == 7.0

    def test_infinity_absorbs(self):
        m = np.array([[0.0, INF], [INF, 0.0]])
        out = oracle.mutual_reachability(m, np.array([1.0, 1.0]))
        assert out[0, 1] == INF

    def test_diagonal_zero(self):
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        out = oracle.mutual_reachability(m, np.array([7.0, 4.0]))
        assert out[0, 0] == 0.0 and out[1, 1] == 0.0


class TestValidation:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            oracle.exact_cluster(np.zeros((2, 3)), 2)

    def test_rejects_negative_entries(self):
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match=">= 0"):
            oracle.exact_cluster(m, 2)

    def test_rejects_nan(self):
        m = np.zeros((2, 2))
        m[0, 1] = m[1, 0] = float("nan")
        with pytest.raises(ValueError, match="NaN"):
            oracle.exact_cluster(m, 2)

    def test_rejects_asymmetric(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            oracle.exact_cluster(m, 2)

    def test_rejects_nonzero_diagonal(self):
        m = np.eye(3)
        with pytest.raises(ValueError, match="diagonal"):
            oracle.exact_cluster(m, 2)

    def test_matrix_validated_once_per_call(self, rng, monkeypatch):
        # A check is a full pass over the matrix; exact_cluster runs
        # exact_msf and exact_core_distances but must pay for it once.
        calls = []
        real = oracle._validated
        monkeypatch.setattr(oracle, "_validated", lambda m: calls.append(1) or real(m))
        oracle.exact_cluster(pairwise_euclidean(rng.random((12, 2))), minpts=3)
        assert len(calls) == 1

    def test_refuses_large_matrices(self):
        m = np.zeros((oracle.MAX_N + 1, oracle.MAX_N + 1))
        with pytest.raises(ValueError, match="cap"):
            oracle.exact_cluster(m, 2)


class TestExactCluster:
    def test_empty_matrix_rejected_before_the_forest(self, monkeypatch):
        monkeypatch.setattr(oracle, "exact_msf", lambda *args: pytest.fail("built"))
        with pytest.raises(ValueError, match="at least one item"):
            oracle.exact_cluster(np.zeros((0, 0)), minpts=2)

    def test_single_item_noise(self):
        result = oracle.exact_cluster(np.zeros((1, 1)), minpts=2, m_cs=2)
        assert result.labels.tolist() == [-1]
        assert result.condensed.clusters == []

    def test_two_far_blobs(self, rng):
        a = rng.normal(0.0, 0.05, size=(30, 2))
        b = rng.normal(0.0, 0.05, size=(30, 2)) + np.array([10.0, 0.0])
        points = np.vstack([a, b])
        m = pairwise_euclidean(points)
        result = oracle.exact_cluster(m, minpts=5, m_cs=5)
        assert result.n_clusters == 2
        assert result.n_clustered >= 0.9 * 60
        # The two blobs end up in different flat clusters.
        assert len({int(l) for l in result.labels[:30] if l >= 0}) == 1
        assert len({int(l) for l in result.labels[30:] if l >= 0}) == 1
        assert set(result.labels[:30].tolist()) != set(result.labels[30:].tolist())

    def test_infinite_entries_are_harmless(self, rng):
        # Masking far-apart pairs with inf must not change the output.
        a = rng.normal(0.0, 0.05, size=(30, 2))
        b = rng.normal(0.0, 0.05, size=(30, 2)) + np.array([10.0, 0.0])
        points = np.vstack([a, b])
        m = pairwise_euclidean(points)
        base = oracle.exact_cluster(m, minpts=5, m_cs=5)
        masked = m.copy()
        cut = [(0, 35), (1, 40), (2, 45), (3, 50), (4, 55), (5, 59), (6, 58), (7, 57), (8, 56), (9, 55)]
        for i, j in cut:
            masked[i, j] = masked[j, i] = INF
        got = oracle.exact_cluster(masked, minpts=5, m_cs=5)
        assert canonical_labels(got.labels) == canonical_labels(base.labels)

    def test_all_masked_everything_noise(self):
        m = oracle.matrix_from_pairs(10, {})
        result = oracle.exact_cluster(m, minpts=2, m_cs=2)
        assert result.labels.tolist() == [-1] * 10

    def test_mcs_defaults_to_minpts(self, rng):
        points = rng.random((40, 2))
        m = pairwise_euclidean(points)
        assert (
            oracle.exact_cluster(m, 4).labels.tolist()
            == oracle.exact_cluster(m, 4, 4).labels.tolist()
        )


def cophenetic(dend):
    """Condensed cophenetic distances of a single-tree dendrogram: the merge
    height at which each pair i < j first shares a component."""
    n = dend.n_points
    members = [[i] for i in range(n)]
    out = np.zeros((n, n))
    for l, r, w in zip(dend.left.tolist(), dend.right.tolist(), dend.weight.tolist()):
        a, b = members[l], members[r]
        out[np.ix_(a, b)] = w
        out[np.ix_(b, a)] = w
        members.append(a + b)
    return squareform(out, checks=False)


class TestExternalCrossValidation:
    def test_single_linkage_matches_scipy_cophenetic(self):
        # scipy's single linkage on the full mutual-reachability matrix is an
        # independent route to build_dendrogram over exact_msf. Cophenetic
        # distances do not depend on how tied weights are broken, merge
        # sizes do; mutual reachability ties often (shared core distances).
        for trial in range(50):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(5, 61))
            minpts = int(rng.integers(2, min(5, n - 1) + 1))
            m = pairwise_euclidean(rng.random((n, int(rng.integers(1, 6)))))
            mr = oracle.mutual_reachability(m, oracle.exact_core_distances(m, minpts))
            theirs = cophenet(linkage(squareform(mr, checks=False), "single"))
            ours = cophenetic(build_dendrogram(*oracle.exact_msf(m, minpts), n))
            assert np.array_equal(ours, theirs), f"trial {trial}"

    def test_close_agreement_with_sklearn(self):
        # Independent end-to-end route. Ties in mutual reachability admit
        # several valid outputs, so boundary points may flip; demand equal
        # cluster counts and near-identical memberships instead of equality.
        sklearn_cluster = pytest.importorskip("sklearn.cluster")
        from fishdbc import metrics

        for trial in range(5):
            rng = np.random.default_rng(trial)
            k = int(rng.integers(2, 5))
            centers = rng.uniform(0, 20, size=(k, 2))
            pts = np.vstack(
                [centers[rng.integers(k)] + rng.normal(0, 0.3, 2) for _ in range(200)]
            )
            m = pairwise_euclidean(pts)
            minpts = 5
            ours = oracle.exact_cluster(m, minpts, minpts)
            # Their neighborhood count includes the point itself.
            theirs = sklearn_cluster.HDBSCAN(
                min_cluster_size=minpts,
                min_samples=minpts + 1,
                metric="precomputed",
                allow_single_cluster=False,
            ).fit(m)
            n_ours = len({int(l) for l in ours.labels if l >= 0})
            n_theirs = len({int(l) for l in theirs.labels_ if l >= 0})
            assert n_ours == n_theirs
            score = metrics.starred(metrics.ami, theirs.labels_, ours.labels)
            assert score >= 0.95, f"trial {trial}: AMI* vs sklearn = {score:.3f}"


class TestMatrixIO:
    def test_round_trip(self, tmp_path, rng):
        points = rng.random((12, 2))
        m = pairwise_euclidean(points)
        m[3, 7] = m[7, 3] = INF
        path = tmp_path / "matrix.txt"
        write_matrix(path, m)
        back = dataio.read_matrix(path)
        assert np.array_equal(back, m)

    def test_inf_token(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3\n1.0 inf\n2.0\n")
        m = dataio.read_matrix(path)
        assert m[0, 2] == INF and m[2, 0] == INF
        assert m[0, 1] == 1.0 and m[1, 2] == 2.0

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3\n1.0\n")
        with pytest.raises(dataio.ParseError, match="m.txt: expected 3"):
            dataio.read_matrix(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x\n1.0 2.0 1.0\n", "item count"),
            ("", "item count"),
            ("-2\n", "item count must be >= 0"),
            ("3\n1.0 x 1.0\n", "could not convert"),
            ("3\n-1.0 2.0 1.0\n", "entry 1 is -1.0, not >= 0"),
            ("3\n1.0 nan 1.0\n", "entry 2 is nan, not >= 0"),
        ],
        ids=["bad-count", "empty", "negative-count", "bad-entry", "negative-entry", "nan-entry"],
    )
    def test_bad_file_names_itself(self, tmp_path, text, message):
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(dataio.ParseError, match=f"m.txt: .*{message}"):
            dataio.read_matrix(path)


class TestMatrixFromPairs:
    def test_empty_log(self):
        m = oracle.matrix_from_pairs(3, {})
        assert (m.diagonal() == 0).all()
        off = m[~np.eye(3, dtype=bool)]
        assert (off == INF).all()

    def test_recorded_pairs_kept(self):
        m = oracle.matrix_from_pairs(3, {(0, 2): 1.5})
        assert m[0, 2] == 1.5 and m[2, 0] == 1.5
        assert m[0, 1] == INF
