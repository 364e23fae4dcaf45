import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import hypergeom

from fishdbc import distances, metrics


def ari_pair_oracle(ref, pred):
    """Independent route: classify every item pair as agreeing or not and
    use the closed form over the four pair-category counts.
    """
    n11 = n10 = n01 = n00 = 0
    for i, j in combinations(range(len(ref)), 2):
        same_ref = ref[i] == ref[j]
        same_pred = pred[i] == pred[j]
        if same_ref and same_pred:
            n11 += 1
        elif same_ref:
            n10 += 1
        elif same_pred:
            n01 += 1
        else:
            n00 += 1
    num = 2.0 * (n11 * n00 - n10 * n01)
    den = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if den == 0:
        return 1.0
    return num / den


def ami_oracle(ref, pred):
    """Independent route: scipy hypergeometric pmf for the expected mutual
    information, entropies from Counters.
    """
    n = len(ref)
    ca = Counter(ref)
    cb = Counter(pred)
    joint = Counter(zip(ref, pred))
    mi = 0.0
    for (r, c), nij in joint.items():
        mi += (nij / n) * math.log(n * nij / (ca[r] * cb[c]))
    ha = -sum((v / n) * math.log(v / n) for v in ca.values())
    hb = -sum((v / n) * math.log(v / n) for v in cb.values())
    if len(ca) == 1 and len(cb) == 1:
        return 1.0
    emi = 0.0
    for ai in ca.values():
        for bj in cb.values():
            lo = max(1, ai + bj - n)
            hi = min(ai, bj)
            for nij in range(lo, hi + 1):
                p = hypergeom.pmf(nij, n, ai, bj)
                emi += p * (nij / n) * math.log(n * nij / (ai * bj))
    denom = 0.5 * (ha + hb) - emi
    eps = np.finfo(np.float64).eps
    denom = max(denom, eps) if denom >= 0 else min(denom, -eps)
    return (mi - emi) / denom


class TestAri:
    def test_identical(self):
        assert metrics.ari([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0

    def test_single_cluster_both(self):
        assert metrics.ari([0, 0, 0], [5, 5, 5]) == 1.0

    def test_crosswise_matches_pair_enumeration(self):
        ref = [0, 0, 1, 1]
        pred = [0, 1, 0, 1]
        assert metrics.ari(ref, pred) == pytest.approx(
            ari_pair_oracle(ref, pred), abs=1e-12
        )

    def test_random_labelings_match_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(10, 60))
            ref = rng.integers(0, 4, size=n).tolist()
            pred = rng.integers(0, 3, size=n).tolist()
            assert metrics.ari(ref, pred) == pytest.approx(
                ari_pair_oracle(ref, pred), abs=1e-9
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            metrics.ari([0, 1], [0, 1, 2])

    def test_one_item_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            metrics.ari([0], [0])


class TestAmi:
    def test_identical(self):
        assert metrics.ami([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 4, 7, 8])
    def test_identical_singletons_score_one(self, n):
        # Here 0.5 * (H(ref) + H(pred)) - EMI rounds to a tiny negative
        # number, and the clamp keeps its sign.
        counts, a, b = metrics.contingency(list(range(n)), list(range(n)))
        assert metrics._entropy(a, n) - metrics._expected_mi(a, b, n) < 0
        assert metrics.ami(list(range(n)), list(reversed(range(n)))) == pytest.approx(1.0)

    def test_single_predicted_cluster_is_zero(self):
        assert metrics.ami([0, 0, 1, 1], [0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_matches_hypergeom_oracle(self, rng):
        ref = rng.integers(0, 4, size=200).tolist()
        pred = rng.integers(0, 3, size=200).tolist()
        assert metrics.ami(ref, pred) == pytest.approx(
            ami_oracle(ref, pred), abs=1e-9
        )

    def test_more_random_sizes(self, rng):
        for _ in range(10):
            n = int(rng.integers(20, 120))
            ref = rng.integers(0, 5, size=n).tolist()
            pred = rng.integers(0, 4, size=n).tolist()
            assert metrics.ami(ref, pred) == pytest.approx(
                ami_oracle(ref, pred), abs=1e-9
            )


class TestSymmetryAndInvariance:
    def test_symmetry(self, rng):
        ref = rng.integers(0, 4, size=100).tolist()
        pred = rng.integers(0, 3, size=100).tolist()
        assert metrics.ari(ref, pred) == pytest.approx(metrics.ari(pred, ref))
        assert metrics.ami(ref, pred) == pytest.approx(metrics.ami(pred, ref))

    def test_permutation_invariance(self, rng):
        ref = rng.integers(0, 4, size=80)
        pred = rng.integers(0, 3, size=80)
        relabeled = np.choose(pred, [7, 2, 9])
        assert metrics.ari(ref, pred) == pytest.approx(metrics.ari(ref, relabeled))
        assert metrics.ami(ref, pred) == pytest.approx(metrics.ami(ref, relabeled))

    def test_independent_labelings_near_zero(self):
        values_ami = []
        values_ari = []
        for seed in range(50):
            r = np.random.default_rng(seed)
            ref = r.integers(0, 5, size=500)
            pred = r.integers(0, 5, size=500)
            values_ami.append(metrics.ami(ref, pred))
            values_ari.append(metrics.ari(ref, pred))
        assert abs(np.mean(values_ami)) < 0.05
        assert abs(np.mean(values_ari)) < 0.05


class TestStarred:
    def test_no_noise_equals_plain(self, rng):
        ref = rng.integers(0, 3, size=60)
        pred = rng.integers(0, 3, size=60)
        assert metrics.starred(metrics.ami, ref, pred) == pytest.approx(
            metrics.ami(ref, pred)
        )
        assert metrics.starred(metrics.ari, ref, pred) == pytest.approx(
            metrics.ari(ref, pred)
        )

    def test_everything_noise(self):
        ref = [0, 0, 1, 1]
        pred = [-1, -1, -1, -1]
        assert metrics.starred(metrics.ami, ref, pred) == pytest.approx(0.0, abs=1e-12)

    def test_noise_penalized(self):
        # Half the items perfectly clustered, half noise: plain AMI is
        # perfect, the starred variant is not.
        ref = [0] * 5 + [1] * 5 + [2] * 5 + [3] * 5
        pred = [0] * 5 + [1] * 5 + [-1] * 10
        cref, cpred = metrics.drop_noise(ref, pred)
        assert metrics.ami(cref, cpred) == pytest.approx(1.0)
        assert metrics.starred(metrics.ami, ref, pred) < 1.0

    def test_eval_labels_reports_all(self):
        ref = [0] * 5 + [1] * 5
        pred = [0] * 5 + [-1] * 5
        out = metrics.eval_labels(ref, pred)
        assert out["n"] == 10
        assert out["clustered"] == 5
        assert set(out) >= {"ami", "ari", "ami_star", "ari_star"}

    def test_eval_labels_all_noise_warns(self):
        with pytest.warns(UserWarning):
            out = metrics.eval_labels([0, 0, 1, 1], [-1, -1, -1, -1])
        assert out["ami"] == 0.0
        assert out["ari"] == 0.0


class TestSampledPairDistances:
    def test_identical_points_zero_intra(self, rng):
        items = [np.zeros(2)] * 6
        labels = [0, 0, 0, 1, 1, 1]
        intra, _ = metrics.sampled_pair_distances(
            items, labels, distances.euclidean, 500, rng
        )
        assert intra == 0.0

    def test_two_singletons_inter_exact(self, rng):
        items = [np.array([0.0, 0.0]), np.array([7.0, 0.0])]
        labels = [0, 1]
        intra, inter = metrics.sampled_pair_distances(
            items, labels, distances.euclidean, 100, rng
        )
        assert math.isnan(intra)
        assert inter == 7.0

    def test_single_cluster_no_inter(self, rng):
        items = [np.zeros(2), np.ones(2)]
        intra, inter = metrics.sampled_pair_distances(
            items, [0, 0], distances.euclidean, 100, rng
        )
        assert math.isnan(inter)
        assert intra == pytest.approx(math.sqrt(2.0))

    def test_no_pairs_at_all(self, rng):
        with pytest.raises(ValueError):
            metrics.sampled_pair_distances(
                [np.zeros(2)], [0], distances.euclidean, 10, rng
            )

    @pytest.mark.parametrize("size", [0, -3])
    def test_sample_size_below_one_rejected(self, rng, size):
        with pytest.raises(ValueError, match="sample_size"):
            metrics.sampled_pair_distances(
                [np.zeros(2), np.ones(2)], [0, 0], distances.euclidean, size, rng
            )

    def test_sampled_close_to_exact(self, rng):
        points = rng.random((24, 2)) * 3
        labels = (rng.integers(0, 3, size=24)).tolist()
        items = [points[i] for i in range(24)]
        exact_intra = []
        exact_inter = []
        for i, j in combinations(range(24), 2):
            d = distances.euclidean(points[i], points[j])
            if labels[i] == labels[j]:
                exact_intra.append(d)
            else:
                exact_inter.append(d)
        intra, inter = metrics.sampled_pair_distances(
            items, labels, distances.euclidean, 1_000_000, rng
        )
        assert intra == pytest.approx(np.mean(exact_intra), rel=0.02)
        assert inter == pytest.approx(np.mean(exact_inter), rel=0.02)

    def test_noise_never_sampled(self, rng):
        items = [np.zeros(2), np.zeros(2), np.full(2, 100.0), np.ones(2), np.ones(2)]
        labels = [0, 0, -1, 1, 1]
        intra, inter = metrics.sampled_pair_distances(
            items, labels, distances.euclidean, 2000, rng
        )
        assert intra == 0.0
        assert inter == pytest.approx(math.sqrt(2.0))


class TestSilhouette:
    def test_two_tight_blobs_high(self, rng):
        a = rng.normal(0, 0.01, size=(15, 2))
        b = rng.normal(0, 0.01, size=(15, 2)) + 10
        items = [v for v in np.vstack([a, b])]
        labels = [0] * 15 + [1] * 15
        assert metrics.silhouette(items, labels, distances.euclidean) > 0.9

    def test_all_singletons_zero(self):
        items = [np.array([float(i), 0.0]) for i in range(5)]
        labels = list(range(5))
        assert metrics.silhouette(items, labels, distances.euclidean) == 0.0

    def test_random_split_near_zero(self):
        values = []
        for seed in range(10):
            r = np.random.default_rng(seed)
            pts = r.normal(0, 1, size=(40, 2))
            items = [p for p in pts]
            labels = r.integers(0, 2, size=40).tolist()
            values.append(metrics.silhouette(items, labels, distances.euclidean))
        assert all(abs(v) < 0.2 for v in values)

    def test_single_cluster_rejected(self):
        items = [np.zeros(2), np.ones(2)]
        with pytest.raises(ValueError, match="two clusters"):
            metrics.silhouette(items, [0, 0], distances.euclidean)

    def test_cap_enforced(self, rng):
        items = [rng.random(2) for _ in range(30)]
        labels = rng.integers(0, 2, size=30).tolist()
        with pytest.raises(ValueError, match="too many"):
            metrics.silhouette(items, labels, distances.euclidean, max_n=10)

    def test_matches_direct_computation(self, rng):
        pts = rng.random((12, 2))
        items = [p for p in pts]
        labels = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        got = metrics.silhouette(items, labels, distances.euclidean)
        # Direct per-point recomputation.
        total = 0.0
        for i in range(12):
            own = [j for j in range(12) if labels[j] == labels[i] and j != i]
            a = np.mean([np.linalg.norm(pts[i] - pts[j]) for j in own])
            b = min(
                np.mean(
                    [
                        np.linalg.norm(pts[i] - pts[j])
                        for j in range(12)
                        if labels[j] == other
                    ]
                )
                for other in {0, 1, 2} - {labels[i]}
            )
            total += (b - a) / max(a, b)
        assert got == pytest.approx(total / 12)
