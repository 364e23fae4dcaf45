"""Clustering quality metrics.

External: adjusted Rand index and adjusted mutual information, plus starred
variants that fold all noise items (-1) into one extra predicted cluster so
that unclustered items count against the score. Plain AMI/ARI are meant to
be computed on the clustered items only; ``drop_noise`` does the filtering.

Internal: mean silhouette and uniformly sampled intra-/inter-cluster
distances for datasets too large to enumerate all pairs.
"""

import math
import warnings

import numpy as np

__all__ = [
    "contingency",
    "ari",
    "ami",
    "starred",
    "drop_noise",
    "eval_labels",
    "sampled_pair_distances",
    "silhouette",
]


def _check_pair(ref, pred):
    ref = np.asarray(ref)
    pred = np.asarray(pred)
    if ref.shape != pred.shape or ref.ndim != 1:
        raise ValueError(f"label arrays must align: {ref.shape} vs {pred.shape}")
    if ref.shape[0] < 2:
        raise ValueError("need at least two labeled items")
    return ref, pred


def contingency(ref, pred):
    """Co-occurrence counts between two labelings.

    Returns (counts, row_marginals, col_marginals) as int64 arrays.
    """
    ref, pred = _check_pair(ref, pred)
    _, ri = np.unique(ref, return_inverse=True)
    _, ci = np.unique(pred, return_inverse=True)
    r = int(ri.max()) + 1
    c = int(ci.max()) + 1
    counts = np.zeros((r, c), dtype=np.int64)
    np.add.at(counts, (ri, ci), 1)
    return counts, counts.sum(axis=1), counts.sum(axis=0)


def ari(ref, pred):
    """Adjusted Rand index via exact pair counts."""
    counts, a, b = contingency(ref, pred)
    n = int(a.sum())
    index = sum(math.comb(int(v), 2) for v in counts.ravel())
    sum_a = sum(math.comb(int(v), 2) for v in a)
    sum_b = sum(math.comb(int(v), 2) for v in b)
    total = math.comb(n, 2)
    expected = sum_a * sum_b / total
    maximum = (sum_a + sum_b) / 2.0
    if maximum == expected:
        # Degenerate agreement (e.g. both labelings a single cluster).
        return 1.0
    return (index - expected) / (maximum - expected)


def _entropy(marginals, n):
    p = marginals[marginals > 0] / n
    return float(-(p * np.log(p)).sum())


def _expected_mi(a, b, n):
    """Exact expectation of mutual information under the permutation model,
    computed from the marginals with log-gamma arithmetic.
    """
    lg = math.lgamma
    log_n = math.log(n)
    emi = 0.0
    for ai in a:
        ai = int(ai)
        base_a = lg(ai + 1) + lg(n - ai + 1)
        for bj in b:
            bj = int(bj)
            start = max(1, ai + bj - n)
            end = min(ai, bj)
            for nij in range(start, end + 1):
                log_term = math.log(nij) + log_n - math.log(ai) - math.log(bj)
                log_p = (
                    base_a
                    + lg(bj + 1)
                    + lg(n - bj + 1)
                    - lg(n + 1)
                    - lg(nij + 1)
                    - lg(ai - nij + 1)
                    - lg(bj - nij + 1)
                    - lg(n - ai - bj + nij + 1)
                )
                emi += (nij / n) * log_term * math.exp(log_p)
    return emi


def ami(ref, pred):
    """Adjusted mutual information, normalized by the mean of the entropies.

    Natural log throughout; the normalization cancels the base anyway.
    """
    counts, a, b = contingency(ref, pred)
    n = int(a.sum())
    if len(a) == 1 and len(b) == 1:
        return 1.0
    nz = counts > 0
    cij = counts[nz].astype(np.float64)
    outer = (a[:, None] * b[None, :])[nz].astype(np.float64)
    mi = float((cij / n * (np.log(cij * n) - np.log(outer))).sum())
    h_ref = _entropy(a, n)
    h_pred = _entropy(b, n)
    emi = _expected_mi(a, b, n)
    denominator = 0.5 * (h_ref + h_pred) - emi
    eps = np.finfo(np.float64).eps
    if denominator < 0:
        denominator = min(denominator, -eps)
    else:
        denominator = max(denominator, eps)
    return (mi - emi) / denominator


def starred(metric, ref, pred):
    """Apply a metric after remapping all noise (-1) predictions to a single
    fresh cluster, so unclustered items are scored instead of ignored.
    """
    ref, pred = _check_pair(ref, pred)
    if (pred == -1).any():
        pred = pred.copy()
        fresh = int(pred.max()) + 1
        pred[pred == -1] = fresh
    return metric(ref, pred)


def drop_noise(ref, pred):
    """Restrict both labelings to the items actually clustered (pred != -1)."""
    ref, pred = _check_pair(ref, pred)
    mask = pred != -1
    return ref[mask], pred[mask]


def eval_labels(ref, pred):
    """All four external scores at once.

    Plain AMI/ARI consider only clustered items and are reported as 0.0
    (with a warning) when everything is noise.
    """
    ref, pred = _check_pair(ref, pred)
    out = {
        "n": int(ref.shape[0]),
        "clustered": int((pred != -1).sum()),
        "ami_star": starred(ami, ref, pred),
        "ari_star": starred(ari, ref, pred),
    }
    cref, cpred = drop_noise(ref, pred)
    if cref.shape[0] < 2:
        warnings.warn("fewer than two clustered items; plain AMI/ARI set to 0")
        out["ami"] = 0.0
        out["ari"] = 0.0
    else:
        out["ami"] = ami(cref, cpred)
        out["ari"] = ari(cref, cpred)
    return out


def _cluster_indices(labels):
    labels = np.asarray(labels)
    return {
        int(lbl): np.flatnonzero(labels == lbl)
        for lbl in np.unique(labels)
        if lbl >= 0
    }


def _uniform_pair(rng, size):
    i = int(rng.integers(size))
    j = int(rng.integers(size - 1))
    if j >= i:
        j += 1
    return i, j


def sampled_pair_distances(items, labels, distance, sample_size, rng):
    """Mean distance over uniformly sampled same-cluster and cross-cluster
    pairs. Clusters are drawn proportionally to their pair counts so every
    eligible pair is equally likely.

    A side whose pair population is empty (no cluster with two members, or a
    single cluster) comes back as NaN; it is an error when both are empty.
    """
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1 (got {sample_size})")
    groups = _cluster_indices(labels)
    intra_groups = [idx for idx in groups.values() if len(idx) >= 2]
    can_intra = bool(intra_groups)
    can_inter = len(groups) >= 2
    if not can_intra and not can_inter:
        raise ValueError("no same-cluster or cross-cluster pairs to sample")

    intra = math.nan
    if can_intra:
        weights = np.array([len(g) * (len(g) - 1) / 2 for g in intra_groups])
        picks = rng.choice(
            len(intra_groups), size=sample_size, p=weights / weights.sum()
        )
        total = 0.0
        for g in picks:
            idx = intra_groups[g]
            i, j = _uniform_pair(rng, len(idx))
            total += distance(items[idx[i]], items[idx[j]])
        intra = total / sample_size

    inter = math.nan
    if can_inter:
        group_list = list(groups.values())
        pairs = [
            (p, q)
            for p in range(len(group_list))
            for q in range(p + 1, len(group_list))
        ]
        weights = np.array(
            [len(group_list[p]) * len(group_list[q]) for p, q in pairs]
        )
        picks = rng.choice(len(pairs), size=sample_size, p=weights / weights.sum())
        total = 0.0
        for k in picks:
            p, q = pairs[k]
            i = group_list[p][int(rng.integers(len(group_list[p])))]
            j = group_list[q][int(rng.integers(len(group_list[q])))]
            total += distance(items[i], items[j])
        inter = total / sample_size

    return intra, inter


def silhouette(items, labels, distance, max_n=2000):
    """Mean silhouette over clustered items; quadratic, refuses large inputs.

    Singleton-cluster items score 0 by convention.
    """
    groups = _cluster_indices(labels)
    if len(groups) < 2:
        raise ValueError("silhouette needs at least two clusters")
    clustered = np.concatenate(list(groups.values()))
    k = len(clustered)
    if k > max_n:
        raise ValueError(f"too many clustered items for silhouette: {k} > {max_n}")
    pos = {int(item): p for p, item in enumerate(clustered)}
    dm = np.zeros((k, k))
    for p in range(k):
        for q in range(p + 1, k):
            d = distance(items[clustered[p]], items[clustered[q]])
            dm[p, q] = d
            dm[q, p] = d

    positions = {
        lbl: np.array([pos[int(i)] for i in idx]) for lbl, idx in groups.items()
    }
    total = 0.0
    for lbl, own in positions.items():
        if len(own) == 1:
            continue  # convention: contributes 0
        for p in own:
            a = dm[p, own].sum() / (len(own) - 1)
            b = min(
                dm[p, other].mean()
                for other_lbl, other in positions.items()
                if other_lbl != lbl
            )
            denom = max(a, b)
            if denom > 0:
                total += (b - a) / denom
    return total / k
