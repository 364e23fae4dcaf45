"""Built-in distance functions.

Every distance is symmetric bit for bit, returns a finite float >= 0 and
evaluates to 0 on identical inputs. The engine relies on the symmetry: it
reuses d(a, b) where it would otherwise compute d(b, a). No triangle inequality is assumed anywhere, so arbitrary
user-supplied functions with the same contract are accepted by the engine.
"""

import math

import numpy as np

__all__ = [
    "DistanceError",
    "euclidean",
    "cosine",
    "jaccard",
    "jaro_winkler",
    "simpson",
    "hamming",
    "BUILTIN",
    "by_name",
]


class DistanceError(ValueError):
    """A distance function broke its contract (NaN, negative, non-finite)."""


def euclidean(a, b):
    """Euclidean distance between two dense real vectors."""
    if not isinstance(a, np.ndarray) or a.dtype != np.float64:
        a = np.ascontiguousarray(a, dtype=np.float64)
    if not isinstance(b, np.ndarray) or b.dtype != np.float64:
        b = np.ascontiguousarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.sqrt(np.dot(d, d)))


def cosine(a, b):
    """Cosine distance (1 - cosine similarity), clamped to [0, 2].

    Accepts dense vectors (arrays) or sparse vectors as {index: value} dicts.
    Zero-norm vectors are an error rather than a silent 1.0.
    """
    if isinstance(a, dict) or isinstance(b, dict):
        if not isinstance(a, dict) or not isinstance(b, dict):
            raise ValueError("cannot mix sparse and dense vectors")
        # fsum is correctly rounded, so the result does not depend on the
        # order the terms come in: swapping a and b gives the same bits.
        daa = math.fsum(v * v for v in a.values())
        dbb = math.fsum(v * v for v in b.values())
        if daa == 0.0 or dbb == 0.0:
            raise ValueError("cosine distance undefined for zero-norm vector")
        small, big = (a, b) if len(a) <= len(b) else (b, a)
        dot = math.fsum(v * big[k] for k, v in small.items() if k in big)
    else:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
        daa = float(np.dot(a, a))
        dbb = float(np.dot(b, b))
        if daa == 0.0 or dbb == 0.0:
            raise ValueError("cosine distance undefined for zero-norm vector")
        dot = float(np.dot(a, b))
    # sqrt(daa * dbb) keeps the ratio exactly 1 on identical inputs.
    return min(max(1.0 - dot / math.sqrt(daa * dbb), 0.0), 2.0)


def jaccard(a, b):
    """Jaccard distance between two sets of integers; 0 if both empty."""
    if not isinstance(a, (set, frozenset)):
        a = frozenset(a)
    if not isinstance(b, (set, frozenset)):
        b = frozenset(b)
    union = len(a | b)
    if union == 0:
        return 0.0
    return 1.0 - len(a & b) / union


def _jaro(a, b):
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    match_a = [False] * la
    match_b = [False] * lb
    matches = 0
    for i in range(la):
        start = max(0, i - window)
        end = min(lb, i + window + 1)
        for j in range(start, end):
            if not match_b[j] and a[i] == b[j]:
                match_a[i] = True
                match_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    transpositions = 0
    j = 0
    for i in range(la):
        if match_a[i]:
            while not match_b[j]:
                j += 1
            if a[i] != b[j]:
                transpositions += 1
            j += 1
    t = transpositions // 2
    m = float(matches)
    return (m / la + m / lb + (m - t) / m) / 3.0


def jaro_winkler(a, b):
    """Jaro-Winkler distance with prefix scale 0.1 and max prefix length 4."""
    sim = _jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix == 4:
            break
        prefix += 1
    sim += prefix * 0.1 * (1.0 - sim)
    return 1.0 - sim


def simpson(a, b):
    """Simpson distance between bitmaps: 1 - c(a&b) / min(c(a), c(b))."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    ca = int(np.count_nonzero(a))
    cb = int(np.count_nonzero(b))
    if ca == 0 or cb == 0:
        raise ValueError("simpson distance undefined for an all-zero bitmap")
    cab = int(np.count_nonzero(a & b))
    return 1.0 - cab / min(ca, cb)


def hamming(a, b):
    """Number of differing positions between two equal-length sequences."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return float(np.count_nonzero(a != b))
    return float(sum(1 for x, y in zip(a, b) if x != y))


BUILTIN = {
    "euclidean": euclidean,
    "cosine": cosine,
    "jaccard": jaccard,
    "jaro-winkler": jaro_winkler,
    "simpson": simpson,
    "hamming": hamming,
}


def by_name(name):
    """Look up a built-in distance by its CLI name."""
    try:
        return BUILTIN[name]
    except KeyError:
        valid = ", ".join(sorted(BUILTIN))
        raise ValueError(f"unknown distance {name!r}; valid names: {valid}") from None
