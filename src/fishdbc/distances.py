"""Built-in distance functions.

Every distance is symmetric bit for bit, returns a finite float >= 0 and
evaluates to 0 on identical inputs. The engine relies on the symmetry: it
reuses d(a, b) where it would otherwise compute d(b, a). No triangle inequality is assumed anywhere, so arbitrary
user-supplied functions with the same contract are accepted by the engine.
"""

import math
import sys
from itertools import compress

import numpy as np

__all__ = [
    "DistanceError",
    "euclidean",
    "euclidean_many",
    "MANY",
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
    return math.sqrt(np.dot(d, d))


def euclidean_many(a, bs):
    """``[euclidean(a, b) for b in bs]``, bit for bit, in one numpy pass.

    Each row goes through the same ``dot`` kernel as the scalar form (a
    stacked 1 x dim by dim x 1 ``matmul`` calls it per row), and ``b - a``
    is exactly ``-(a - b)``, so every value equals the scalar one. Returns
    None when the payloads do not form one (len(bs), dim) matrix matching
    ``a``; the caller then takes the scalar path, which raises the scalar
    function's errors, such as a dimension mismatch.
    """
    try:
        a = np.asarray(a, dtype=np.float64)
        rows = np.array(bs, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if a.ndim != 1 or rows.shape != (len(bs), a.shape[0]):
        return None
    rows -= a
    return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None]).ravel()).tolist()


def _normal(v):
    return sys.float_info.min <= v <= sys.float_info.max


def _cosine_terms(a, b):
    """(|a|^2, |b|^2, a.b) of two sparse (dict) or two dense vectors."""
    if isinstance(a, dict):
        # fsum is correctly rounded, so the result does not depend on the
        # order the terms come in: swapping a and b gives the same bits.
        small, big = (a, b) if len(a) <= len(b) else (b, a)
        return (
            math.fsum(v * v for v in a.values()),
            math.fsum(v * v for v in b.values()),
            math.fsum(v * big[k] for k, v in small.items() if k in big),
        )
    return float(np.dot(a, a)), float(np.dot(b, b)), float(np.dot(a, b))


def _unit_scaled(a):
    """``a`` times the power of two that brings its largest magnitude into
    [0.5, 1); unchanged if that magnitude is 0 or not finite."""
    if isinstance(a, dict):
        e = math.frexp(max(map(abs, a.values()), default=0.0))[1]
        return {k: math.ldexp(v, -e) for k, v in a.items()}
    e = math.frexp(float(np.max(np.abs(a), initial=0.0)))[1]
    return np.ldexp(a, -e)


def cosine(a, b):
    """Cosine distance (1 - cosine similarity), clamped to [0, 2].

    Accepts dense vectors (arrays) or sparse vectors as {index: value} dicts.
    Zero-norm vectors are an error rather than a silent 1.0. The result does
    not depend on scale: when a squared norm or their product would leave
    the finite normal range, both vectors are first rescaled by powers of two.
    """
    if isinstance(a, dict) or isinstance(b, dict):
        if not isinstance(a, dict) or not isinstance(b, dict):
            raise ValueError("cannot mix sparse and dense vectors")
    else:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != b.shape:
            raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    daa, dbb, dot = _cosine_terms(a, b)
    if not (_normal(daa) and _normal(dbb) and _normal(daa * dbb)):
        daa, dbb, dot = _cosine_terms(_unit_scaled(a), _unit_scaled(b))
    if daa == 0.0 or dbb == 0.0:
        raise ValueError("cosine distance undefined for zero-norm vector")
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


def jaro_winkler(a, b):
    """Jaro-Winkler distance with prefix scale 0.1 and max prefix length 4.

    Both arguments must be ``str`` (a ``TypeError`` names the type
    otherwise); characters are compared as code points. Each character of
    ``a`` takes the first free equal character of ``b`` in its match
    window, found with ``str.find`` rather than a Python loop.
    """
    if not (isinstance(a, str) and isinstance(b, str)):
        raise TypeError(
            f"jaro_winkler compares two str, got {type(a).__name__} and {type(b).__name__}"
        )
    if a == b:
        return 0.0
    la, lb = len(a), len(b)
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    taken = [False] * lb
    matched_a = []
    find = b.find
    for i, ch in enumerate(a):
        lo = i - window
        hi = i + window + 1
        # a negative start would count from the end of b
        j = find(ch, lo if lo > 0 else 0, hi)
        while j >= 0 and taken[j]:
            j = find(ch, j + 1, hi)
        if j >= 0:
            taken[j] = True
            matched_a.append(ch)
    if matched_a:
        # half the positions where the matched characters, in order, differ
        t = sum(map(str.__ne__, matched_a, compress(b, taken))) // 2
        m = float(len(matched_a))
        sim = (m / la + m / lb + (m - t) / m) / 3.0
    else:
        sim = 0.0
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
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.size} vs {b.size}")
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


# One-to-many forms of built-in distances, keyed by the scalar function.
MANY = {euclidean: euclidean_many}


def by_name(name):
    """Look up a built-in distance by its CLI name."""
    try:
        return BUILTIN[name]
    except KeyError:
        valid = ", ".join(sorted(BUILTIN))
        raise ValueError(f"unknown distance {name!r}; valid names: {valid}") from None
