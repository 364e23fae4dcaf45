"""Built-in distance functions.

Every distance is symmetric bit for bit, returns a finite float >= 0 and
evaluates to 0 on identical inputs. The engine relies on the symmetry: it
reuses d(a, b) where it would otherwise compute d(b, a). No triangle inequality is assumed anywhere, so arbitrary
user-supplied functions with the same contract are accepted by the engine.

``PREPARED`` maps ``euclidean`` to ``euclidean_form``, which the engine
calls on its first payload to fix the form of all of them: it returns
``(prepare, kernel)``, and the engine converts each payload once with
``prepare`` and measures the results with ``kernel``. Up to ``TUPLE_DIM``
coordinates the kernel is ``math.dist`` itself, so a distance on the insert
path runs no Python frame. ``euclidean(a, b)`` gives the same bits.
"""

import math
import sys
from functools import partial
from itertools import compress

import numpy as np

__all__ = [
    "DistanceError",
    "euclidean",
    "PREPARED",
    "prepare_euclidean",
    "euclidean_dot",
    "euclidean_form",
    "TUPLE_DIM",
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


# Up to this many coordinates a Euclidean payload is prepared as a float
# tuple for math.dist, which costs a few ns a coordinate; above it numpy's
# dot costs about 1 us a call and less a coordinate. A pair took 0.82 vs
# 1.10 us at 128 coordinates and 1.26 vs 1.23 at 192 (2-vCPU Xeon); a tuple
# takes 32 B a coordinate against 8, so the limit is the power of two below.
TUPLE_DIM = 128


def prepare_euclidean(a):
    """``a`` as ``euclidean`` measures it fastest: a new tuple of
    floats for a vector of at most ``TUPLE_DIM`` coordinates, else a
    C-contiguous float64 array (``a`` itself if it is one). A scalar is a
    vector of one coordinate."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim == 1 and len(a) <= TUPLE_DIM:
        return tuple(a.tolist())
    return a


def euclidean_dot(a, b):
    """``sqrt(dot(d, d))`` for ``d = a - b``: the Euclidean distance between
    two float64 vectors of one length, unconverted and unchecked."""
    d = a - b
    return math.sqrt(d.dot(d))


def _prepare_shaped(shape, a):
    """``prepare_euclidean(a)`` for a vector ``a`` of ``shape``; any other
    ``a`` raises ``ValueError("dimension mismatch: ...")``."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.shape != shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {shape}")
    return tuple(a.tolist()) if len(a) <= TUPLE_DIM else a


def euclidean_form(first):
    """``(prepare, kernel)`` for Euclidean payloads of ``first``'s form.

    ``prepare`` converts a payload as ``prepare_euclidean`` does and raises
    ``ValueError("dimension mismatch: ...")`` unless the result has the
    length of ``first``'s. ``kernel`` measures two results: ``math.dist``
    itself for float tuples, ``euclidean_dot`` for arrays. Either gives the
    bits ``euclidean`` gives. A scalar is a vector of one coordinate; a
    ``first`` of two or more axes has no form and raises ``ValueError``.
    """
    shape = np.ascontiguousarray(first, dtype=np.float64).shape
    if len(shape) != 1:
        raise ValueError(f"euclidean payloads are vectors, got shape {shape}")
    kernel = math.dist if shape[0] <= TUPLE_DIM else euclidean_dot
    return partial(_prepare_shaped, shape), kernel


def euclidean(a, b):
    """Euclidean distance between two dense real vectors: up to
    ``TUPLE_DIM`` coordinates ``math.dist``, which scales and so neither
    overflows nor underflows, above it ``euclidean_dot``. The choice
    follows the dimension, not the container, so any two payloads give the
    bits their ``euclidean_form`` gives. Anything but two vectors of one
    length takes the numpy path, which raises the error, such as a
    dimension mismatch."""
    a = prepare_euclidean(a)
    b = prepare_euclidean(b)
    try:
        if len(a) <= TUPLE_DIM:
            return math.dist(a, b)
    except (TypeError, ValueError):
        pass
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return euclidean_dot(a, b)


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
    # vdot equals dot bit for bit on real vectors but does not warn when a
    # term overflows to inf, which cosine handles by rescaling.
    return float(np.vdot(a, a)), float(np.vdot(b, b)), float(np.vdot(a, b))


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
    inter = len(a & b)
    union = len(a) + len(b) - inter
    if union == 0:
        return 0.0
    return 1.0 - inter / union


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


# Prepared forms of built-in distances, keyed by the distance function: each
# value takes the first payload and returns the (prepare, kernel) pair that
# every payload of the engine then goes through.
PREPARED = {euclidean: euclidean_form}


def by_name(name):
    """Look up a built-in distance by its CLI name."""
    try:
        return BUILTIN[name]
    except KeyError:
        valid = ", ".join(sorted(BUILTIN))
        raise ValueError(f"unknown distance {name!r}; valid names: {valid}") from None
