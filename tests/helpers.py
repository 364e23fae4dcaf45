"""Plain helpers shared by the test modules (fixtures live in conftest.py)."""

import numpy as np

from fishdbc.msf import _MASK, _SHIFT


def canonical_labels(labels):
    """Relabel clusters by first occurrence so partitions compare directly;
    noise stays -1.
    """
    seen = {}
    out = []
    for lbl in labels:
        lbl = int(lbl)
        if lbl < 0:
            out.append(-1)
        else:
            if lbl not in seen:
                seen[lbl] = len(seen)
            out.append(seen[lbl])
    return out


def two_blob_points(rng, per_blob=100, sep=10.0, std=0.05):
    a = rng.normal(0.0, std, size=(per_blob, 2))
    b = rng.normal(0.0, std, size=(per_blob, 2)) + np.array([sep, 0.0])
    data = np.vstack([a, b])
    order = rng.permutation(2 * per_blob)
    return data[order]


def noisy_strings(n, rng, prototypes=10, length=16, edit_rate=0.2):
    """n noisy copies of a few random lowercase prototype strings.

    Each character of the chosen prototype is, with probability
    ``edit_rate``, substituted, followed by an inserted letter, or deleted.
    """
    letters = "abcdefghijklmnopqrstuvwxyz"
    protos = ["".join(rng.choice(list(letters), length)) for _ in range(prototypes)]
    out = []
    for k in rng.integers(0, prototypes, size=n):
        chars = []
        for ch in protos[k]:
            r = rng.random()
            if r < edit_rate / 3:
                chars.append(letters[rng.integers(26)])
            elif r < 2 * edit_rate / 3:
                chars.append(ch + letters[rng.integers(26)])
            elif r >= edit_rate:
                chars.append(ch)
        out.append("".join(chars))
    return out


def buffered_entries(buf):
    """Every entry of a CandidateBuffer, copies included, as (lo, hi, weight)
    numpy arrays copied out of its storage, so that no view pins it."""
    keys, w = buf._views()
    return keys >> _SHIFT, keys & _MASK, w.copy()


def buffered_weight(buf, a, b):
    """Weight of the lightest copy a CandidateBuffer holds for the pair
    {a, b}, the one a flush would keep, or None."""
    lo, hi, w = buffered_entries(buf)
    a, b = min(a, b), max(a, b)
    hit = (lo == a) & (hi == b)
    return float(w[hit].min()) if hit.any() else None


def write_matrix(path, matrix):
    """Write a distance matrix in the format ``dataio.read_matrix`` reads."""
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        for i in range(n - 1):
            fh.write(" ".join(repr(float(v)) for v in m[i, i + 1 :]) + "\n")
