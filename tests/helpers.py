"""Plain helpers shared by the test modules (fixtures live in conftest.py)."""

import numpy as np


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


def buffered_weight(buf, a, b):
    """Weight a CandidateBuffer holds for the pair {a, b}, or None."""
    lo, hi, w = buf.arrays()
    a, b = min(a, b), max(a, b)
    hit = np.flatnonzero((lo == a) & (hi == b))
    return float(w[hit[0]]) if hit.size else None


def write_matrix(path, matrix):
    """Write a distance matrix in the format ``dataio.read_matrix`` reads."""
    m = np.asarray(matrix, dtype=np.float64)
    n = m.shape[0]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        for i in range(n - 1):
            fh.write(" ".join(repr(float(v)) for v in m[i, i + 1 :]) + "\n")
