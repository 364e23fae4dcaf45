"""Dataset readers, result writers and synthetic dataset generators.

All readers stream: they yield one payload at a time and never hold the
whole file. Insertion order is file order, so runs over the same file are
reproducible. UTF-8 throughout; CRLF tolerated; blank lines are skipped with
a warning.
"""

import json
import logging
import os

import numpy as np

from . import hierarchy

__all__ = [
    "ParseError",
    "FORMATS",
    "FORMAT_DISTANCES",
    "check_format_distance",
    "read_dataset",
    "write_dataset",
    "read_labels",
    "write_labels",
    "write_result",
    "read_distance_log",
    "write_distance_log",
    "read_matrix",
    "generate_blobs",
    "generate_transactions",
]

log = logging.getLogger(__name__)


class ParseError(ValueError):
    """Malformed input data; the message carries file and line number."""


FORMATS = ("dense-csv", "bag-of-words", "text-lines", "bitmap-csv", "set-lines")

# Which payload kind each distance expects.
FORMAT_DISTANCES = {
    "dense-csv": ("euclidean", "cosine"),
    "bag-of-words": ("cosine",),
    "text-lines": ("jaro-winkler", "hamming"),
    "bitmap-csv": ("simpson",),
    "set-lines": ("jaccard",),
}


def check_format_distance(fmt, distance_name):
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; valid formats: {', '.join(FORMATS)}")
    allowed = FORMAT_DISTANCES[fmt]
    if distance_name not in allowed:
        raise ValueError(
            f"distance {distance_name!r} does not match format {fmt!r} "
            f"(expected one of: {', '.join(allowed)})"
        )


def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                log.warning("%s:%d: blank line skipped", path, lineno)
                continue
            yield lineno, line


def _read_dense_csv(path):
    for lineno, line in _lines(path):
        try:
            yield np.array([float(tok) for tok in line.split(",")], dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None


def _read_bitmap_csv(path):
    for lineno, line in _lines(path):
        try:
            bits = [int(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if any(b not in (0, 1) for b in bits):
            raise ParseError(f"{path}:{lineno}: bitmap entries must be 0 or 1")
        yield np.array(bits, dtype=bool)


def _read_set_lines(path):
    for lineno, line in _lines(path):
        try:
            yield frozenset(int(tok) for tok in line.split())
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None


def _read_text_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\r\n")
            if not line.strip():
                log.warning("%s:%d: blank line skipped", path, lineno)
                continue
            yield line


def _read_bag_of_words(path):
    """UCI docword layout: three header lines D, W, NNZ, then one
    ``doc word count`` triple per line grouped by ascending document id.
    Yields one sparse {word: count} vector per document, in document order;
    documents without rows come out empty.
    """
    gen = _lines(path)
    header = []
    for _ in range(3):
        try:
            lineno, line = next(gen)
        except StopIteration:
            raise ParseError(f"{path}: truncated docword header") from None
        try:
            header.append(int(line.split()[0]))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    n_docs, _, _ = header
    current = 1
    vec = {}
    for lineno, line in gen:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'doc word count' triple")
        try:
            doc, word, count = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if doc < current:
            raise ParseError(
                f"{path}:{lineno}: docword rows must be grouped by ascending doc id"
            )
        if doc > n_docs:
            raise ParseError(f"{path}:{lineno}: doc id {doc} exceeds header D={n_docs}")
        while current < doc:
            yield vec
            vec = {}
            current += 1
        vec[word] = count
    while current <= n_docs:
        yield vec
        vec = {}
        current += 1


_READERS = {
    "dense-csv": _read_dense_csv,
    "bag-of-words": _read_bag_of_words,
    "text-lines": _read_text_lines,
    "bitmap-csv": _read_bitmap_csv,
    "set-lines": _read_set_lines,
}


def read_dataset(fmt, path):
    """Stream payloads from a file in the given format."""
    if fmt not in _READERS:
        raise ValueError(f"unknown format {fmt!r}; valid formats: {', '.join(FORMATS)}")
    return _READERS[fmt](path)


def write_dataset(fmt, path, payloads):
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "dense-csv":
            for row in payloads:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        elif fmt == "set-lines":
            for s in payloads:
                fh.write(" ".join(str(v) for v in sorted(s)) + "\n")
        else:
            raise ValueError(f"writing format {fmt!r} is not supported")


def read_labels(path):
    """Label file: one integer per line (-1 = noise). ``index,label`` rows
    as written by :func:`write_result` are accepted too; each index must be
    the row's 0-based position among the labels.
    """
    labels = []
    for lineno, line in _lines(path):
        parts = line.split(",")
        try:
            if len(parts) == 2:
                index = int(parts[0])
                if index != len(labels):
                    raise ValueError(f"index {index} should be {len(labels)}")
                labels.append(int(parts[1]))
            elif len(parts) == 1:
                labels.append(int(parts[0]))
            else:
                raise ValueError("expected 'label' or 'index,label'")
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return np.array(labels, dtype=np.int64)


def write_labels(path, labels):
    with open(path, "w", encoding="utf-8") as fh:
        for lbl in labels:
            fh.write(f"{int(lbl)}\n")


def write_result(result, out_dir, extra=None):
    """Write labels.csv, tree.json and summary.txt under out_dir.

    ``extra`` is merged into the summary as additional key=value lines.
    """
    if len(result.labels) == 0:
        raise ValueError("nothing to cluster: empty result")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "labels.csv"), "w", encoding="utf-8") as fh:
        for i, lbl in enumerate(result.labels):
            fh.write(f"{i},{int(lbl)}\n")
    with open(os.path.join(out_dir, "tree.json"), "w", encoding="utf-8") as fh:
        json.dump(hierarchy.tree_to_dict(result.condensed), fh)
    summary = {
        "n": len(result.labels),
        "clustered": result.n_clustered,
        "clusters": result.n_clusters,
    }
    if extra:
        summary.update(extra)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        for key, value in summary.items():
            fh.write(f"{key}={value}\n")
    return summary


def write_distance_log(path, n, pairs):
    """Record of computed pairs: first line is the item count, then one
    ``i j distance`` line per pair.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n}\n")
        for (i, j), d in sorted(pairs.items()):
            fh.write(f"{i} {j} {d!r}\n")


def read_distance_log(path):
    gen = _lines(path)
    try:
        _, first = next(gen)
        n = int(first)
    except (StopIteration, ValueError):
        raise ParseError(f"{path}: expected item count on the first line") from None
    if n < 0:
        raise ParseError(f"{path}: item count must be >= 0 (got {n})")
    pairs = {}
    for lineno, line in gen:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'i j distance'")
        try:
            i, j, d = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"{path}:{lineno}: item id outside 0..{n - 1}")
        if i == j:
            raise ParseError(f"{path}:{lineno}: pair of an item with itself")
        if not d >= 0.0:  # catches NaN and negatives
            raise ParseError(f"{path}:{lineno}: distance {d} is not >= 0")
        pairs[(i, j)] = d
    return n, pairs


def read_matrix(path):
    """Distance matrix file: first token is n, followed by the n(n-1)/2
    upper-triangle entries row-major; ``inf`` allowed.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    try:
        n = int(tokens[0])
    except (IndexError, ValueError):
        raise ParseError(f"{path}: expected the item count as the first token") from None
    if n < 0:
        raise ParseError(f"{path}: item count must be >= 0 (got {n})")
    try:
        values = np.array([float(tok) for tok in tokens[1:]], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    expected = n * (n - 1) // 2
    if len(values) != expected:
        raise ParseError(
            f"{path}: expected {expected} upper-triangle entries for n={n}, "
            f"got {len(values)}"
        )
    bad = np.flatnonzero(~(values >= 0.0))  # catches NaN and negatives
    if len(bad):
        k = int(bad[0])
        raise ParseError(f"{path}: entry {k + 1} is {values[k]}, not >= 0")
    m = np.zeros((n, n))
    lo, hi = np.triu_indices(n, k=1)
    m[lo, hi] = values
    m[hi, lo] = values
    return m


# Range of every coordinate of a blob center.
CENTER_BOX = (-10.0, 10.0)


def generate_blobs(n_samples, dim, centers=10, std=1.0, *, rng):
    """Isotropic Gaussian blobs around centers drawn uniformly from
    ``CENTER_BOX`` in every dimension.

    Returns (X, labels) with X an (n_samples, dim) float array.
    """
    means = rng.uniform(*CENTER_BOX, size=(centers, dim))
    labels = rng.integers(0, centers, size=n_samples)
    X = means[labels] + rng.normal(0.0, std, size=(n_samples, dim))
    return X, labels.astype(np.int64)


def generate_transactions(n_samples, dim=1024, clusters=5, fill=0.5, *, rng):
    """Synthetic transaction clusters: the item universe 0..dim-1 is split
    into disjoint pools, one per cluster, and each transaction samples its
    cluster's pool independently. No outliers, no overlap between clusters.

    Returns (payloads, labels) with payloads a list of frozensets.
    """
    if clusters > dim:
        raise ValueError("need at least one universe item per cluster")
    pools = np.array_split(rng.permutation(dim), clusters)
    labels = rng.integers(0, clusters, size=n_samples)
    payloads = []
    for lbl in labels:
        pool = pools[lbl]
        mask = rng.random(len(pool)) < fill
        if not mask.any():
            mask[rng.integers(len(pool))] = True
        payloads.append(frozenset(int(v) for v in pool[mask]))
    return payloads, labels.astype(np.int64)
