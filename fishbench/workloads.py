"""Workloads: seeded inputs and one pass of engine calls over them.

The engine only ever sees payloads; ground-truth labels stay here and are
used for AMI* alone.
"""

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from fishdbc import FISHDBC, dataio, distances

MINPTS = 10
EF = 20

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "blobs" or "strings"
    n: int
    # cluster() after every k adds (0: only once, after the last add)
    recluster_every: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("blobs-add", "blobs", 5000),
        Workload("strings-jw", "strings", 1200),
        Workload("stream-recluster", "blobs", 5000, recluster_every=50),
    )
}


def random_prototypes(rng, count=10, length=16):
    letters = np.array(list(ALPHABET))
    return ["".join(rng.choice(letters, length)) for _ in range(count)]


def noisy_copies(prototypes, n, rng, edit_rate=0.2):
    """n noisy copies of randomly chosen prototype strings.

    Each character of the chosen prototype is, with probability
    ``edit_rate``, substituted, followed by an inserted letter, or deleted
    (one third each). Returns (strings, prototype index per string).
    """
    letters = np.array(list(ALPHABET))
    labels = rng.integers(0, len(prototypes), size=n)
    out = []
    for lbl in labels:
        chars = []
        for ch in prototypes[lbl]:
            r = rng.random()
            if r < edit_rate / 3:
                chars.append(letters[rng.integers(len(letters))])
            elif r < 2 * edit_rate / 3:
                chars.append(ch)
                chars.append(letters[rng.integers(len(letters))])
            elif r >= edit_rate:
                chars.append(ch)
        out.append("".join(chars))
    return out, labels.astype(np.int64)


# One fixed corpus, streamed in an order drawn from the workload seed.
# Drawing fresh strings per seed moved distance calls per item by up to a
# third between seeds (314 to 493 over seeds 2-9 at n=1500), which would
# drown any change to the engine; over the same seeds a seeded order of one
# corpus moves them by under a tenth.
CORPUS_SEED = 20191016


def string_corpus(n):
    """(strings, prototype index per string), the same on every call."""
    rng = np.random.default_rng(CORPUS_SEED)
    return noisy_copies(random_prototypes(rng), n, rng)


def make_inputs(workload, seed):
    """(payloads, truth labels, distance) for a workload, fixed by seed."""
    rng = np.random.default_rng(seed)
    if workload.kind == "blobs":
        X, labels = dataio.generate_blobs(
            workload.n, dim=10, centers=10, std=1.0, rng=rng
        )
        return list(X), labels, distances.euclidean
    if workload.kind == "strings":
        strings, labels = string_corpus(workload.n)
        order = rng.permutation(workload.n)
        return [strings[i] for i in order], labels[order], distances.jaro_winkler
    raise ValueError(f"unknown workload kind {workload.kind!r}")


def new_engine(distance, seed, record_pairs=False):
    return FISHDBC(
        distance, minpts=MINPTS, ef=EF, rng_seed=seed, record_pairs=record_pairs
    )


@dataclass
class PassResult:
    add_s: list  # per add() call
    cluster_s: list  # per cluster() call
    ops_s: float  # all add() and cluster() calls
    attempted: int
    failed: int
    inserted: np.ndarray  # bool per payload: add() succeeded
    labels: object  # np.ndarray from the final cluster(), None if it failed
    engine: FISHDBC
    errors: list  # repr of the exceptions raised by failed calls


def run_pass(workload, payloads, distance, seed, *, record_pairs=False,
             tracer=None, on_call=None):
    """Feed every payload to a fresh engine, clustering as the workload says.

    Every add() and cluster() call is timed on its own. A call that raises
    is counted as failed, its exception is kept, and the pass goes on.
    ``on_call(kind, seconds)`` runs untimed after each call, with kind
    "add" or "cluster".
    """
    if tracer is not None:
        distance = tracer.wrap_distance(distance)
    engine = new_engine(distance, seed, record_pairs)
    clock = time.perf_counter
    n = len(payloads)
    every = workload.recluster_every
    add_s, cluster_s = [], []
    inserted = np.zeros(n, dtype=bool)
    errors = []
    failed = 0

    def timed_cluster():
        nonlocal failed
        t = clock()
        result = None
        try:
            result = engine.cluster()
        except Exception as exc:
            failed += 1
            errors.append(repr(exc))
        dt = clock() - t
        cluster_s.append(dt)
        if on_call is not None:
            on_call("cluster", dt)
        return result

    with tracer.installed(engine) if tracer is not None else nullcontext():
        for i, payload in enumerate(payloads):
            t = clock()
            try:
                engine.add(payload)
                inserted[i] = True
            except Exception as exc:
                failed += 1
                errors.append(repr(exc))
            dt = clock() - t
            add_s.append(dt)
            if on_call is not None:
                on_call("add", dt)
            if every and (i + 1) % every == 0 and i + 1 < n:
                timed_cluster()
        final = timed_cluster()
    return PassResult(
        add_s=add_s,
        cluster_s=cluster_s,
        ops_s=sum(add_s) + sum(cluster_s),
        attempted=len(add_s) + len(cluster_s),
        failed=failed,
        inserted=inserted,
        labels=None if final is None else final.labels,
        engine=engine,
        errors=errors,
    )
