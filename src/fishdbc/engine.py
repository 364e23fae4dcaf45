"""Incremental density-based clustering engine.

Items are added one at a time. Every distance computed while linking an item
into the HNSW is tapped and used twice: it updates both endpoints' sets of
nearest neighbors (which define core distances) and it feeds candidate
edges of the mutual-reachability graph into a bounded buffer. The buffer is
an append-only log: a pair pushed again is held again, and at the flush its
lightest copy wins. When the log holds more than ``alpha * n`` raw entries,
copies included, it is folded into the approximate minimum spanning forest
with Filter-Kruskal. Clustering at any point flushes the buffer and extracts
the hierarchy from the forest.

Whenever an existing item's neighbor set changes, the edges to its current
members (and to the entry just evicted, if any) are re-pushed with freshly
settled core distances. This keeps every computed pair's best-known weight
converging to its exact mutual reachability distance, so the final forest is
a true minimum spanning forest of the reachability graph restricted to
computed pairs. The new item's own edges need no re-push: each is one of
its insertion's triples, pushed with the same settled weight.
"""

import math
from itertools import chain

import numpy as np

from .hierarchy import build_dendrogram, condense, extract_flat
from .hnsw import Hnsw
from .msf import CandidateBuffer, Msf, should_flush, update_msf
from .neighbors import NeighborStore

__all__ = ["FISHDBC"]


class FISHDBC:
    """Incremental clustering engine over arbitrary payloads.

    ``distance`` is any symmetric, deterministic, non-negative function of
    two payloads; no triangle inequality is assumed. A distance already
    known, possibly computed with the arguments swapped, is reused instead
    of computed again. Single writer: ``add``, ``flush`` and
    ``cluster`` must not run concurrently.
    """

    def __init__(self, distance, *, minpts=10, ef=20, min_cluster_size=None,
                 alpha=32.0, rng_seed=0, record_pairs=False):
        # NeighborStore rejects minpts < 2 before math.log(minpts) runs.
        self._neighbors = NeighborStore(minpts)
        # Each bound is written so that NaN fails it.
        if not ef >= 1:
            raise ValueError(f"ef must be >= 1 (got {ef})")
        if min_cluster_size is None:
            min_cluster_size = minpts
        if not min_cluster_size >= 2:
            raise ValueError(f"min_cluster_size must be >= 2 (got {min_cluster_size})")
        if not 1 <= alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 1 (got {alpha})")
        self.min_cluster_size = min_cluster_size
        self.alpha = alpha
        self._items = []
        self._rng = np.random.default_rng(rng_seed)
        # The HNSW paper's recommended settings (Malkov & Yashunin):
        # M = minpts, M_max0 = 2M and level multiplier m_L = 1 / ln M.
        # The HNSW reads distances the neighbor sets hold instead of
        # recomputing them.
        self._hnsw = Hnsw(
            distance,
            self._items,
            m=minpts,
            m0=2 * minpts,
            ef=ef,
            level_mult=1.0 / math.log(minpts),
            rng=self._rng,
            neighbor_dists=self._neighbors.dists,
        )
        self._buf = CandidateBuffer()
        self._msf = Msf()
        self._distance_calls = 0
        self._pairs = {} if record_pairs else None
        # Entries the last add() appended to the buffer, one per push.
        self.last_add_pushes = 0

    @property
    def n(self):
        return len(self._items)

    @property
    def distance_calls(self):
        """Total raw distance evaluations performed so far."""
        return self._distance_calls

    @property
    def candidate_count(self):
        """Entries the candidate buffer holds, copies of a pair included:
        the count that ``alpha * n`` bounds."""
        return len(self._buf)

    def pair_log(self):
        """All computed pairs as {(i, j): distance}, i < j.

        Only available when the engine was created with record_pairs=True.
        """
        if self._pairs is None:
            raise RuntimeError("engine was not created with record_pairs=True")
        return {(k >> 32, k & 0xFFFFFFFF): v for k, v in self._pairs.items()}

    def forest_edges(self):
        """Edges currently in the spanning forest (may lag the buffer)."""
        return self._msf.edges()

    def add(self, payload):
        """Insert one item; returns its dense integer id.

        A distance function failure (NaN, negative, non-finite) aborts the
        insertion with no state change.
        """
        x = len(self._items)
        self._items.append(payload)
        try:
            triples, raw = self._hnsw.insert(x)
        except BaseException:
            self._items.pop()
            raise
        self._distance_calls += raw
        ns = self._neighbors
        core = ns.core
        observe = ns.observe
        buf = self._buf
        push = buf.push

        # Phase 1: neighbor set updates for both endpoints of every triple.
        # Track whose top-minpts set changed and what fell out. The values
        # are finite, and ``observe`` returns (False, None) and changes
        # nothing when offered v >= core[a], so only a distance below the
        # endpoint's core distance is offered to its set. Triples are
        # (lo, hi, v) and x is the largest id, so x's triples are those with
        # b == x: they are collected and x's set is filled from them at once.
        changed = {}
        evictions = []
        offers = []
        for a, b, v in triples:
            if v < core[a]:
                improved, ev = observe(a, b, v)
                if improved:
                    changed[a] = True
                    if ev is not None:
                        evictions.append((a, ev[0], ev[1]))
            if b == x:
                offers.append((a, v))
            elif v < core[b]:
                improved, ev = observe(b, a, v)
                if improved:
                    changed[b] = True
                    if ev is not None:
                        evictions.append((b, ev[0], ev[1]))
        ns.fill(x, offers)

        if self._pairs is not None:
            log = self._pairs
            for a, b, v in triples:
                key = (a << 32) | b
                cur = log.get(key)
                if cur is None or v < cur:
                    log[key] = v

        # Phase 2: candidate edges, all weighted with the settled cores.
        # Every edge with endpoint x is a triple of this insertion, pushed
        # here with max(d, core[x], core[z]). Re-pushing x's members, its
        # evictions or a changed row's entry for x would repeat that push
        # with the same weight, so x is kept out of ``changed`` and skipped
        # in the rows. Any other pair that a changed row holds is pushed by
        # that row with the same distance and weight, so the triple or
        # eviction is skipped, and of two changed rows that hold each other
        # only the smaller id's row pushes the pair.
        dists = ns.dists
        before = len(buf)
        for a, b, v in chain(triples, evictions):
            if b != x and ((a in changed and b in dists[a])
                           or (b in changed and a in dists[b])):
                continue
            w = v
            c = core[a]
            if c > w:
                w = c
            c = core[b]
            if c > w:
                w = c
            push(a, b, w)
        for y in changed:
            cy = core[y]
            for z, d in dists[y].items():
                if z == x or (z < y and z in changed and y in dists[z]):
                    continue
                w = d if d > cy else cy
                cz = core[z]
                if cz > w:
                    w = cz
                push(y, z, w)
        self.last_add_pushes = len(buf) - before

        if should_flush(len(buf), len(self._items), self.alpha):
            self.flush()
        return x

    def flush(self):
        """Fold buffered candidate edges into the spanning forest.

        Callable at any idle point between adds; a no-op on an empty buffer.
        """
        if len(self._buf):
            update_msf(self._msf, self._buf, len(self._items))

    def cluster(self, min_cluster_size=None):
        """Extract the hierarchy and a flat labeling from the current state.

        Repeatable: without intervening adds, repeated calls return
        identical results.
        """
        if not self._items:
            raise ValueError("nothing to cluster: no items added")
        m_cs = self.min_cluster_size if min_cluster_size is None else min_cluster_size
        if not m_cs >= 2:
            raise ValueError(f"min cluster size must be >= 2 (got {m_cs})")
        self.flush()
        n = len(self._items)
        dend = build_dendrogram(self._msf.lo, self._msf.hi, self._msf.weight, n)
        return extract_flat(condense(dend, m_cs))
