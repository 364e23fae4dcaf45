"""Incremental density-based clustering engine.

Items are added one at a time. Every distance computed while linking an item
into the HNSW is tapped and used twice: it updates both endpoints' sets of
nearest neighbors (which define core distances) and it feeds candidate
edges of the mutual-reachability graph into a bounded buffer. The buffer is
an append-only log: a pair pushed again is held again, and at the flush its
lightest copy wins. When the log holds more than ``ALPHA * n`` raw entries,
copies included, it is folded into the approximate minimum spanning forest
with Filter-Kruskal, whose union-find sweep also emits the forest's
single-linkage dendrogram. Clustering at any point flushes the buffer and
condenses that dendrogram; only when items were added with nothing to fold
in (the first item) is the dendrogram rebuilt from the forest.

``add()`` appends each triple and each eviction with its raw distance, one
``push`` each, and marks the existing rows whose neighbor set changed as
dirty. A pair's weight max(d, core[a], core[b]) only falls, and only while
a row whose core falls holds the pair, so the flush first appends every
pair a dirty row holds, in one bulk ``extend``, then weighs the whole log
at once with the current core distances. A forest edge whose weight has
since fallen is re-supplied that way, by the dirty row that holds it or by
its eviction, and its lighter copy wins. So the forest is a true minimum
spanning forest of the reachability graph restricted to computed pairs.
"""

import numpy as np

from .distances import PREPARED
from .hierarchy import build_dendrogram, check_min_cluster_size, condense, extract_flat
from .hnsw import Hnsw
from .msf import CandidateBuffer, Msf, update_msf
from .neighbors import NeighborStore

__all__ = ["FISHDBC"]

# Flush threshold in log entries per item; no output depends on when flushes run.
ALPHA = 32.0


class FISHDBC:
    """Incremental clustering engine over arbitrary payloads.

    ``distance`` is any symmetric, deterministic, non-negative function of
    two payloads; no triangle inequality is assumed. A distance already
    known, possibly computed with the arguments swapped, is reused instead
    of computed again. Single writer: ``add``, ``flush`` and
    ``cluster`` must not run concurrently.

    The built-in ``euclidean`` (``distances.PREPARED``) has each payload
    converted once, in ``add``, and the HNSW measures the converted ones.
    The first successful ``add`` fixes the form: up to
    ``distances.TUPLE_DIM`` coordinates a tuple of floats, which the engine
    keeps as its own copy and measures with ``math.dist`` itself, above it
    a C-contiguous float64 array, kept as given if it is one. A later
    payload of another dimension raises ``ValueError("dimension mismatch:
    ...")`` from ``add`` before any state changes.
    """

    def __init__(self, distance, *, minpts=10, ef=20, rng_seed=0,
                 record_pairs=False):
        # NeighborStore rejects minpts < 2 before the HNSW takes ln(minpts).
        self._neighbors = NeighborStore(minpts)
        # Written so that NaN fails it.
        if not ef >= 1:
            raise ValueError(f"ef must be >= 1 (got {ef})")
        self._items = []
        # A prepared distance's form is fixed by the first payload added:
        # until then ``_prepare`` is None and ``_form`` makes it.
        try:
            self._form = PREPARED[distance]
        except (KeyError, TypeError):  # TypeError: an unhashable distance
            self._form = None
        self._prepare = None
        # The HNSW degree target is M = minpts. The HNSW reads distances
        # the neighbor sets hold instead of recomputing them.
        self._hnsw = Hnsw(
            distance,
            self._items,
            m=minpts,
            ef=ef,
            rng=np.random.default_rng(rng_seed),
            neighbor_dists=self._neighbors.dists,
        )
        self._buf = CandidateBuffer()
        self._msf = Msf()
        # Existing items whose neighbor set changed since the last flush.
        self._dirty = set()
        self._distance_calls = 0
        self._pairs = {} if record_pairs else None
        # Entries the last add() appended to the buffer: its triples plus
        # its evictions, one push each.
        self.last_add_pushes = 0

    @property
    def n(self):
        return len(self._items)

    @property
    def distance_calls(self):
        """Total raw distance evaluations performed so far."""
        return self._distance_calls

    def pair_log(self):
        """All computed pairs as {(i, j): distance}, i < j.

        A pair computed more than once is logged once, with the value every
        computation gives under the deterministic distance contract above.
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

        A distance function failure (NaN, negative, non-finite), or a
        payload the prepared form cannot convert, aborts the insertion with
        no state change.
        """
        x = len(self._items)
        if self._prepare is not None:
            payload = self._prepare(payload)
        elif self._form is not None:
            # The first item's insertion calls no distance, so the HNSW
            # takes the kernel now and first calls it on the next add.
            self._prepare, self._hnsw.distance = self._form(payload)
            payload = self._prepare(payload)
        self._items.append(payload)
        try:
            triples, calls = self._hnsw.insert(x)
        except BaseException:
            self._items.pop()
            if x == 0:
                self._prepare = None  # the form is the first added payload's
            raise
        self._distance_calls += calls
        ns = self._neighbors
        core = ns.core
        observe = ns.observe
        buf = self._buf
        push = buf.push
        dirty = self._dirty

        # Neighbor set updates for both endpoints of every triple; each
        # triple and each eviction is appended with its raw distance, for
        # the flush to weigh. The HNSW's recorder has checked every value,
        # and ``observe`` changes nothing when offered v >= core[a], so only
        # a distance below the endpoint's core distance is offered to its
        # set. The HNSW never evaluates a pair either set holds, so such an
        # offer always changes the set. Triples are (lo, hi, v) and x is the
        # largest id, so x's triples are those with b == x: x's set is
        # filled from them at once, and all of x's pairs are in the buffer
        # already.
        before = len(buf)
        offers = []
        for a, b, v in triples:
            push(a, b, v)
            if v < core[a]:
                ev = observe(a, b, v)[1]
                dirty.add(a)
                if ev is not None:
                    push(a, ev[0], ev[1])
            if b == x:
                offers.append((a, v))
            elif v < core[b]:
                ev = observe(b, a, v)[1]
                dirty.add(b)
                if ev is not None:
                    push(b, ev[0], ev[1])
        ns.fill(x, offers)
        self.last_add_pushes = len(buf) - before

        if self._pairs is not None:
            self._pairs.update(((a << 32) | b, v) for a, b, v in triples)

        if len(buf) > ALPHA * len(self._items):
            self.flush()
        return x

    def flush(self):
        """Fold buffered candidate edges into the spanning forest.

        Callable at any idle point between adds; a no-op on an empty buffer.
        Results do not depend on when flushes run, so a caller that wants a
        buffer smaller than ALPHA * n may flush more often than ``add`` does.
        """
        buf = self._buf
        dirty = self._dirty
        # Every pair a dirty row holds, at its raw distance: its weight may
        # have fallen since it was appended or joined the forest. Of two
        # dirty rows that hold each other, only the smaller id's appends it.
        dists = self._neighbors.dists
        keys = []
        weights = []
        for y in dirty:
            for z, d in dists[y].items():
                if z > y:
                    keys.append((y << 32) | z)
                elif z in dirty and y in dists[z]:
                    continue
                else:
                    keys.append((z << 32) | y)
                weights.append(d)
        buf.extend(keys, weights)
        dirty.clear()
        if len(buf):
            n = len(self._items)
            buf.weigh(np.fromiter(self._neighbors.core.values(), float, n))
            update_msf(self._msf, buf, n)

    def cluster(self, min_cluster_size=None):
        """Extract the hierarchy and a flat labeling from the current state.

        ``min_cluster_size`` defaults to ``minpts``; any value >= 2 cuts the
        same state coarser or finer. Repeatable: without intervening adds,
        repeated calls return identical results.
        """
        if not self._items:
            raise ValueError("nothing to cluster: no items added")
        if min_cluster_size is None:
            min_cluster_size = self._neighbors.minpts
        check_min_cluster_size(min_cluster_size)
        self.flush()
        n = len(self._items)
        msf = self._msf
        dend = msf.dendrogram
        if dend is None or dend.n_points != n:
            # Items came with nothing to flush: the forest is current, but
            # its rows number their internal nodes from an older n.
            dend = build_dendrogram(msf.lo, msf.hi, msf.weight, n)
        return extract_flat(condense(dend, min_cluster_size))
