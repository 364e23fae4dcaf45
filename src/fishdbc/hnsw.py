"""Hierarchical navigable small world graph used purely as an insertion engine.

The index is never queried. Its sole job is to link each new item into the
layered neighborhood graph and report every distance evaluated while doing so
as (a, b, d(a, b)) triples for the clustering side to consume. All distance
calls happen before any graph mutation, so a failing distance function leaves
the index untouched.

One best-first search serves every layer, as in Malkov & Yashunin's
insertion algorithm: with a beam of 1 above the new item's level, where it
only finds the entry point for the next layer down, and with the
construction width ``ef`` at and below that level, where its result is
pruned by the selection heuristic into the item's links.

No distance is paid for twice while it is held. Within one insertion each
unordered pair reaches the distance function at most once; a repeat returns
the stored value, which relies on the distance being symmetric and
deterministic. The selection heuristic also compares pairs of existing
items, and takes their distance from the layer-0 links, from the caller's
neighbor sets or from a bounded cache of the pairs that earlier
insertions' heuristics compared (the ones Malkov & Yashunin's Alg. 4 keeps
coming back to) when any of them holds it: those values came from earlier
insertions' triples, so the pair is neither evaluated nor reported again.
The cache is two generations of ``{lo << 32 | hi: distance}``: each
insertion's heuristic pairs, found or evaluated, join the recent one when
the insertion commits, and once that holds more than 4n pairs it becomes
the older one and the older one is dropped. So at most 8n pairs, plus one
insertion's, are held. The bound trades memory for calls: the heuristic
re-compares a node's links long after it first met them, so a shorter
generation drops pairs before their next use, and a longer one holds more
memory for few more hits.

The search evaluates a node's unvisited neighbors one call each, in
neighbor order, as hnswlib and Malkov & Yashunin's Alg. 2 do. One
insertion's memo and served pairs live in a ``_Recorder``. The search, which
makes most of the calls, reads and writes the memo inline, and the
heuristic reads the cache and writes ``served`` inline; only the entry
point's call and the heuristic's misses go through ``_Recorder.__call__``.
"""

import heapq
import math

from .distances import DistanceError

__all__ = ["Hnsw"]


# Stands in for a missing adjacency or neighbor set; never written.
_EMPTY = {}


class _Recorder:
    """One insertion's distance state: the memo of its real calls and the
    pairs of the index's cache it served.

    Every value the recorder holds is finite and >= 0, or ``_reject``
    raises. A pair already evaluated in this insertion is answered from
    ``memo``, and only a real call to ``fn`` writes it, so the memo holds
    one entry, and yields one triple, per real call. ``__call__`` is the
    path for the entry point and the selection heuristic's misses;
    ``Hnsw._beam_search`` reads and writes ``memo`` inline, and
    ``Hnsw._select_heuristic`` reads the pair cache (``recent``, ``older``)
    inline and collects the pairs it serves in ``served``, which only the
    insertion's commit writes back.
    """

    __slots__ = ("fn", "items", "memo", "recent", "older", "served")

    def __init__(self, fn, items, recent, older):
        self.fn = fn
        self.items = items
        self.memo = {}
        self.recent = recent
        self.older = older
        self.served = {}

    def __call__(self, a, b):
        key = (a, b) if a < b else (b, a)
        v = self.memo.get(key)
        if v is not None:
            return v
        v = float(self.fn(self.items[a], self.items[b]))
        if not 0.0 <= v < math.inf:  # catches NaN, negatives and inf
            _reject(a, b, v)
        self.memo[key] = v
        return v

    def finish(self):
        """``(triples, calls)``: one (a, b, v) triple per memo entry, and
        their number, which is the number of real calls."""
        triples = [(a, b, v) for (a, b), v in self.memo.items()]
        return triples, len(triples)


def _reject(a, b, v):
    """Raise the DistanceError for an invalid value v of distance(a, b)."""
    if not v >= 0.0:  # NaN and negatives
        raise DistanceError(f"distance({a}, {b}) returned {v}")
    raise DistanceError(f"distance({a}, {b}) returned a non-finite value")


class Hnsw:
    """Insertion-only HNSW over items addressed by dense integer ids.

    ``items`` is a shared sequence of payloads owned by the caller, in the
    form ``distance`` measures; the id of an item is its index in that
    sequence. ``m`` is the per-layer degree
    target and ``ef`` the construction beam width.
    ``neighbor_dists`` is the caller's ``{item: {neighbor: distance}}`` map
    of distances it already holds, read but never written here; every value
    in it must have come from a triple this index returned.
    """

    def __init__(self, distance, items, m, ef, rng, neighbor_dists):
        self._distance = distance
        self._neighbor_dists = neighbor_dists
        self._items = items
        # Malkov & Yashunin's recommended settings: layer 0 holds up to
        # M_max0 = 2M links and levels are drawn with m_L = 1 / ln M.
        self._m = m
        self._m0 = 2 * m
        self._ef = ef
        self._level_mult = 1.0 / math.log(m)
        self._rng = rng
        self._layers = []  # layer 0 first; each: {node: {neighbor: dist}}
        self._entry = None
        # Two generations of heuristic pairs, keyed lo << 32 | hi; the
        # recent one rotates once it holds more than 4n pairs.
        self._recent = {}
        self._older = {}

    def assign_level(self):
        u = 1.0 - self._rng.random()  # in (0, 1]
        return int(-math.log(u) * self._level_mult)

    def insert(self, x):
        """Link item x into the graph.

        Returns ``(triples, len(triples))``: one (a, b, distance) triple,
        a < b, per call the insertion made to the distance function. Pairs
        whose distance was read from the layer-0 links, ``neighbor_dists``
        or the pair cache are neither evaluated nor reported. The pair
        cache is written only once the insertion has made all its distance
        calls, so a failed insertion leaves it as it was.
        """
        # Every inserted node is in layer 0; there are no layers before the
        # first insert.
        if self._layers and x in self._layers[0]:
            raise ValueError(f"item {x} already inserted")
        rec = _Recorder(self._distance, self._items, self._recent, self._older)
        # A failed insertion must not spend its level draw: later levels,
        # and with them every later result, would depend on the failure.
        rng_state = self._rng.bit_generator.state
        level = self.assign_level()
        try:
            staged = self._stage(x, level, rec)
        except BaseException:
            self._rng.bit_generator.state = rng_state
            raise

        # Commit phase: no distance calls from here on.
        for lc, x_adj, pruned, drops in staged:
            layer = self._layers[lc]
            layer[x] = x_adj
            layer.update(pruned)
            for node, d in x_adj.items():
                layer[node][x] = d
            for node, old in drops:  # node's pruned set already lacks old
                layer[old].pop(node, None)
        while len(self._layers) <= level:
            self._layers.append({x: {}})
            self._entry = x
        recent = self._recent
        recent.update(rec.served)
        if len(recent) > 4 * len(self._layers[0]):
            self._older = recent
            self._recent = {}
        return rec.finish()

    def _stage(self, x, level, rec):
        """Every distance call of x's insertion, and per layer the graph
        edits they decide: (layer, x's links, full neighbors' pruned links,
        dropped links). The commit derives the rest: it links x in place
        into every node left in x's links."""
        staged = []
        if self._entry is None:
            return staged
        entry_points = [(-rec(x, self._entry), self._entry)]
        for lc in range(len(self._layers) - 1, -1, -1):
            layer = self._layers[lc]
            ef = 1 if lc > level else self._ef
            entry_points = self._beam_search(x, entry_points, layer, ef, rec)
            if lc > level:
                continue  # above x's level: only the entry for the layer below
            cap = self._m0 if lc == 0 else self._m
            candidates = sorted((-nd, node) for nd, node in entry_points)
            selected = self._select_heuristic(candidates, cap, rec)
            x_adj = {node: d for d, node in selected}
            pruned = {}
            drops = []
            for d_xn, node in selected:
                adj = layer[node]
                if len(adj) < cap:
                    continue
                pool = sorted([(dd, p) for p, dd in adj.items()] + [(d_xn, x)])
                kept = {p: dd for dd, p in self._select_heuristic(pool, cap, rec)}
                pruned[node] = kept
                if x not in kept:
                    del x_adj[node]
                # Adjacency stays symmetric: the commit removes every link
                # the prune dropped from its other endpoint too.
                drops.extend((node, old) for old in adj if old not in kept)
            staged.append((lc, x_adj, pruned, drops))
        return staged

    def _beam_search(self, x, entry_points, layer, ef, rec):
        """Best-first search keeping the ef closest nodes found.

        ``entry_points`` is a heap of (-dist, node); the same representation
        is returned. A fresh neighbor's distance is read from ``rec.memo``,
        or evaluated, checked and written there.
        """
        heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
        inf = math.inf
        memo, fn, items = rec.memo, rec.fn, rec.items
        item_x = items[x]
        candidates = [(-nd, node) for nd, node in entry_points]
        heapq.heapify(candidates)
        visited = set(node for _, node in entry_points)
        while candidates:
            dist, node = heappop(candidates)
            worst = -entry_points[0][0]
            if dist > worst:
                break
            fresh = [nbr for nbr in layer[node] if nbr not in visited]
            visited.update(fresh)
            for nbr in fresh:
                key = (x, nbr) if x < nbr else (nbr, x)
                d = memo.get(key)
                if d is None:
                    d = float(fn(item_x, items[nbr]))
                    if not 0.0 <= d < inf:  # catches NaN, negatives and inf
                        _reject(x, nbr, d)
                    memo[key] = d
                if len(entry_points) < ef:
                    heappush(candidates, (d, nbr))
                    heappush(entry_points, (-d, nbr))
                elif d < worst:
                    heappush(candidates, (d, nbr))
                    heapreplace(entry_points, (-d, nbr))
                    worst = -entry_points[0][0]
        return entry_points

    def _select_heuristic(self, candidates, cap, rec):
        """Neighbor selection keeping candidates closer to the base point
        than to any already-kept neighbor.

        ``candidates`` must be sorted ascending (dist-to-base, node); the
        kept subset (same representation) is returned, and when it keeps
        every candidate, that is ``candidates`` itself. A candidate-to-kept
        distance the layer-0 links, the neighbor sets or the pair cache
        hold is read, not evaluated. Every pair taken from the pair cache
        or evaluated is collected in ``rec.served`` for the commit.
        """
        if len(candidates) <= cap:
            return candidates
        layer0 = self._layers[0]
        near = self._neighbor_dists
        recent, older, served = rec.recent, rec.older, rec.served
        kept = []
        for d_c, c in candidates:
            if len(kept) >= cap:
                break
            adj_c = layer0.get(c, _EMPTY)
            near_c = near.get(c, _EMPTY)
            good = True
            for _, k in kept:
                d = adj_c.get(k)
                if d is None:
                    d = near_c.get(k)
                if d is None:
                    d = near.get(k, _EMPTY).get(c)
                if d is None:
                    key = c << 32 | k if c < k else k << 32 | c
                    d = recent.get(key)
                    if d is None:
                        d = older.get(key)
                        if d is None:
                            d = rec(c, k)
                    served[key] = d
                if d < d_c:
                    good = False
                    break
            if good:
                kept.append((d_c, c))
        return kept
