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

No distance is paid for twice. Within one insertion each unordered pair
reaches the distance function at most once; a repeat returns the stored
value, which relies on the distance being symmetric and deterministic. The
selection heuristic also compares pairs of existing items, and takes their
distance from the layer-0 links or from the caller's neighbor heaps when
either holds it: those values came from earlier insertions' triples, so the
pair is neither evaluated nor reported again.

The search evaluates a node's unvisited neighbors together, as hnswlib and
Malkov & Yashunin's Alg. 2 do. When the distance has a batched form
(``distances.MANY``: the built-in ``euclidean``) and two or more of those
pairs are unknown, they cost one call of that form, whose values equal the
scalar function's bit for bit; the heap updates then consume them in
neighbor order. Any other distance, including a wrapper around a built-in
(such as a tracer's timing wrapper), is called one pair at a time. The
selection heuristic stays scalar: it stops at the first closer kept
neighbor, so batching its comparisons would add calls.
"""

import heapq
import math

from .distances import MANY, DistanceError

__all__ = ["Hnsw"]


# Stands in for a missing adjacency or heap mirror; never written.
_EMPTY = {}


class _Recorder:
    """Wraps the distance function for one insertion; memoizes, validates
    and taps calls.

    A pair already evaluated in this insertion is answered from the memo,
    so ``raw`` is the number of real calls to ``fn`` and each evaluated
    pair yields exactly one triple. ``many`` evaluates one item against a
    list of others, in one call of the distance's batched form when it has
    one (``distances.MANY``) and two or more of the pairs are unknown.
    """

    __slots__ = ("fn", "batched", "items", "raw", "memo")

    def __init__(self, fn, items):
        self.fn = fn
        try:
            self.batched = MANY.get(fn)
        except TypeError:  # an unhashable callable has no batched form
            self.batched = None
        self.items = items
        self.raw = 0
        self.memo = {}

    def __call__(self, a, b):
        key = (a, b) if a < b else (b, a)
        v = self.memo.get(key)
        if v is not None:
            return v
        v = float(self.fn(self.items[a], self.items[b]))
        if not 0.0 <= v < math.inf:  # catches NaN, negatives and inf
            _reject(a, b, v)
        self.raw += 1
        self.memo[key] = v
        return v

    def many(self, a, ids):
        """``[self(a, b) for b in ids]`` for distinct ids; values are
        validated, and any error raised, in the order of ``ids``."""
        if self.batched is None:
            return [self(a, b) for b in ids]
        memo = self.memo
        keys = [(a, b) if a < b else (b, a) for b in ids]
        out = list(map(memo.get, keys))
        todo = [i for i, v in enumerate(out) if v is None]
        if len(todo) < 2:
            return [self(a, b) for b in ids]
        items = self.items
        values = self.batched(items[a], [items[ids[i]] for i in todo])
        if values is None:  # payloads the batched form does not handle
            return [self(a, b) for b in ids]
        for i, v in zip(todo, values):
            if not 0.0 <= v < math.inf:
                _reject(a, ids[i], v)
            memo[keys[i]] = out[i] = v
        self.raw += len(todo)
        return out

    def finish(self):
        triples = [(a, b, v) for (a, b), v in self.memo.items()]
        return triples, self.raw


def _reject(a, b, v):
    """Raise the DistanceError for an invalid value v of distance(a, b)."""
    if not v >= 0.0:  # NaN and negatives
        raise DistanceError(f"distance({a}, {b}) returned {v}")
    raise DistanceError(f"distance({a}, {b}) returned a non-finite value")


class Hnsw:
    """Insertion-only HNSW over items addressed by dense integer ids.

    ``items`` is a shared sequence of payloads owned by the caller; the id of
    an item is its index in that sequence. ``m`` is the per-layer degree
    target (``m0`` applies to layer 0) and ``ef`` the construction beam width.
    ``heap_dists`` is the caller's ``{item: {neighbor: distance}}`` map of
    distances it already holds, read but never written here; every value in
    it must have come from a triple this index returned.
    """

    def __init__(self, distance, items, m, m0, ef, level_mult, rng, heap_dists=None):
        self._distance = distance
        self._heap_dists = {} if heap_dists is None else heap_dists
        self._items = items
        self._m = m
        self._m0 = m0
        self._ef = ef
        self._level_mult = level_mult
        self._rng = rng
        self._layers = []  # layer 0 first; each: {node: {neighbor: dist}}
        self._entry = None

    # Every inserted node is in layer 0; there are no layers before the
    # first insert.
    def __contains__(self, x):
        return bool(self._layers) and x in self._layers[0]

    def assign_level(self):
        u = 1.0 - self._rng.random()  # in (0, 1]
        return int(-math.log(u) * self._level_mult)

    def insert(self, x):
        """Link item x into the graph.

        Returns ``(triples, raw_calls)``: one (a, b, distance) triple, a < b,
        per pair the insertion evaluated, and the number of calls made to
        the distance function, which equals the number of triples. Pairs
        whose distance was read from the layer-0 links or ``heap_dists``
        are neither evaluated nor reported.
        """
        if x in self:
            raise ValueError(f"item {x} already inserted")
        rec = _Recorder(self._distance, self._items)
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
        for lc, x_adj, backlinks, removals in staged:
            layer = self._layers[lc]
            layer[x] = x_adj
            for node, adj in backlinks.items():
                layer[node] = adj
            for a, b in removals:
                layer[a].pop(b, None)
                layer[b].pop(a, None)
        while len(self._layers) <= level:
            self._layers.append({x: {}})
            self._entry = x
        return rec.finish()

    def _stage(self, x, level, rec):
        """Every distance call of x's insertion, and the graph edits they
        decide as (layer, x's adjacency, replaced adjacencies, removals)."""
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
            backlinks = {}
            removals = []
            for d_xn, node in selected:
                adj = layer[node]
                if len(adj) < cap:
                    merged = dict(adj)
                    merged[x] = d_xn
                    backlinks[node] = merged
                else:
                    pool = sorted([(dd, p) for p, dd in adj.items()] + [(d_xn, x)])
                    pruned = {p: dd for dd, p in self._select_heuristic(pool, cap, rec)}
                    backlinks[node] = pruned
                    # Adjacency stays symmetric: every link the prune
                    # dropped disappears from the other endpoint too.
                    if x not in pruned:
                        del x_adj[node]
                    for old in adj:
                        if old not in pruned:
                            removals.append((node, old))
            staged.append((lc, x_adj, backlinks, removals))
        return staged

    def _beam_search(self, x, entry_points, layer, ef, rec):
        """Best-first search keeping the ef closest nodes found.

        ``entry_points`` is a heap of (-dist, node); the same representation
        is returned.
        """
        candidates = [(-nd, node) for nd, node in entry_points]
        heapq.heapify(candidates)
        visited = set(node for _, node in entry_points)
        while candidates:
            dist, node = heapq.heappop(candidates)
            worst = -entry_points[0][0]
            if dist > worst:
                break
            fresh = [nbr for nbr in layer[node] if nbr not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            for nbr, d in zip(fresh, rec.many(x, fresh)):
                if len(entry_points) < ef:
                    heapq.heappush(candidates, (d, nbr))
                    heapq.heappush(entry_points, (-d, nbr))
                elif d < worst:
                    heapq.heappush(candidates, (d, nbr))
                    heapq.heapreplace(entry_points, (-d, nbr))
                    worst = -entry_points[0][0]
        return entry_points

    def _select_heuristic(self, candidates, cap, rec):
        """Neighbor selection keeping candidates closer to the base point
        than to any already-kept neighbor.

        ``candidates`` must be sorted ascending (dist-to-base, node); the
        kept subset (same representation) is returned. A candidate-to-kept
        distance the layer-0 links or the neighbor heaps hold is read, not
        evaluated.
        """
        if len(candidates) <= cap:
            return list(candidates)
        layer0 = self._layers[0]
        heaps = self._heap_dists
        kept = []
        for d_c, c in candidates:
            if len(kept) >= cap:
                break
            adj_c = layer0.get(c, _EMPTY)
            heap_c = heaps.get(c, _EMPTY)
            good = True
            for _, k in kept:
                d = adj_c.get(k)
                if d is None:
                    d = heap_c.get(k)
                if d is None:
                    d = heaps.get(k, _EMPTY).get(c)
                if d is None:
                    d = rec(c, k)
                if d < d_c:
                    good = False
                    break
            if good:
                kept.append((d_c, c))
        return kept
