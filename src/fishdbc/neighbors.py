"""Per-item bounded sets of the closest discovered neighbors.

Each item keeps its ``minpts`` closest neighbors seen so far in one
``{neighbor: distance}`` dict (``NeighborStore.dists``), and a stored core
distance (``NeighborStore.core``): +inf until the set is full, then the
largest distance in it. That rule makes core distances monotone
non-increasing over the store's lifetime. Others read both dicts directly;
only the store writes them.

An existing item's set changes one offered distance at a time
(``observe``). A new item's set is built at once from all the distances
its insertion computed (``fill``), with the same result as offering them
to ``observe`` in order.
"""

import math
import operator

__all__ = ["NeighborStore"]

INF = math.inf


class NeighborStore:
    """Bounded neighbor sets and core distances, keyed by item id.

    ``dists`` maps item -> {neighbor: distance} and ``core`` maps item ->
    core distance. Others may read both (the HNSW reuses the distances, the
    engine reads cores without a call) but never write them.
    """

    def __init__(self, minpts):
        # A set is full when its size equals minpts, so only an integer can
        # ever fill one.
        try:
            operator.index(minpts)
        except TypeError:
            raise ValueError(f"minpts must be an integer (got {minpts!r})") from None
        if not minpts >= 2:
            raise ValueError(f"minpts must be >= 2 (got {minpts})")
        self.minpts = minpts
        self.dists = {}
        self.core = {}

    def fill(self, x, offers):
        """Add x with the set and core distance that offering each
        ``(neighbor, distance)`` of ``offers`` to ``observe(x, ...)`` in
        order, starting from an empty set, would leave. The neighbors must
        be distinct and differ from x.

        Let c be the minpts-th smallest offered distance. Every offer below
        c is kept. Offers tied at c that arrive after the minpts-th offer at
        or below c meet a full set with core c and are refused; of the
        earlier ones, each later offer below c evicts the lowest id, so the
        highest ids are kept. The dict keeps the arrival order ``observe``
        would give it.
        """
        if x in self.dists:
            raise ValueError(f"item {x} already registered")
        k = self.minpts
        if len(offers) <= k:
            near = dict(offers)
            core = max(near.values()) if len(near) == k else INF
        else:
            core = sorted([v for _, v in offers])[k - 1]
            near = {y: v for y, v in offers if v <= core}
            if len(near) > k:
                items = list(near.items())
                for y, v in items[k:]:
                    if v == core:
                        del near[y]
                ties = sorted(y for y, v in items[:k] if v == core)
                for y in ties[: len(near) - k]:
                    del near[y]
        self.dists[x] = near
        self.core[x] = core

    def observe(self, x, y, v):
        """Record that d(x, y) = v, updating x's set only.

        Returns ``(improved, evicted)`` where ``improved`` says whether x's
        top-minpts set changed and ``evicted`` is the ``(neighbor, distance)``
        entry pushed out of the set, if any. Only a strict improvement on the
        core distance evicts; of equally far entries, the lowest id goes.
        For a finite ``v >= core[x]`` the result is ``(False, None)`` and
        nothing changes: an underfull set has core +inf, and a member y of
        a full set has d(x, y) <= core[x] <= v.
        """
        if x == y:
            raise ValueError("an item cannot be its own neighbor")
        near = self.dists[x]
        old = near.get(y)
        if old is not None:
            if v >= old:
                return False, None
            # Same pair re-observed with a smaller distance. Only a full
            # set's core can move; an underfull one stays at +inf.
            near[y] = v
            if len(near) == self.minpts and old == self.core[x]:
                self.core[x] = max(near.values())
            return True, None
        if len(near) < self.minpts:
            near[y] = v
            if len(near) == self.minpts:
                self.core[x] = max(near.values())
            return True, None
        core = self.core[x]
        if v >= core:
            return False, None
        evicted = min(z for z, d in near.items() if d == core)
        del near[evicted]
        near[y] = v
        self.core[x] = max(near.values())
        return True, (evicted, core)

    def core_distance(self, x):
        """Distance of x's minpts-th closest known neighbor; +inf if unknown."""
        return self.core[x]

    def members(self, x):
        """Current entries of x's set as (neighbor, distance) pairs."""
        return list(self.dists[x].items())
