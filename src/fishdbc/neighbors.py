"""Per-item bounded sets of the closest discovered neighbors.

Each item keeps its ``minpts`` closest neighbors seen so far in one
``{neighbor: distance}`` dict (``NeighborStore.dists``), and a stored core
distance (``NeighborStore.core``): +inf until the set is full, then the
largest distance in it. That rule makes core distances monotone
non-increasing over the store's lifetime. Others read both dicts directly;
only the store writes them.

Every change to a set goes through ``observe``, which owns the admission,
eviction and tie rules. A new item's set is built from the distances its
insertion computed (``fill``) by offering ``observe`` those no farther than
the minpts-th smallest.
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
        order, starting from an empty set, leaves. The neighbors must be
        distinct and differ from x.

        Only the offers at or below c, the minpts-th smallest offered
        distance, are made: a full set's core never falls below c, so an
        offer above c could only hold a slot until enough offers at or below
        c arrive. ``observe`` applies every admission, eviction and tie rule.
        """
        if x in self.dists:
            raise ValueError(f"item {x} already registered")
        self.dists[x] = {}
        self.core[x] = INF
        k = self.minpts
        cut = sorted([v for _, v in offers])[k - 1] if len(offers) > k else INF
        for y, v in offers:
            if v <= cut:
                self.observe(x, y, v)

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
