"""Wrappers that time the engine's layers from the outside.

Coarse calls (add, insert, flush, cluster, the hierarchy steps and the two
union-find kernels) are kept as spans in memory, each with its parent. The
per-triple calls (distance, heap updates, buffer pushes) happen about a
million times per run, so only their count and summed time are kept.

A span's self time is its duration minus its child spans and minus the
per-triple calls made inside it but outside those children.
"""

import time
from collections import Counter
from contextlib import contextmanager

from fishdbc import _accel, engine as engine_mod
from fishdbc.engine import FISHDBC
from fishdbc.msf import CandidateBuffer
from fishdbc.neighbors import NeighborStore

clock = time.perf_counter


class Tracer:
    def __init__(self):
        # [name, parent index or -1, start, end, per-triple seconds inside]
        self.spans = []
        self._open = []
        # per-triple seconds so far, plus the tracer's own bookkeeping
        self.fine_s = 0.0
        self.calls = {}  # name -> [count, seconds]
        self.counts = Counter()

    # -- wrapper factories -------------------------------------------------

    def _cell(self, name):
        return self.calls.setdefault(name, [0, 0.0])

    def _fine(self, name, fn, on_result=None):
        """Wrap a per-triple call: count it and sum its time. ``on_result``
        sees each result; its time is left to the enclosing span."""
        cell = self._cell(name)
        tracer = self

        def wrapper(*args):
            t = clock()
            r = fn(*args)
            dt = clock() - t
            cell[0] += 1
            cell[1] += dt
            tracer.fine_s += dt
            if on_result is not None:
                on_result(r)
            return r

        return wrapper

    def _span(self, name, fn, after=None):
        """Wrap fn as a span; ``after(args, result)`` runs once the span has
        ended and its time is excluded from the enclosing span."""
        spans, stack = self.spans, self._open
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, tracer.fine_s]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                rec[4] = tracer.fine_s - rec[4]
                stack.pop()
            if after is not None:
                after(args, result)
                tracer.fine_s += clock() - rec[3]
            return result

        return wrapper

    def wrap_distance(self, fn):
        return self._fine("distance", fn)

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self, engine):
        """Wrap the layers for the duration of the block, then restore them.

        Class-level patches (CandidateBuffer has __slots__) reach every
        instance, so only one engine should run inside the block.
        """
        counts = self.counts

        def after_add(args, result):
            counts["buffer_growth"] += args[0].last_add_pushes

        def after_insert(args, result):
            triples, _ = result
            x = args[0]
            counts["triples"] += len(triples)
            # triples are (lo, hi, d) and x is the newest, so the largest, id
            counts["new_item_triples"] += sum(1 for t in triples if t[1] == x)

        def before_flush(fn):
            def flush(msf, buf, n):
                counts["flush_edges_in"] += len(msf) + len(buf)
                return fn(msf, buf, n)

            return flush

        def after_observe(result):
            improved, evicted = result
            if improved:
                counts["improved"] += 1
                if evicted is not None:
                    counts["evictions"] += 1

        def after_cluster(args, result):
            counts["clusters"] += len(result.condensed.clusters)
            counts["events"] += len(result.condensed.events)

        span, fine = self._span, self._fine
        hnsw = engine._hnsw
        patches = [
            (FISHDBC, "add", span("add", FISHDBC.add, after_add)),
            (FISHDBC, "cluster", span("cluster", FISHDBC.cluster, after_cluster)),
            (hnsw, "insert", span("insert", hnsw.insert, after_insert)),
            (NeighborStore, "observe",
             fine("observe", NeighborStore.observe, after_observe)),
            (NeighborStore, "core_distance",
             fine("core_distance", NeighborStore.core_distance)),
            (NeighborStore, "members", fine("members", NeighborStore.members)),
            (CandidateBuffer, "push", fine("push", CandidateBuffer.push)),
            (engine_mod, "update_msf",
             span("flush", before_flush(engine_mod.update_msf))),
            (engine_mod, "build_dendrogram",
             span("dendrogram", engine_mod.build_dendrogram)),
            (engine_mod, "condense", span("condense", engine_mod.condense)),
            (engine_mod, "extract_flat", span("extract", engine_mod.extract_flat)),
            (_accel, "kruskal_mask", span("kruskal", _accel.kruskal_mask)),
            (_accel, "linkage_merges", span("linkage", _accel.linkage_merges)),
        ]
        saved = []
        try:
            for obj, attr, wrapper in patches:
                saved.append((obj, attr, vars(obj).get(attr), attr in vars(obj)))
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, old, had in reversed(saved):
                if had:
                    setattr(obj, attr, old)
                else:
                    delattr(obj, attr)

    # -- results -----------------------------------------------------------

    def span_totals(self):
        """Per span name: (calls, total seconds, self seconds, max seconds)."""
        k = len(self.spans)
        child_dur = [0.0] * k
        child_fine = [0.0] * k
        for name, parent, t0, t1, fine in self.spans:
            if parent >= 0:
                child_dur[parent] += t1 - t0
                child_fine[parent] += fine
        out = {}
        for i, (name, parent, t0, t1, fine) in enumerate(self.spans):
            dur = t1 - t0
            own = dur - child_dur[i] - (fine - child_fine[i])
            calls, total, self_s, longest = out.get(name, (0, 0.0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur, self_s + own, max(longest, dur))
        return out


def layer_metrics(tracer, n, distance_calls, forest_edges):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    spans = tracer.span_totals()
    calls = tracer.calls
    counts = tracer.counts

    def span(name, field):
        return spans.get(name, (0, 0.0, 0.0, 0.0))[field]

    def call(name):
        return calls.get(name, [0, 0.0])

    dist_n, dist_s = call("distance")
    observe_n, observe_s = call("observe")
    core_n, core_s = call("core_distance")
    members_s = call("members")[1]
    push_n = call("push")[0]
    triples = counts["triples"]
    return {
        "distances.calls": (dist_n, "count"),
        "distances.s": (dist_s, "s"),
        "distances.us_per_call": (1e6 * dist_s / max(dist_n, 1), "us"),
        "hnsw.insert_self_s": (span("insert", 2), "s"),
        "hnsw.triples_per_item": (triples / n, "count/item"),
        "hnsw.dedup_frac": (triples / max(distance_calls, 1), "frac"),
        "hnsw.new_item_triple_frac": (counts["new_item_triples"] / max(triples, 1), "frac"),
        "neighbors.observe_calls": (observe_n, "count"),
        "neighbors.improved_frac": (counts["improved"] / max(observe_n, 1), "frac"),
        "neighbors.evictions": (counts["evictions"], "count"),
        "neighbors.core_distance_calls": (core_n, "count"),
        "neighbors.s": (observe_s + core_s + members_s, "s"),
        "msf.push_calls": (push_n, "count"),
        "msf.push_new_frac": (counts["buffer_growth"] / max(push_n, 1), "frac"),
        "msf.flushes": (span("flush", 0), "count"),
        "msf.flush_s": (span("flush", 1), "s"),
        "msf.flush_ms_max": (1e3 * span("flush", 3), "ms"),
        "msf.flush_edges_in": (counts["flush_edges_in"], "count"),
        "msf.kruskal_s": (span("kruskal", 1), "s"),
        "msf.forest_edges": (forest_edges, "count"),
        "hierarchy.dendrogram_s": (span("dendrogram", 1), "s"),
        "hierarchy.linkage_s": (span("linkage", 1), "s"),
        "hierarchy.condense_s": (span("condense", 1), "s"),
        "hierarchy.extract_s": (span("extract", 1), "s"),
        "hierarchy.clusters": (counts["clusters"], "count"),
        "hierarchy.events": (counts["events"], "count"),
        "engine.self_s": (span("add", 2), "s"),
        "engine.repush_frac": ((push_n - triples) / max(push_n, 1), "frac"),
    }
