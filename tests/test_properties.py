"""Property tests over small random inputs and insertion orders.

The engine's promises hold for every input, not just the seeded fixtures:
its forest is the exact minimum spanning forest of the pairs it computed,
its neighbor sets hold the exact core distances of those pairs, and a failing
distance function leaves no trace on later results. Every built-in distance
is symmetric bit for bit, which reusing a known distance relies on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fishdbc import FISHDBC, distances, oracle
from fishdbc.distances import DistanceError

# Integer grid coordinates make exact duplicates and distance ties common.
points = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=60
)
minpts_values = st.sampled_from([2, 3, 5])
seeds = st.integers(0, 2**16)

property_settings = settings(deadline=None)


def build(coords, minpts, seed):
    engine = FISHDBC(distances.euclidean, minpts=minpts, rng_seed=seed, record_pairs=True)
    for c in coords:
        engine.add(np.array(c, dtype=np.float64))
    return engine


def forest(engine):
    return sorted((w, lo, hi) for lo, hi, w in engine.forest_edges())


@property_settings
@given(points, minpts_values, seeds)
def test_forest_is_exact_msf_of_computed_pairs(coords, minpts, seed):
    engine = build(coords, minpts, seed)
    engine.flush()
    masked = oracle.matrix_from_pairs(engine.n, engine.pair_log())
    lo, hi, w = oracle.exact_msf(masked, minpts)
    assert forest(engine) == sorted(zip(w.tolist(), lo.tolist(), hi.tolist()))


@property_settings
@given(points, minpts_values, seeds)
def test_heap_cores_are_exact_cores_of_computed_pairs(coords, minpts, seed):
    engine = build(coords, minpts, seed)
    masked = oracle.matrix_from_pairs(engine.n, engine.pair_log())
    want = oracle.exact_core_distances(masked, minpts)
    got = [engine._neighbors.core_distance(i) for i in range(engine.n)]
    assert got == want.tolist()


@property_settings
@given(points, minpts_values, seeds, st.data())
def test_failed_add_leaves_later_results_unchanged(coords, minpts, seed, data):
    reference = FISHDBC(distances.euclidean, minpts=minpts, rng_seed=seed, record_pairs=True)
    calls_per_add = []  # to aim the failure inside one add()
    for c in coords:
        before = reference.distance_calls
        reference.add(np.array(c, dtype=np.float64))
        calls_per_add.append(reference.distance_calls - before)
    victim = data.draw(st.integers(1, len(coords) - 1), label="failing add")
    fail_at = data.draw(st.integers(1, calls_per_add[victim]), label="failing call")
    failure = data.draw(st.sampled_from(["nan", "raise"]), label="failure")

    countdown = [None]  # calls left up to and including the failing one

    def flaky(a, b):
        if countdown[0] is not None:
            countdown[0] -= 1
            if countdown[0] == 0:
                countdown[0] = None
                if failure == "raise":
                    raise RuntimeError("distance backend down")
                return math.nan
        return distances.euclidean(a, b)

    engine = FISHDBC(flaky, minpts=minpts, rng_seed=seed, record_pairs=True)
    for i, c in enumerate(coords):
        if i == victim:
            countdown[0] = fail_at
            with pytest.raises((DistanceError, RuntimeError)):
                engine.add(np.array(c, dtype=np.float64))
        engine.add(np.array(c, dtype=np.float64))

    assert engine.distance_calls == reference.distance_calls
    assert engine.pair_log() == reference.pair_log()
    assert engine.cluster().labels.tolist() == reference.cluster().labels.tolist()
    assert forest(engine) == forest(reference)


def same_length_pair(elements, max_size=12):
    return st.integers(1, max_size).flatmap(
        lambda n: st.tuples(*[st.lists(elements, min_size=n, max_size=n)] * 2)
    )


def arrays(pair, dtype=np.float64):
    return tuple(np.array(v, dtype=dtype) for v in pair)


# Non-zero magnitudes away from underflow, so cosine and simpson are defined.
nonzero = st.floats(0.01, 100.0) | st.floats(-100.0, -0.01)


def opposite_orders(values):
    # Same keys inserted in opposite orders: which argument's items are
    # iterated then decides the order of a sparse dot product's terms.
    a = {i: x for i, (x, _) in enumerate(values)}
    b = {i: y for i, (_, y) in reversed(list(enumerate(values)))}
    return a, b


text = st.text(alphabet="abcd", max_size=14)
payload_pairs = {
    "euclidean": same_length_pair(st.floats(-1e6, 1e6)).map(arrays),
    "cosine": same_length_pair(nonzero).map(arrays)
    | st.lists(st.tuples(nonzero, nonzero), min_size=1, max_size=8).map(opposite_orders),
    "jaccard": st.tuples(*[st.frozensets(st.integers(0, 20), max_size=10)] * 2),
    "jaro-winkler": st.tuples(text, text),
    "simpson": same_length_pair(st.booleans(), max_size=16)
    .filter(lambda p: any(p[0]) and any(p[1]))
    .map(lambda p: arrays(p, bool)),
    "hamming": same_length_pair(st.sampled_from("abc")).map(
        lambda p: ("".join(p[0]), "".join(p[1]))
    ),
}


@pytest.mark.parametrize("name", sorted(distances.BUILTIN))
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_builtin_distances_symmetric_bit_for_bit(name, data):
    a, b = data.draw(payload_pairs[name], label="payloads")
    fn = distances.BUILTIN[name]
    assert fn(a, b).hex() == fn(b, a).hex()


# One magnitude per vector, 1e-100..1e100: squared norms and their product
# leave the float range at both ends.
magnitudes = st.integers(-100, 100).map(lambda e: 10.0 ** e)
unit_vectors = st.lists(nonzero, min_size=1, max_size=8)


def scaled(values, magnitude, sparse):
    if sparse:
        return {3 * i: v * magnitude for i, v in enumerate(values)}
    return np.array(values) * magnitude


@settings(deadline=None, max_examples=300)
@given(values=st.tuples(unit_vectors, unit_vectors), ma=magnitudes, mb=magnitudes,
       sparse=st.booleans())
def test_cosine_scale_free(values, ma, mb, sparse):
    n = min(len(values[0]), len(values[1]))
    a = scaled(values[0][:n], ma, sparse)
    b = scaled(values[1][:n], mb, sparse)
    assert distances.cosine(a, a) == 0.0
    assert distances.cosine(a, b).hex() == distances.cosine(b, a).hex()
