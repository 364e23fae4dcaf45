"""Flexible incremental scalable hierarchical density-based clustering.

Cluster arbitrary data under any symmetric, possibly non-metric distance
function, with cheap incremental updates as items arrive.

    from fishdbc import FISHDBC, distances

    engine = FISHDBC(distances.euclidean, minpts=10, ef=20, rng_seed=1)
    for point in points:
        engine.add(point)
    result = engine.cluster()
    result.labels       # -1 = noise
    result.condensed    # hierarchy with per-cluster stabilities
"""

from .distances import DistanceError
from .engine import FISHDBC
from .hierarchy import ClusterResult

__version__ = "0.1.0"

__all__ = [
    "FISHDBC",
    "ClusterResult",
    "DistanceError",
    "__version__",
]
