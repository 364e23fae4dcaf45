"""The attributes the benchmark's tracer (``fishbench/tracing.py``) wraps.

The tracer replaces each of these by name with a timing wrapper, so renaming
or removing one breaks ``fishbench/run.py --trace 1`` with an AttributeError.
The benchmark's own tests (``fishbench/tests``, in the same test paths) run
the tracer end to end; this names each seam on its own and needs nothing
from the benchmark package.
"""

import pytest

from fishdbc import _accel, engine
from fishdbc.engine import FISHDBC
from fishdbc.hnsw import Hnsw
from fishdbc.msf import CandidateBuffer
from fishdbc.neighbors import NeighborStore

SEAMS = [
    (FISHDBC, "add"),
    (FISHDBC, "cluster"),
    (Hnsw, "insert"),
    (NeighborStore, "observe"),
    (NeighborStore, "core_distance"),
    (NeighborStore, "members"),
    (CandidateBuffer, "push"),
    (engine, "update_msf"),
    (engine, "build_dendrogram"),
    (engine, "condense"),
    (engine, "extract_flat"),
    (_accel, "kruskal_mask"),
    (_accel, "linkage_merges"),
]


@pytest.mark.parametrize(
    "owner, attr", SEAMS, ids=[f"{o.__name__}.{a}" for o, a in SEAMS]
)
def test_traced_attribute_exists(owner, attr):
    assert callable(getattr(owner, attr, None))
