"""The canonical SimStats digest.

One hash of a run's results, shared by the golden tests
(``tests/test_obs.py``, ``tests/test_warm_memo.py``) and the suite
benchmark (``bench/run.py``, which checks it against ``bench/golden.json``).
"""

from __future__ import annotations

from repro.core import SimStats
from repro.harness.cache import canonical_hash


def stats_digest(stats: SimStats) -> str:
    """SHA-256 of the canonical JSON stats dict, minus volatile fields.

    ``extended``/``schema_version`` are excluded too: instrumentation is
    read-only by contract, so a traced run must digest identically to its
    untraced twin (the golden tests assert exactly that).
    """
    data = stats.to_dict()
    data.pop("instructions_stepped", None)
    data.pop("extended", None)
    data.pop("schema_version", None)
    return canonical_hash(data)
