"""The threaded-value-prediction execution engine.

This is the reproduction's SMTSIM stand-in: a trace-driven, timestamp-based
out-of-order timing model with the thread-spawning machinery of Sections
3.2/3.3 layered on top.  See DESIGN.md §2 for the modeling approach and its
documented fidelity compromises.

The engine used to be one module; it is now a package of staged components
organized around the boundary between *architectural* state (registers,
trace position, memory image, predictor tables) and *microarchitectural
timing* state (in-flight timestamps, port reservations, pending measures):

* :mod:`~repro.core.engine.records` — shared hot-loop tables, the
  :class:`BookingGroup` of window and bandwidth state, and
  :class:`SpawnRecord`;
* :mod:`~repro.core.engine.scheduler` — which context steps next;
* :mod:`~repro.core.engine.step` — the timing kernel, which steps one
  context until the scheduler would switch;
* :mod:`~repro.core.engine.lifecycle` — spawn / confirm / kill;
* :mod:`~repro.core.engine.measures` — deferred ILP-pred episode
  retirement;
* :mod:`~repro.core.engine.warmup` — warm start and functional
  fast-forward (architectural state only);
* :mod:`~repro.core.engine.snapshot` — the architectural warmup
  checkpoint and its warm-template form;
* :mod:`~repro.core.engine.core` — the :class:`Engine` facade composing
  them.

``from repro.core.engine import Engine, SpawnRecord`` works exactly as it
did when this was a module; the hot-loop tables live in
:mod:`~repro.core.engine.records`.
"""

from __future__ import annotations

from repro.core.engine.core import Engine
from repro.core.engine.records import SpawnRecord
from repro.core.engine.scheduler import NO_LIMIT
from repro.core.engine.snapshot import SNAPSHOT_VERSION

__all__ = ["Engine", "SpawnRecord", "NO_LIMIT", "SNAPSHOT_VERSION"]
