"""One execution-policy surface for every way the harness runs things.

Before this module, execution concerns were threaded ad hoc as keyword
arguments — ``jobs=`` through :func:`~repro.harness.parallel.
run_simulations`, ``retries=``/``stale_after=``/``heartbeat=`` through
:func:`~repro.sweep.run_sweep`, ``cache=``/``checkpoints=`` through all
of them — and adding a new dispatch mode meant touching every signature
again.  :class:`ExecutionPolicy` bundles the full answer to *how should
this work execute* into one value:

* ``jobs`` — worker processes per in-process fan-out; the one setting
  that picks the executor (1 = serial in this process, more = a process
  pool),
* ``lanes`` and ``dispatch`` — accepted only as ``None`` or ``1`` and
  ``None`` or ``"local"``, and read by nothing (lane batching and the
  dispatch modes were removed; the fields stay for callers that still
  pin them),
* ``retries`` — extra attempts per failed sweep row,
* ``cache`` / ``checkpoints`` — the shared result cache and warmup
  checkpoint store,
* ``chunk`` / ``stale_after`` / ``heartbeat`` — commit granularity and
  the lease-liveness protocol (a ``chunk`` below 1, a ``heartbeat`` or
  ``stale_after`` that is not a finite number > 0, or a negative
  ``retries`` would hang, spin or silently misconfigure a drain, so
  construction rejects them).

The interval protocol (warmup and sample lengths) is part of the recipe,
not of the policy: :class:`~repro.harness.runner.RunSpec` and the sweep
spec carry it.

Every field defaults to *unset* (``None``), which defers to the matching
``REPRO_*`` environment variable where there is one (``jobs``, ``cache``,
``checkpoints``) and then to the historical default, so
``ExecutionPolicy()`` reproduces the old behaviour exactly.  ``policy=``
is the only spelling every entry point accepts.

Environment defaults (one table, also in README):

=======================  ====================================================
``REPRO_JOBS``           worker processes (unset/1 = serial, 0 = all cores)
``REPRO_CACHE_DIR``      result cache directory (unset = no caching)
``REPRO_CHECKPOINT_DIR`` warmup checkpoint directory (unset = in-process)
``REPRO_TRACE_LEN``      default dynamic trace length
=======================  ====================================================
"""

from __future__ import annotations

import dataclasses
import math
import os

from repro.harness.cache import ResultCache

def _parse_count(value, *, what: str) -> int:
    """The integer parser behind jobs resolution.

    ``value`` may be an int or a string (CLI flags and environment
    variables arrive as text); errors always name the offending setting
    and the rejected text.
    """
    if isinstance(value, str):
        try:
            return int(value.strip())
        except ValueError:
            raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def resolve_jobs(jobs) -> int:
    """Worker count: explicit ``jobs``, else ``$REPRO_JOBS``, else serial.

    ``0`` (or any non-positive value) means "all cores".
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        jobs = _parse_count(env, what="REPRO_JOBS (worker process count)")
    else:
        jobs = _parse_count(jobs, what="jobs")
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def resolve_cache(cache) -> ResultCache | None:
    """The ``cache`` ingredient every entry point accepts.

    :meth:`~repro.harness.cache.KeyedStore.resolve` on
    ``$REPRO_CACHE_DIR``: unset means no caching.
    """
    return ResultCache.resolve(cache, "REPRO_CACHE_DIR")


@dataclasses.dataclass(frozen=True)
class ExecutionPolicy:
    """How simulation work should execute, as one immutable value.

    Every field is optional; ``None`` means "unset" and defers to the
    corresponding environment variable, if any, then the historical default —
    see the ``resolved_*`` accessors.  ``cache``/``checkpoints`` follow
    the established resolution convention (``None`` = environment,
    ``False`` = off, path or store object = use that).

    Policies compose with :meth:`merged` (non-``None`` overrides win),
    which is how campaign-level defaults, CLI flags and per-call
    overrides layer without another keyword explosion.
    """

    jobs: int | None = None
    lanes: int | None = None
    dispatch: str | None = None
    retries: int | None = None
    cache: object = None
    checkpoints: object = None
    chunk: int | None = None
    stale_after: float | None = None
    heartbeat: float | None = None

    def __post_init__(self) -> None:
        # lane batching and the dispatch modes were removed; the fields
        # stay for callers that pin lanes=1, dispatch="local"
        if self.lanes is not None and not (type(self.lanes) is int and self.lanes == 1):
            raise ValueError(
                f"lanes must be None or 1 (lane batching was removed), got {self.lanes!r}"
            )
        if self.dispatch is not None and self.dispatch != "local":
            raise ValueError(
                f"dispatch must be None or 'local' (jobs picks the executor), "
                f"got {self.dispatch!r}"
            )
        if self.chunk is not None and not (type(self.chunk) is int and self.chunk >= 1):
            raise ValueError(f"chunk must be an integer >= 1, got {self.chunk!r}")
        if self.retries is not None and not (
            type(self.retries) is int and self.retries >= 0
        ):
            raise ValueError(f"retries must be an integer >= 0, got {self.retries!r}")
        for name in ("stale_after", "heartbeat"):
            value = getattr(self, name)
            if value is not None and not (
                type(value) in (int, float) and 0 < value < math.inf
            ):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")

    # ------------------------------------------------------------------
    def resolved_jobs(self) -> int:
        return resolve_jobs(self.jobs)

    def resolved_cache(self) -> ResultCache | None:
        return resolve_cache(self.cache)

    def resolved_checkpoints(self):
        from repro.harness.checkpoint import resolve_checkpoints

        return resolve_checkpoints(self.checkpoints)

    # ------------------------------------------------------------------
    def merged(self, **overrides) -> "ExecutionPolicy":
        """A copy with the given non-``None`` fields replaced.

        ``None`` overrides are ignored (they mean "leave as is"), so
        layering reads naturally::

            policy.merged(jobs=args.jobs, retries=args.retries)
        """
        updates = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **updates) if updates else self
