"""Bounded event ring buffer with JSONL and Chrome trace exporters."""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

from repro.obs.events import EVENT_NAMES, EventKind

#: default ring capacity — enough for a full suite-length run with one
#: instruction event per step, small enough to never threaten memory
DEFAULT_CAPACITY = 1 << 16


class Tracer:
    """Collects cycle-stamped events into a bounded ring buffer.

    Args:
        capacity: Maximum retained events.  When full, the oldest event is
            evicted (``dropped`` counts evictions) — the *tail* of a run
            is almost always the interesting part, and a hard bound keeps
            an accidental trace of a huge run from exhausting memory.

    The tracer records, it does not interpret: events are appended through
    :meth:`emit` as plain tuples (see :mod:`repro.obs.events`) and thread
    lanes are declared through :meth:`register_thread`.  Exports happen
    after the run, from the surviving window.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque[tuple[int, int, int, dict | None]] = deque(
            maxlen=capacity
        )
        self.emitted = 0
        #: tid -> (name, parent tid or None, first-seen cycle)
        self.threads: dict[int, tuple[str, int | None, int]] = {}

    # ------------------------------------------------------------------
    def emit(self, cycle: int, kind: int, tid: int, args: dict | None = None) -> None:
        """Append one event; evicts the oldest when the ring is full."""
        self._events.append((cycle, kind, tid, args))
        self.emitted += 1

    def register_thread(
        self, tid: int, name: str, parent: int | None = None, cycle: int = 0
    ) -> None:
        """Declare a context lane (idempotent; first registration wins)."""
        if tid not in self.threads:
            self.threads[tid] = (name, parent, cycle)

    @property
    def dropped(self) -> int:
        """Events evicted from the ring so far."""
        return self.emitted - len(self._events)

    @property
    def events(self) -> list[tuple[int, int, int, dict | None]]:
        """The retained event window, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def summary(self) -> dict:
        """JSON-ready digest: volume, drops, per-kind counts, lane count."""
        by_kind: dict[str, int] = {}
        for _cycle, kind, _tid, _args in self._events:
            name = EVENT_NAMES[kind]
            by_kind[name] = by_kind.get(name, 0) + 1
        return {
            "emitted": self.emitted,
            "retained": len(self._events),
            "dropped": self.dropped,
            "threads": len(self.threads),
            "by_kind": dict(sorted(by_kind.items())),
        }

    # ------------------------------------------------------------------
    # exporters
    # ------------------------------------------------------------------
    def export_jsonl(self, path: str | Path) -> Path:
        """One JSON object per line: ``{"cycle", "event", "tid", ...args}``.

        A leading line per registered thread (``"event": "thread"``)
        carries the lane names so the file is self-describing.
        """
        path = Path(path)
        with path.open("w") as handle:
            for tid, (name, parent, cycle) in sorted(self.threads.items()):
                rec = {"event": "thread", "tid": tid, "name": name, "cycle": cycle}
                if parent is not None:
                    rec["parent"] = parent
                handle.write(json.dumps(rec, sort_keys=True) + "\n")
            for cycle, kind, tid, args in self._events:
                rec = {"cycle": cycle, "event": EVENT_NAMES[kind], "tid": tid}
                if args:
                    rec.update(args)
                handle.write(json.dumps(rec, sort_keys=True) + "\n")
        return path

    def export_chrome(self, path: str | Path) -> Path:
        """Chrome trace-event format (load in ``chrome://tracing``/Perfetto).

        Each hardware context renders as its own thread lane (named by
        spawn order, so the MTVP spawn chain reads top to bottom);
        instruction events become ``"X"`` complete slices spanning fetch
        to retire, everything else becomes an instant (``"ph": "i"``)
        on its context's lane.  Cycles map 1:1 to microseconds — the
        trace viewer's native unit — so "1 us" on screen is one cycle.
        """
        path = Path(path)
        pid = 0
        out: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": "repro simulation"},
            }
        ]
        for tid, (name, parent, cycle) in sorted(self.threads.items()):
            label = name if parent is None else f"{name} (parent ctx{parent})"
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": label},
                }
            )
            out.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"sort_index": tid},
                }
            )
        instr = int(EventKind.INSTRUCTION)
        for cycle, kind, tid, args in self._events:
            args = args or {}
            if kind == instr:
                fetch = args.get("fetch", cycle)
                commit = args.get("commit", cycle)
                out.append(
                    {
                        "name": args.get("op", "instr"),
                        "cat": "pipeline",
                        "ph": "X",
                        "ts": fetch,
                        "dur": max(1, commit - fetch),
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
            else:
                out.append(
                    {
                        "name": EVENT_NAMES[kind],
                        "cat": "event",
                        "ph": "i",
                        "s": "t",  # thread-scoped instant
                        "ts": cycle,
                        "pid": pid,
                        "tid": tid,
                        "args": args,
                    }
                )
        payload = {"traceEvents": out, "displayTimeUnit": "ms"}
        path.write_text(json.dumps(payload))
        return path
