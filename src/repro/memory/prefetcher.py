"""Stride prefetcher with stream buffers.

Table 1 of the paper specifies a "PC based, 256 entry [table] with 8 stream
buffers" prefetcher described as *very aggressive*, and Section 5.1
highlights that value speculation can mistrain it because loads with the
same PC may train it out of program order.  The implementation has three
cooperating parts:

* a 256-entry direct-mapped **per-PC stride table** — detects per-static-
  load strides; it feeds the mistraining statistics and allocates a stream
  when a confirmed stride is *sparse* (larger than what a dense stream
  would cover),
* a **per-region dense-walk detector** — loop bodies touch the lines of an
  array/struct walk densely but locally out of order (many PCs reading
  different fields), which no PC-indexed table can see; two consecutive
  forward-dense misses in a 16MB region allocate a line-granular stream,
* **8 stream buffers** — each runs up to ``depth`` lines ahead of its
  stream with a per-line fill time; demand hits consume the line and
  extend the stream.

Allocation is filtered: a miss whose successor line is already covered by
an existing buffer does not allocate, so many PCs sharing one walk share
one buffer instead of thrashing the pool.
"""

from __future__ import annotations

from repro.tables import power_of_two


class StreamBuffer:
    """One stream buffer: prefetched lines with fill times.

    ``stride_lines`` is the line-granular step: 1 for dense walks, larger
    for sparse per-PC strides.
    """

    __slots__ = ("tag", "stride_lines", "next_line", "entries", "last_use")

    def __init__(self, tag: int, stride_lines: int, start_line: int) -> None:
        self.tag = tag
        self.stride_lines = stride_lines
        self.next_line = start_line
        #: line number -> fill completion time
        self.entries: dict[int, int] = {}
        self.last_use = 0

    def __repr__(self) -> str:
        return (
            f"StreamBuffer(tag={self.tag:#x}, stride={self.stride_lines}, "
            f"{len(self.entries)} lines)"
        )


class StridePrefetcher:
    """PC-table + dense-region detector driving a pool of stream buffers.

    Args:
        table_entries: Size of the per-PC training table (256 per Table 1).
        num_streams: Number of stream buffers (8 per Table 1).
        depth: How many lines ahead each stream runs.
        line_size: Cache line size in bytes.
        fill_latency: Cycles for a prefetched line to arrive; prefetches
            usually target distant lines, so this sits between L3 and
            memory latency.
        hit_latency: Cycles for a demand load that finds its line ready.
    """

    def __init__(
        self,
        table_entries: int = 256,
        num_streams: int = 8,
        depth: int = 32,
        line_size: int = 64,
        fill_latency: int = 250,
        hit_latency: int = 4,
    ) -> None:
        power_of_two("line_size", line_size)
        self.table_entries = table_entries
        self.num_streams = num_streams
        self.depth = depth
        self.line_size = line_size
        self._line_shift = line_size.bit_length() - 1
        self.fill_latency = fill_latency
        self.hit_latency = hit_latency
        # per-PC: index -> [pc_tag, last_addr, stride, confidence]
        self._table: list[list[int] | None] = [None] * table_entries
        # per-region: region -> [last_line, confidence]
        self._regions: dict[int, list[int]] = {}
        self._streams: list[StreamBuffer] = []
        #: demand hits in a stream buffer and confirmed per-PC strides
        #: broken, reported as ``SimStats.prefetch_stream_hits``/
        #: ``prefetch_mistrains``
        self.stream_hits = 0
        self.mistrains = 0
        #: observability probe (see :mod:`repro.obs.probe`) or None
        self.obs = None

    # ------------------------------------------------------------------
    # demand lookup
    # ------------------------------------------------------------------
    def lookup(self, addr: int, now: int) -> int | None:
        """Check the stream buffers for the line containing ``addr``.

        Returns the completion time if the line is (or soon will be)
        present, else None.  A hit consumes the line and extends the
        stream.
        """
        line = addr >> self._line_shift
        for sb in self._streams:
            fill_time = sb.entries.pop(line, None)
            if fill_time is None:
                continue
            sb.last_use = now
            self._extend(sb, now)
            self.stream_hits += 1
            if self.obs is not None:
                self.obs.prefetch_hit(now, line)
            return max(now + self.hit_latency, fill_time)
        return None

    def _extend(self, sb: StreamBuffer, now: int) -> None:
        """Issue prefetches until the buffer again runs ``depth`` ahead.

        Lines the walk skipped (never demanded) are aged out once they
        fall well behind the stream head; otherwise they would pin buffer
        capacity and shrink the effective lookahead a little more every
        iteration.
        """
        if len(sb.entries) >= self.depth:
            span = 2 * self.depth * max(1, abs(sb.stride_lines))
            if sb.stride_lines >= 0:
                # ascending: stale skipped lines trail below the head
                horizon = sb.next_line - span
                stale = [ln for ln in sb.entries if ln < horizon]
            else:
                # descending: the head moves toward smaller line numbers,
                # so the lines the walk left behind sit *above* it
                horizon = sb.next_line + span
                stale = [ln for ln in sb.entries if ln > horizon]
            for line in stale:
                del sb.entries[line]
        issued = 0
        while len(sb.entries) < self.depth:
            line = sb.next_line
            sb.next_line += sb.stride_lines
            if line not in sb.entries:
                sb.entries[line] = now + self.fill_latency
                issued += 1
        if issued and self.obs is not None:
            self.obs.prefetch_issue(now, sb.tag, issued)

    def _covered(self, line: int) -> bool:
        """True when some buffer already holds or is about to reach ``line``."""
        for sb in self._streams:
            if line in sb.entries:
                return True
            # distance from the frontier to the line, measured along the
            # stream's direction of travel (negative strides walk down)
            if sb.stride_lines >= 0:
                ahead = line - sb.next_line
            else:
                ahead = sb.next_line - line
            if 0 <= ahead < 2 * abs(sb.stride_lines):
                return True
        return False

    def _allocate(self, tag: int, stride_lines: int, start_line: int, now: int) -> None:
        for sb in self._streams:
            if sb.tag == tag:
                # redirect the existing stream
                sb.stride_lines = stride_lines
                sb.entries.clear()
                sb.next_line = start_line
                sb.last_use = now
                self._extend(sb, now)
                return
        sb = StreamBuffer(tag, stride_lines, start_line)
        sb.last_use = now
        if len(self._streams) >= self.num_streams:
            victim = min(self._streams, key=lambda s: s.last_use)
            self._streams.remove(victim)
        self._streams.append(sb)
        self._extend(sb, now)

    # ------------------------------------------------------------------
    # training (called on L1 misses that also missed the stream buffers)
    # ------------------------------------------------------------------
    def train(self, pc: int, addr: int, now: int) -> None:
        """Observe a stream-filtered L1 demand miss.

        Updates both detectors; a stride that contradicts a previously
        confirmed per-PC stride counts as a mistrain event — the effect
        Section 5.1 attributes to out-of-order / speculative training.
        """
        line = addr >> self._line_shift

        # per-PC stride table
        idx = (pc >> 2) % self.table_entries
        entry = self._table[idx]
        if entry is None or entry[0] != pc:
            self._table[idx] = [pc, addr, 0, 0]
        else:
            stride = addr - entry[1]
            if stride == entry[2] and stride != 0:
                entry[3] = min(entry[3] + 1, 3)
            else:
                if entry[3] >= 2:
                    self.mistrains += 1
                entry[2] = stride
                entry[3] = 1 if stride != 0 else 0
            entry[1] = addr
            if entry[3] >= 3:
                stride_lines = entry[2] >> self._line_shift
                # truly sparse strides are invisible to the dense detector;
                # give them their own buffer unless one covers the path.
                # Both guards are deliberately strict: per-PC training only
                # sees the post-filter miss stream, so a PC whose walk is
                # already covered by a dense stream observes stale, inflated
                # strides — letting those allocate would evict the very
                # buffers doing the work.
                if abs(stride_lines) > 4 * self.depth and not self._covered(
                    line + stride_lines
                ):
                    self._allocate((pc << 1) | 1, stride_lines, line + stride_lines, now)
                    return

        # per-region dense-walk detector
        region = addr >> 24
        reg = self._regions.get(region)
        if reg is None:
            if len(self._regions) > 64:
                self._regions.clear()
            self._regions[region] = [line, 0]
            return
        delta = line - reg[0]
        # a dense walk's misses cluster near the advancing frontier, though
        # locally out of order (different field offsets issue in body
        # order, not address order) — accept anything within the local
        # window of the frontier as walk-consistent
        if -2 * self.depth <= delta <= 2 * self.depth and delta != 0:
            reg[1] = min(reg[1] + 1, 3)
        else:
            reg[1] = 0
        if line > reg[0]:
            reg[0] = line
        if reg[1] < 2:
            return
        tag = region << 1
        for sb in self._streams:
            if sb.tag == tag:
                if reg[0] >= sb.next_line:
                    # the walk ran past the buffer: catch up in place
                    # (clearing would throw away still-useful lines)
                    sb.next_line = reg[0] + 1
                    sb.last_use = now
                self._extend(sb, now)
                return
        if not self._covered(reg[0] + 1):
            self._allocate(tag, 1, reg[0] + 1, now)

    def reset_stats(self) -> None:
        """Zero the counters, keeping streams and training state."""
        self.stream_hits = 0
        self.mistrains = 0

    def snapshot(self) -> dict:
        """Serialize training tables and streams (versioned); the
        counters are left out."""
        return {
            "version": 2,
            "table_entries": self.table_entries,
            "table": [None if e is None else list(e) for e in self._table],
            "regions": [[r, list(v)] for r, v in self._regions.items()],
            "streams": [
                {
                    "tag": sb.tag,
                    "stride_lines": sb.stride_lines,
                    "next_line": sb.next_line,
                    "entries": [[ln, t] for ln, t in sb.entries.items()],
                    "last_use": sb.last_use,
                }
                for sb in self._streams
            ],
        }

    def restore(self, data: dict) -> None:
        """Restore from a :meth:`snapshot` payload (same table size),
        leaving the counters as they are."""
        if data.get("version") != 2:
            raise ValueError(
                f"unsupported StridePrefetcher snapshot version: "
                f"{data.get('version')!r}"
            )
        if data["table_entries"] != self.table_entries:
            raise ValueError("StridePrefetcher snapshot table size mismatch")
        self._table = [None if e is None else list(e) for e in data["table"]]
        self._regions = {r: list(v) for r, v in data["regions"]}
        streams = []
        for s in data["streams"]:
            sb = StreamBuffer(s["tag"], s["stride_lines"], s["next_line"])
            sb.entries = {ln: t for ln, t in s["entries"]}
            sb.last_use = s["last_use"]
            streams.append(sb)
        self._streams = streams

    @property
    def active_streams(self) -> int:
        """Number of stream buffers currently allocated."""
        return len(self._streams)
