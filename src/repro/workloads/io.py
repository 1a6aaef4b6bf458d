"""Binary trace files: external trace ingestion and archival.

A compact fixed-record format so generated workloads (or traces converted
from other tools) can be stored, diffed and re-simulated bit-identically.
This module is the simulator's *ingestion boundary*: everything that
arrives from outside — converted pin/DynamoRIO traces, traces shipped
between machines, multi-program bundles for the SMT co-schedule — enters
through :func:`load_trace` / :func:`load_trace_set`, so this is where
malformed input must die with a useful error instead of corrupting a run.

Record layout (little-endian, 32 bytes per instruction):

=======  =====  ==========================================================
offset   type   field
=======  =====  ==========================================================
0        u32    pc
4        u8     op class
5        i8     dst register (-1 = none)
6        u8     source count (0-3)
7        u8     flags (bit0: has addr, bit1: has value, bit2: taken,
                bit3: has taken)
8        3*u8   source registers (padded with 0)
11       u8     reserved
12       u64    address (0 when absent)
20       u64    value (0 when absent)
28       u32    reserved
=======  =====  ==========================================================

The file begins with a 16-byte header: magic ``b"RVPT"``, format version
(u32), instruction count (u64).

Loading *streams*: records decode incrementally from bounded read chunks
(:func:`iter_trace`), so a malformed file fails fast at the offending
record — identified by record number — without first materializing
gigabytes, and converters can filter/transform without holding two copies.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.isa import Instruction, OpClass

_MAGIC = b"RVPT"
_VERSION = 1
_HEADER = struct.Struct("<4sIQ")
_RECORD = struct.Struct("<IbbBB3sBQQI")

_FLAG_ADDR = 1
_FLAG_VALUE = 2
_FLAG_TAKEN = 4
_FLAG_HAS_TAKEN = 8

#: records decoded per read chunk while streaming (128 KiB of file)
_CHUNK_RECORDS = 4096

_VALID_OPS = frozenset(int(op) for op in OpClass)


class TraceFormatError(ValueError):
    """A trace file violates the format contract.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    callers keep working; the message always names the file and, for
    per-record faults, the zero-based record number.
    """


def save_trace(trace: Iterable[Instruction], path: str | Path) -> None:
    """Write ``trace`` to ``path`` in the binary trace format.

    Accepts any iterable, but needs the count up front for the header, so
    a non-list iterable is materialized once.
    """
    if not isinstance(trace, (list, tuple)):
        trace = list(trace)
    path = Path(path)
    with path.open("wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, len(trace)))
        for inst in trace:
            flags = 0
            if inst.addr is not None:
                flags |= _FLAG_ADDR
            if inst.value is not None:
                flags |= _FLAG_VALUE
            if inst.taken is not None:
                flags |= _FLAG_HAS_TAKEN
                if inst.taken:
                    flags |= _FLAG_TAKEN
            srcs = bytes(inst.srcs) + b"\x00" * (3 - len(inst.srcs))
            f.write(
                _RECORD.pack(
                    inst.pc,
                    int(inst.op),
                    inst.dst if inst.dst is not None else -1,
                    len(inst.srcs),
                    flags,
                    srcs,
                    0,
                    inst.addr or 0,
                    inst.value or 0,
                    0,
                )
            )


def _decode_record(path: Path, index: int, fields) -> Instruction:
    """One validated record → Instruction; faults name the record."""
    pc, op, dst, nsrcs, flags, srcs, _r0, addr, value, _r1 = fields
    if op not in _VALID_OPS:
        raise TraceFormatError(
            f"{path}: record {index}: unknown op class {op}"
        )
    if nsrcs > 3:
        raise TraceFormatError(
            f"{path}: record {index}: source count {nsrcs} exceeds 3"
        )
    opclass = OpClass(op)
    has_addr = bool(flags & _FLAG_ADDR)
    if opclass.is_memory and not has_addr:
        raise TraceFormatError(
            f"{path}: record {index}: {opclass.name} without an address"
        )
    taken = None
    if flags & _FLAG_HAS_TAKEN:
        taken = bool(flags & _FLAG_TAKEN)
    elif opclass is OpClass.BRANCH:
        raise TraceFormatError(
            f"{path}: record {index}: BRANCH without a taken outcome"
        )
    try:
        return Instruction(
            pc=pc,
            op=opclass,
            srcs=tuple(srcs[:nsrcs]),
            dst=dst if dst >= 0 else None,
            addr=addr if has_addr else None,
            value=value if flags & _FLAG_VALUE else None,
            taken=taken,
        )
    except ValueError as exc:
        # register-range faults from the Instruction constructor
        raise TraceFormatError(f"{path}: record {index}: {exc}") from None


def iter_trace(path: str | Path) -> Iterator[Instruction]:
    """Stream instructions from a trace file, validating each record.

    Decodes from bounded read chunks rather than one ``read_bytes`` of
    the whole file, so arbitrarily large external traces can be inspected
    or filtered with O(chunk) memory.  Any malformed record raises
    :class:`TraceFormatError` naming the file and the zero-based record
    number; a file shorter or longer than its header's count is rejected.
    """
    path = Path(path)
    record_size = _RECORD.size
    chunk_bytes = record_size * _CHUNK_RECORDS
    with path.open("rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFormatError(f"{path}: not a trace file (too short)")
        magic, version, count = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise TraceFormatError(f"{path}: unsupported version {version}")
        index = 0
        pending = b""
        while index < count:
            chunk = pending + f.read(chunk_bytes - len(pending))
            if len(chunk) < record_size:
                raise TraceFormatError(
                    f"{path}: truncated at record {index} "
                    f"(header promised {count} records)"
                )
            # whole records, but none past the header's count: bytes
            # beyond it stay pending and fail the trailing-bytes check
            usable = min(len(chunk) // record_size, count - index) * record_size
            for fields in _RECORD.iter_unpack(chunk[:usable]):
                yield _decode_record(path, index, fields)
                index += 1
            pending = chunk[usable:]
        if pending or f.read(1):
            raise TraceFormatError(
                f"{path}: trailing bytes after {count} records"
            )


def load_trace(path: str | Path) -> list[Instruction]:
    """Read a trace previously written by :func:`save_trace`.

    Raises:
        TraceFormatError: On a bad magic number, unsupported version, a
            truncated or oversized file, or any malformed record (unknown
            op class, out-of-range register, memory op without an address,
            branch without an outcome) — the error names the record.
    """
    return list(iter_trace(path))


@dataclass(frozen=True)
class TraceSet:
    """A named bundle of program traces, one per SMT hardware context.

    The multi-program execution model (``mode=smt``) co-schedules
    independent workloads; a TraceSet is how such a bundle moves through
    the API — :func:`repro.simulate` accepts one wherever a workload name
    is accepted and fans its traces out over the configured contexts.
    A single-trace TraceSet is also valid input for every single-program
    mode.

    Attributes:
        name: Bundle label (used in stats attribution and cache keys).
        traces: The program traces, index-aligned with ``labels``.
        labels: Human-readable per-program labels (file stems by default).
    """

    name: str
    traces: tuple[list[Instruction], ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.traces:
            raise ValueError("TraceSet requires at least one trace")
        if len(self.labels) != len(self.traces):
            raise ValueError("TraceSet labels must match traces one-to-one")

    def __len__(self) -> int:
        return len(self.traces)


def load_trace_set(
    paths: Iterable[str | Path], name: str | None = None
) -> TraceSet:
    """Load several trace files into one :class:`TraceSet`.

    Each file is streamed and validated independently (see
    :func:`iter_trace`); a fault in any file aborts the whole load with
    that file's record-numbered error.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise ValueError("load_trace_set requires at least one path")
    traces = tuple(load_trace(p) for p in paths)
    labels = tuple(p.stem for p in paths)
    return TraceSet(
        name=name if name is not None else "+".join(labels),
        traces=traces,
        labels=labels,
    )
