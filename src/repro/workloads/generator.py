"""Trace generation from workload specifications.

A :class:`Workload` compiles its :class:`~repro.workloads.spec.WorkloadSpec`
into a *static body* — a loop of basic blocks with fixed PCs, fixed register
wiring and per-slot stream assignments — and then unrolls that body into a
dynamic instruction trace.  Static PCs repeat across iterations, which is
what lets the PC-indexed structures under test (value predictors, branch
predictor, stride prefetcher, ILP-pred) actually learn.

The body is compiled once more, into a *plan*: every ALU/FP slot is fully
static, so it becomes one :class:`~repro.isa.Instruction` that each
iteration of every trace of the workload shares, and consecutive ones form
a tuple that unrolling appends with one ``extend``.  Only loads, stores
and branches get a fresh instruction per dynamic instance, carrying the
address, value or outcome drawn for it.  Traces and their instructions are
therefore read-only.
"""

from __future__ import annotations

import random
import zlib

from repro.isa import Instruction, OpClass
from repro.workloads.spec import AddressPattern, WorkloadSpec
from repro.workloads.streams import AddressStream, BranchOutcomes, ValueStream

#: register used as the loop induction variable (kept serial but cheap)
_COUNTER_REG = 30
#: first general register handed out to generated slots
_FIRST_REG = 1
#: last register handed out to ordinary slots; higher registers are
#: reserved so long-lived values are never clobbered by the allocator
_LAST_REG = 23
#: dedicated pointer registers, one per chase stream: every pointer load
#: of stream s reads and writes _PTR_REG_BASE + s, which is exactly the
#: `node = node->next` register of a real list traversal and makes the
#: whole traversal one serial chain across blocks and iterations
_PTR_REG_BASE = 24

_VALUE_RANGE = 1 << 40

#: distance between the base addresses of distinct streams so regions of
#: different workloads/streams never overlap in the shared hierarchy
_STREAM_SPACING = 1 << 32

#: traces memoized per workload; experiments re-run the same
#: (length, seed) dozens of times per figure.  Unrolling the plan costs
#: ~15 ms per 32k instructions, so the memo saves that per repeat and
#: keeps one copy of the per-instance loads, stores and branches; the
#: static instructions are shared by every trace of the workload anyway
_TRACE_MEMO_MAX = 8


class _Slot:
    """One static instruction slot in the workload body."""

    __slots__ = (
        "pc", "op", "dst", "srcs", "stream", "offset", "vstream", "branch", "serial",
    )

    def __init__(
        self,
        pc: int,
        op: OpClass,
        dst: int | None = None,
        srcs: tuple[int, ...] = (),
        stream: int | None = None,
        offset: int = 0,
        vstream: int | None = None,
        branch: int | None = None,
        serial: bool = False,
    ) -> None:
        self.pc = pc
        self.op = op
        self.dst = dst
        self.srcs = srcs
        self.stream = stream
        self.offset = offset
        self.vstream = vstream
        self.branch = branch
        self.serial = serial


class Workload:
    """A named, reproducible synthetic benchmark.

    Args:
        spec: The declarative description to compile.

    Traces are deterministic in (spec, seed): two calls to :meth:`trace`
    with the same arguments yield identical instruction sequences.
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.name = spec.name
        self.suite = spec.suite
        self._body = self._build_body()
        self._plan = self._compile_plan()
        #: generated traces memoized per (resolved length, seed); bounded
        #: so length sweeps cannot pin every trace ever generated
        self._trace_memo: dict[tuple[int, int], list[Instruction]] = {}

    # ------------------------------------------------------------------
    def _seed(self, salt: int) -> int:
        return zlib.crc32(self.spec.name.encode()) ^ salt

    def _build_body(self) -> list[_Slot]:
        """Compile the spec into the static basic-block loop."""
        spec = self.spec
        rng = random.Random(self._seed(0xB0D1))
        weights = [m.weight for m in spec.value_mix]
        stream_weights = [st.weight for st in spec.streams]
        stream_ids = list(range(len(spec.streams)))
        slots: list[_Slot] = []
        next_reg = _FIRST_REG
        next_vstream = 0
        next_branch = 0
        pc = 0x10000

        def alloc_reg() -> int:
            nonlocal next_reg
            reg = next_reg
            next_reg += 1
            if next_reg > _LAST_REG:
                next_reg = _FIRST_REG
            return reg

        def emit(op: OpClass, **kwargs) -> _Slot:
            nonlocal pc
            slot = _Slot(pc, op, **kwargs)
            slots.append(slot)
            pc += 4
            return slot

        for _block in range(spec.blocks):
            recent: list[int] = [_COUNTER_REG]
            # which chase streams already advanced their pointer this block
            advanced: set[int] = set()
            for _group in range(spec.loads_per_block):
                stream_idx = rng.choices(stream_ids, weights=stream_weights)[0]
                stream_spec = spec.streams[stream_idx]
                chased = (
                    spec.serial_address
                    and stream_spec.pattern is AddressPattern.CHASE
                )
                vstream = next_vstream
                next_vstream += 1
                serial = False
                if chased and stream_idx not in advanced:
                    # the pointer load (`node = node->next`): reads and
                    # writes the stream's dedicated pointer register, so
                    # the whole traversal is one serial chain across
                    # blocks and iterations
                    serial = True
                    dst = _PTR_REG_BASE + stream_idx
                    srcs = (dst,)
                    advanced.add(stream_idx)
                elif chased:
                    # a field load: its address hangs off the pointer
                    dst = alloc_reg()
                    srcs = (_PTR_REG_BASE + stream_idx,)
                else:
                    dst = alloc_reg()
                    srcs = (_COUNTER_REG,)
                span = max(stream_spec.stride, 64)
                emit(
                    OpClass.LOAD,
                    dst=dst,
                    srcs=srcs,
                    stream=stream_idx,
                    offset=rng.randrange(0, span, 8),
                    vstream=vstream,
                    serial=serial,
                )
                recent.append(dst)
                # dependent chain behind the load
                prev = dst
                for _d in range(spec.chain_depth):
                    chain_dst = alloc_reg()
                    op = self._alu_op(rng)
                    emit(op, dst=chain_dst, srcs=(prev,))
                    prev = chain_dst
                recent.append(prev)
                # independent filler ops (the ILP a wide window can mine)
                for _f in range(spec.independent_ops):
                    filler_dst = alloc_reg()
                    op = self._alu_op(rng)
                    emit(op, dst=filler_dst, srcs=(_COUNTER_REG,))
            for _s in range(spec.stores_per_block):
                stream_idx = rng.choices(stream_ids, weights=stream_weights)[0]
                span = max(spec.streams[stream_idx].stride, 64)
                emit(
                    OpClass.STORE,
                    srcs=(recent[-1],),
                    stream=stream_idx,
                    offset=rng.randrange(0, span, 8),
                )
            # induction-variable bump keeps a cheap serial spine
            emit(OpClass.INT_ALU, dst=_COUNTER_REG, srcs=(_COUNTER_REG,))
            # most loop branches test induction state and resolve at once;
            # a data_branch_frac minority test loaded values and resolve
            # only when the load chain completes
            if rng.random() < spec.data_branch_frac:
                branch_src = recent[-1]
            else:
                branch_src = _COUNTER_REG
            emit(OpClass.BRANCH, srcs=(branch_src,), branch=next_branch)
            next_branch += 1

        # assign value classes to load slots by weight, deterministically
        vrng = random.Random(self._seed(0x5EED))
        self._vclass_of: list[int] = []
        for slot in slots:
            if slot.op is OpClass.LOAD:
                choice = vrng.choices(range(len(spec.value_mix)), weights=weights)[0]
                self._vclass_of.append(choice)
        return slots

    def _compile_plan(self) -> list[tuple[Instruction, ...] | _Slot]:
        """The body as :meth:`trace` unrolls it, static parts prebuilt.

        Every field of an ALU/FP slot is static, so each becomes one
        validated :class:`Instruction` that every iteration shares; runs
        of consecutive ones form one tuple, appended with one ``extend``.
        Loads, stores and branches stay as slots: their address, value or
        outcome is drawn per dynamic instance.
        """
        plan: list[tuple[Instruction, ...] | _Slot] = []
        run: list[Instruction] = []
        for slot in self._body:
            if slot.op.is_memory or slot.op is OpClass.BRANCH:
                if run:
                    plan.append(tuple(run))
                    run = []
                plan.append(slot)
            else:
                run.append(Instruction(slot.pc, slot.op, slot.srcs, slot.dst))
        if run:
            plan.append(tuple(run))
        return plan

    def _alu_op(self, rng: random.Random) -> OpClass:
        spec = self.spec
        if spec.fp_fraction and rng.random() < spec.fp_fraction:
            return OpClass.FP_MUL if rng.random() < 0.4 else OpClass.FP_ALU
        return OpClass.INT_MUL if rng.random() < 0.05 else OpClass.INT_ALU

    # ------------------------------------------------------------------
    @property
    def body_length(self) -> int:
        """Static instructions per loop iteration."""
        return len(self._body)

    def stream_regions(self) -> list[tuple[int, int]]:
        """(base address, region size in bytes) for each memory stream.

        Used by :func:`repro.simulate` to pre-warm the footprints that
        would be cache-resident in steady state.
        """
        return [
            ((i + 1) * _STREAM_SPACING, s.region_bytes)
            for i, s in enumerate(self.spec.streams)
        ]

    def trace(self, length: int | None = None, seed: int = 0) -> list[Instruction]:
        """Unroll the body into ``length`` dynamic instructions.

        Args:
            length: Trace length; defaults to the spec's ``default_length``.
            seed: Perturbs the dynamic streams (addresses, values, branch
                outcomes) without changing the static body, so repeated
                experiments can sample fresh behaviour.
        """
        spec = self.spec
        n = spec.default_length if length is None else length
        for arg, v in (("length", n), ("seed", seed)):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"trace {arg} must be an int, got {v!r}")
        if n <= 0:
            raise ValueError("trace length must be positive")
        memo_key = (n, seed)
        cached = self._trace_memo.get(memo_key)
        if cached is not None:
            return cached
        rng = random.Random(self._seed(0xD1CE) ^ (seed * 0x9E3779B1))
        streams = [
            AddressStream(s, base=(i + 1) * _STREAM_SPACING, rng=rng)
            for i, s in enumerate(spec.streams)
        ]
        vstreams = [ValueStream(spec.value_mix[v], rng) for v in self._vclass_of]
        branches = [
            BranchOutcomes(spec.branch, rng)
            for s in self._body
            if s.op is OpClass.BRANCH
        ]
        out: list[Instruction] = []
        extend = out.extend
        append = out.append
        load, store = OpClass.LOAD, OpClass.STORE
        for _ in range(-(-n // len(self._body))):
            for stream in streams:
                stream.advance()
            for entry in self._plan:
                if entry.__class__ is tuple:
                    extend(entry)
                elif entry.op is load:
                    addr = streams[entry.stream].addr(entry.offset)
                    value = vstreams[entry.vstream].next_value()
                    append(
                        Instruction(entry.pc, entry.op, entry.srcs, entry.dst, addr, value)
                    )
                elif entry.op is store:
                    addr = streams[entry.stream].addr(entry.offset)
                    value = rng.randrange(_VALUE_RANGE)
                    append(Instruction(entry.pc, entry.op, entry.srcs, None, addr, value))
                else:
                    taken = branches[entry.branch].next_outcome()
                    append(Instruction(entry.pc, entry.op, entry.srcs, taken=taken))
        # whole iterations were unrolled; what lies past n drew its
        # dynamic fields after every kept instruction, so cutting it
        # leaves the first n exactly as a per-slot stop would
        del out[n:]
        # the engine treats traces as read-only, so the memoized list can
        # be shared between repeated simulations within this process
        if len(self._trace_memo) >= _TRACE_MEMO_MAX:
            self._trace_memo.pop(next(iter(self._trace_memo)))
        self._trace_memo[memo_key] = out
        return out

    def __repr__(self) -> str:
        return f"Workload({self.name!r}, suite={self.suite!r}, body={self.body_length})"
