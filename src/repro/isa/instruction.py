"""The trace instruction record and a convenience builder."""

from __future__ import annotations

from repro.isa.opclass import NUM_LOGICAL_REGS, OpClass, REG_ZERO

#: the members the constructor checks, bound once: an enum attribute read
#: costs more than the rest of a typical instruction's validation
_LOAD, _STORE, _BRANCH = OpClass.LOAD, OpClass.STORE, OpClass.BRANCH


class Instruction:
    """One dynamic instruction in a trace.

    Read-only once built.  The workload generator shares one instance per
    static ALU/FP slot across every iteration of a trace (and memoized
    traces are shared across simulations), so never assign to a field:
    a write would change every dynamic instance of that slot.  The class
    uses ``__slots__`` and plain attributes rather than a dataclass to
    keep per-object cost low.

    Attributes:
        pc: Static program counter (byte address of the instruction).
        op: Operation class; selects issue port and execution latency.
        srcs: Logical source register ids (dependences). ``REG_ZERO`` entries
            are ignored by the dependence tracker.
        dst: Logical destination register id, or ``None`` when the
            instruction produces no register result (stores, branches).
        addr: Effective memory address for loads/stores, else ``None``.
        value: The 64-bit value loaded (for loads) or stored (for stores).
            This is what value predictors are trained on and what the oracle
            predictor "predicts".  ``None`` for non-memory instructions.
        taken: Branch outcome for branches, else ``None``.
    """

    __slots__ = ("pc", "op", "srcs", "dst", "addr", "value", "taken")

    def __init__(
        self,
        pc: int,
        op: OpClass,
        srcs: tuple[int, ...] = (),
        dst: int | None = None,
        addr: int | None = None,
        value: int | None = None,
        taken: bool | None = None,
    ) -> None:
        if dst is not None and not 0 <= dst < NUM_LOGICAL_REGS:
            raise ValueError(f"destination register {dst} out of range")
        for s in srcs:
            if not 0 <= s < NUM_LOGICAL_REGS:
                raise ValueError(f"source register {s} out of range")
        if addr is None and (op is _LOAD or op is _STORE):
            raise ValueError(f"{op.name} instruction requires an address")
        if taken is None and op is _BRANCH:
            raise ValueError("BRANCH instruction requires a taken outcome")
        self.pc = pc
        self.op = op
        self.srcs = srcs
        self.dst = dst
        self.addr = addr
        self.value = value
        self.taken = taken

    def __repr__(self) -> str:
        parts = [f"pc={self.pc:#x}", self.op.name]
        if self.srcs:
            parts.append(f"srcs={self.srcs}")
        if self.dst is not None:
            parts.append(f"dst={self.dst}")
        if self.addr is not None:
            parts.append(f"addr={self.addr:#x}")
        if self.value is not None:
            parts.append(f"value={self.value}")
        if self.taken is not None:
            parts.append(f"taken={self.taken}")
        return f"Instruction({', '.join(parts)})"


class InstructionBuilder:
    """Fluent helper for composing instructions in tests and examples.

    The workload generators construct :class:`Instruction` directly for
    speed; this builder exists so hand-written traces stay readable::

        ib = InstructionBuilder(base_pc=0x1000)
        trace = [
            ib.load(dst=1, addr=0x8000, value=42),
            ib.int_alu(dst=2, srcs=(1,)),
            ib.store(addr=0x9000, srcs=(2,), value=7),
        ]
    """

    def __init__(self, base_pc: int = 0x1000, pc_step: int = 4) -> None:
        self._pc = base_pc
        self._step = pc_step

    def _next_pc(self, pc: int | None) -> int:
        if pc is not None:
            return pc
        pc = self._pc
        self._pc += self._step
        return pc

    def load(
        self,
        dst: int,
        addr: int,
        value: int = 0,
        srcs: tuple[int, ...] = (),
        pc: int | None = None,
    ) -> Instruction:
        """A load producing ``value`` from ``addr`` into register ``dst``."""
        return Instruction(self._next_pc(pc), OpClass.LOAD, srcs, dst, addr, value)

    def store(
        self,
        addr: int,
        srcs: tuple[int, ...] = (),
        value: int = 0,
        pc: int | None = None,
    ) -> Instruction:
        """A store of ``value`` to ``addr`` depending on ``srcs``."""
        return Instruction(self._next_pc(pc), OpClass.STORE, srcs, None, addr, value)

    def int_alu(
        self, dst: int, srcs: tuple[int, ...] = (), pc: int | None = None
    ) -> Instruction:
        """A single-cycle integer ALU operation."""
        return Instruction(self._next_pc(pc), OpClass.INT_ALU, srcs, dst)

    def int_mul(
        self, dst: int, srcs: tuple[int, ...] = (), pc: int | None = None
    ) -> Instruction:
        """A multi-cycle integer multiply."""
        return Instruction(self._next_pc(pc), OpClass.INT_MUL, srcs, dst)

    def fp_alu(
        self, dst: int, srcs: tuple[int, ...] = (), pc: int | None = None
    ) -> Instruction:
        """A floating-point add/sub with FP pipeline latency."""
        return Instruction(self._next_pc(pc), OpClass.FP_ALU, srcs, dst)

    def fp_mul(
        self, dst: int, srcs: tuple[int, ...] = (), pc: int | None = None
    ) -> Instruction:
        """A floating-point multiply with FP pipeline latency."""
        return Instruction(self._next_pc(pc), OpClass.FP_MUL, srcs, dst)

    def branch(
        self, taken: bool, srcs: tuple[int, ...] = (), pc: int | None = None
    ) -> Instruction:
        """A conditional branch with the given resolved outcome."""
        return Instruction(self._next_pc(pc), OpClass.BRANCH, srcs, None, taken=taken)

    def nop(self, pc: int | None = None) -> Instruction:
        """An integer op with no sources and a throwaway destination."""
        return Instruction(self._next_pc(pc), OpClass.INT_ALU, (), REG_ZERO + 1)
