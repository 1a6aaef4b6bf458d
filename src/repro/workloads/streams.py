"""Stateful address and value stream walkers used by the trace generator.

Address semantics mirror how loop nests touch memory: a stream models one
data structure whose *cursor* advances once per loop iteration (``advance``)
— `node = node->next`, `i += 1` — while the static loads and stores of the
body read fields at fixed byte offsets from the cursor (``addr``).  This
gives every static PC a consistent per-iteration stride, which is what
PC-indexed hardware (stride prefetchers, value predictors) actually sees in
real programs.  RANDOM streams are the exception: every access draws a
fresh line, modeling hash/table lookups.
"""

from __future__ import annotations

import random

from repro.workloads.spec import (
    AddressPattern,
    BranchModel,
    BranchSpec,
    StreamSpec,
    ValueClass,
    ValueMix,
)

_LINE = 64
_VALUE_RANGE = 1 << 40


class AddressStream:
    """Walks one memory region according to its :class:`StreamSpec`."""

    def __init__(self, spec: StreamSpec, base: int, rng: random.Random) -> None:
        self.spec = spec
        self.base = base
        self.rng = rng
        self._pos = 0

    def advance(self) -> None:
        """Move the cursor one loop iteration forward."""
        spec = self.spec
        if spec.pattern is AddressPattern.RANDOM:
            return  # no cursor: every access is independent
        if (
            spec.pattern is AddressPattern.CHASE
            and spec.jump_prob
            and self.rng.random() < spec.jump_prob
        ):
            self._pos = self.rng.randrange(0, spec.region_bytes, _LINE)
            return
        self._pos = (self._pos + spec.stride) % spec.region_bytes

    def addr(self, offset: int) -> int:
        """Address of the field at ``offset`` bytes from the cursor."""
        spec = self.spec
        if spec.pattern is AddressPattern.RANDOM:
            return self.base + self.rng.randrange(0, spec.region_bytes, _LINE) + (
                offset % _LINE
            )
        return self.base + (self._pos + offset) % spec.region_bytes


def slot_offset(spec: StreamSpec, rng: random.Random) -> int:
    """Pick a field offset for a static slot bound to a ``spec`` stream.

    Offsets spread across one stride span so that, over successive
    iterations, the body touches the span densely — the layout a
    compiler produces for struct walks and unrolled array loops.
    """
    return rng.randrange(0, max(spec.stride, _LINE), 8)


class ValueStream:
    """Produces the value sequence for one static load."""

    def __init__(self, mix: ValueMix, rng: random.Random) -> None:
        self.mix = mix
        self.rng = rng
        self._current = rng.randrange(_VALUE_RANGE)
        self._pattern = [rng.randrange(_VALUE_RANGE) for _ in range(max(1, mix.nvalues))]
        self._index = 0

    def next_value(self) -> int:
        """Produce the next load value."""
        mix = self.mix
        if mix.vclass is ValueClass.CONSTANT:
            if mix.break_prob and self.rng.random() < mix.break_prob:
                self._current = self.rng.randrange(_VALUE_RANGE)
            return self._current
        if mix.vclass is ValueClass.STRIDED:
            if mix.break_prob and self.rng.random() < mix.break_prob:
                self._current = self.rng.randrange(_VALUE_RANGE)
            value = self._current
            self._current = (self._current + mix.stride) % _VALUE_RANGE
            return value
        if mix.vclass is ValueClass.PATTERN:
            if mix.break_prob and self.rng.random() < mix.break_prob:
                # a stutter: the previous value repeats and the cycle
                # holds its phase — the bimodal-successor noise that gives
                # pattern predictors a concentrated secondary candidate
                return self._pattern[(self._index - 1) % len(self._pattern)]
            value = self._pattern[self._index]
            self._index = (self._index + 1) % len(self._pattern)
            return value
        return self.rng.randrange(_VALUE_RANGE)


class BranchOutcomes:
    """Produces the taken/not-taken sequence for one static branch.

    Each static branch gets its own phase/period drawn from the workload's
    :class:`BranchSpec`, so different branches are distinguishable to the
    predictor (as in real code).
    """

    def __init__(self, spec: BranchSpec, rng: random.Random) -> None:
        self.spec = spec
        self.rng = rng
        self._count = rng.randrange(max(1, int(spec.param)))
        if spec.model is BranchModel.PATTERN:
            period = max(2, int(spec.param))
            self._pattern = [rng.random() < 0.5 for _ in range(period)]
        else:
            self._pattern = []

    def next_outcome(self) -> bool:
        """Produce the next resolved branch direction."""
        spec = self.spec
        if spec.model is BranchModel.LOOP:
            period = max(2, int(spec.param))
            self._count = (self._count + 1) % period
            taken = self._count != 0
        elif spec.model is BranchModel.PATTERN:
            taken = self._pattern[self._count % len(self._pattern)]
            self._count += 1
        else:  # BIASED
            taken = self.rng.random() < spec.param
        if spec.noise and self.rng.random() < spec.noise:
            taken = not taken
        return taken
