"""The four HPCA-05 paper modes as :class:`ExecutionModel` strategies.

Each class reproduces, operation for operation, the behaviour the staged
engine used to select with inline ``SimMode`` branches — the golden-digest
suite holds every one of these modes to bit-identity with the pre-refactor
engine, so the call order into the predictor, selector and stats counters
below is load-bearing.  Do not "clean up" the sequencing without re-running
the golden tests.
"""

from __future__ import annotations

from repro.core.modes.base import ExecutionModel
from repro.select import PredictionKind


class BaselineModel(ExecutionModel):
    """No value prediction at all — the speedup denominator everywhere."""

    key = "baseline"
    single_context = True


class _ResolvingModel(ExecutionModel):
    """Shared verify/squash attribution for the spawning paper modes.

    Resolution always charges the selector an MTVP-kind episode — for
    spawn-only records too, exactly as the inline code did (the selector
    learns spawn worth, not prediction kind).  A selector whose ``learns``
    is False is not called: its ``record`` is the no-op.
    """

    def on_mispredict(self, engine, record, resolve_time):
        if not engine.selector.learns:
            return
        engine.selector.record(
            record.pc,
            PredictionKind.MTVP,
            0,
            max(1, resolve_time - record.start_time),
        )

    def on_confirm(self, engine, record, winner, resolve_time):
        if not engine.selector.learns:
            return
        engine.selector.record(
            record.pc,
            PredictionKind.MTVP,
            max(0, engine._global_fetched - record.start_global),
            max(1, resolve_time - record.start_time),
            committed=winner.within_commits,
        )


class SpawnOnlyModel(_ResolvingModel):
    """Section 5.7's 'spawn only' machine: split window, no prediction.

    The child waits for the load's real value, so any alive child is the
    survivor at resolution.
    """

    key = "spawn_only"
    uses_value_prediction = True
    spawn_capable = True

    def handle_load_prediction(
        self, engine, ctx, inst, t_queue, t_complete, expected_level
    ):
        stats = engine.stats
        # every unpredicted load contributes a no-prediction episode so the
        # ILP-pred baseline exists even for PCs that always hit the L1
        # (those are exactly the loads it must learn not to spawn on)
        spawn_possible = self.spawn_possible(engine, ctx)
        kind = engine.selector.choose(inst, spawn_possible, expected_level)
        if kind is not PredictionKind.MTVP or not spawn_possible:
            if kind is PredictionKind.MTVP:
                stats.spawn_denied_no_context += 1
            if engine.selector.learns:
                engine._defer_measure(
                    ctx, inst.pc, PredictionKind.NONE, t_queue, t_complete
                )
            return t_complete, None
        # spawn-only: the child waits for the real value (no VP)
        if engine._obs is not None:
            engine._obs.predict(
                t_queue, ctx.order, inst.pc, "spawn", inst.value or 0
            )
        record = engine._spawn_load(
            ctx, inst, [(inst.value or 0, t_complete)], t_queue, t_complete
        )
        return t_complete, record

    def child_wins(self, record, child, value):
        return True


class _PredictiveModel(_ResolvingModel):
    """The shared STVP/MTVP load path; subclasses set the routing flags."""

    uses_value_prediction = True
    #: demote MTVP selector choices to STVP (the single-threaded machine)
    demote_to_stvp = False
    #: count confident predictions lost to context exhaustion
    count_denied_spawns = False

    def handle_load_prediction(
        self, engine, ctx, inst, t_queue, t_complete, expected_level
    ):
        stats = engine.stats
        predictor = engine.predictor
        prediction = predictor.predict(inst)
        if prediction is None:
            if engine.selector.learns:
                engine._defer_measure(
                    ctx, inst.pc, PredictionKind.NONE, t_queue, t_complete
                )
            return t_complete, None

        # a pure slot scan, so only a confident prediction pays for it
        spawn_possible = self.spawn_possible(engine, ctx)
        if self.count_denied_spawns and not spawn_possible:
            # a confident prediction arrived while every context was busy —
            # the lost-opportunity statistic behind the thread-count studies
            stats.spawn_denied_no_context += 1

        kind = engine.selector.choose(inst, spawn_possible, expected_level)
        if self.demote_to_stvp and kind is PredictionKind.MTVP:
            kind = PredictionKind.STVP
        if kind is PredictionKind.NONE:
            stats.declined_predictions += 1
            if engine.selector.learns:
                engine._defer_measure(
                    ctx, inst.pc, PredictionKind.NONE, t_queue, t_complete
                )
            return t_complete, None

        # Figure 5 instrumentation: was the right value available even when
        # the primary prediction is wrong?
        if engine.config.collect_multivalue:
            stats.followed_predictions += 1
            if prediction.value != inst.value:
                candidates = predictor.predict_all(inst)
                if any(p.value == inst.value for p in candidates):
                    stats.primary_wrong_candidate_present += 1

        if kind is PredictionKind.MTVP and not spawn_possible:
            kind = PredictionKind.STVP

        if kind is PredictionKind.STVP:
            stats.stvp_predictions += 1
            correct = prediction.value == inst.value
            if engine._obs is not None:
                engine._obs.vp_outcome(correct)
                engine._obs.predict(
                    t_queue, ctx.order, inst.pc, "stvp", prediction.value
                )
                engine._obs.stvp_outcome(t_complete, ctx.order, inst.pc, correct)
            if engine.selector.learns:
                engine._defer_measure(
                    ctx, inst.pc, PredictionKind.STVP, t_queue, t_complete
                )
            if correct:
                stats.stvp_correct += 1
                return t_queue, None
            stats.stvp_incorrect += 1
            # selective re-issue: dependents re-execute once the true value
            # arrives; commit was never early, so only the dependents pay
            return t_complete + engine.config.reissue_penalty, None

        # MTVP: spawn one thread per followed value (multi-value capable)
        values: list[tuple[int, int]] = []
        config = engine.config
        spawn_ready = t_queue + config.spawn_latency
        if config.multi_value > 1:
            for cand in predictor.predict_all(inst)[: config.multi_value]:
                values.append((cand.value, spawn_ready))
        else:
            values.append((prediction.value, spawn_ready))
        stats.mtvp_predictions += 1
        if engine._obs is not None:
            engine._obs.predict(
                t_queue, ctx.order, inst.pc, "mtvp", prediction.value
            )
        record = engine._spawn_load(ctx, inst, values, t_queue, t_complete)
        return t_complete, record


class StvpModel(_PredictiveModel):
    """Single-threaded value prediction with selective re-issue recovery."""

    key = "stvp"
    single_context = True
    demote_to_stvp = True


class MtvpModel(_PredictiveModel):
    """Threaded value prediction — the paper's contribution."""

    key = "mtvp"
    spawn_capable = True
    count_denied_spawns = True

    def child_wins(self, record, child, value):
        return value == record.actual

    def on_mispredict(self, engine, record, resolve_time):
        engine.stats.mtvp_incorrect += 1
        if engine._obs is not None:
            engine._obs.vp_outcome(False)
        super().on_mispredict(engine, record, resolve_time)

    def on_confirm(self, engine, record, winner, resolve_time):
        engine.stats.mtvp_correct += 1
        if engine._obs is not None:
            engine._obs.vp_outcome(True)
        super().on_confirm(engine, record, winner, resolve_time)
