"""Execution models: the mode-policy strategy layer of the engine.

One :class:`~repro.core.modes.base.ExecutionModel` per simulation mode,
registered in the same string-keyed :class:`~repro.registry.Registry` the
value predictors and load selectors use.  The registry keys equal the
``SimMode`` enum values, so every spelling that already travels through
configs, caches and sweep specs resolves directly::

    >>> from repro.core.modes import names, resolve_model
    >>> names()
    ('baseline', 'stvp', 'spawn_only', 'mtvp', 'smt', 'spmt')
    >>> resolve_model("mtvp").spawn_capable
    True

Models are stateless; :func:`resolve_model` hands out one shared instance
per mode.
"""

from __future__ import annotations

from repro.core.modes.base import ExecutionModel
from repro.core.modes.paper import (
    BaselineModel,
    MtvpModel,
    SpawnOnlyModel,
    StvpModel,
)
from repro.core.modes.smt import SmtModel
from repro.core.modes.spmt import SpmtModel
from repro.registry import Registry

#: the execution-model registry, keyed by ``SimMode`` value
MODELS = Registry(
    "execution model",
    {
        "baseline": BaselineModel,
        "stvp": StvpModel,
        "spawn_only": SpawnOnlyModel,
        "mtvp": MtvpModel,
        "smt": SmtModel,
        "spmt": SpmtModel,
    },
)

_instances: dict[str, ExecutionModel] = {}


def names() -> tuple[str, ...]:
    """Registered execution-model names, in presentation order."""
    return MODELS.names()


def get(name: str) -> type[ExecutionModel]:
    """The model class registered under ``name``."""
    return MODELS.get(name)


def resolve_model(mode) -> ExecutionModel:
    """The shared model instance for a ``SimMode`` member or its string key."""
    key = getattr(mode, "value", mode)
    model = _instances.get(key)
    if model is None:
        model = _instances[key] = MODELS.create(key)
    return model


__all__ = [
    "BaselineModel",
    "ExecutionModel",
    "MODELS",
    "MtvpModel",
    "SmtModel",
    "SpawnOnlyModel",
    "SpmtModel",
    "StvpModel",
    "get",
    "names",
    "resolve_model",
]
