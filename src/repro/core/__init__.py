"""Core simulation: machine config, thread contexts, the MTVP engine."""

from repro.core.config import FetchPolicy, MachineConfig, SimMode
from repro.core.context import ThreadContext
from repro.core.engine import Engine, SpawnRecord
from repro.core.stats import ConservationError, SimStats, check_conservation

__all__ = [
    "ConservationError",
    "Engine",
    "FetchPolicy",
    "MachineConfig",
    "SimMode",
    "SimStats",
    "SpawnRecord",
    "ThreadContext",
    "check_conservation",
]
