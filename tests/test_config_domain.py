"""Out-of-domain ``MachineConfig`` fields are rejected when the config is built.

Sizes, widths and counts must be at least 1; latencies and penalties at
least 0; ``store_buffer_entries`` may also be ``None`` (unbounded).  A
violation raises one ``ValueError`` naming the field and the value.
Before this check some bad values ran and reported plausible numbers
(``commit_width=0`` simulated like width 1, ``mem_latency=-5`` and
``front_latency=-3`` ran to completion) and others failed deep inside
the engine (``rob_size=0`` with an ``IndexError``,
``prefetch_streams=0`` in ``min()``).
"""

import dataclasses
import functools

import pytest

from repro.core import MachineConfig
from repro.core.config import DOMAIN
from repro.harness import RunSpec

#: field, bad value: the cases that ran or crashed on mcf baseline at
#: length 2000 before the check existed (see the module docstring)
MCF_BASELINE_CASES = [
    ("commit_width", 0),
    ("mem_latency", -5),
    ("front_latency", -3),
    ("rob_size", 0),
    ("prefetch_streams", 0),
]
CASES = MCF_BASELINE_CASES + [
    ("num_contexts", 0),
    ("multi_value", 0),
    ("spawn_latency", -1),
    ("spmt_skip", 0),
    ("store_buffer_entries", 0),
    ("l1_assoc", -2),
    ("reissue_penalty", -1),
]


def _message(name, value):
    return f"^{name} must be >= {DOMAIN[name]}, got {value}$"


def test_the_table_covers_every_numeric_field():
    numeric = {
        field.name
        for field in dataclasses.fields(MachineConfig)
        if field.type in ("int", "int | None")
    }
    assert set(DOMAIN) == numeric


@pytest.mark.parametrize("name, bad", CASES, ids=[f"{n}={v}" for n, v in CASES])
def test_rejects_an_out_of_domain_value(name, bad):
    with pytest.raises(ValueError, match=_message(name, bad)):
        MachineConfig(**{name: bad})


@pytest.mark.parametrize("name", sorted(DOMAIN))
def test_every_field_rejects_one_below_its_least_value(name):
    least = DOMAIN[name]
    with pytest.raises(ValueError, match=_message(name, least - 1)):
        MachineConfig(**{name: least - 1})
    assert getattr(MachineConfig(**{name: least}), name) == least


def test_an_unbounded_store_buffer_is_valid():
    assert MachineConfig(store_buffer_entries=None).store_buffer_entries is None


@pytest.mark.parametrize(
    "name, bad", MCF_BASELINE_CASES, ids=[f"{n}={v}" for n, v in MCF_BASELINE_CASES]
)
def test_an_mcf_baseline_run_fails_before_it_simulates(name, bad):
    spec = RunSpec(
        "bad", functools.partial(MachineConfig.hpca05_baseline, **{name: bad})
    )
    with pytest.raises(ValueError, match=_message(name, bad)):
        spec.run("mcf", length=2000)
