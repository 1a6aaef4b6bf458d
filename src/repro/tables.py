"""Size checks shared by the predictor tables."""

from __future__ import annotations


def power_of_two(name: str, value: int) -> None:
    """Raise a :class:`ValueError` naming the parameter ``name`` unless
    ``value`` is a positive power of two.

    A size of 0 passes the bare ``value & (value - 1)`` test and fails
    later, on the first index into an empty table.
    """
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value!r}")
