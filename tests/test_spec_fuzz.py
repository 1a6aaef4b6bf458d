"""Randomly damaged sweep and search specs fail clearly.

Every checked-in ``sweeps/*.toml`` is damaged by byte flips,
truncations and appends.  Each mutant either loads or raises the
spec's own error (:class:`~repro.sweep.SweepSpecError`, or
:class:`~repro.search.SearchSpecError` for a search spec) with a
message that starts with the file's path, which the CLI prints as one
line before exiting 2.  Any other exception fails the property.
"""

from __future__ import annotations

from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.search import SearchSpecError, load_search_spec
from repro.sweep import SweepSpecError, load_spec

SPECS = sorted((Path(__file__).resolve().parent.parent / "sweeps").glob("*.toml"))

_OFFSET = st.integers(0, 1 << 16)

#: text that keeps a mutant parseable often enough to reach the field checks
_TOML_TEXT = st.text(alphabet='[]{}=",.-_ \n0123456789abcdefghinorstuwxyz',
                     max_size=24).map(str.encode)

#: one edit to a spec's bytes: flip bits of one byte, truncate, or append
_EDIT = st.one_of(
    st.tuples(st.just("flip"), _OFFSET, st.integers(1, 255)),
    st.tuples(st.just("truncate"), _OFFSET, st.just(0)),
    st.tuples(st.just("append"), st.one_of(st.binary(min_size=1, max_size=16),
                                           _TOML_TEXT), st.just(0)),
)


def _apply(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for kind, where, mask in edits:
        if kind == "append":
            buf += where
        elif buf:
            at = where % len(buf)
            if kind == "flip":
                buf[at] ^= mask
            else:
                del buf[at:]
    return bytes(buf)


@pytest.mark.parametrize("original", SPECS, ids=lambda path: path.name)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(edits=st.lists(_EDIT, min_size=1, max_size=3))
def test_damaged_spec_loads_or_raises_its_spec_error(
    original, edits, tmp_path_factory
):
    text = original.read_bytes()
    search = b"[search]" in text
    load, error = (
        (load_search_spec, SearchSpecError) if search else (load_spec, SweepSpecError)
    )
    path = tmp_path_factory.getbasetemp() / f"damaged-{original.name}"
    path.write_bytes(_apply(text, edits))
    try:
        load(path)
    except error as exc:
        assert str(exc).startswith(f"{path}: ")


def test_no_source_module_calls_eval_or_exec():
    """Specs are data: nothing under ``src/repro`` evaluates a string."""
    import ast

    import repro

    calls = [
        f"{path.name}:{node.lineno} {node.func.id}()"
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("eval", "exec")
    ]
    assert calls == []
