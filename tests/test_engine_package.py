"""The engine package: layout, and its public names.

``repro.core.engine`` used to be a single 1000-line module; it is now a
package of staged components.  The public classes stay importable from
the package path; the private hot-loop tables live in
:mod:`repro.core.engine.records` only.
"""

from __future__ import annotations

from pathlib import Path

import pytest

ENGINE_DIR = Path(__file__).parent.parent / "src" / "repro" / "core" / "engine"

#: the public names the old monolithic module exposed
LEGACY_PUBLIC = ["Engine", "SpawnRecord"]


class TestBackCompatShim:
    def test_public_names_import_from_old_path(self):
        from repro.core.engine import Engine, SpawnRecord  # noqa: F401

        assert Engine.__name__ == "Engine"
        assert SpawnRecord.__slots__  # still the slotted record

    @pytest.mark.parametrize("name", LEGACY_PUBLIC)
    def test_every_legacy_name_resolves(self, name):
        import repro.core.engine as engine

        assert getattr(engine, name) is not None

    def test_core_reexport_is_same_object(self):
        import repro.core as core
        import repro.core.engine as engine

        assert core.Engine is engine.Engine

    def test_unknown_attribute_raises(self):
        import repro.core.engine as engine

        with pytest.raises(AttributeError):
            engine._definitely_not_a_thing

    def test_new_package_exports(self):
        from repro.core.engine import NO_LIMIT, SNAPSHOT_VERSION

        assert NO_LIMIT > 1 << 60
        assert SNAPSHOT_VERSION >= 1


class TestPackageLayout:
    def test_old_module_is_gone(self):
        assert not (ENGINE_DIR.parent / "engine.py").exists()
        assert (ENGINE_DIR / "__init__.py").exists()

    def test_no_component_module_is_monolithic(self):
        # the refactor's point: staged components, not a re-rolled monolith
        for path in ENGINE_DIR.glob("*.py"):
            lines = len(path.read_text().splitlines())
            assert lines <= 400, f"{path.name} has {lines} lines (> 400)"

    def test_expected_components_exist(self):
        names = {p.stem for p in ENGINE_DIR.glob("*.py")}
        assert {
            "core",
            "records",
            "scheduler",
            "step",
            "lifecycle",
            "measures",
            "warmup",
            "snapshot",
        } <= names
