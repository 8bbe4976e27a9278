"""The package namespace: every export resolves on first use, and importing
the package loads none of its modules."""

import subprocess
import sys
from types import ModuleType

import pytest

import deltamin


@pytest.fixture
def unresolved(monkeypatch):
    """The package as a fresh import leaves it: no export or submodule
    bound yet, so each lookup goes through its module __getattr__."""
    for name in [*deltamin.__all__, "colouring", "errors", "graphs", "solver", "structure"]:
        if name != "__version__" and name in vars(deltamin):
            monkeypatch.delattr(deltamin, name)
    return deltamin


def test_every_export_resolves_by_attribute(unresolved):
    for name in unresolved.__all__:
        value = getattr(unresolved, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value
            assert value.__module__.startswith("deltamin.")


def test_every_export_resolves_by_from_import(unresolved):
    for name in unresolved.__all__:
        namespace: dict = {}
        exec(f"from deltamin import {name}", namespace)
        assert namespace[name] is getattr(unresolved, name)


def test_star_import_binds_every_export(unresolved):
    namespace: dict = {}
    exec("from deltamin import *", namespace)
    assert set(unresolved.__all__) <= set(namespace)


def test_dir_lists_every_export(unresolved):
    assert set(unresolved.__all__) <= set(dir(unresolved))


def test_unknown_name_is_an_attribute_error(unresolved):
    with pytest.raises(AttributeError, match="no_such_name"):
        unresolved.no_such_name
    with pytest.raises(ImportError):
        exec("from deltamin import no_such_name", {})


@pytest.mark.parametrize("name", ["graphs", "solver", "structure"])
def test_submodules_resolve_by_name(unresolved, name):
    module = getattr(unresolved, name)
    assert isinstance(module, ModuleType)
    assert module is sys.modules[f"deltamin.{name}"]


def test_importing_the_package_loads_no_submodule():
    script = (
        "import sys\n"
        "import deltamin\n"
        "print(sorted(m for m in sys.modules if m.startswith('deltamin.')))\n"
        "deltamin.parse_graph6\n"
        "print(sorted(m for m in sys.modules if m.startswith('deltamin.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['deltamin.errors', 'deltamin.graphs']"]
