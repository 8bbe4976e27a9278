"""The package namespace: every export resolves on first use, importing
the package loads none of its modules, and every name the benchmark tracer
swaps or wraps resolves."""

import importlib
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import deltamin


@pytest.fixture
def unresolved(monkeypatch):
    """The package as a fresh import leaves it: no export or submodule
    bound yet, so each lookup goes through its module __getattr__."""
    for name in [*deltamin.__all__, *set(deltamin._EXPORTS.values())]:
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


@pytest.mark.parametrize("name", ["colours", "exact", "generators", "graphs", "solver", "structure"])
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


@pytest.fixture
def tracing(monkeypatch):
    """bench/tracing.py, imported with bench/ on sys.path and only read."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield importlib.import_module("tracing")
    for name in ("tracing", "corpus"):
        sys.modules.pop(name, None)


def test_every_traced_name_resolves(tracing):
    # a dropped or renamed hook would otherwise show only in a traced run
    def traced(span):
        module, attr = span.split(".")
        return getattr(getattr(deltamin, module), attr)

    for span in tracing.TRACED:
        assert callable(traced(span)), span
    for module, attr, span in tracing.CROSS_LAYER:
        assert getattr(getattr(deltamin, module), attr) is traced(span), (module, attr)


def test_greedy_start_repairs_through_the_solver_global(monkeypatch):
    # the tracer counts colouring.properize spans by swapping solver.properize
    solver = deltamin.solver
    repair, calls = solver.properize, []

    def counted(c):
        calls.append(c)
        return repair(c)

    monkeypatch.setattr(solver, "properize", counted)
    g = deltamin.random_subcubic(60, 1)
    assert solver.find_two_factor(g) is None
    solver.heuristic_descent(g)
    assert len(calls) == 1


def test_records_are_read_only_values():
    # the result records are named tuples: equal and hashed by value, shown
    # field by field, and read-only
    dm = deltamin
    pet = dm.make_named("petersen")
    result = dm.solve_exact(pet)
    assert result == dm.solve_exact(pet) and hash(result) == hash(dm.solve_exact(pet))
    assert repr(result) == f"SolveResult(s_value=2, witness={result.witness!r}, method={result.method!r})"
    report = dm.verify_theorem1(result.witness)
    assert report.clause("cycle_oddness") == dm.ClauseResult("cycle_oddness", True)
    assert repr(report.clauses[0]) == "ClauseResult(clause_id='delta_incidence', passed=True, witness=None)"
    decomposition = dm.kempe_decompose(result.witness, dm.Colour.ALPHA, dm.Colour.BETA)
    records = [
        (result, "s_value"),
        (dm.find_two_factor(pet), "matching"),
        (decomposition, "pair"),
        (decomposition.components[0], "edges"),
        (dm.classify_delta_edges(result.witness), "memberships"),
        (report.clauses[0], "passed"),
        (report, "counts"),
    ]
    assert {type(record).__name__ for record, _ in records} == {
        "SolveResult", "TwoFactor", "KempeDecomposition", "KempeComponent",
        "DeltaClassification", "ClauseResult", "VerificationReport",
    }
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
