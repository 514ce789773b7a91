"""The benchmark's oracles and checks import nothing from microcanon, so
every expected value they give is computed apart from the code it checks;
and every span the benchmark's tracer installs names a live function."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def microcanon_imports(source: str) -> list[str]:
    """Every module name an import statement in source takes from microcanon."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] == "microcanon"]


@pytest.mark.parametrize("name", ["oracles.py", "checks.py"])
def test_bench_module_does_not_import_microcanon(name):
    assert microcanon_imports((BENCH / name).read_text(encoding="utf-8")) == []


def test_detector_sees_every_import_form():
    source = ("import microcanon\nimport numpy, microcanon.pbr as p\n"
              "from microcanon.ensemble import GasSpec\ndef f():\n    from microcanon import cli\n"
              "from . import oracles\nimport microcanonical\n")
    assert microcanon_imports(source) == ["microcanon", "microcanon.pbr",
                                          "microcanon.ensemble", "microcanon"]


def test_every_traced_span_resolves_to_a_callable():
    # a rename in src/ would otherwise drop the span from the benchmark silently
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for path, attr, name in tracing.SPANS:
        module, _, cls = path.partition(".")
        owner = importlib.import_module(f"microcanon.{module}")
        if cls:
            owner = getattr(owner, cls, None)
        assert callable(getattr(owner, attr, None)), f"span {name}: microcanon.{path}.{attr}"
